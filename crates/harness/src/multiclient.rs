//! Multi-client streams (paper §6.2: "we have observed similar benefits
//! in multi-user settings, where the shifting workload is generated by
//! multiple concurrent clients").
//!
//! The engine executes one query at a time (as the paper's single-server
//! measurements do), so concurrency manifests as an *interleaving* of
//! the per-client streams: the tuner sees the merged order, in which
//! each client's locally-coherent pattern is shuffled against the
//! others'. This is exactly what stresses COLT's clustering — related
//! queries no longer arrive adjacently.

use colt_engine::Query;
use colt_storage::Prng;

/// Merge per-client query streams into one serialized stream by a
/// random fair interleaving that preserves each client's order.
pub fn interleave(streams: &[Vec<Query>], seed: u64) -> Vec<Query> {
    let mut rng = Prng::new(seed);
    let mut cursors = vec![0usize; streams.len()];
    let total: usize = streams.iter().map(|s| s.len()).sum();
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        // Pick a client proportionally to its remaining queries, so the
        // interleaving stays fair even for unequal stream lengths.
        let remaining: Vec<usize> =
            streams.iter().zip(&cursors).map(|(s, &c)| s.len() - c).collect();
        let left: usize = remaining.iter().sum();
        let mut pick = rng.below(left);
        #[expect(clippy::expect_used, reason = "the loop runs while some client has queries left")]
        let client = remaining
            .iter()
            .position(|&r| {
                if pick < r {
                    true
                } else {
                    pick -= r;
                    false
                }
            })
            .expect("some client has queries left");
        out.push(streams[client][cursors[client]].clone());
        cursors[client] += 1;
    }
    out
}

/// Split one stream into `clients` round-robin sub-streams (the inverse
/// convenience: model `k` clients drawing from the same distribution).
pub fn split_round_robin(stream: &[Query], clients: usize) -> Vec<Vec<Query>> {
    let clients = clients.max(1);
    let mut out = vec![Vec::with_capacity(stream.len() / clients + 1); clients];
    for (i, q) in stream.iter().enumerate() {
        out[i % clients].push(q.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_catalog::{ColRef, TableId};
    use colt_engine::SelPred;

    fn q(tag: i64) -> Query {
        Query::single(TableId(0), vec![SelPred::eq(ColRef::new(TableId(0), 0), tag)])
    }

    fn tag(q: &Query) -> i64 {
        match &q.selections[0].kind {
            colt_engine::PredicateKind::Eq(colt_storage::Value::Int(v)) => *v,
            _ => panic!("not a tag query"),
        }
    }

    #[test]
    fn interleaving_preserves_per_client_order() {
        let a: Vec<Query> = (0..50).map(q).collect();
        let b: Vec<Query> = (100..180).map(q).collect();
        let merged = interleave(&[a, b], 7);
        assert_eq!(merged.len(), 130);
        let a_tags: Vec<i64> = merged.iter().map(tag).filter(|&t| t < 100).collect();
        let b_tags: Vec<i64> = merged.iter().map(tag).filter(|&t| t >= 100).collect();
        assert_eq!(a_tags, (0..50).collect::<Vec<_>>());
        assert_eq!(b_tags, (100..180).collect::<Vec<_>>());
    }

    #[test]
    fn interleaving_actually_mixes() {
        let a: Vec<Query> = (0..50).map(q).collect();
        let b: Vec<Query> = (100..150).map(q).collect();
        let merged = interleave(&[a, b], 7);
        // The first 50 must not be exclusively one client.
        let first_a = merged[..50].iter().map(tag).filter(|&t| t < 100).count();
        assert!(first_a > 5 && first_a < 45, "mix {first_a}/50");
    }

    #[test]
    fn deterministic_for_seed() {
        let a: Vec<Query> = (0..30).map(q).collect();
        let b: Vec<Query> = (100..130).map(q).collect();
        let m1 = interleave(&[a.clone(), b.clone()], 9);
        let m2 = interleave(&[a, b], 9);
        assert_eq!(m1.iter().map(tag).collect::<Vec<_>>(), m2.iter().map(tag).collect::<Vec<_>>());
    }

    #[test]
    fn split_round_robin_partitions() {
        let s: Vec<Query> = (0..10).map(q).collect();
        let parts = split_round_robin(&s, 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), 10);
        assert_eq!(tag(&parts[0][0]), 0);
        assert_eq!(tag(&parts[1][0]), 1);
        assert_eq!(tag(&parts[2][0]), 2);
    }

    #[test]
    fn single_client_passthrough() {
        let s: Vec<Query> = (0..10).map(q).collect();
        let merged = interleave(std::slice::from_ref(&s), 1);
        assert_eq!(merged.iter().map(tag).collect::<Vec<_>>(), (0..10).collect::<Vec<_>>());
    }
}
