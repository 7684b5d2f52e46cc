//! Workload assembly: fixed streams, phased (shifting) streams with
//! gradual transitions, and burst-noise injection — the three workload
//! shapes of the paper's evaluation (§6).

use crate::distribution::QueryDistribution;
use colt_catalog::Database;
use colt_engine::Query;
use colt_storage::Prng;

/// `n` queries from one distribution.
pub fn fixed(dist: &QueryDistribution, n: usize, db: &Database, rng: &mut Prng) -> Vec<Query> {
    (0..n).map(|_| dist.sample(db, rng)).collect()
}

/// A shifting workload: each phase contributes `phase_len` queries from
/// its own distribution, and consecutive phases are bridged by
/// `transition_len` extra queries during which the mix shifts linearly
/// from the old to the new distribution.
///
/// With the paper's parameters (4 phases × 300, transitions of 50) this
/// yields `4·300 + 3·50 = 1350` queries.
pub fn phased(
    dists: &[QueryDistribution],
    phase_len: usize,
    transition_len: usize,
    db: &Database,
    rng: &mut Prng,
) -> Vec<Query> {
    assert!(!dists.is_empty(), "need at least one phase");
    let mut out = Vec::with_capacity(dists.len() * phase_len + dists.len().saturating_sub(1) * transition_len);
    for (i, dist) in dists.iter().enumerate() {
        out.extend(fixed(dist, phase_len, db, rng));
        if let Some(next) = dists.get(i + 1) {
            for k in 0..transition_len {
                let p_next = (k + 1) as f64 / (transition_len + 1) as f64;
                let pick = if rng.chance(p_next) { next } else { dist };
                out.push(pick.sample(db, rng));
            }
        }
    }
    out
}

/// Positions (query indices) of each phase boundary of a [`phased`]
/// workload, for plotting and asserting.
pub fn phase_boundaries(num_phases: usize, phase_len: usize, transition_len: usize) -> Vec<usize> {
    (1..num_phases).map(|i| i * phase_len + (i - 1) * transition_len).collect()
}

/// Plan for a noisy workload (§6.2, "Effect of Noise").
#[derive(Debug, Clone)]
pub struct NoisePlan {
    /// Total number of queries.
    pub total: usize,
    /// Warm-up queries drawn purely from the base distribution.
    pub warmup: usize,
    /// Length of each noise burst.
    pub burst_len: usize,
    /// Start positions of the bursts.
    pub burst_starts: Vec<usize>,
}

impl NoisePlan {
    /// Build the paper's plan: at least 500 queries, at least two
    /// injections, noise = 20% of the workload, 100 warm-up queries.
    ///
    /// # Examples
    ///
    /// ```
    /// use colt_workload::NoisePlan;
    ///
    /// let plan = NoisePlan::paper(40);
    /// assert!(plan.total >= 500);
    /// assert!((plan.noise_fraction() - 0.2).abs() < 1e-9);
    /// assert!(!plan.is_noise(0)); // warm-up is pure base distribution
    /// ```
    pub fn paper(burst_len: usize) -> Self {
        assert!(burst_len > 0);
        let mut total = 500usize.max(10 * burst_len);
        // Number of bursts so that noise is 20% of the total.
        let bursts = (((0.2 * total as f64) / burst_len as f64).ceil().max(2.0)) as usize;
        total = 5 * bursts * burst_len; // make the 20% exact
        let warmup = 100;
        // Spread bursts evenly through the post-warm-up region.
        let usable = total - warmup;
        let gap = (usable - bursts * burst_len) / (bursts + 1);
        let burst_starts: Vec<usize> =
            (0..bursts).map(|i| warmup + gap + i * (burst_len + gap)).collect();
        NoisePlan { total, warmup, burst_len, burst_starts }
    }

    /// Is query `i` inside a noise burst?
    pub fn is_noise(&self, i: usize) -> bool {
        self.burst_starts.iter().any(|&s| (s..s + self.burst_len).contains(&i))
    }

    /// Fraction of the workload that is noise.
    pub fn noise_fraction(&self) -> f64 {
        (self.burst_starts.len() * self.burst_len) as f64 / self.total as f64
    }
}

/// Generate a noisy workload: base distribution `q1` with bursts of
/// `q2` at the positions given by `plan`.
pub fn with_noise(
    q1: &QueryDistribution,
    q2: &QueryDistribution,
    plan: &NoisePlan,
    db: &Database,
    rng: &mut Prng,
) -> Vec<Query> {
    (0..plan.total)
        .map(|i| if plan.is_noise(i) { q2.sample(db, rng) } else { q1.sample(db, rng) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{QueryTemplate, SelSpec, TemplateSelection};
    use colt_catalog::{ColRef, Column, TableSchema};
    use colt_storage::{row_from, Value, ValueType};

    fn setup() -> (Database, QueryDistribution, QueryDistribution) {
        let mut db = Database::new();
        let t = db.add_table(TableSchema::new(
            "t",
            vec![Column::new("a", ValueType::Int), Column::new("b", ValueType::Int)],
        ));
        db.insert_rows(t, (0..10_000i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i)]))).unwrap();
        db.analyze_all();
        let d = |c: u32| {
            QueryDistribution::new().with(
                1.0,
                QueryTemplate::single(
                    t,
                    vec![TemplateSelection { col: ColRef::new(t, c), spec: SelSpec::Eq }],
                ),
            )
        };
        (db, d(0), d(1))
    }

    #[test]
    fn fixed_length() {
        let (db, d1, _) = setup();
        let mut rng = Prng::new(1);
        assert_eq!(fixed(&d1, 57, &db, &mut rng).len(), 57);
    }

    #[test]
    fn phased_total_matches_paper() {
        let (db, d1, d2) = setup();
        let dists = vec![d1.clone(), d2.clone(), d1, d2];
        let mut rng = Prng::new(1);
        let w = phased(&dists, 300, 50, &db, &mut rng);
        assert_eq!(w.len(), 1350);
        assert_eq!(phase_boundaries(4, 300, 50), vec![300, 650, 1000]);
    }

    #[test]
    fn transition_mixes_gradually() {
        let (db, d1, d2) = setup();
        let mut rng = Prng::new(2);
        let w = phased(&[d1, d2], 300, 50, &db, &mut rng);
        assert_eq!(w.len(), 650);
        // Pure phase 1: all queries on column 0.
        assert!(w[..300].iter().all(|q| q.selections[0].col.column == 0));
        // Pure phase 2 region: all on column 1.
        assert!(w[350..].iter().all(|q| q.selections[0].col.column == 1));
        // Transition region contains both.
        let trans = &w[300..350];
        assert!(trans.iter().any(|q| q.selections[0].col.column == 0));
        assert!(trans.iter().any(|q| q.selections[0].col.column == 1));
    }

    #[test]
    fn noise_plan_respects_paper_constraints() {
        for burst in [20, 30, 40, 50, 60, 70, 80, 90] {
            let p = NoisePlan::paper(burst);
            assert!(p.total >= 500, "burst {burst}: total {}", p.total);
            assert!(p.burst_starts.len() >= 2);
            assert!((p.noise_fraction() - 0.2).abs() < 1e-9, "burst {burst}");
            assert!(p.burst_starts[0] >= p.warmup, "first burst after warm-up");
            let end = p.burst_starts.last().unwrap() + p.burst_len;
            assert!(end <= p.total);
            // Bursts must not overlap.
            for w in p.burst_starts.windows(2) {
                assert!(w[0] + p.burst_len <= w[1]);
            }
        }
    }

    #[test]
    fn noise_injection_matches_plan() {
        let (db, d1, d2) = setup();
        let plan = NoisePlan::paper(40);
        let mut rng = Prng::new(3);
        let w = with_noise(&d1, &d2, &plan, &db, &mut rng);
        assert_eq!(w.len(), plan.total);
        for (i, q) in w.iter().enumerate() {
            let expected = if plan.is_noise(i) { 1 } else { 0 };
            assert_eq!(q.selections[0].col.column, expected, "query {i}");
        }
    }
}
