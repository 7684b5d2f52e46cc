//! The four named workloads. Names and stream lengths are fixed: later
//! changes cite them, and `README.md` records why each exists.

use colt_catalog::ColRef;
use colt_engine::{JoinPred, Query};
use colt_storage::Prng;
use colt_workload::presets::budget_fraction;
use colt_workload::{
    fixed, Preset, QueryDistribution, QueryTemplate, SelSpec, TemplateSelection, TpchData,
};

/// Data-set scale of every workload, relative to the paper's Table 1:
/// the smallest data set the generator makes (below it the tables sit
/// on their floors — `lineitem` 6 000 rows, `orders` 1 500). A round
/// then takes 25–130 ms, so every query is repeated some hundred times
/// in a run, which is what the estimator needs on a shared box (see
/// `README.md`, "Bounds and noise").
pub const SCALE: f64 = 0.005;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Independent query streams an untraced run draws from its seed.
    /// What a stream contains (how many multi-table joins) and what the
    /// tuner does with it (which indices fit, when they are built)
    /// differs from stream to stream: a single stream's throughput
    /// varies by ±13 % (sd) on `stable`, ±8 % on `shifting`, ±6 % on
    /// `churn` and ±4 % on `joins`. Every metric is therefore measured
    /// per stream and averaged over this many. More streams mean fewer
    /// repeats of each in a run; the counts leave every query 70 or
    /// more (a `churn` or `joins` round takes four times as long as a
    /// `stable` or `shifting` round).
    pub streams: usize,
    /// Whether `BENCHMARK.json` lists it, i.e. whether the benchmark
    /// driver runs it. `stable` is run by the full protocol only: two
    /// dozen hash joins are two thirds of a stream's wall time and a
    /// stream draws 23 ± 5 of them, so it would take sixteen streams to
    /// bring the seed-to-seed spread where the other workloads' is, and
    /// a run has no time to repeat sixteen streams often enough.
    pub in_contract: bool,
}

/// The workloads in the fixed order every pass runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "stable",
        streams: 8,
        in_contract: false,
    },
    Workload {
        name: "shifting",
        streams: 8,
        in_contract: true,
    },
    Workload {
        name: "churn",
        streams: 2,
        in_contract: true,
    },
    Workload {
        name: "joins",
        streams: 3,
        in_contract: true,
    },
];

/// Streams of a traced run. Its numbers carry no bound, and it runs
/// every stream in three modes.
pub const STREAMS_TRACED: usize = 2;

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The `k`-th query stream of a run. Stream 0 uses the run's seed
    /// itself, so it is the stream the figure binaries would generate;
    /// stream `k` is seeded with the `k`-th output of a generator seeded
    /// with it. (Not `seed + k·c`: the generator's state advances by a
    /// constant per draw, so such seeds would replay one sequence a few
    /// draws apart.)
    pub fn stream(&self, data: &TpchData, seed: u64, k: usize) -> Preset {
        let mut seeds = Prng::new(seed);
        let seed = (0..k).map(|_| seeds.next_u64()).last().unwrap_or(seed);
        match self.name {
            "stable" => colt_workload::stable(data, seed),
            "shifting" => colt_workload::shifting(data, seed),
            "churn" => churn(data, seed),
            _ => joins(data, seed),
        }
    }
}

fn sel(col: ColRef, spec: SelSpec) -> TemplateSelection {
    TemplateSelection { col, spec }
}

/// A stream with the budget set to `1/budget_denominator` of the total
/// size of its relevant indices (the presets use a quarter).
fn preset(
    queries: Vec<Query>,
    mut relevant: Vec<ColRef>,
    budget_denominator: u64,
    data: &TpchData,
) -> Preset {
    relevant.sort_unstable();
    relevant.dedup();
    let budget_pages = budget_fraction(&data.db, &relevant, budget_denominator);
    Preset {
        queries,
        relevant,
        budget_pages,
    }
}

const CHURN_PHASES: usize = 16;
const CHURN_POOL: usize = 24;
const CHURN_PHASE_LEN: usize = 120;
const CHURN_FADE_LEN: usize = 30;

/// `churn`: 16 short phases rotating over the four schema instances.
/// Phase `p` restricts three `lineitem` and two `orders` columns of
/// instance `p % 4` with selective ranges, and draws its queries *with
/// replacement from a pool of 24 concrete statements*, so statements
/// repeat (the what-if memo is hot) while the useful index set keeps
/// moving (the tuner keeps building and dropping). Consecutive pools
/// cross-fade linearly over 30 queries: 16·120 + 15·30 = 2370 queries.
pub fn churn(data: &TpchData, seed: u64) -> Preset {
    const LI: [&str; 8] = [
        "l_shipdate",
        "l_partkey",
        "l_extendedprice",
        "l_suppkey",
        "l_receiptdate",
        "l_commitdate",
        "l_quantity",
        "l_discount",
    ];
    const ORD: [&str; 4] = ["o_orderdate", "o_totalprice", "o_custkey", "o_clerk"];
    // 0.05–0.5 % of the rows, the presets' "selective" range.
    let narrow = SelSpec::RangeFrac {
        lo_frac: 0.0005,
        hi_frac: 0.005,
    };

    let mut rng = Prng::new(seed);
    let mut relevant = Vec::new();
    let pools: Vec<Vec<Query>> = (0..CHURN_PHASES)
        .map(|p| {
            let inst = &data.instances[p % data.instances.len()];
            let mut dist = QueryDistribution::new();
            for (k, weight) in [1.5, 1.2, 0.9].into_iter().enumerate() {
                let col = inst.col(&data.db, "lineitem", LI[(3 * p + k) % LI.len()]);
                dist.push(
                    weight,
                    QueryTemplate::single(col.table, vec![sel(col, narrow.clone())]),
                );
            }
            for k in 0..2 {
                let col = inst.col(&data.db, "orders", ORD[(p + k) % ORD.len()]);
                dist.push(
                    0.8,
                    QueryTemplate::single(col.table, vec![sel(col, narrow.clone())]),
                );
            }
            relevant.extend(dist.relevant_columns());
            fixed(&dist, CHURN_POOL, &data.db, &mut rng)
        })
        .collect();

    let mut queries =
        Vec::with_capacity(CHURN_PHASES * CHURN_PHASE_LEN + (CHURN_PHASES - 1) * CHURN_FADE_LEN);
    for (p, pool) in pools.iter().enumerate() {
        for _ in 0..CHURN_PHASE_LEN {
            queries.push(pool[rng.below(CHURN_POOL)].clone());
        }
        if let Some(next) = pools.get(p + 1) {
            for k in 0..CHURN_FADE_LEN {
                let p_next = (k + 1) as f64 / (CHURN_FADE_LEN + 1) as f64;
                let from = if rng.chance(p_next) { next } else { pool };
                queries.push(from[rng.below(CHURN_POOL)].clone());
            }
        }
    }
    preset(queries, relevant, 8, data)
}

/// `joins`: 200 multi-table queries on instance 0 from four equally
/// weighted templates whose predicates are too wide for any index to
/// pay off, so the tuner never probes or builds and all the time goes
/// to hash joins and the 3–4-table join-order search.
pub fn joins(data: &TpchData, seed: u64) -> Preset {
    let db = &data.db;
    let i = &data.instances[0];
    let c = |t: &str, col: &str| i.col(db, t, col);
    let (li, ord, cust, part, sup) = (
        i.table("lineitem"),
        i.table("orders"),
        i.table("customer"),
        i.table("part"),
        i.table("supplier"),
    );
    // 2–10 % of the rows: above the index-scan break-even.
    let wide = SelSpec::RangeFrac {
        lo_frac: 0.02,
        hi_frac: 0.10,
    };
    let li_ord = JoinPred::new(c("lineitem", "l_orderkey"), c("orders", "o_orderkey"));
    let ord_cust = JoinPred::new(c("orders", "o_custkey"), c("customer", "c_custkey"));
    let li_part = JoinPred::new(c("lineitem", "l_partkey"), c("part", "p_partkey"));
    let li_sup = JoinPred::new(c("lineitem", "l_suppkey"), c("supplier", "s_suppkey"));

    let dist = QueryDistribution::new()
        .with(
            1.0,
            QueryTemplate {
                tables: vec![li, ord],
                joins: vec![li_ord],
                selections: vec![
                    sel(c("lineitem", "l_shipdate"), wide.clone()),
                    sel(c("orders", "o_orderdate"), wide.clone()),
                ],
            },
        )
        .with(
            1.0,
            QueryTemplate {
                tables: vec![li, ord, cust],
                joins: vec![li_ord, ord_cust],
                selections: vec![
                    sel(c("orders", "o_orderdate"), wide.clone()),
                    sel(c("customer", "c_mktsegment"), SelSpec::Eq),
                ],
            },
        )
        .with(
            1.0,
            QueryTemplate {
                tables: vec![li, part, sup],
                joins: vec![li_part, li_sup],
                selections: vec![
                    sel(c("lineitem", "l_shipdate"), wide.clone()),
                    sel(c("part", "p_mfgr"), SelSpec::Eq),
                ],
            },
        )
        .with(
            1.0,
            QueryTemplate {
                tables: vec![li, ord, cust, part],
                joins: vec![li_ord, ord_cust, li_part],
                selections: vec![
                    sel(c("lineitem", "l_receiptdate"), wide),
                    sel(c("customer", "c_mktsegment"), SelSpec::Eq),
                    sel(c("part", "p_mfgr"), SelSpec::Eq),
                ],
            },
        );
    let mut rng = Prng::new(seed);
    let queries = fixed(&dist, 200, db, &mut rng);
    preset(queries, dist.relevant_columns(), 4, data)
}

/// Share of a stream's queries that repeat an earlier statement.
pub fn repeat_ratio(queries: &[Query]) -> f64 {
    let distinct: std::collections::BTreeSet<&Query> = queries.iter().collect();
    (queries.len() - distinct.len()) as f64 / queries.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> TpchData {
        colt_workload::generate(0.004, 11)
    }

    fn check(generator: fn(&TpchData, u64) -> Preset, len: usize) -> Preset {
        let data = data();
        let a = generator(&data, 1);
        assert_eq!(a.queries.len(), len);
        for q in &a.queries {
            q.validate().expect("well-formed query");
        }
        assert!(a.budget_pages > 0);
        assert!(a
            .queries
            .iter()
            .flat_map(Query::candidate_columns)
            .all(|c| a.relevant.contains(&c)));
        let again = generator(&data, 1);
        assert_eq!(format!("{:?}", a.queries), format!("{:?}", again.queries));
        assert_eq!(
            (a.budget_pages, &a.relevant),
            (again.budget_pages, &again.relevant)
        );
        assert_ne!(a.queries, generator(&data, 2).queries);
        a
    }

    #[test]
    fn churn_is_2370_repeating_single_table_queries() {
        let p = check(churn, 2370);
        assert!(p
            .queries
            .iter()
            .all(|q| q.tables.len() == 1 && q.joins.is_empty()));
        assert!(
            repeat_ratio(&p.queries) > 0.5,
            "repeat ratio {}",
            repeat_ratio(&p.queries)
        );
        // All four instances take part.
        let tables: std::collections::BTreeSet<_> = p.queries.iter().map(|q| q.tables[0]).collect();
        assert_eq!(tables.len(), 8);
    }

    #[test]
    fn joins_is_200_multi_table_queries() {
        let p = check(joins, 200);
        assert!(p
            .queries
            .iter()
            .all(|q| q.tables.len() >= 2 && q.joins.len() == q.tables.len() - 1));
        assert!(p.queries.iter().any(|q| q.tables.len() == 4));
        assert!(repeat_ratio(&p.queries) < 0.1);
    }

    #[test]
    fn streams_of_one_run_differ_and_stream_0_is_the_preset() {
        let data = data();
        let w = Workload::by_name("stable").expect("known workload");
        assert_eq!(
            w.stream(&data, 42, 0).queries,
            colt_workload::stable(&data, 42).queries
        );
        // Independent streams, not one sequence replayed a few draws
        // apart: they share next to no statement.
        let (a, b) = (
            w.stream(&data, 42, 0).queries,
            w.stream(&data, 42, 1).queries,
        );
        assert!(a.iter().filter(|q| b.contains(q)).count() < a.len() / 10);
        assert!(Workload::by_name("nope").is_none());
        assert_eq!(repeat_ratio(&[]), 0.0);
    }
}
