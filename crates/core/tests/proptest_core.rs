//! Randomized property tests for COLT's decision machinery: the
//! knapsack solver (`colt_engine::knapsack`, posed as the organizer
//! poses it) against brute force, hot-set selection axioms,
//! gain-statistics algebra, and full-tuner safety invariants. Cases
//! come from the in-repo seeded PRNG (`colt_storage::Prng`), so
//! every run checks the same inputs.
#![allow(clippy::unwrap_used, reason = "test helpers may unwrap and panic")]

use colt_core::{hotset, GainStats};
use colt_engine::knapsack::{self, Item};
use colt_storage::Prng;

const CASES: u64 = 64;

/// The 0/1 knapsack over `items`, one single-option group per item as
/// the organizer poses it: the chosen positions, ascending.
fn solve(items: &[Item], capacity: u64) -> Vec<usize> {
    let groups: Vec<[Item; 1]> = items.iter().map(|&it| [it]).collect();
    let picks = knapsack::solve(&groups, capacity).picks;
    (0..items.len()).filter(|&i| picks[i].is_some()).collect()
}

/// Total value of a selection.
fn total_value(items: &[Item], chosen: &[usize]) -> f64 {
    chosen.iter().map(|&i| items[i].value).sum()
}

/// Total size of a selection.
fn total_size(items: &[Item], chosen: &[usize]) -> u64 {
    chosen.iter().map(|&i| items[i].size).sum()
}

fn brute_force_value(items: &[Item], capacity: u64) -> f64 {
    let n = items.len();
    let mut best = 0.0f64;
    for mask in 0u32..(1 << n) {
        let mut size = 0u64;
        let mut value = 0.0;
        for (i, it) in items.iter().enumerate() {
            if mask & (1 << i) != 0 {
                size += it.size;
                value += it.value;
            }
        }
        if size <= capacity && value > best {
            best = value;
        }
    }
    best
}

/// The knapsack DP is exact on arbitrary small instances.
#[test]
fn knapsack_exact() {
    let mut rng = Prng::new(0xC02E_0001);
    for case in 0..CASES {
        let items: Vec<Item> = (0..rng.below(12))
            .map(|_| Item { size: 1 + rng.below_u64(59), value: rng.f64_range(0.0, 100.0) })
            .collect();
        let capacity = rng.below_u64(150);
        let chosen = solve(&items, capacity);
        assert!(total_size(&items, &chosen) <= capacity, "case {case}");
        let got = total_value(&items, &chosen);
        let want = brute_force_value(&items, capacity);
        assert!((got - want).abs() < 1e-9, "case {case}: got {got}, want {want}");
        // No duplicates, indices in range.
        let mut sorted = chosen.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), chosen.len(), "case {case}");
        assert!(chosen.iter().all(|&i| i < items.len()), "case {case}");
    }
}

/// Large-capacity instances with few items are solved *exactly*: the
/// DP runs over the reachable sizes, with nothing rounded.
#[test]
fn knapsack_large_capacity_exact_for_small_pools() {
    let mut rng = Prng::new(0xC02E_0002);
    for case in 0..CASES {
        let items: Vec<Item> = (0..1 + rng.below(11))
            .map(|_| Item {
                size: 1_000 + rng.below_u64(199_000),
                value: rng.f64_range(1.0, 100.0),
            })
            .collect();
        let cap_frac = rng.f64_range(0.2, 0.9);
        let total: u64 = items.iter().map(|i| i.size).sum();
        let capacity = (total as f64 * cap_frac) as u64;
        let chosen = solve(&items, capacity);
        assert!(total_size(&items, &chosen) <= capacity, "case {case}");
        let got = total_value(&items, &chosen);
        let want = brute_force_value(&items, capacity);
        assert!((got - want).abs() < 1e-9, "case {case}: got {got}, want {want}");
    }
}

/// Hot-set selection: returns a subset of the positive candidates,
/// respects the cap, and is exactly the top-k by benefit. A reference
/// that ranks by counting checks membership: a positive candidate is
/// hot when fewer than `max_hot` positive candidates outrank it (a
/// higher benefit, or an equal one on a higher column). A third of the
/// cases draw benefits from a handful of values, so ties fall at the cut.
#[test]
fn hotset_is_topk() {
    use colt_catalog::{ColRef, TableId};
    const FEW: [f64; 7] = [-1.0, 0.0, 0.5, 3.0, 20.0, 75.0, 100.0];
    let mut rng = Prng::new(0xC02E_0003);
    for case in 0..CASES {
        let tied = case % 3 == 0;
        let benefits: Vec<f64> = (0..rng.below(40))
            .map(|_| if tied { FEW[rng.below(FEW.len())] } else { rng.f64_range(-10.0, 100.0) })
            .collect();
        let max_hot = rng.below(15);
        let cands: Vec<(ColRef, f64)> = benefits
            .iter()
            .enumerate()
            .map(|(i, &b)| (ColRef::new(TableId(0), i as u32), b))
            .collect();
        let hot = hotset::select_hot(&cands, max_hot);
        let positive: Vec<_> = cands.iter().filter(|(_, b)| *b > 0.0).collect();
        let outranked_by = |c: ColRef, b: f64| {
            positive.iter().filter(|(c2, b2)| *b2 > b || (*b2 == b && *c2 > c)).count()
        };
        let want: Vec<ColRef> =
            positive.iter().filter(|(c, b)| outranked_by(*c, *b) < max_hot).map(|(c, _)| *c).collect();
        assert_eq!(hot, want, "case {case}");
        assert!(hot.len() <= max_hot.min(positive.len()), "case {case}");
        // Every hot member has benefit >= every positive non-member.
        let min_hot = hot
            .iter()
            .map(|c| cands.iter().find(|(cc, _)| cc == c).unwrap().1)
            .fold(f64::INFINITY, f64::min);
        for (c, b) in &positive {
            if !hot.contains(c) && !hot.is_empty() {
                assert!(*b <= min_hot + 1e-9, "case {case}: excluded {b} > min hot {min_hot}");
            }
        }
        // Cap binds exactly when there are enough positives.
        if positive.len() >= max_hot {
            assert_eq!(hot.len(), max_hot, "case {case}");
        }
    }
}

/// Gain statistics match naive mean/variance and keep the interval
/// ordered around the mean.
#[test]
fn gain_stats_algebra() {
    let mut rng = Prng::new(0xC02E_0004);
    for case in 0..CASES {
        let samples: Vec<f64> =
            (0..2 + rng.below(48)).map(|_| rng.f64_range(0.0, 1000.0)).collect();
        let mut s = GainStats::new(0);
        for &x in &samples {
            s.add(x, 0);
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((s.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0), "case {case}");
        assert!((s.variance() - var).abs() < 1e-6 * var.abs().max(1.0), "case {case}");
        let z = 1.645;
        assert!(s.low(z) <= s.mean() + 1e-9, "case {case}");
        assert!(s.high(z) >= s.mean() - 1e-9, "case {case}");
        assert!(s.low(z) >= 0.0, "case {case}");
    }
}

mod tuner_safety {
    use colt_catalog::{ColRef, Column, Database, PhysicalConfig, TableId, TableSchema};
    use colt_core::{ColtConfig, ColtTuner};
    use colt_engine::{Eqo, Query, SelPred};
    use colt_obs::json::Json;
    use colt_obs::DecisionKind;
    use colt_storage::{row_from, Prng, Value, ValueType};

    fn build_db() -> (Database, TableId, TableId) {
        let mut db = Database::new();
        let a = db.add_table(TableSchema::new(
            "a",
            vec![
                Column::new("x", ValueType::Int),
                Column::new("y", ValueType::Int),
                Column::new("z", ValueType::Int),
            ],
        ));
        let b = db.add_table(TableSchema::new(
            "b",
            vec![Column::new("u", ValueType::Int), Column::new("v", ValueType::Int)],
        ));
        db.insert_rows(
            a,
            (0..8_000i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 40), Value::Int(i % 3)])),
        ).unwrap();
        db.insert_rows(b, (0..500i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 7)]))).unwrap();
        db.analyze_all();
        (db, a, b)
    }

    /// Safety under arbitrary query streams: the tuner never panics,
    /// the what-if budget is respected every epoch and every probe the
    /// profiler issues is one the optimizer answers, every knapsack
    /// packs within the storage budget exactly, the ledger's account of
    /// each boundary agrees with the trace's, and after every boundary the
    /// *built* trees of the on-line indices fit the budget too (no
    /// slack: `bulk_load` and `IndexEstimate::for_table` fill pages by
    /// the same rule, so a fresh tree has its estimated size — DESIGN
    /// §8).
    #[test]
    fn tuner_invariants_hold_on_random_streams() {
        let mut rng = Prng::new(0xC02E_0006);
        for case in 0..48u64 {
            let choices: Vec<(u8, i64)> = (0..50 + rng.below(150))
                .map(|_| (rng.below(6) as u8, rng.int_range(0, 7999)))
                .collect();
            let budget = 50 + rng.below_u64(1_950);
            let (db, a, b) = build_db();
            let cfg = ColtConfig { storage_budget_pages: budget, ..Default::default() };
            let max_wi = cfg.max_whatif_per_epoch;
            let mut physical = PhysicalConfig::new();
            let mut tuner = ColtTuner::new(cfg);
            let mut eqo = Eqo::new(&db);
            colt_obs::install(colt_obs::Recorder::new(colt_obs::Level::Summary));
            let mut boundaries = Vec::new();

            for (kind, x) in choices {
                let q = match kind {
                    0 => Query::single(a, vec![SelPred::eq(ColRef::new(a, 0), x)]),
                    1 => Query::single(a, vec![SelPred::eq(ColRef::new(a, 1), x % 40)]),
                    2 => Query::single(a, vec![SelPred::between(ColRef::new(a, 0), x, x + 50)]),
                    3 => Query::single(b, vec![SelPred::eq(ColRef::new(b, 0), x % 500)]),
                    4 => Query::single(a, vec![]),
                    _ => Query::join(
                        vec![a, b],
                        vec![colt_engine::JoinPred::new(ColRef::new(a, 1), ColRef::new(b, 1))],
                        vec![SelPred::eq(ColRef::new(b, 0), x % 500)],
                    ),
                };
                let plan = eqo.optimize(&q, &physical);
                let step = tuner.on_query(&db, &mut physical, &mut eqo, &q, &plan);
                // The built footprint, not only the packed one: after
                // every boundary the real trees of the on-line indices
                // fit the budget.
                if step.epoch_closed {
                    assert!(
                        physical.online_pages() <= budget,
                        "case {case} epoch {}: built {} pages vs budget {budget}",
                        tuner.epoch(),
                        physical.online_pages()
                    );
                    boundaries.push(step);
                }
            }
            // The step is what a driver charges, the trace what the
            // exhibits count: at every boundary they name the same
            // changes, and their build charges sum alike.
            assert_eq!(boundaries.len(), tuner.trace().epochs.len(), "case {case}");
            for (step, e) in boundaries.iter().zip(&tuner.trace().epochs) {
                assert_eq!((&step.created, &step.dropped), (&e.created, &e.dropped), "case {case} epoch {}", e.epoch);
            }
            let charged: f64 = boundaries.iter().map(|s| db.cost.millis_of(&s.build_io)).sum();
            let traced: f64 = tuner.trace().epochs.iter().map(|e| e.build_millis).sum();
            assert_eq!(charged, traced, "case {case}");
            for e in &tuner.trace().epochs {
                assert!(e.whatif_used <= e.whatif_limit, "case {case}");
                assert!(e.whatif_limit <= max_wi, "case {case}");
                assert!(e.next_budget <= max_wi, "case {case}");
                assert!(e.ratio >= 1.0 - 1e-9, "case {case}");
            }
            // Flush the trailing partial epoch into the series, as the
            // harness does.
            colt_obs::epoch_mark(tuner.epoch());
            let obs = colt_obs::take().expect("recorder installed above").into_snapshot();
            // The knapsack itself has no slack: at every boundary the
            // pages it packs (real tree sizes for materialized indices,
            // `index_estimate` for the ones to build) fit the budget.
            assert_eq!(obs.ledger.of_kind(DecisionKind::Knapsack).count(), tuner.trace().epochs.len());
            for k in obs.ledger.of_kind(DecisionKind::Knapsack) {
                assert_eq!(k.get("budget_pages").and_then(Json::as_u64), Some(budget), "case {case}");
                let spent = k.get("spent_pages").and_then(Json::as_u64);
                assert!(spent.is_some_and(|spent| spent <= budget), "case {case}: {k:?}");
            }
            // A boundary is recorded twice — the trace's `EpochRecord`
            // and the ledger's `budget_change` / `index_create` /
            // `index_drop` — and the two accounts must agree.
            let budget_changes: Vec<_> = obs.ledger.of_kind(DecisionKind::BudgetChange).collect();
            assert_eq!(budget_changes.len(), tuner.trace().epochs.len(), "case {case}");
            for (e, b) in tuner.trace().epochs.iter().zip(budget_changes) {
                assert_eq!(b.epoch, e.epoch, "case {case}");
                assert_eq!(b.get("whatif_used").and_then(Json::as_u64), Some(e.whatif_used), "case {case}: {b:?}");
                assert_eq!(b.get("whatif_limit").and_then(Json::as_u64), Some(e.whatif_limit), "case {case}: {b:?}");
                assert_eq!(b.get("next_budget").and_then(Json::as_u64), Some(e.next_budget), "case {case}: {b:?}");
                assert_eq!(b.get("ratio").and_then(Json::as_f64), Some(e.ratio), "case {case}: {b:?}");
                let reorganized = |kind| -> Vec<String> {
                    obs.ledger
                        .of_kind(kind)
                        .filter(|r| r.epoch == e.epoch && r.get("via").and_then(Json::as_str) == Some("reorganize"))
                        .map(|r| r.get("index").and_then(Json::as_str).unwrap_or("?").to_string())
                        .collect()
                };
                let names = |cols: &[ColRef]| cols.iter().map(ToString::to_string).collect::<Vec<_>>();
                assert_eq!(reorganized(DecisionKind::IndexCreate), names(&e.created), "case {case}");
                assert_eq!(reorganized(DecisionKind::IndexDrop), names(&e.dropped), "case {case}");
            }
            // Every probe the profiler issued is a what-if call the
            // optimizer answered — in every epoch, so in total.
            let whatif = |counter: &dyn Fn(&str) -> u64| {
                let issued = counter("tuner.whatif.issued");
                assert_eq!(issued, counter("engine.whatif_calls"), "case {case}");
                issued
            };
            let per_epoch: u64 = obs.series.records().map(|p| whatif(&|k| p.counter(k))).sum();
            assert_eq!(per_epoch, whatif(&|k| obs.counter(k)), "case {case}");
            assert_eq!(per_epoch, eqo.counters().whatif_calls, "case {case}");
        }
    }
}
