//! Cross-crate integration: the engine must return identical answers
//! through every access path on the real TPC-H data, the optimizer's
//! estimates must be calibrated against executed costs, and OFFLINE's
//! structural optimum must match the literal exhaustive search.

use colt_repro::catalog::PhysicalConfig;
use colt_repro::engine::{Collect, Eqo, Executor, IndexSetView, Optimizer, Query, SelPred};
use colt_repro::storage::Value;
use colt_repro::storage::Prng;
use colt_repro::workload::{generate, presets, stable_distribution};

/// Every workload query answers identically with and without indexes.
#[test]
fn all_access_paths_agree_on_tpch() {
    let data = generate(0.004, 3);
    let db = &data.db;
    let dist = stable_distribution(&data, 0);
    let mut rng = Prng::new(5);

    // Index every column the distribution restricts.
    let mut indexed = PhysicalConfig::new();
    for col in dist.relevant_columns() {
        indexed.create_index(db, col);
    }
    let bare = PhysicalConfig::new();
    let opt = Optimizer::new(db);

    let mut index_plans = 0;
    for _ in 0..60 {
        let q = dist.sample(db, &mut rng);
        let plan_bare = opt.optimize(&q, IndexSetView::real(&bare));
        let plan_idx = opt.optimize(&q, IndexSetView::real(&indexed));
        if !plan_idx.used_indices().is_empty() {
            index_plans += 1;
        }
        let mut rows_bare = Executor::new(db, &bare)
            .execute(&q, &plan_bare, Collect::Rows)
            .expect("plan matches query")
            .rows;
        let mut rows_idx = Executor::new(db, &indexed)
            .execute(&q, &plan_idx, Collect::Rows)
            .expect("plan matches query")
            .rows;
        rows_bare.sort();
        rows_idx.sort();
        assert_eq!(rows_bare, rows_idx, "query {q}");
    }
    assert!(index_plans > 20, "indexes must actually be chosen ({index_plans}/60)");
}

/// Optimizer estimates are calibrated: cheaper-estimated plans must not
/// be drastically slower in actual execution, across the workload.
#[test]
fn estimates_track_actual_costs() {
    let data = generate(0.004, 3);
    let db = &data.db;
    let dist = stable_distribution(&data, 0);
    let mut rng = Prng::new(6);
    let cfg = PhysicalConfig::new();
    let opt = Optimizer::new(db);

    let mut est_total = 0.0;
    let mut act_total = 0.0;
    for _ in 0..40 {
        let q = dist.sample(db, &mut rng);
        let plan = opt.optimize(&q, IndexSetView::real(&cfg));
        let res =
            Executor::new(db, &cfg).execute(&q, &plan, Collect::CountOnly).expect("plan matches query");
        est_total += plan.est_cost();
        act_total += db.cost.cost_of(res.io());
    }
    let ratio = est_total / act_total;
    assert!(
        (0.3..3.0).contains(&ratio),
        "aggregate estimate/actual ratio {ratio:.2} out of calibration"
    );
}

/// OFFLINE's grouped-knapsack optimum equals literal exhaustive search
/// on a real (small) workload.
#[test]
fn offline_matches_exhaustive_on_real_workload() {
    let data = generate(0.004, 3);
    let preset = presets::stable(&data, 3);
    let workload = &preset.queries[..120];
    for budget in [preset.budget_pages / 2, preset.budget_pages] {
        let fast = colt_repro::offline::select(&data.db, workload, budget);
        let brute = colt_repro::offline::select_brute_force(&data.db, workload, budget);
        assert!(
            (fast.total_benefit - brute.total_benefit).abs() < 1e-6,
            "budget {budget}: {} vs {}",
            fast.total_benefit,
            brute.total_benefit
        );
        assert!(fast.total_pages <= budget);
    }
}

/// The reverse what-if of a materialized index agrees with the forward
/// what-if taken before materialization, on real workload queries.
#[test]
fn forward_and_reverse_whatif_agree() {
    let data = generate(0.004, 3);
    let db = &data.db;
    let inst = &data.instances[0];
    // Probe the unique key column: its equality gain is unambiguous at
    // any scale (fk columns can tip past the break-even at toy scales).
    let col = inst.col(db, "orders", "o_orderkey");
    let q = Query::single(
        inst.table("orders"),
        vec![SelPred::eq(col, Value::Int(17))],
    );
    let mut eqo = Eqo::new(db);
    let mut cfg = PhysicalConfig::new();
    let forward = eqo.what_if_optimize(&q, &[col], &cfg)[0].gain;
    cfg.create_index(db, col);
    let reverse = eqo.what_if_optimize(&q, &[col], &cfg)[0].gain;
    assert!((forward - reverse).abs() < 1e-9, "forward {forward} vs reverse {reverse}");
    assert!(forward > 0.0);
}

/// The EQO's work over the shifting preset, to the call: every probe
/// the profiler issues is one what-if call, the memo counters kept for
/// their readers stay 0, and the run ends in the same configuration.
#[test]
fn memo_counters_over_the_shifting_preset_are_exact() {
    use colt_repro::colt::{ColtConfig, ColtTuner};
    use colt_repro::engine::EqoCounters;

    let data = generate(0.004, 42);
    let preset = presets::shifting(&data, 42);
    let mut eqo = Eqo::new(&data.db);
    let mut physical = PhysicalConfig::new();
    let mut tuner = ColtTuner::new(ColtConfig {
        storage_budget_pages: preset.budget_pages,
        ..Default::default()
    });
    for q in &preset.queries {
        let plan = eqo.optimize(q, &physical);
        tuner.on_query(&data.db, &mut physical, &mut eqo, q, &plan);
    }
    assert_eq!(
        eqo.counters(),
        EqoCounters { whatif_calls: 98, ..EqoCounters::default() }
    );
    let indices: Vec<String> = physical.columns().map(|c| c.to_string()).collect();
    assert_eq!(indices, ["t29.c0", "t30.c6", "t31.c11"]);
}

/// Executing through the facade's prelude compiles and works (API
/// surface check).
#[test]
fn prelude_surface() {
    use colt_repro::prelude::*;
    let mut db = Database::new();
    let t = db.add_table(TableSchema::new("t", vec![Column::new("a", ValueType::Int)]));
    db.insert_rows(t, (0..100i64).map(|i| row_from(vec![Value::Int(i)]))).unwrap();
    db.analyze_all();
    let cfg = PhysicalConfig::new();
    let mut eqo = Eqo::new(&db);
    let q = Query::single(t, vec![SelPred::eq(ColRef::new(t, 0), 5i64)]);
    let plan = eqo.optimize(&q, &cfg);
    let res =
        Executor::new(&db, &cfg).execute(&q, &plan, Collect::CountOnly).expect("plan matches query");
    assert_eq!(res.row_count(), 1);
}
