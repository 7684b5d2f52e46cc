//! Randomized property tests for the engine: for arbitrary queries and
//! arbitrary physical configurations, plan execution must agree with a
//! trivial reference evaluator, and what-if answers must equal
//! re-optimization cost deltas. Cases come from the in-repo seeded
//! PRNG, so every run checks the same inputs.

use colt_catalog::{ColRef, Column, Database, IndexOrigin, PhysicalConfig, TableId, TableSchema};
use colt_engine::{
    AccessPath, Collect, Eqo, EqoCounters, Executor, IndexSetView, Kernel, Optimizer, Plan,
    PlanNode, PredicateKind, Query, RangeBound, RowwiseExecutor, SelPred,
};
use colt_storage::{
    code_bound, literal_code, row_from, BPlusTree, IoStats, Prng, RowId, Value, ValueType,
};

/// Join key `i` as a cell of `vtype`: distinct `i` give distinct cells
/// under `Value`'s equality. The float keys start with both zeros and
/// both NaN signs, some string keys outgrow one 8-byte hash word and
/// one is empty.
fn typed_key(i: i64, vtype: ValueType) -> Value {
    match vtype {
        ValueType::Int => Value::Int(i),
        ValueType::Float => {
            Value::Float([-0.0, 0.0, f64::NAN, -f64::NAN].get(i as usize).copied().unwrap_or(i as f64 * 0.5))
        }
        ValueType::Str => Value::Str(match i {
            0 => String::new(),
            i if i % 3 == 0 => format!("key-{i:012}"),
            i => format!("k{i}"),
        }),
        ValueType::Date => Value::Date(i as i32 - 2),
    }
}

/// `build_db` with `b.id` cycling through `b_ids` values: fewer than
/// `n_b` makes `b`'s keys repeat and leaves some `a.fk` unmatched.
fn build_db_with(n_a: usize, n_b: usize, b_ids: usize) -> (Database, TableId, TableId) {
    const KEY_TYPES: [(&str, ValueType); 3] =
        [("kf", ValueType::Float), ("ks", ValueType::Str), ("kd", ValueType::Date)];
    let typed = |i: i64| KEY_TYPES.map(|(_, t)| typed_key(i, t));
    let key_cols = || KEY_TYPES.map(|(name, t)| Column::new(name, t));
    let mut db = Database::new();
    let mut a_cols = vec![
        Column::new("id", ValueType::Int),
        Column::new("fk", ValueType::Int),
        Column::new("v", ValueType::Int),
    ];
    a_cols.extend(key_cols());
    let a = db.add_table(TableSchema::new("a", a_cols));
    let mut b_cols = vec![Column::new("id", ValueType::Int), Column::new("w", ValueType::Int)];
    b_cols.extend(key_cols());
    let b = db.add_table(TableSchema::new("b", b_cols));
    db.insert_rows(
        a,
        (0..n_a as i64).map(|i| {
            let fk = i % n_b.max(1) as i64;
            let mut row = vec![Value::Int(i), Value::Int(fk), Value::Int(i * 7 % 23)];
            row.extend(typed(fk));
            row_from(row)
        }),
    ).unwrap();
    db.insert_rows(
        b,
        (0..n_b as i64).map(|i| {
            let id = i % b_ids.max(1) as i64;
            let mut row = vec![Value::Int(id), Value::Int(i % 5)];
            row.extend(typed(id));
            row_from(row)
        }),
    ).unwrap();
    db.analyze_all();
    (db, a, b)
}

/// A two-table database whose contents are fully determined by `n`:
/// `a(id, fk, v, kf, ks, kd)` and `b(id, w, kf, ks, kd)`, where the
/// `k*` columns repeat `a.fk` / `b.id` as a float, a string and a date
/// ([`typed_key`]), so `a.k* = b.k*` joins exactly like `a.fk = b.id`.
fn build_db(n_a: usize, n_b: usize) -> (Database, TableId, TableId) {
    build_db_with(n_a, n_b, n_b)
}

/// Reference evaluation: nested loops + direct predicate checks, for
/// any number of tables.
fn reference(db: &Database, q: &Query) -> usize {
    let eval_table = |t: TableId| -> Vec<Vec<Value>> {
        db.table(t)
            .heap
            .iter()
            .filter(|(_, row)| {
                q.selections_on(t).all(|p| p.matches(&row[p.col.column as usize]))
            })
            .map(|(_, row)| row.to_vec())
            .collect()
    };
    // Cross product of all filtered tables, then apply join predicates.
    let mut combos: Vec<Vec<Vec<Value>>> = vec![Vec::new()];
    for &t in &q.tables {
        let rows = eval_table(t);
        let mut next = Vec::new();
        for combo in &combos {
            for r in &rows {
                let mut c = combo.clone();
                c.push(r.clone());
                next.push(c);
            }
        }
        combos = next;
    }
    combos
        .into_iter()
        .filter(|combo| {
            q.joins.iter().all(|j| {
                let li = q.tables.iter().position(|&t| t == j.left.table).unwrap();
                let ri = q.tables.iter().position(|&t| t == j.right.table).unwrap();
                combo[li][j.left.column as usize] == combo[ri][j.right.column as usize]
            })
        })
        .count()
}

/// A random predicate on one of `a`'s three columns.
fn pred(rng: &mut Prng, a: TableId) -> SelPred {
    let c = ColRef::new(a, rng.below(3) as u32);
    let x = rng.int_range(-5, 29);
    let y = rng.int_range(-5, 29);
    match rng.below(3) {
        0 => SelPred::eq(c, x),
        1 => SelPred::between(c, x.min(y), x.max(y)),
        _ => SelPred::ge(c, x),
    }
}

fn preds(rng: &mut Prng, a: TableId, max: usize) -> Vec<SelPred> {
    (0..rng.below(max + 1)).map(|_| pred(rng, a)).collect()
}

/// Single-table queries agree with the reference evaluator under every
/// index configuration.
#[test]
fn single_table_matches_reference() {
    let mut rng = Prng::new(0xE21E_0001);
    for case in 0..40u64 {
        let n = 1 + rng.below(799);
        let preds = preds(&mut rng, TableId(0), 2);
        let index_mask = rng.below(8) as u8;

        let (db, a, _) = build_db(n, 7);
        let q = Query::single(a, preds);
        let mut cfg = PhysicalConfig::new();
        for col in 0..3u32 {
            if index_mask & (1 << col) != 0 {
                cfg.create_index(&db, ColRef::new(a, col), IndexOrigin::Online);
            }
        }
        let plan = Optimizer::new(&db).optimize(&q, IndexSetView::real(&cfg));
        let res = Executor::new(&db, &cfg).execute(&q, &plan, Collect::CountOnly).unwrap();
        assert_eq!(res.row_count() as usize, reference(&db, &q), "case {case}");
    }
}

/// Join queries agree with the reference evaluator, with and without
/// indexes (including the INLJ-enabled optimizer).
#[test]
fn join_matches_reference() {
    use colt_engine::{JoinPred, OptimizerOptions};
    let mut rng = Prng::new(0xE21E_0002);
    for case in 0..40u64 {
        let n_a = 1 + rng.below(399);
        let n_b = 1 + rng.below(39);
        let preds = preds(&mut rng, TableId(0), 1);
        let with_index = rng.chance(0.5);
        let inlj = rng.chance(0.5);

        let (db, a, b) = build_db(n_a, n_b);
        let q = Query::join(
            vec![a, b],
            vec![JoinPred::new(ColRef::new(a, 1), ColRef::new(b, 0))],
            preds,
        );
        let mut cfg = PhysicalConfig::new();
        if with_index {
            cfg.create_index(&db, ColRef::new(a, 1), IndexOrigin::Online);
        }
        let opt = Optimizer::with_options(&db, OptimizerOptions { enable_index_nl_join: inlj });
        let plan = opt.optimize(&q, IndexSetView::real(&cfg));
        let res = Executor::new(&db, &cfg).execute(&q, &plan, Collect::CountOnly).unwrap();
        assert_eq!(
            res.row_count() as usize,
            reference(&db, &q),
            "case {case}: {}",
            plan.explain()
        );
    }
}

/// What-if gains always equal the cost delta of actually toggling the
/// index in the view.
#[test]
fn whatif_equals_reoptimization_delta() {
    let mut rng = Prng::new(0xE21E_0003);
    for case in 0..40u64 {
        let n = 50 + rng.below(550);
        let preds: Vec<SelPred> =
            (0..1 + rng.below(2)).map(|_| pred(&mut rng, TableId(0))).collect();
        let probe_col = rng.below(3) as u32;
        let materialized = rng.chance(0.5);

        let (db, a, _) = build_db(n, 7);
        let q = Query::single(a, preds);
        let col = ColRef::new(a, probe_col);
        let mut cfg = PhysicalConfig::new();
        if materialized {
            cfg.create_index(&db, col, IndexOrigin::Online);
        }
        let mut eqo = Eqo::new(&db);
        let gain = eqo.what_if_optimize(&q, &[col], &cfg)[0].gain;

        // Recompute the delta by brute force on two configs.
        let mut with = PhysicalConfig::new();
        with.create_index(&db, col, IndexOrigin::Online);
        let without = PhysicalConfig::new();
        let opt = Optimizer::new(&db);
        let c_with = opt.optimize(&q, IndexSetView::real(&with)).est_cost();
        let c_without = opt.optimize(&q, IndexSetView::real(&without)).est_cost();
        assert!(
            (gain - (c_without - c_with).max(0.0)).abs() < 1e-6,
            "case {case}: gain {gain} vs delta {}",
            c_without - c_with
        );
    }
}

/// The memo's contract since `Eqo::optimize` left it: over random
/// create / drop histories, `optimize` is the bare optimizer under the
/// real configuration, and an `Eqo` that optimizes every statement
/// before probing it answers every bound and every probe — and counts
/// every hit, miss and invalidation — exactly as one that never
/// optimizes.
#[test]
fn eqo_optimize_is_the_bare_optimizer_and_leaves_the_memo_to_the_probes() {
    use colt_engine::JoinPred;
    let mut rng = Prng::new(0xE21E_0010);
    for case in 0..25u64 {
        let (db, a, b) = build_db(50 + rng.below(400), 7);
        let mut queries: Vec<Query> = (0..5)
            .map(|_| Query::single(a, (0..1 + rng.below(2)).map(|_| pred(&mut rng, a)).collect()))
            .collect();
        queries.push(Query::join(
            vec![a, b],
            vec![JoinPred::new(ColRef::new(a, 1), ColRef::new(b, 0))],
            preds(&mut rng, a, 1),
        ));
        let cols: Vec<ColRef> = (0..3).map(|c| ColRef::new(a, c)).chain([ColRef::new(b, 0)]).collect();

        let optimizer = Optimizer::new(&db);
        let mut cfg = PhysicalConfig::new();
        let (mut optimizing, mut probing) = (Eqo::new(&db), Eqo::new(&db));
        let mut optimizations = 0;
        for step in 0..80 {
            if rng.chance(0.3) {
                let col = cols[rng.below(cols.len())];
                if !cfg.drop_index(col) {
                    cfg.create_index(&db, col, IndexOrigin::Online);
                }
            }
            let q = &queries[rng.below(queries.len())];
            let plan = optimizing.optimize(q, &cfg);
            optimizations += 1;
            assert_eq!(plan, optimizer.optimize(q, IndexSetView::real(&cfg)), "case {case} step {step}");

            let probes: Vec<ColRef> = cols.iter().copied().filter(|_| rng.chance(0.5)).collect();
            let bounds = |eqo: &Eqo| -> Vec<Option<f64>> {
                cols.iter().map(|&col| eqo.gain_upper_bound(q, col, &cfg)).collect()
            };
            assert_eq!(bounds(&optimizing), bounds(&probing), "case {case} step {step}");
            assert_eq!(
                optimizing.what_if_optimize(q, &probes, &cfg),
                probing.what_if_optimize(q, &probes, &cfg),
                "case {case} step {step}"
            );
            assert_eq!(bounds(&optimizing), bounds(&probing), "case {case} step {step}");
            if rng.chance(0.15) {
                optimizing.end_epoch(&cfg);
                probing.end_epoch(&cfg);
            }
        }
        let counters = probing.counters();
        assert_eq!(counters.memo_hits + counters.memo_misses, counters.whatif_calls, "case {case}");
        assert!(counters.memo_hits > 0 && counters.memo_invalidations > 0, "case {case}: {counters:?}");
        assert_eq!(optimizing.counters(), EqoCounters { optimizations, ..counters }, "case {case}");
        assert_eq!(optimizing.memo_len(), probing.memo_len(), "case {case}");
    }
}

/// A statement's predicates are estimated once, by `optimize`, and the
/// plan carries the estimates to whoever prices with them next: over
/// 1–4-table queries, `plan.selectivities[i]` is
/// `predicate_selectivity` of `q.selections[i]` bit for bit, and a
/// what-if call — which prices all its probes against one such vector —
/// reports for every candidate exactly the cost difference of
/// optimizing with and without it.
#[test]
fn plan_carries_the_estimates_every_reader_prices_with() {
    use colt_engine::selectivity::predicate_selectivity;
    use std::collections::BTreeSet;
    let mut rng = Prng::new(0xE21E_0011);
    let mut joins = 0;
    for case in 0..120u64 {
        let Case { db, cfg, tables, q, .. } = random_case(&mut rng);
        let optimizer = Optimizer::new(&db);
        let plan = optimizer.optimize(&q, IndexSetView::real(&cfg));
        let estimates: Vec<u64> =
            q.selections.iter().map(|p| predicate_selectivity(&db, p).to_bits()).collect();
        let carried: Vec<u64> = plan.selectivities.iter().map(|s| s.to_bits()).collect();
        assert_eq!(carried, estimates, "case {case}: {q:?}");
        joins += usize::from(tables.len() >= 2);

        let probes: Vec<ColRef> = tables.iter().flat_map(|&t| (0..2).map(move |c| ColRef::new(t, c))).collect();
        let gains = Eqo::new(&db).what_if_optimize(&q, &probes, &cfg);
        for (col, gain) in probes.iter().zip(gains) {
            let (only, none) = (BTreeSet::from([*col]), BTreeSet::new());
            let cost = |plus, minus| {
                optimizer.optimize(&q, IndexSetView::hypothetical(&cfg, plus, minus)).est_cost()
            };
            let delta = (cost(&none, &only) - cost(&only, &none)).max(0.0);
            assert_eq!(gain.gain.to_bits(), delta.to_bits(), "case {case}, {col}: {q:?}");
        }
    }
    assert!(joins >= 60, "only {joins} join queries");
}

/// Optimizer plan costs are never higher than the forced-seqscan plan
/// under the same view (the optimizer must not pessimize).
#[test]
fn optimizer_never_pessimizes() {
    let mut rng = Prng::new(0xE21E_0004);
    for case in 0..40u64 {
        let n = 50 + rng.below(550);
        let preds: Vec<SelPred> =
            (0..1 + rng.below(2)).map(|_| pred(&mut rng, TableId(0))).collect();
        let index_mask = rng.below(8) as u8;

        let (db, a, _) = build_db(n, 7);
        let q = Query::single(a, preds);
        let mut cfg = PhysicalConfig::new();
        for col in 0..3u32 {
            if index_mask & (1 << col) != 0 {
                cfg.create_index(&db, ColRef::new(a, col), IndexOrigin::Online);
            }
        }
        let opt = Optimizer::new(&db);
        let chosen = opt.optimize(&q, IndexSetView::real(&cfg)).est_cost();
        let bare = opt.optimize(&q, IndexSetView::real(&PhysicalConfig::new())).est_cost();
        assert!(chosen <= bare + 1e-9, "case {case}: chosen {chosen} vs seq {bare}");
    }
}

/// Three-table chains agree with the reference for every index
/// configuration and optimizer option.
#[test]
fn three_table_chain_matches_reference() {
    use colt_engine::{JoinPred, OptimizerOptions};
    let mut rng = Prng::new(0xE21E_0007);
    for case in 0..24u64 {
        let n_a = 1 + rng.below(149);
        let n_b = 1 + rng.below(29);
        let preds = preds(&mut rng, TableId(0), 1);
        let index_mask = rng.below(4) as u8;
        let inlj = rng.chance(0.5);

        // Chain: a.fk = b.id, b.w = c.id (c = a small extra table).
        let (mut db, a, b) = build_db(n_a, n_b);
        let c = db.add_table(TableSchema::new("c", vec![Column::new("id", ValueType::Int)]));
        db.insert_rows(c, (0..5i64).map(|i| row_from(vec![Value::Int(i)]))).unwrap();
        db.analyze_all();

        let q = Query::join(
            vec![a, b, c],
            vec![
                JoinPred::new(ColRef::new(a, 1), ColRef::new(b, 0)),
                JoinPred::new(ColRef::new(b, 1), ColRef::new(c, 0)),
            ],
            preds,
        );
        let mut cfg = PhysicalConfig::new();
        if index_mask & 1 != 0 {
            cfg.create_index(&db, ColRef::new(a, 1), IndexOrigin::Online);
        }
        if index_mask & 2 != 0 {
            cfg.create_index(&db, ColRef::new(b, 0), IndexOrigin::Online);
        }
        let opt = Optimizer::with_options(&db, OptimizerOptions { enable_index_nl_join: inlj });
        let plan = opt.optimize(&q, IndexSetView::real(&cfg));
        let res = Executor::new(&db, &cfg).execute(&q, &plan, Collect::CountOnly).unwrap();
        assert_eq!(
            res.row_count() as usize,
            reference(&db, &q),
            "case {case}: {}",
            plan.explain()
        );
    }
}

/// How a [`random_case`] joins `a` to `b`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AbKey {
    /// `a.fk = b.id`, or the same relation through the float, string or
    /// date copies of those columns.
    Typed(ValueType),
    /// Two key columns of different types: date and string.
    Mixed,
    /// `a.fk = b.kd`, an `Int` against a `Date`: equal to nothing.
    CrossType,
}

/// One differential-test input: a database, an index set, a 1–4-table
/// chain query over it, and the plan the optimizer chose.
struct Case {
    db: Database,
    cfg: PhysicalConfig,
    tables: Vec<TableId>,
    ab_key: AbKey,
    q: Query,
    plan: colt_engine::Plan,
}

/// A seeded random case over the chain `a ⋈ b` (on a key of a random
/// type, see [`AbKey`]), `b.w = c.id`, `c.x = d.id` (`c` and `d` hold
/// every id twice, and sometimes `b` does, so each step fans out in
/// build order), cut after 1–4 tables: random predicates on `a`,
/// sometimes a second `a`–`b` key (multi-column hash keys, INLJ
/// residuals), now and then an empty `a` or `b`, a random subset of
/// thirteen candidate indices, INLJ on or off. The optimizer rarely
/// picks an INLJ on data this small, so "on" also rewrites the plan's
/// eligible hash joins by hand ([`to_inlj`]).
fn random_case(rng: &mut Prng) -> Case {
    use colt_engine::{JoinPred, OptimizerOptions};
    let n_tables = 1 + rng.below(4);
    let n_a = if rng.chance(0.05) { 0 } else { 1 + rng.below(2999) };
    let n_b = if rng.chance(0.05) { 0 } else { 1 + rng.below(39) };
    let b_ids = if rng.chance(0.3) { n_b.div_ceil(2) } else { n_b };
    let ps = preds(rng, TableId(0), 2);
    let ab_key = match rng.below(6) {
        0 => AbKey::Typed(ValueType::Int),
        1 => AbKey::Typed(ValueType::Float),
        2 => AbKey::Typed(ValueType::Str),
        3 => AbKey::Typed(ValueType::Date),
        4 => AbKey::Mixed,
        _ => AbKey::CrossType,
    };
    let second_key = rng.chance(0.3);
    let index_mask = rng.below(1 << 13);
    let inlj = rng.chance(0.5);

    let (mut db, a, b) = build_db_with(n_a, n_b, b_ids);
    let c = db.add_table(TableSchema::new(
        "c",
        vec![Column::new("id", ValueType::Int), Column::new("x", ValueType::Int)],
    ));
    let d = db.add_table(TableSchema::new("d", vec![Column::new("id", ValueType::Int)]));
    db.insert_rows(c, (0..10i64).map(|i| row_from(vec![Value::Int(i % 5), Value::Int(i % 3)]))).unwrap();
    db.insert_rows(d, (0..6i64).map(|i| row_from(vec![Value::Int(i % 3)]))).unwrap();
    db.analyze_all();

    let tables = [a, b, c, d][..n_tables].to_vec();
    let ab = |ac: u32, bc: u32| JoinPred::new(ColRef::new(a, ac), ColRef::new(b, bc));
    let mut joins = match ab_key {
        AbKey::Typed(ValueType::Int) => vec![ab(1, 0)],
        AbKey::Typed(ValueType::Float) => vec![ab(3, 2)],
        AbKey::Typed(ValueType::Str) => vec![ab(4, 3)],
        AbKey::Typed(ValueType::Date) => vec![ab(5, 4)],
        AbKey::Mixed => vec![ab(5, 4), ab(4, 3)],
        AbKey::CrossType => vec![ab(1, 4)],
    };
    if second_key {
        joins.push(ab(2, 1));
    }
    joins.push(JoinPred::new(ColRef::new(b, 1), ColRef::new(c, 0)));
    joins.push(JoinPred::new(ColRef::new(c, 1), ColRef::new(d, 0)));
    joins.retain(|j| tables.contains(&j.left.table) && tables.contains(&j.right.table));
    let q =
        if n_tables == 1 { Query::single(a, ps) } else { Query::join(tables.clone(), joins, ps) };

    let candidates = (0..6).map(|col| ColRef::new(a, col)).chain((0..5).map(|col| ColRef::new(b, col)));
    let candidates = candidates.chain([ColRef::new(c, 0), ColRef::new(d, 0)]);
    let mut cfg = PhysicalConfig::new();
    for (bit, col) in candidates.enumerate() {
        if index_mask & (1 << bit) != 0 {
            cfg.create_index(&db, col, IndexOrigin::Online);
        }
    }
    let opt = Optimizer::with_options(&db, OptimizerOptions { enable_index_nl_join: inlj });
    let mut plan = opt.optimize(&q, IndexSetView::real(&cfg));
    if inlj {
        plan.root = to_inlj(plan.root, &cfg);
    }
    Case { db, cfg, tables, ab_key, q, plan }
}

/// Turn every hash join that has a base-table input with a materialized
/// index on one of its join columns into an index nested-loop join
/// probing that index; the join's other predicates become residuals.
fn to_inlj(node: colt_engine::PlanNode, cfg: &PhysicalConfig) -> colt_engine::PlanNode {
    use colt_engine::PlanNode;
    match node {
        PlanNode::HashJoin { build, probe, on, est_rows, est_cost } => {
            let (build, probe) = (to_inlj(*build, cfg), to_inlj(*probe, cfg));
            for (inner, outer) in [(&probe, &build), (&build, &probe)] {
                let PlanNode::Scan { table, .. } = inner else { continue };
                let indexed = |c: &ColRef| c.table == *table && cfg.get(*c).is_some();
                let Some((i, index)) = on.iter().enumerate().find_map(|(i, j)| {
                    [j.left, j.right].into_iter().find(indexed).map(|c| (i, c))
                }) else {
                    continue;
                };
                let mut residual_on = on.clone();
                let probe_on = residual_on.remove(i);
                return PlanNode::IndexNlJoin {
                    outer: Box::new(outer.clone()),
                    inner: *table,
                    index,
                    probe_on,
                    residual_on,
                    est_rows,
                    est_cost,
                };
            }
            PlanNode::HashJoin {
                build: Box::new(build),
                probe: Box::new(probe),
                on,
                est_rows,
                est_cost,
            }
        }
        PlanNode::IndexNlJoin { outer, inner, index, probe_on, residual_on, est_rows, est_cost } => {
            let outer = Box::new(to_inlj(*outer, cfg));
            PlanNode::IndexNlJoin { outer, inner, index, probe_on, residual_on, est_rows, est_cost }
        }
        scan => scan,
    }
}

/// (hash joins, index nested-loop joins) in a plan subtree.
fn join_ops(node: &colt_engine::PlanNode) -> (usize, usize) {
    use colt_engine::PlanNode;
    match node {
        PlanNode::Scan { .. } => (0, 0),
        PlanNode::HashJoin { build, probe, .. } => {
            let ((bh, bi), (ph, pi)) = (join_ops(build), join_ops(probe));
            (bh + ph + 1, bi + pi)
        }
        PlanNode::IndexNlJoin { outer, .. } => {
            let (h, i) = join_ops(outer);
            (h, i + 1)
        }
    }
}

/// The vectorized executor is observationally identical to the
/// row-at-a-time reference implementation: same row count, same
/// `IoStats` (and therefore the same simulated clock), same collected
/// rows in the same order — and count-only execution, whose root
/// writes no row ids, counts and charges exactly like both — for random
/// 1–4-table queries over random physical configurations, plan shapes
/// and join key types.
#[test]
fn vectorized_matches_rowwise_reference() {
    let mut rng = Prng::new(0xE21E_000A);
    let (mut deep_hash, mut deep_inlj) = (0, 0);
    // What the generator must keep reaching: joins on each key shape
    // that found matches (for a cross-type key: that ran), joins with an
    // empty input, and join outputs longer than one batch.
    let mut matched: Vec<(AbKey, usize)> = Vec::new();
    let (mut empty_input, mut long_output) = (0, 0);
    for case in 0..240u64 {
        let Case { db, cfg, tables, ab_key, q, plan } = random_case(&mut rng);
        let (hash, inlj) = join_ops(&plan.root);
        deep_hash += usize::from(hash >= 2);
        deep_inlj += usize::from(inlj >= 1 && hash + inlj >= 2);
        let exec = Executor::new(&db, &cfg);
        let vec_out = exec.execute(&q, &plan, Collect::Rows).unwrap();
        let counted = exec.execute(&q, &plan, Collect::CountOnly).unwrap();
        let row_out = RowwiseExecutor::new(&db, &cfg).execute(&q, &plan, Collect::Rows).unwrap();
        let ctx = format!("case {case} ({ab_key:?}): {}", plan.explain());
        assert_eq!(vec_out.row_count(), row_out.row_count(), "{ctx}");
        assert_eq!(vec_out.result.io, row_out.result.io, "{ctx}");
        assert_eq!(vec_out.layout, row_out.layout, "{ctx}");
        assert_eq!(vec_out.rows, row_out.rows, "row order must match exactly; {ctx}");
        assert!((vec_out.millis() - row_out.millis()).abs() < 1e-12, "{ctx}");
        assert!(counted.rows.is_empty(), "{ctx}");
        assert_eq!(counted.row_count(), row_out.row_count(), "{ctx}");
        assert_eq!(counted.result.io, row_out.result.io, "{ctx}");
        assert_eq!(counted.layout, row_out.layout, "{ctx}");
        if tables.len() >= 2 {
            let rows = vec_out.row_count() as usize;
            assert!(ab_key != AbKey::CrossType || rows == 0, "an Int equals no Date; {ctx}");
            if rows > 0 || ab_key == AbKey::CrossType {
                match matched.iter_mut().find(|(k, _)| *k == ab_key) {
                    Some((_, n)) => *n += 1,
                    None => matched.push((ab_key, 1)),
                }
            }
            let empty = |t: TableId| db.table(t).heap.is_empty();
            empty_input += usize::from(empty(tables[0]) || empty(tables[1]));
            long_output += usize::from(rows > colt_engine::BATCH_ROWS);
        }
    }
    assert!(deep_hash >= 40, "only {deep_hash} plans with two or more hash joins");
    assert!(deep_inlj >= 30, "only {deep_inlj} multi-join plans with an INLJ");
    assert_eq!(matched.len(), 6, "a key shape never joined anything: {matched:?}");
    assert!(matched.iter().all(|&(_, n)| n >= 10), "{matched:?}");
    assert!(empty_input >= 8, "only {empty_input} joins with an empty input");
    assert!(long_output >= 30, "only {long_output} join outputs longer than a batch");
}

/// Every join tree the optimizer may pick for one [`random_case`],
/// priced whole from the cost formulas: the brute-force side of
/// [`join_order_dp_matches_brute_force_enumeration`].
struct JoinSpace<'a> {
    db: &'a Database,
    cfg: &'a PhysicalConfig,
    q: &'a Query,
    sels: &'a [f64],
    /// The chosen scan of each of `q.tables`.
    leaves: Vec<PlanNode>,
    inlj: bool,
}

impl JoinSpace<'_> {
    fn bit(&self, t: TableId) -> usize {
        1 << self.q.tables.iter().position(|&x| x == t).unwrap()
    }

    /// The join predicates with one side in each table subset.
    fn connecting(&self, l: usize, r: usize) -> Vec<colt_engine::JoinPred> {
        let crosses = |j: &&colt_engine::JoinPred| {
            let (a, b) = (self.bit(j.left.table), self.bit(j.right.table));
            (a & l != 0 && b & r != 0) || (a & r != 0 && b & l != 0)
        };
        self.q.joins.iter().filter(crosses).copied().collect()
    }

    fn ndv(&self, c: ColRef) -> f64 {
        self.db.table(c.table).column_stats(c.column).n_distinct as f64
    }

    /// Estimated rows of a table subset, whatever tree produces it.
    fn rows(&self, mask: usize) -> f64 {
        if mask.count_ones() == 1 {
            return self.leaves[mask.trailing_zeros() as usize].est_rows();
        }
        let mut rows = 1.0;
        for &t in self.q.tables.iter().filter(|&&t| mask & self.bit(t) != 0) {
            let filtered = self.db.table(t).heap.row_count() as f64
                * colt_engine::selectivity::table_selectivity(self.q, self.sels, t);
            rows *= filtered.max(1.0);
        }
        for j in &self.q.joins {
            if mask & self.bit(j.left.table) != 0 && mask & self.bit(j.right.table) != 0 {
                rows /= self.ndv(j.left).max(self.ndv(j.right)).max(1.0);
            }
        }
        rows
    }

    /// The cost of every admissible tree over `mask`'s tables: all
    /// bushy shapes; at each node a hash join building on the smaller
    /// input or, with `inlj`, an index nested-loop join into either
    /// single-table side through each indexed join column; a Cartesian
    /// product only where no split of the node's tables is connected.
    fn tree_costs(&self, mask: usize) -> Vec<f64> {
        use colt_engine::cost::{hash_join_cost, index_nl_join_cost};
        if mask.count_ones() == 1 {
            return vec![self.leaves[mask.trailing_zeros() as usize].est_cost()];
        }
        let splits: Vec<(usize, usize)> =
            (1..mask).filter(|&l| l & mask == l && l < mask ^ l).map(|l| (l, mask ^ l)).collect();
        let connected = splits.iter().any(|&(l, r)| !self.connecting(l, r).is_empty());
        let (params, out_rows) = (&self.db.cost, self.rows(mask));
        let mut costs = Vec::new();
        for (l, r) in splits {
            let on = self.connecting(l, r);
            if on.is_empty() == connected {
                continue;
            }
            let (build, probe) = if self.rows(l) <= self.rows(r) { (l, r) } else { (r, l) };
            let (build_rows, probe_rows) = (self.rows(build), self.rows(probe));
            let join = if connected {
                hash_join_cost(params, build_rows, probe_rows, out_rows)
            } else {
                params.cpu_operator_cost * (build_rows * probe_rows).max(1.0)
            };
            for b in self.tree_costs(build) {
                costs.extend(self.tree_costs(probe).into_iter().map(|p| b + p + join));
            }
            for (inner, outer) in [(l, r), (r, l)] {
                if !(self.inlj && connected && inner.count_ones() == 1) {
                    continue;
                }
                let t = self.db.table(self.q.tables[inner.trailing_zeros() as usize]);
                let inner_rows = t.heap.row_count() as f64;
                let residual = self.q.selections_on(t.id).count() + on.len() - 1;
                for col in on.iter().filter_map(|j| j.side_on(t.id)).filter(|&c| self.cfg.contains(c)) {
                    let probe_cost = index_nl_join_cost(
                        params,
                        self.rows(outer),
                        &self.db.index_estimate(col),
                        inner_rows / self.ndv(col).max(1.0),
                        t.heap.page_count() as f64,
                        residual,
                    );
                    costs.extend(self.tree_costs(outer).into_iter().map(|o| o + probe_cost));
                }
            }
        }
        costs
    }
}

/// Selinger's subset DP finds the cheapest join tree: over the 1–4-table
/// cases, with index nested-loop joins off and on, `est_cost()` of the
/// optimizer's plan equals to the bit the minimum over every admissible
/// tree enumerated whole — no memo, no principle of optimality assumed.
#[test]
fn join_order_dp_matches_brute_force_enumeration() {
    use colt_engine::OptimizerOptions;
    let mut rng = Prng::new(0xE21E_000C);
    let (mut order_mattered, mut inl_chosen) = (0, 0);
    for case in 0..120u64 {
        let Case { db, cfg, q, .. } = random_case(&mut rng);
        let view = IndexSetView::real(&cfg);
        let sels = colt_engine::selectivity::selectivities(&db, &q);
        for inlj in [false, true] {
            let opt = Optimizer::with_options(&db, OptimizerOptions { enable_index_nl_join: inlj });
            let leaves = q.tables.iter().map(|&t| opt.best_scan(&q, &sels, t, view).node).collect();
            let space = JoinSpace { db: &db, cfg: &cfg, q: &q, sels: &sels, leaves, inlj };
            let costs = space.tree_costs((1 << q.tables.len()) - 1);
            let cheapest = costs.iter().copied().fold(f64::INFINITY, f64::min);
            let plan = opt.optimize(&q, view);
            let ctx = format!("case {case}, inlj {inlj}, {} trees: {}", costs.len(), plan.explain());
            assert_eq!(plan.est_cost().to_bits(), cheapest.to_bits(), "{ctx}");
            order_mattered += usize::from(costs.iter().any(|&c| c > cheapest));
            inl_chosen += usize::from(join_ops(&plan.root).1 > 0);
        }
    }
    assert!(order_mattered >= 120, "only {order_mattered} searches with more than one price");
    assert!(inl_chosen >= 10, "the DP never chose an index nested-loop join");
}

/// Selection-vector edge cases: empty input, everything filtered out,
/// and result sets straddling the 1024-row batch boundary all agree
/// between the two executors.
#[test]
fn vectorized_edge_cases_match_rowwise() {
    let (db, a, _) = build_db(2_500, 7);
    let cfg = PhysicalConfig::new();
    let opt = Optimizer::new(&db);
    let queries = [
        // All-filtered: no id is negative.
        Query::single(a, vec![SelPred::eq(ColRef::new(a, 0), -100i64)]),
        // Everything passes: 2500 rows straddle two batch boundaries.
        Query::single(a, vec![]),
        // Selective straddler: ~half the rows survive.
        Query::single(a, vec![SelPred::ge(ColRef::new(a, 0), 1_250i64)]),
    ];
    for (i, q) in queries.iter().enumerate() {
        let plan = opt.optimize(q, IndexSetView::real(&cfg));
        let v = Executor::new(&db, &cfg).execute(q, &plan, Collect::Rows).unwrap();
        let r = RowwiseExecutor::new(&db, &cfg).execute(q, &plan, Collect::Rows).unwrap();
        assert_eq!(v.rows, r.rows, "query {i}");
        assert_eq!(v.result.io, r.result.io, "query {i}");
    }
    // Empty table: zero batches, zero rows, zero charges mismatch.
    let (db0, a0, _) = build_db(0, 1);
    let q = Query::single(a0, vec![SelPred::eq(ColRef::new(a0, 0), 1i64)]);
    let plan = Optimizer::new(&db0).optimize(&q, IndexSetView::real(&cfg));
    let v = Executor::new(&db0, &cfg).execute(&q, &plan, Collect::Rows).unwrap();
    let r = RowwiseExecutor::new(&db0, &cfg).execute(&q, &plan, Collect::Rows).unwrap();
    assert_eq!(v.row_count(), 0);
    assert_eq!(v.rows, r.rows);
    assert_eq!(v.result.io, r.result.io);
}

/// Edge values of one column type: the extremes, their neighbours, and
/// for floats both zeros, both infinities and both NaN signs.
fn edge_values(vtype: ValueType) -> Vec<Value> {
    match vtype {
        ValueType::Int => [i64::MIN, i64::MIN + 1, -1, 0, 1, 7, i64::MAX - 1, i64::MAX]
            .map(Value::Int)
            .to_vec(),
        ValueType::Float => [
            -f64::NAN,
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.5,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ]
        .map(Value::Float)
        .to_vec(),
        ValueType::Date => [i32::MIN, i32::MIN + 1, -1, 0, 1, 9_000, i32::MAX - 1, i32::MAX]
            .map(Value::Date)
            .to_vec(),
        ValueType::Str => {
            ["", "a", "a\0", "ab", "b", "zz", "\u{10ffff}"].map(Value::from).to_vec()
        }
    }
}

/// The compiled kernel selects exactly the rows `SelPred::matches`
/// accepts — for every column type, literals of the column's type *and*
/// of every other type, `Eq` / `In` / one- and two-sided ranges with
/// inclusive and exclusive bounds (so also empty and inverted ranges
/// and exclusive bounds at the extremes), NaN and both zeros. And an
/// index on the column means the predicate as the kernel does: an index
/// scan returns the sequential scan's rows under both executors, and
/// the code-keyed index reads and charges what a `Value`-keyed tree
/// over the same cells would, over three leaves.
#[test]
fn compiled_kernels_match_selpred_matches() {
    const TYPES: [ValueType; 4] =
        [ValueType::Int, ValueType::Float, ValueType::Str, ValueType::Date];
    let literals: Vec<Value> = TYPES.iter().flat_map(|&t| edge_values(t)).collect();
    let col = ColRef::new(TableId(0), 0);
    let mut rng = Prng::new(0x6b65_726e);
    let mut accepted = 0usize;
    for vtype in TYPES {
        // A column of edge values (with duplicates) and some ordinary ones.
        let edges = edge_values(vtype);
        let mut cells: Vec<Value> = (0..500).map(|_| edges[rng.below(edges.len())].clone()).collect();
        cells.extend((0..400).map(|_| match vtype {
            ValueType::Int => Value::Int(rng.int_range(-5, 5)),
            ValueType::Float => Value::Float(rng.f64_range(-2.0, 2.0)),
            ValueType::Date => Value::Date(rng.int_range(-5, 9_005) as i32),
            ValueType::Str => Value::Str(["a", "b", "c"][..1 + rng.below(3)].concat()),
        }));
        rng.shuffle(&mut cells);
        // The same cells as the heap holds them: a native vector.
        let mut db = Database::new();
        let t = db.add_table(TableSchema::new("t", vec![Column::new("c", vtype)]));
        db.insert_rows(t, cells.iter().map(|v| row_from(vec![v.clone()]))).unwrap();
        db.analyze_all();
        let column = db.table(t).heap.column(0).unwrap();
        assert_eq!((column.value_type(), column.len()), (vtype, cells.len()));
        // An index on them, and the tree it must be indistinguishable from.
        let mut cfg = PhysicalConfig::new();
        cfg.create_index(&db, col, IndexOrigin::Online);
        let index = &cfg.get(col).unwrap().tree;
        let mut entries: Vec<(Value, RowId)> = cells.iter().cloned().zip((0..).map(RowId)).collect();
        entries.sort();
        let oracle = BPlusTree::bulk_load(vtype.byte_width(), entries);
        assert_eq!((index.page_count(), index.height()), (oracle.page_count(), oracle.height()));
        assert!(oracle.page_count() >= 4, "three leaves and a root");

        for case in 0..600 {
            let lit = |rng: &mut Prng| literals[rng.below(literals.len())].clone();
            let bound = |rng: &mut Prng| {
                rng.chance(0.75).then(|| RangeBound { value: lit(rng), inclusive: rng.chance(0.5) })
            };
            let pred = match case % 3 {
                0 => SelPred::eq(col, lit(&mut rng)),
                1 => {
                    let n = rng.below(6);
                    SelPred::is_in(col, (0..n).map(|_| lit(&mut rng)).collect())
                }
                _ => SelPred {
                    col,
                    kind: PredicateKind::Range { lo: bound(&mut rng), hi: bound(&mut rng) },
                },
            };
            let kernel = Kernel::compile(&pred, column);
            let expect = |rows: &mut dyn Iterator<Item = usize>| -> Vec<u32> {
                rows.filter(|&r| pred.matches(&cells[r])).map(|r| r as u32).collect()
            };
            // A dense window…
            let start = rng.below(cells.len());
            let end = start + rng.below(cells.len() - start + 1);
            for window in [0..cells.len(), start..end] {
                let mut sel = vec![7, 7, 7];
                kernel.select(window.clone(), &mut sel);
                assert_eq!(sel, expect(&mut window.clone()), "{vtype:?} {pred:?} {window:?}");
                accepted += sel.len();
            }
            // …and a fetched row-id list, in its own order.
            let mut ids: Vec<u32> = (0..20).map(|_| rng.below(cells.len()) as u32).collect();
            let want = expect(&mut ids.clone().into_iter().map(|r| r as usize));
            kernel.retain(&mut ids);
            assert_eq!(ids, want, "{vtype:?} {pred:?} retain");

            // The index driven by the predicate, as an index scan drives
            // it: row ids and charges of the `Value`-keyed tree.
            macro_rules! driven {
                ($lookup:expr, $range:expr) => {{
                    let (mut ids, mut io) = (Vec::new(), IoStats::new());
                    match &pred.kind {
                        PredicateKind::Eq(v) => $lookup(v, &mut ids, &mut io),
                        PredicateKind::In(vs) => {
                            vs.iter().for_each(|v| $lookup(v, &mut ids, &mut io))
                        }
                        PredicateKind::Range { lo, hi } => {
                            let (lo, hi) = (RangeBound::as_bound(lo), RangeBound::as_bound(hi));
                            $range(lo, hi, &mut ids, &mut io)
                        }
                    }
                    (ids, io)
                }};
            }
            let by_index = driven!(
                |v, ids, io| index.lookup_code_into(literal_code(v, column), ids, io),
                |lo, hi, ids, io| {
                    let codes = code_bound(lo, column, true).zip(code_bound(hi, column, false));
                    index.range_codes_into(codes, ids, io)
                }
            );
            let by_oracle = driven!(
                |v, ids, io| oracle.lookup_into(v, ids, io),
                |lo, hi, ids, io| oracle.range_into(lo, hi, ids, io)
            );
            assert_eq!(by_index, by_oracle, "{vtype:?} {pred:?}");

            // Index scan ≡ sequential scan ≡ the row-at-a-time reference.
            let q = Query::single(t, vec![pred.clone()]);
            let run = |path: AccessPath| {
                let root = PlanNode::Scan { table: t, path, est_rows: 0.0, est_cost: 0.0 };
                let plan = Plan { root, selectivities: vec![1.0] };
                let v = Executor::new(&db, &cfg).execute(&q, &plan, Collect::Rows).unwrap();
                let r = RowwiseExecutor::new(&db, &cfg).execute(&q, &plan, Collect::Rows).unwrap();
                assert_eq!(v.rows, r.rows, "{vtype:?} {pred:?} {}", plan.explain());
                assert_eq!(v.result.io, r.result.io, "{vtype:?} {pred:?} {}", plan.explain());
                v.rows
            };
            let by_scan = run(AccessPath::SeqScan);
            assert_eq!(run(AccessPath::IndexScan { col }), by_scan, "{vtype:?} {pred:?}");
            let want: Vec<Vec<Value>> =
                expect(&mut (0..cells.len())).iter().map(|&r| vec![cells[r as usize].clone()]).collect();
            assert_eq!(by_scan, want, "{vtype:?} {pred:?}");
        }
    }
    assert!(accepted > 100_000, "the cases must not be vacuous: {accepted} rows accepted");
}
