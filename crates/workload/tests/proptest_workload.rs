//! Randomized property tests for the workload machinery: noise-plan
//! geometry, histogram quantiles, selectivity-targeted sampling, and
//! workload assembly invariants. Cases come from the in-repo seeded
//! PRNG, so every run checks the same inputs.
#![allow(clippy::unwrap_used, reason = "test helpers may unwrap and panic")]

use colt_catalog::{ColRef, Column, Database, TableId, TableSchema};
use colt_engine::selectivity::predicate_selectivity;
use colt_storage::{row_from, Prng, Value, ValueType};
use colt_workload::distribution::quantile;
use colt_workload::{
    fixed, phase_boundaries, phased, with_noise, NoisePlan, QueryDistribution, QueryTemplate,
    SelSpec, TemplateSelection,
};

fn db_with(values: &[i64]) -> (Database, TableId) {
    let mut db = Database::new();
    let t = db.add_table(TableSchema::new("t", vec![Column::new("k", ValueType::Int)]));
    db.insert_rows(t, values.iter().map(|&v| row_from(vec![Value::Int(v)]))).unwrap();
    db.analyze_all();
    (db, t)
}

/// Noise-plan geometry for arbitrary burst lengths: ≥500 queries,
/// exactly 20% noise, ≥2 non-overlapping bursts after the warm-up.
#[test]
fn noise_plan_geometry() {
    let mut rng = Prng::new(0x3014_0001);
    for case in 0..48u64 {
        let burst = 1 + rng.below(299);
        let p = NoisePlan::paper(burst);
        assert!(p.total >= 500, "case {case}");
        assert!(p.burst_starts.len() >= 2, "case {case}");
        assert!((p.noise_fraction() - 0.2).abs() < 1e-9, "case {case}");
        assert!(p.burst_starts[0] >= p.warmup, "case {case}");
        for w in p.burst_starts.windows(2) {
            assert!(w[0] + p.burst_len <= w[1], "case {case}: bursts overlap");
        }
        assert!(p.burst_starts.last().unwrap() + p.burst_len <= p.total, "case {case}");
        // is_noise must agree with the starts.
        let marked = (0..p.total).filter(|&i| p.is_noise(i)).count();
        assert_eq!(marked, p.burst_starts.len() * p.burst_len, "case {case}");
    }
}

/// Histogram quantiles are monotone and bounded by the data range.
#[test]
fn quantiles_monotone() {
    let mut rng = Prng::new(0x3014_0002);
    for case in 0..48u64 {
        let len = 32 + rng.below(1968);
        let mut values: Vec<i64> = (0..len).map(|_| rng.int_range(-10_000, 9_999)).collect();
        let mut qs: Vec<f64> = (0..2 + rng.below(8)).map(|_| rng.next_f64()).collect();

        let (db, t) = db_with(&values);
        let stats = db.table(t).column_stats(0);
        values.sort_unstable();
        qs.sort_by(f64::total_cmp);
        let mut last = Value::Int(i64::MIN);
        for q in qs {
            let v = quantile(stats, q);
            assert!(v >= last, "case {case}");
            assert!(v >= Value::Int(values[0]), "case {case}");
            assert!(v <= Value::Int(*values.last().unwrap()), "case {case}");
            last = v;
        }
    }
}

/// Range templates hit their target selectivity within histogram
/// tolerance on uniform data.
#[test]
fn range_templates_calibrated() {
    let mut rng = Prng::new(0x3014_0003);
    for case in 0..48u64 {
        let n = 2_000 + rng.below(18_000);
        let frac = rng.f64_range(0.01, 0.4);

        let values: Vec<i64> = (0..n as i64).collect();
        let (db, t) = db_with(&values);
        let col = ColRef::new(t, 0);
        let tpl = QueryTemplate::single(
            t,
            vec![TemplateSelection { col, spec: SelSpec::RangeFrac { lo_frac: frac, hi_frac: frac } }],
        );
        let q = tpl.sample(&db, &mut rng);
        // Exact fraction of rows matched.
        let matched = values
            .iter()
            .filter(|&&v| q.selections[0].matches(&Value::Int(v)))
            .count() as f64
            / n as f64;
        assert!(
            (matched - frac).abs() < 0.08 + frac * 0.5,
            "case {case}: target {frac}, matched {matched}"
        );
    }
}

/// Workload assembly: lengths and well-formedness for arbitrary phase
/// shapes.
#[test]
fn phased_lengths() {
    let mut rng = Prng::new(0x3014_0004);
    for case in 0..48u64 {
        let phases = 1 + rng.below(4);
        let phase_len = 1 + rng.below(39);
        let transition = rng.below(20);

        let values: Vec<i64> = (0..500).collect();
        let (db, t) = db_with(&values);
        let col = ColRef::new(t, 0);
        let dist = |_: usize| {
            QueryDistribution::new().with(
                1.0,
                QueryTemplate::single(t, vec![TemplateSelection { col, spec: SelSpec::Eq }]),
            )
        };
        let dists: Vec<_> = (0..phases).map(dist).collect();
        let w = phased(&dists, phase_len, transition, &db, &mut rng);
        assert_eq!(w.len(), phases * phase_len + (phases - 1) * transition, "case {case}");
        for q in &w {
            assert!(q.validate().is_ok(), "case {case}");
        }
        let bounds = phase_boundaries(phases, phase_len, transition);
        assert_eq!(bounds.len(), phases - 1, "case {case}");
        for (i, b) in bounds.iter().enumerate() {
            assert_eq!(*b, (i + 1) * phase_len + i * transition, "case {case}");
        }
    }
}

/// Noise injection places exactly the planned queries.
#[test]
fn noise_injection_exact() {
    let mut rng = Prng::new(0x3014_0005);
    for case in 0..24u64 {
        let burst = 10 + rng.below(110);

        let values: Vec<i64> = (0..200).collect();
        let (db, t) = db_with(&values);
        let col = ColRef::new(t, 0);
        let base = QueryDistribution::new().with(
            1.0,
            QueryTemplate::single(t, vec![TemplateSelection { col, spec: SelSpec::Eq }]),
        );
        let noise = QueryDistribution::new().with(
            1.0,
            QueryTemplate::single(
                t,
                vec![TemplateSelection { col, spec: SelSpec::RangeFrac { lo_frac: 0.1, hi_frac: 0.2 } }],
            ),
        );
        let plan = NoisePlan::paper(burst);
        let w = with_noise(&base, &noise, &plan, &db, &mut rng);
        assert_eq!(w.len(), plan.total, "case {case}");
        for (i, q) in w.iter().enumerate() {
            let is_range = matches!(q.selections[0].kind, colt_engine::PredicateKind::Range { .. });
            assert_eq!(is_range, plan.is_noise(i), "case {case}: query {i}");
        }
    }
}

/// `fixed` is deterministic in (distribution, seed).
#[test]
fn fixed_deterministic() {
    let mut rng = Prng::new(0x3014_0006);
    for case in 0..48u64 {
        let n = 1 + rng.below(99);
        let seed = rng.next_u64() % 1000;

        let values: Vec<i64> = (0..300).collect();
        let (db, t) = db_with(&values);
        let col = ColRef::new(t, 0);
        let dist = QueryDistribution::new().with(
            1.0,
            QueryTemplate::single(t, vec![TemplateSelection { col, spec: SelSpec::Eq }]),
        );
        let a = fixed(&dist, n, &db, &mut Prng::new(seed));
        let b = fixed(&dist, n, &db, &mut Prng::new(seed));
        assert_eq!(a, b, "case {case}");
    }
}

/// Selectivity bucketing: sampled Eq predicates on a key column are
/// always classified selective at the paper's 2% boundary once the
/// domain is large enough.
#[test]
fn eq_on_key_is_selective() {
    let mut rng = Prng::new(0x3014_0007);
    for case in 0..48u64 {
        let n = 200 + rng.below(4800);
        let values: Vec<i64> = (0..n as i64).collect();
        let (db, t) = db_with(&values);
        let col = ColRef::new(t, 0);
        let tpl = QueryTemplate::single(t, vec![TemplateSelection { col, spec: SelSpec::Eq }]);
        let q = tpl.sample(&db, &mut rng);
        let sel = predicate_selectivity(&db, &q.selections[0]);
        assert!(sel < 0.02, "case {case}: eq selectivity {sel}");
    }
}
