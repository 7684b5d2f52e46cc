//! End-to-end integration tests: small-scale versions of the paper's
//! experiments, asserting the headline claims hold.
//!
//! Each test generates the four-instance TPC-H data set at a reduced
//! scale and drives complete optimizer→executor→tuner runs.

use colt_repro::colt::ColtConfig;
use colt_repro::harness::{time_ratio, Experiment, Policy};
use colt_repro::workload::{generate, presets};

const SCALE: f64 = 0.01;
const SEED: u64 = 42;

/// Stable workload: COLT converges to the idealized OFFLINE technique
/// (paper Figure 3: "essentially equal ... with a negligible deviation").
#[test]
fn stable_workload_converges_to_offline() {
    let data = generate(SCALE, SEED);
    let preset = presets::stable(&data, SEED);
    let offline = Experiment::new(&data.db, &preset.queries)
        .policy(Policy::Offline { budget_pages: preset.budget_pages })
        .run().expect("run failed");
    let colt = Experiment::new(&data.db, &preset.queries)
        .policy(Policy::colt(ColtConfig {
            storage_budget_pages: preset.budget_pages,
            ..Default::default()
        }))
        .run().expect("run failed");

    // After the first 100 queries, COLT tracks OFFLINE closely.
    let tail = 100..preset.queries.len();
    let colt_tail = colt.range_millis(tail.clone());
    let off_tail = offline.range_millis(tail);
    let deviation = colt_tail / off_tail - 1.0;
    assert!(
        deviation < 0.10,
        "post-convergence deviation {:.1}% (paper ~1%)",
        deviation * 100.0
    );

    // COLT must also clearly beat doing nothing. (At this reduced test
    // scale many queries hit tiny floor-sized tables where no index can
    // help, so the achievable margin is smaller than at bench scale.)
    let none = Experiment::new(&data.db, &preset.queries).run().expect("run failed");
    assert!(
        colt.total_millis() < 0.9 * none.total_millis(),
        "COLT {:.0} vs no tuning {:.0}",
        colt.total_millis(),
        none.total_millis()
    );

    // And something must actually have been materialized.
    assert!(!colt.final_indices.is_empty());
    assert!(colt.trace.total_builds() >= 1);
}

/// Shifting workload: COLT outperforms OFFLINE overall (paper Figure 4:
/// 33% overall, 49% in phase 2).
#[test]
fn shifting_workload_beats_offline() {
    let data = generate(SCALE, SEED);
    let preset = presets::shifting(&data, SEED);
    let offline = Experiment::new(&data.db, &preset.queries)
        .policy(Policy::Offline { budget_pages: preset.budget_pages })
        .run().expect("run failed");
    let colt = Experiment::new(&data.db, &preset.queries)
        .policy(Policy::colt(ColtConfig {
            storage_budget_pages: preset.budget_pages,
            ..Default::default()
        }))
        .run().expect("run failed");

    let reduction = 1.0 - colt.total_millis() / offline.total_millis();
    assert!(
        reduction > 0.10,
        "COLT must win by >10% on the shifting workload, got {:.1}%",
        reduction * 100.0
    );

    // At least one mid-phase must show a large (>25%) reduction — the
    // fine-tuning OFFLINE cannot do.
    let best_phase = [350..650, 700..1000, 1050..1350]
        .into_iter()
        .map(|span| 1.0 - colt.range_millis(span.clone()) / offline.range_millis(span))
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(best_phase > 0.25, "best phase reduction {:.1}%", best_phase * 100.0);

    // Adaptation means real reorganization: several builds and drops.
    assert!(colt.trace.total_builds() >= 3);
    assert!(colt.trace.epochs.iter().map(|e| e.dropped.len()).sum::<usize>() >= 1);
}

/// Overhead (paper Figure 5): what-if usage peaks at phase transitions
/// and stays low in stable phases; only a small fraction of indexable
/// attributes is ever profiled accurately.
#[test]
fn whatif_overhead_self_regulates() {
    let data = generate(SCALE, SEED);
    let preset = presets::shifting(&data, SEED);
    // Skip-proofs (PR 10) are pinned off: this test charts the paper's
    // Figure 5 shape, which is the *un-skipped* profiler's budget usage.
    // The skip-proof overhead profile is covered by
    // `skip_proofs_cut_issued_probes` below.
    let cfg = ColtConfig {
        storage_budget_pages: preset.budget_pages,
        dynamic_rebudget: false,
        ..Default::default()
    };
    let epoch_len = cfg.epoch_length;
    let max_budget = cfg.max_whatif_per_epoch;
    let colt = Experiment::new(&data.db, &preset.queries).policy(Policy::colt(cfg)).run().expect("run failed");

    // Budget respected everywhere.
    assert!(colt.trace.whatif_per_epoch().iter().all(|&v| v <= max_budget));

    let series: Vec<u64> = colt.trace.whatif_per_epoch();

    // Mean usage across stable (non-transition) epochs below half the
    // budget.
    let transitions: Vec<usize> =
        colt_repro::workload::phase_boundaries(4, 300, 50).iter().map(|q| q / epoch_len).collect();
    let stable: Vec<u64> = series
        .iter()
        .enumerate()
        .filter(|(i, _)| transitions.iter().all(|&t| (*i as i64 - t as i64).abs() > 6))
        .map(|(_, &v)| v)
        .collect();
    let stable_mean = stable.iter().sum::<u64>() as f64 / stable.len() as f64;
    assert!(stable_mean < max_budget as f64 / 2.0, "stable mean {stable_mean}");

    // Activity around transitions exceeds the stable mean.
    let around: Vec<u64> = series
        .iter()
        .enumerate()
        .filter(|(i, _)| transitions.iter().any(|&t| (*i as i64 - t as i64).abs() <= 6))
        .map(|(_, &v)| v)
        .collect();
    let around_mean = around.iter().sum::<u64>() as f64 / around.len() as f64;
    assert!(
        around_mean > stable_mean,
        "transition mean {around_mean} vs stable {stable_mean}"
    );

    // Judicious profiling: far fewer indices profiled than indexable
    // attributes on the referenced tables (paper: ~11%).
    let referenced: std::collections::BTreeSet<_> =
        preset.queries.iter().flat_map(|q| q.tables.iter().copied()).collect();
    let attrs: usize = referenced.iter().map(|&t| data.db.table(t).schema.arity()).sum();
    let frac = colt.profiled_indices as f64 / attrs as f64;
    assert!(frac < 0.25, "profiled fraction {frac:.2}");
}

/// Dynamic re-budgeting (PR 10, after Wii): skip-proofs intercept
/// what-if probes whose gain interval provably cannot change the
/// knapsack outcome, cutting issued probes on the shifting workload
/// without changing the final index configuration or hurting
/// performance. Two arms: the product default, where the r-ratio
/// already hibernates the profiler and skip-proofs compose with it
/// (issued < 0.7x), and fixed-intensity profiling (`self_regulation`
/// off in both runs), which isolates what the skip-proofs themselves
/// save on the probes the r-ratio would otherwise issue (>= 1.3x fewer).
#[test]
fn skip_proofs_cut_issued_probes() {
    let data = generate(SCALE, SEED);
    let preset = presets::shifting(&data, SEED);
    let issued = |r: &colt_repro::harness::RunResult| -> u64 {
        r.trace.epochs.iter().map(|e| e.whatif_used).sum()
    };
    let skipped = |r: &colt_repro::harness::RunResult| -> u64 {
        r.trace.epochs.iter().map(|e| e.whatif_skipped).sum()
    };
    for (self_regulation, max_frac) in [(true, 0.7), (false, 1.0 / 1.3)] {
        let base = ColtConfig {
            storage_budget_pages: preset.budget_pages,
            self_regulation,
            ..Default::default()
        };
        let on = Experiment::new(&data.db, &preset.queries)
            .policy(Policy::colt(base.clone()))
            .run().expect("run failed");
        let off = Experiment::new(&data.db, &preset.queries)
            .policy(Policy::colt(ColtConfig { dynamic_rebudget: false, ..base }))
            .run().expect("run failed");
        assert_eq!(skipped(&off), 0, "the off arm must not skip");
        assert!(skipped(&on) > 0, "skip-proofs must fire on the shifting workload");
        assert!(
            (issued(&on) as f64) < max_frac * issued(&off) as f64,
            "self_regulation {self_regulation}: issued probes {} (skip-proofs on) vs {} (off)",
            issued(&on),
            issued(&off)
        );
        // Decision-quality safety: skipping is only legal when it cannot
        // change the knapsack outcome, so the tuner must land on the same
        // final configuration and essentially the same charged time.
        assert_eq!(on.final_indices, off.final_indices);
        assert!(
            on.total_millis() < off.total_millis() * 1.02,
            "self_regulation {self_regulation}: skip-proofs on {:.0} ms vs off {:.0} ms",
            on.total_millis(),
            off.total_millis()
        );
    }
}

/// Noise (paper Figure 6): short bursts are ignored — COLT stays within
/// a few percent of an OFFLINE technique that knows the noise is noise.
#[test]
fn short_noise_bursts_are_ignored() {
    let data = generate(SCALE, SEED);
    let (preset, plan) = presets::noisy(&data, 20, SEED);
    let q1_only: Vec<_> = preset
        .queries
        .iter()
        .enumerate()
        .filter(|(i, _)| !plan.is_noise(*i))
        .map(|(_, q)| q.clone())
        .collect();
    let offline = Experiment::new(&data.db, &preset.queries)
        .policy(Policy::Offline { budget_pages: preset.budget_pages })
        .analyzed(&q1_only)
        .run().expect("run failed");
    let colt = Experiment::new(&data.db, &preset.queries)
        .policy(Policy::colt(ColtConfig {
            storage_budget_pages: preset.budget_pages,
            ..Default::default()
        }))
        .run().expect("run failed");
    let ratio = time_ratio(&colt, &offline, plan.warmup);
    assert!(
        ratio < 1.08,
        "burst length 20 must be (nearly) ignored; ratio {ratio:.3}"
    );
}

/// Self-regulation saves what-if calls relative to a fixed-intensity
/// tuner without losing performance (the paper's central claim).
#[test]
fn self_regulation_saves_whatif_calls() {
    let data = generate(SCALE, SEED);
    // The shifting workload exercises both hibernation (stable phases)
    // and wake-ups (transitions), where the savings are most visible.
    let preset = presets::shifting(&data, SEED);
    let queries = &preset.queries[..700];
    // Skip-proofs are pinned off in BOTH arms: they intercept exactly
    // the redundant probes the r-ratio would otherwise spend, so with
    // them on the issued counts converge and no longer isolate the
    // self-regulation mechanism this test is about.
    let base = ColtConfig {
        storage_budget_pages: preset.budget_pages,
        dynamic_rebudget: false,
        ..Default::default()
    };

    let regulated = Experiment::new(&data.db, queries).policy(Policy::colt(base.clone())).run().expect("run failed");
    let fixed = Experiment::new(&data.db, queries)
        .policy(Policy::colt(ColtConfig { self_regulation: false, ..base }))
        .run().expect("run failed");

    assert!(
        (regulated.trace.total_whatif() as f64) < 0.85 * fixed.trace.total_whatif() as f64,
        "regulated {} vs fixed {}",
        regulated.trace.total_whatif(),
        fixed.trace.total_whatif()
    );
    // Performance must not suffer by more than a few percent.
    assert!(
        regulated.total_millis() < fixed.total_millis() * 1.05,
        "regulated {:.0} vs fixed {:.0}",
        regulated.total_millis(),
        fixed.total_millis()
    );
}

/// Determinism: identical seeds give bit-identical runs.
#[test]
fn runs_are_deterministic() {
    let data = generate(0.004, 7);
    let preset = presets::stable(&data, 7);
    let queries = &preset.queries[..150];
    let cfg = ColtConfig { storage_budget_pages: preset.budget_pages, ..Default::default() };
    let a = Experiment::new(&data.db, queries).policy(Policy::colt(cfg.clone())).run().expect("run failed");
    let b = Experiment::new(&data.db, queries).policy(Policy::colt(cfg)).run().expect("run failed");
    assert_eq!(a.total_millis(), b.total_millis());
    assert_eq!(a.final_indices, b.final_indices);
    assert_eq!(a.trace.whatif_per_epoch(), b.trace.whatif_per_epoch());
}

/// Multi-user shifting workload (paper §6.2 closing remark): COLT keeps
/// its advantage when the shifting workload is generated by several
/// interleaved clients.
#[test]
fn multiuser_shifting_still_wins() {
    use colt_repro::harness::{interleave, split_round_robin};
    let data = generate(SCALE, SEED);
    let preset = presets::shifting(&data, SEED);
    let streams = split_round_robin(&preset.queries, 4);
    let merged = interleave(&streams, SEED);
    let offline = Experiment::new(&data.db, &merged)
        .policy(Policy::Offline { budget_pages: preset.budget_pages })
        .run().expect("run failed");
    let colt = Experiment::new(&data.db, &merged)
        .policy(Policy::colt(ColtConfig {
            storage_budget_pages: preset.budget_pages,
            ..Default::default()
        }))
        .run().expect("run failed");
    let reduction = 1.0 - colt.total_millis() / offline.total_millis();
    assert!(reduction > 0.05, "multi-user reduction {:.1}%", reduction * 100.0);
}

/// Future-work extension: with a composite budget, COLT mines
/// co-occurring predicates on-line and materializes a multi-column
/// index that the single-column tuner cannot express.
#[test]
fn composite_extension_beats_single_column_colt() {
    use colt_repro::workload::{fixed, QueryDistribution, QueryTemplate, SelSpec, TemplateSelection};
    let data = generate(SCALE, SEED);
    let db = &data.db;
    let inst = &data.instances[0];
    let li = inst.table("lineitem");
    let dist = QueryDistribution::new().with(
        1.0,
        QueryTemplate::single(
            li,
            vec![
                TemplateSelection { col: inst.col(db, "lineitem", "l_suppkey"), spec: SelSpec::Eq },
                TemplateSelection { col: inst.col(db, "lineitem", "l_quantity"), spec: SelSpec::Eq },
            ],
        ),
    );
    let mut rng = colt_repro::storage::Prng::new(SEED);
    let workload = fixed(&dist, 200, db, &mut rng);

    let plain = Experiment::new(db, &workload)
        .policy(Policy::colt(ColtConfig { storage_budget_pages: 4_096, ..Default::default() }))
        .run().expect("run failed");
    let extended = Experiment::new(db, &workload)
        .policy(Policy::colt(ColtConfig {
            storage_budget_pages: 4_096,
            composite_budget_pages: 4_096,
            ..Default::default()
        }))
        .run().expect("run failed");
    assert!(
        extended.total_millis() < plain.total_millis() / 2.0,
        "extension {:.0} vs plain {:.0}",
        extended.total_millis(),
        plain.total_millis()
    );
}
