//! End-to-end integration tests: small-scale versions of the paper's
//! experiments, asserting the headline claims hold.
//!
//! Each test generates the four-instance TPC-H data set at a reduced
//! scale and drives complete optimizer→executor→tuner runs.

use colt_repro::colt::ColtConfig;
use colt_repro::harness::metrics::{
    around_transition_mean, best_phase_reduction, reduction_pct, stable_epoch_mean, tail_deviation,
};
use colt_repro::harness::{time_ratio, Experiment, Policy};
use colt_repro::workload::presets::{self, SHIFTING_PHASES};
use colt_repro::workload::generate;

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
    let deviation = tail_deviation(&colt, &offline);
    assert!(deviation < 10.0, "post-convergence deviation {deviation:.1}% (paper ~1%)");

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

    let reduction = reduction_pct(&colt, &offline, ..);
    assert!(reduction > 10.0, "COLT must win by >10% on the shifting workload, got {reduction:.1}%");

    // At least one mid-phase must show a large (>25%) reduction — the
    // fine-tuning OFFLINE cannot do.
    let best_phase = best_phase_reduction(&colt, &offline);
    assert!(best_phase > 25.0, "best phase reduction {best_phase:.1}%");

    // Adaptation means real reorganization: several builds and drops.
    assert!(colt.trace.total_builds() >= 3);
    assert!(colt.trace.total_drops() >= 1);
}

/// Overhead (paper Figure 5): what-if usage peaks at phase transitions
/// and stays low in stable phases; only a small fraction of indexable
/// attributes is ever profiled accurately.
#[test]
fn whatif_overhead_self_regulates() {
    let data = generate(SCALE, SEED);
    let preset = presets::shifting(&data, SEED);
    let cfg = ColtConfig { storage_budget_pages: preset.budget_pages, ..Default::default() };
    let epoch_len = cfg.epoch_length;
    let max_budget = cfg.max_whatif_per_epoch;
    let colt = Experiment::new(&data.db, &preset.queries).policy(Policy::colt(cfg)).run().expect("run failed");

    // Budget respected everywhere.
    assert!(colt.trace.whatif_per_epoch().iter().all(|&v| v <= max_budget));

    let series: Vec<u64> = colt.trace.whatif_per_epoch();

    // Mean usage across stable (non-transition) epochs below half the
    // budget.
    let transitions = SHIFTING_PHASES.transition_epochs(epoch_len);
    let stable_mean = stable_epoch_mean(&series, &transitions, 6);
    assert!(stable_mean < max_budget as f64 / 2.0, "stable mean {stable_mean}");

    // Activity around transitions exceeds the stable mean.
    let around_mean = around_transition_mean(&series, &transitions, 6);
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
    let base = ColtConfig { storage_budget_pages: preset.budget_pages, ..Default::default() };

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
    let reduction = reduction_pct(&colt, &offline, ..);
    assert!(reduction > 5.0, "multi-user reduction {reduction:.1}%");
}
