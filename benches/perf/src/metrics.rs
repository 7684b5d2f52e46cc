//! The benchmark's metrics by name. `BENCHMARK.json` at the repo root
//! lists the same names, units, directions and bounds (a unit test
//! holds the two together); `README.md` gives each metric's definition
//! and the end-to-end metric each per-layer metric should move.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; reported by untraced runs.
pub const END_TO_END: [Metric; 6] = [
    gated("queries_per_s", "1/s", Higher, 0.25),
    gated("query_geomean_us", "us", Lower, 0.25),
    gated("query_slow5_us", "us", Lower, 0.25),
    gated("sim_total_ms", "sim_ms", Lower, 0.15),
    gated("peak_rss_mb", "MB", Lower, 0.05),
    gated("setup_s", "s", Lower, 0.25),
];

/// Single layers (the crates), reported by the traced run; no bounds.
pub const PER_LAYER: [Metric; 48] = [
    layer("storage.bulk_load_ns_per_entry", "ns", Lower),
    layer("storage.pages_per_query", "pages", Lower),
    layer("storage.btree_lookups", "count", Lower),
    layer("storage.btree_ranges", "count", Lower),
    layer("storage.heap_scans", "count", Lower),
    layer("storage.heap_fetches", "count", Lower),
    layer("storage.index_bytes_per_data_byte", "ratio", Lower),
    layer("catalog.build_index_ms_p50", "ms", Lower),
    layer("catalog.extract_sort_share", "ratio", Lower),
    layer("engine.optimize_us_p50", "us", Lower),
    layer("engine.optimize_share", "ratio", Lower),
    layer("engine.memo_hit_ratio", "ratio", Higher),
    layer("engine.execute_share", "ratio", Lower),
    layer("engine.exec.seq_us_p50", "us", Lower),
    layer("engine.exec.index_us_p50", "us", Lower),
    layer("engine.exec.hashjoin_us_p50", "us", Lower),
    layer("engine.exec.inlj_us_p50", "us", Lower),
    layer("engine.exec.mtuples_per_s", "Mtuples/s", Higher),
    layer("engine.exec.tuples_per_row", "ratio", Lower),
    layer("engine.whatif_calls", "count", Lower),
    layer("engine.whatif_cold_ns_per_probe", "ns", Lower),
    layer("engine.whatif_hot_ns_per_probe", "ns", Lower),
    layer("core.tuner_us_per_query", "us", Lower),
    layer("core.profile_us_per_query", "us", Lower),
    layer("core.epoch_close_us_p50", "us", Lower),
    layer("core.epoch_close_share", "ratio", Lower),
    layer("core.build_stall_ms", "ms", Lower),
    layer("core.tune_share", "ratio", Lower),
    layer("core.epochs", "count", Lower),
    layer("core.builds", "count", Lower),
    layer("core.drops", "count", Lower),
    layer("core.whatif_issued", "count", Lower),
    layer("core.whatif_skipped", "count", Higher),
    layer("core.skip_ratio", "ratio", Higher),
    layer("core.budget_peak_ratio", "ratio", Lower),
    layer("offline.select_ms", "ms", Lower),
    layer("offline.materialize_ms", "ms", Lower),
    layer("offline.colt_over_offline", "ratio", Lower),
    layer("workload.generate_s", "s", Lower),
    layer("workload.stream_gen_ms", "ms", Lower),
    layer("workload.tuples", "count", Lower),
    layer("workload.repeat_ratio", "ratio", Higher),
    layer("harness.loop_self_share", "ratio", Lower),
    layer("harness.experiment_run_ratio", "ratio", Lower),
    layer("harness.warmup_round_s", "s", Lower),
    layer("harness.cells_speedup", "ratio", Higher),
    layer("obs.trace_overhead_frac", "ratio", Lower),
    layer("obs.full_overhead_frac", "ratio", Lower),
];

/// Measured values by metric name.
pub type Values = std::collections::BTreeMap<&'static str, f64>;

#[cfg(test)]
mod tests {
    use super::*;
    use colt_core::json::{self, Json};

    fn field<'a>(j: &'a Json, key: &str) -> &'a Json {
        j.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
    }

    fn check_list(listed: &Json, defined: &[Metric], with_bound: bool) {
        let listed = listed.as_array().expect("array");
        assert_eq!(listed.len(), defined.len());
        for (j, m) in listed.iter().zip(defined) {
            assert_eq!(field(j, "name").as_str(), Some(m.name));
            assert_eq!(field(j, "unit").as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(
                field(j, "better").as_str(),
                Some(m.better.as_str()),
                "{}",
                m.name
            );
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                with_bound.then_some(m.bound),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("valid JSON");
        check_list(field(&doc, "end_to_end"), &END_TO_END, true);
        check_list(field(&doc, "per_layer"), &PER_LAYER, false);
        let workloads: Vec<_> = field(&doc, "workloads")
            .as_array()
            .expect("array")
            .iter()
            .map(|w| field(w, "name").as_str().expect("name").to_string())
            .collect();
        let defined = crate::workloads::WORKLOADS.iter().filter(|w| w.in_contract);
        assert_eq!(workloads, defined.map(|w| w.name).collect::<Vec<_>>());
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<_> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
