//! Per-layer metrics of a traced run.
//!
//! Timings come from the traced rounds (pooled over all of them) and
//! from direct calls into a layer (`probe.*` spans, on stream 0).
//! Counts are exact; where they differ between a run's streams the
//! mean over the streams is reported, like `sim_total_ms`.

use crate::closed_loop::{colt_config, experiment_oracle, PlanKind, QueryObs, Round, Step};
use crate::metrics::Values;
use crate::run::{MeasuredRound, Mode, Run};
use crate::spans::{self, Tracer};
use crate::stats::{fastest, mean, median, percentile_ns};
use crate::workloads::repeat_ratio;
use colt_catalog::{ColRef, Database, PhysicalConfig};
use colt_engine::{Collect, Eqo, Executor};
use colt_harness::{run_cells, Cell, Policy};
use colt_storage::{BPlusTree, IoStats, RowId, Value};
use colt_workload::Preset;
use std::collections::BTreeSet;

/// Repeat rounds of the hot what-if probe.
const WHATIF_HOT_ROUNDS: usize = 8;

fn p50_us(values: impl Iterator<Item = u64>) -> f64 {
    let mut v: Vec<u64> = values.collect();
    percentile_ns(&mut v, 50.0).unwrap_or(0) as f64 / 1e3
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Mean over the run's streams of an exact per-round quantity, taken
/// from each stream's first traced round.
fn exact_mean(
    traced: &[&MeasuredRound],
    streams: usize,
    value: impl Fn(&MeasuredRound) -> f64,
) -> f64 {
    let per_stream: Vec<f64> = (0..streams)
        .filter_map(|k| traced.iter().find(|r| r.stream == k).map(|r| value(r)))
        .collect();
    mean(&per_stream).unwrap_or(0.0)
}

/// Mean over the streams of `fastest round in the mode ÷ fastest plain
/// round − 1`.
fn overhead_frac(rounds: &[MeasuredRound], streams: usize, mode: Mode) -> f64 {
    let walls = |k: usize, m: Mode| -> Option<f64> {
        let w: Vec<f64> = rounds
            .iter()
            .filter(|r| r.stream == k && r.mode == m)
            .map(|r| r.round.wall_ns as f64)
            .collect();
        fastest(&w)
    };
    let per_stream: Vec<f64> = (0..streams)
        .filter_map(|k| Some(walls(k, mode)? / walls(k, Mode::Plain)? - 1.0))
        .collect();
    mean(&per_stream).unwrap_or(0.0)
}

/// The sorted `(key, row id)` entries an index on `col` is built from —
/// what `colt_catalog::build_index` extracts before it bulk-loads.
fn index_entries(db: &Database, col: ColRef) -> Vec<(Value, RowId)> {
    let mut io = IoStats::new();
    let mut entries: Vec<(Value, RowId)> = db
        .table(col.table)
        .heap
        .scan(&mut io)
        .filter_map(|(rid, row)| row.get(col.column as usize).cloned().map(|v| (v, rid)))
        .collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    entries
}

/// Direct calls into storage and catalog: rebuild every index the round
/// created, whole (`build_index`) and bulk load alone.
fn build_probes(tracer: &mut Tracer, db: &Database, round: &Round, out: &mut Values) {
    let cols: BTreeSet<ColRef> = round.work.created.iter().copied().collect();
    let (mut build_ms, mut build_ns, mut load_ns, mut entries_total) = (Vec::new(), 0, 0, 0);
    for col in cols {
        let table = db.table(col.table);
        let width = table.schema.columns[col.column as usize].vtype.byte_width();
        let (_, ns) = tracer.probe("probe.build_index", || {
            colt_catalog::build_index(&table.heap, col, width)
        });
        build_ms.push(ns as f64 / 1e6);
        build_ns += ns;
        let entries = index_entries(db, col);
        entries_total += entries.len();
        load_ns += tracer
            .probe("probe.bulk_load", || BPlusTree::bulk_load(width, entries))
            .1;
    }
    out.insert(
        "storage.bulk_load_ns_per_entry",
        ratio(load_ns as f64, entries_total as f64),
    );
    out.insert(
        "catalog.build_index_ms_p50",
        median(&build_ms).unwrap_or(0.0),
    );
    let share = if build_ns > 0 {
        1.0 - ratio(load_ns as f64, build_ns as f64)
    } else {
        0.0
    };
    out.insert("catalog.extract_sort_share", share);
}

/// Direct calls into the what-if optimizer: every query's candidate
/// columns against an empty configuration, on a fresh `Eqo` (cold) and
/// then repeated (hot, served by the memo where it holds the stream).
fn whatif_probes(tracer: &mut Tracer, db: &Database, stream: &Preset, out: &mut Values) {
    let empty = PhysicalConfig::new();
    let mut eqo = Eqo::new(db);
    let pass = |eqo: &mut Eqo<'_>| -> usize {
        stream
            .queries
            .iter()
            .map(|q| {
                eqo.what_if_optimize(q, &q.candidate_columns(), &empty)
                    .len()
            })
            .sum()
    };
    let (probes, cold_ns) = tracer.probe("probe.whatif_cold", || pass(&mut eqo));
    let (hot_probes, hot_ns) = tracer.probe("probe.whatif_hot", || {
        (0..WHATIF_HOT_ROUNDS)
            .map(|_| pass(&mut eqo))
            .sum::<usize>()
    });
    out.insert(
        "engine.whatif_cold_ns_per_probe",
        ratio(cold_ns as f64, probes as f64),
    );
    out.insert(
        "engine.whatif_hot_ns_per_probe",
        ratio(hot_ns as f64, hot_probes as f64),
    );
}

/// Direct calls into the offline advisor, and the paper's headline
/// ratio: COLT's simulated total over the OFFLINE arm's.
fn offline_probes(
    tracer: &mut Tracer,
    db: &Database,
    stream: &Preset,
    colt_sim_ms: f64,
    out: &mut Values,
) -> Result<(), String> {
    let (selection, select_ns) = tracer.probe("probe.offline_select", || {
        colt_offline::select(db, &stream.queries, stream.budget_pages)
    });
    let (config, materialize_ns) = tracer.probe("probe.offline_materialize", || {
        colt_offline::materialize(db, &selection)
    });
    let mut eqo = Eqo::new(db);
    let mut offline_sim_ms = 0.0;
    for q in &stream.queries {
        let plan = eqo.optimize(q, &config);
        let run = Executor::new(db, &config).execute(q, &plan, Collect::CountOnly);
        offline_sim_ms += run.map_err(|e| format!("OFFLINE arm: {e}"))?.millis();
    }
    out.insert("offline.select_ms", select_ns as f64 / 1e6);
    out.insert("offline.materialize_ms", materialize_ns as f64 / 1e6);
    out.insert(
        "offline.colt_over_offline",
        ratio(colt_sim_ms, offline_sim_ms),
    );
    Ok(())
}

/// Direct calls into the harness: `Experiment::run` against the loop on
/// the same stream, and `run_cells` over one identical cell per core at
/// that many threads against one thread.
fn harness_probes(
    tracer: &mut Tracer,
    db: &Database,
    stream: &Preset,
    loop_wall_ns: f64,
    out: &mut Values,
) -> Result<(), String> {
    let (oracle, run_ns) = tracer.probe("probe.experiment_run", || experiment_oracle(db, stream));
    oracle.map_err(|e| format!("Experiment::run: {e}"))?;
    out.insert(
        "harness.experiment_run_ratio",
        ratio(run_ns as f64, loop_wall_ns),
    );

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let cells: Vec<Cell<'_>> = (0..cores)
        .map(|i| {
            Cell::new(
                format!("cell {i}"),
                db,
                &stream.queries,
                Policy::colt(colt_config(stream)),
            )
        })
        .collect();
    let (serial, serial_ns) = tracer.probe("probe.cells_serial", || run_cells(&cells, 1));
    let (parallel, parallel_ns) = tracer.probe("probe.cells_parallel", || run_cells(&cells, cores));
    serial
        .and(parallel)
        .map_err(|e| format!("run_cells: {e}"))?;
    out.insert(
        "harness.cells_speedup",
        ratio(serial_ns as f64, parallel_ns as f64),
    );
    Ok(())
}

/// Every per-layer metric of a traced run, but for the set-up times
/// (`workload.generate_s`, `workload.stream_gen_ms`), which the caller
/// measures.
pub fn per_layer(run: &mut Run<'_>) -> Result<Values, String> {
    let mut out = Values::new();
    let streams = run.streams.len();
    let db = run.db;
    let traced: Vec<&MeasuredRound> = run
        .rounds
        .iter()
        .filter(|r| r.mode == Mode::Traced)
        .collect();
    let first = *traced
        .iter()
        .find(|r| r.stream == 0)
        .ok_or("no traced round of stream 0")?;
    let queries = || traced.iter().flat_map(|r| &r.round.queries);
    let total = |f: fn(&QueryObs) -> u64| queries().map(f).sum::<u64>() as f64;
    let n_queries = queries().count() as f64;
    let traced_wall: f64 = traced.iter().map(|r| r.round.wall_ns as f64).sum();

    // Where the loop's wall time went, from the span tree (the rounds
    // whose spans were kept): self time per span name over the total of
    // the `round` spans.
    let round_spans = run.tracer.spans.iter().filter(|s| s.name == "round");
    let round_wall: f64 = round_spans.map(|s| s.dur_ns() as f64).sum();
    let own = spans::self_times(&run.tracer.spans);
    let self_ns = |name: &str| -> f64 {
        run.tracer
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64)
            .sum()
    };
    out.insert(
        "engine.optimize_share",
        ratio(self_ns("optimize"), round_wall),
    );
    out.insert(
        "engine.execute_share",
        ratio(self_ns("execute"), round_wall),
    );
    out.insert("core.tune_share", ratio(self_ns("tune"), round_wall));
    out.insert(
        "harness.loop_self_share",
        ratio(self_ns("round") + self_ns("query"), round_wall),
    );

    // storage
    out.insert(
        "storage.pages_per_query",
        ratio(total(|q| q.pages), n_queries),
    );
    for (metric, counter) in [
        ("storage.btree_lookups", "storage.btree.lookups"),
        ("storage.btree_ranges", "storage.btree.ranges"),
        ("storage.heap_scans", "storage.heap.scans"),
        ("storage.heap_fetches", "storage.heap.fetches"),
    ] {
        let count =
            |r: &MeasuredRound| r.snapshot.as_ref().map_or(0, |s| s.counter(counter)) as f64;
        out.insert(metric, exact_mean(&traced, streams, count));
    }
    let data_bytes = db.total_bytes() as f64;
    out.insert(
        "storage.index_bytes_per_data_byte",
        exact_mean(&traced, streams, |r| {
            ratio(r.round.work.index_bytes as f64, data_bytes)
        }),
    );

    // engine
    out.insert(
        "engine.optimize_us_p50",
        p50_us(queries().map(|q| q.optimize_ns)),
    );
    for (metric, kind) in [
        ("engine.exec.seq_us_p50", PlanKind::SeqScan),
        ("engine.exec.index_us_p50", PlanKind::IndexScan),
        ("engine.exec.hashjoin_us_p50", PlanKind::HashJoin),
        ("engine.exec.inlj_us_p50", PlanKind::IndexNlJoin),
    ] {
        out.insert(
            metric,
            p50_us(queries().filter(|q| q.plan == kind).map(|q| q.execute_ns)),
        );
    }
    let execute_ns = total(|q| q.execute_ns);
    out.insert(
        "engine.exec.mtuples_per_s",
        ratio(total(|q| q.tuples) * 1e3, execute_ns),
    );
    out.insert(
        "engine.exec.tuples_per_row",
        ratio(total(|q| q.tuples), total(|q| q.rows).max(1.0)),
    );
    let work = |f: fn(&Round) -> f64| exact_mean(&traced, streams, |r| f(&r.round));
    out.insert(
        "engine.whatif_calls",
        work(|r| r.work.eqo_whatif_calls as f64),
    );
    out.insert(
        "engine.memo_hit_ratio",
        work(|r| {
            ratio(
                r.work.memo_hits as f64,
                (r.work.memo_hits + r.work.memo_misses) as f64,
            )
        }),
    );

    // core
    let tune = |keep: fn(Step) -> bool| queries().filter(move |q| keep(q.step)).map(|q| q.tune_ns);
    out.insert(
        "core.tuner_us_per_query",
        ratio(total(|q| q.tune_ns) / 1e3, n_queries),
    );
    let profile_ns: Vec<u64> = tune(|s| s == Step::Profile).collect();
    out.insert(
        "core.profile_us_per_query",
        ratio(
            profile_ns.iter().sum::<u64>() as f64 / 1e3,
            profile_ns.len() as f64,
        ),
    );
    out.insert(
        "core.epoch_close_us_p50",
        p50_us(tune(|s| s != Step::Profile)),
    );
    out.insert(
        "core.epoch_close_share",
        ratio(tune(|s| s != Step::Profile).sum::<u64>() as f64, traced_wall),
    );
    out.insert(
        "core.build_stall_ms",
        p50_us(tune(|s| s == Step::Build)) / 1e3,
    );
    out.insert("core.epochs", work(|r| r.work.epochs as f64));
    out.insert("core.builds", work(|r| r.exact.builds as f64));
    out.insert("core.drops", work(|r| r.work.drops as f64));
    out.insert("core.whatif_issued", work(|r| r.exact.whatif_calls as f64));
    out.insert(
        "core.whatif_skipped",
        work(|r| r.work.whatif_skipped as f64),
    );
    out.insert(
        "core.skip_ratio",
        work(|r| {
            let considered = r.exact.whatif_calls + r.work.whatif_skipped;
            ratio(r.work.whatif_skipped as f64, considered as f64)
        }),
    );
    out.insert("core.budget_peak_ratio", work(|r| r.work.budget_peak_ratio));

    // workload (the caller adds the set-up times)
    out.insert("workload.tuples", db.total_tuples() as f64);
    let repeats: Vec<f64> = run
        .streams
        .iter()
        .map(|s| repeat_ratio(&s.preset.queries))
        .collect();
    out.insert("workload.repeat_ratio", mean(&repeats).unwrap_or(0.0));

    // obs
    out.insert(
        "obs.trace_overhead_frac",
        overhead_frac(&run.rounds, streams, Mode::Traced),
    );
    out.insert(
        "obs.full_overhead_frac",
        overhead_frac(&run.rounds, streams, Mode::FullRecorder),
    );

    // Direct calls, on stream 0.
    out.insert("harness.warmup_round_s", run.warmup_wall_s);
    let stream = &run.streams[0];
    let plain_walls: Vec<f64> = run
        .rounds
        .iter()
        .filter(|r| r.stream == 0 && r.mode == Mode::Plain)
        .map(|r| r.round.wall_ns as f64)
        .collect();
    let loop_wall_ns = fastest(&plain_walls).ok_or("no plain round of stream 0")?;
    let tracer = &mut run.tracer;
    build_probes(tracer, db, &first.round, &mut out);
    whatif_probes(tracer, db, &stream.preset, &mut out);
    offline_probes(
        tracer,
        db,
        &stream.preset,
        stream.exact.sim_total_ms,
        &mut out,
    )?;
    harness_probes(tracer, db, &stream.preset, loop_wall_ns, &mut out)?;
    Ok(out)
}
