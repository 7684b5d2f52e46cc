//! Executor throughput regression gate (PR 7 tentpole).
//!
//! The vectorized batch executor exists to make query execution fast;
//! this gate keeps it that way. Four microbenches exercise the operator
//! surface over the generated TPC-H data — a full materializing scan, a
//! selective filter, a hash join, and a grouped aggregation — and each
//! one's tuple throughput (tuples examined per wall-clock second, best
//! of `TRIALS` trials) is compared against the checked-in row-at-a-time
//! baseline:
//!
//! ```text
//! exec_gate                    # gate: exit 1 if any microbench < 1.5x baseline
//! exec_gate --write-baseline   # measure the reference into a baseline file
//! exec_gate --baseline <path>  # non-default baseline location
//! ```
//!
//! Like `whatif_gate` this is a *floor*: `--write-baseline` measures the
//! in-tree [`RowwiseExecutor`] reference (the pre-vectorization
//! execution model, kept for differential testing), so the gate always
//! compares the vectorized executor against the row-at-a-time semantics
//! it replaced.
//!
//! **Do not refresh the checked-in `baselines/exec_baseline.json`.** It
//! is the *row-store* `RowwiseExecutor` as of PR 12, when the reference
//! read heap rows in place. Since PR 13 the heap is a column store and
//! the reference materializes every row it looks at, which makes it
//! slower: `--write-baseline` over the checked-in file would record that
//! slower reference and lower the floor the vectorized executor is held
//! to. Point `--baseline` at a scratch path to measure today's
//! reference on another machine.
//!
//! It fails when *any* of the four microbenches' speedup
//! drops below `THRESHOLD` — a floor per operator, because a geometric
//! mean lets a 24x scan hide a join at parity; the mean is still
//! printed. The baseline records the
//! `COLT_SCALE`/`COLT_SEED` it was measured at; the gate refuses to
//! compare across workload shapes (exit 2).

use colt_bench::{build_data, scale, seed};
use colt_catalog::PhysicalConfig;
use colt_core::json::Json;
use colt_engine::{
    AggExpr, AggFunc, AggSpec, Collect, Executor, IndexSetView, JoinPred, Optimizer, Plan, Query,
    RowwiseExecutor, SelPred,
};
use std::process::ExitCode;

/// Trials per workload; the maximum rate is used.
const TRIALS: usize = 3;
/// Each trial repeats its query until at least this much wall time has
/// been measured, so rates stay stable across scales and machines.
const MIN_TRIAL_SECS: f64 = 0.05;
/// Gate threshold: fail when any microbench's speedup over the
/// row-at-a-time baseline drops below this.
const THRESHOLD: f64 = 1.5;

fn default_baseline_path() -> String {
    format!("{}/baselines/exec_baseline.json", env!("CARGO_MANIFEST_DIR"))
}

/// One microbench: a planned query plus how to consume its result.
struct Workload {
    name: &'static str,
    query: Query,
    plan: Plan,
    collect: Collect,
    agg: Option<AggSpec>,
}

/// The four operator-surface microbenches, planned once against an
/// index-free configuration (seq scans + hash joins — the paths whose
/// inner loops the vectorized executor rewrote). Scan, filter, and join
/// consume count-only, which is how every harness run consumes results
/// (the paper's workloads are `SELECT *` queries whose results are
/// counted) and where the executor's late materialization pays off;
/// aggregation consumes every value column-at-a-time.
fn workloads(data: &colt_workload::TpchData) -> Vec<Workload> {
    let db = &data.db;
    let inst = &data.instances[0];
    let lineitem = inst.table("lineitem");
    let orders = inst.table("orders");
    let l_quantity = inst.col(db, "lineitem", "l_quantity");
    let l_orderkey = inst.col(db, "lineitem", "l_orderkey");
    let l_extendedprice = inst.col(db, "lineitem", "l_extendedprice");
    let l_returnflag = inst.col(db, "lineitem", "l_returnflag");
    let o_orderkey = inst.col(db, "orders", "o_orderkey");
    let o_orderpriority = inst.col(db, "orders", "o_orderpriority");

    let config = PhysicalConfig::new();
    let opt = Optimizer::new(db);
    let plan_of = |q: &Query| opt.optimize(q, IndexSetView::real(&config));

    let scan = Query::single(lineitem, vec![SelPred::ge(l_quantity, 1)]);
    let filter = Query::single(lineitem, vec![SelPred::le(l_quantity, 10)]);
    let join = Query::join(
        vec![orders, lineitem],
        vec![JoinPred::new(o_orderkey, l_orderkey)],
        vec![SelPred::eq(o_orderpriority, 0)],
    );
    let agg = Query::single(lineitem, Vec::new());
    let agg_spec = AggSpec {
        group_by: vec![l_returnflag],
        exprs: vec![
            AggExpr::count_star(),
            AggExpr::over(AggFunc::Sum, l_extendedprice),
            AggExpr::over(AggFunc::Avg, l_quantity),
        ],
    };

    vec![
        Workload {
            plan: plan_of(&scan),
            query: scan,
            name: "scan",
            collect: Collect::CountOnly,
            agg: None,
        },
        Workload {
            plan: plan_of(&filter),
            query: filter,
            name: "filter",
            collect: Collect::CountOnly,
            agg: None,
        },
        Workload {
            plan: plan_of(&join),
            query: join,
            name: "join",
            collect: Collect::CountOnly,
            agg: None,
        },
        Workload {
            plan: plan_of(&agg),
            query: agg,
            name: "aggregate",
            collect: Collect::CountOnly,
            agg: Some(agg_spec),
        },
    ]
}

/// Which execution model a measurement runs.
#[derive(Clone, Copy, PartialEq)]
enum Engine {
    Vectorized,
    Rowwise,
}

/// Execute the workload once, returning the tuples the operators
/// examined (identical between engines — charge parity is what the
/// differential tests enforce — so rates divide cleanly).
fn run_once(data: &colt_workload::TpchData, config: &PhysicalConfig, w: &Workload, engine: Engine) -> u64 {
    match engine {
        Engine::Vectorized => {
            let exec = Executor::new(&data.db, config);
            match &w.agg {
                Some(spec) => {
                    exec.execute_aggregate(&w.query, &w.plan, spec).expect("plan matches query").0
                }
                None => {
                    exec.execute(&w.query, &w.plan, w.collect).expect("plan matches query").result
                }
            }
            .io
            .tuples
        }
        Engine::Rowwise => {
            let exec = RowwiseExecutor::new(&data.db, config);
            match &w.agg {
                Some(spec) => {
                    exec.execute_aggregate(&w.query, &w.plan, spec).expect("plan matches query").0
                }
                None => {
                    exec.execute(&w.query, &w.plan, w.collect).expect("plan matches query").result
                }
            }
            .io
            .tuples
        }
    }
}

/// Best-of-`TRIALS` tuple throughput for one workload.
fn measure(data: &colt_workload::TpchData, w: &Workload, engine: Engine) -> f64 {
    let config = PhysicalConfig::new();
    // Untimed warm run: page cache effects and lazy allocations settle.
    run_once(data, &config, w, engine);
    let mut best = 0.0f64;
    for _ in 0..TRIALS {
        let start = std::time::Instant::now();
        let mut tuples = 0u64;
        let mut reps = 0u64;
        while start.elapsed().as_secs_f64() < MIN_TRIAL_SECS || reps < 3 {
            tuples += run_once(data, &config, w, engine);
            reps += 1;
        }
        best = best.max(tuples as f64 / start.elapsed().as_secs_f64().max(1e-9));
    }
    best
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write = args.iter().any(|a| a == "--write-baseline");
    let baseline_path = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(default_baseline_path);

    let data = build_data();
    let workloads = workloads(&data);
    let engine = if write { Engine::Rowwise } else { Engine::Vectorized };
    let label = if write { "row-at-a-time" } else { "vectorized" };

    let mut rates: Vec<(&'static str, f64)> = Vec::new();
    for w in &workloads {
        let rate = measure(&data, w, engine);
        println!("  {label} {:<9} {:>12.0} tuples/s (best of {TRIALS})", w.name, rate);
        rates.push((w.name, rate));
    }
    println!("# Executor throughput ({label}, scale {}, seed {})", scale(), seed());

    if write {
        let json = Json::obj(vec![
            ("scale", Json::Float(scale())),
            ("seed", Json::UInt(seed())),
            (
                "tuples_per_sec",
                Json::obj(rates.iter().map(|(n, r)| (*n, Json::Float(*r))).collect()),
            ),
        ])
        .pretty();
        if let Some(dir) = std::path::Path::new(&baseline_path).parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(&baseline_path, json) {
            eprintln!("error: cannot write {baseline_path}: {e}");
            return ExitCode::from(2);
        }
        println!("baseline written to {baseline_path}");
        return ExitCode::SUCCESS;
    }

    let raw = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "error: no baseline at {baseline_path} ({e}); run with --write-baseline first"
            );
            return ExitCode::from(2);
        }
    };
    let base = match colt_core::json::parse(&raw) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: malformed baseline {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let as_f = |j: &Json| -> Option<f64> {
        match j {
            Json::Float(f) => Some(*f),
            Json::UInt(u) => Some(*u as f64),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    };
    let Some(base_scale) = base.get("scale").and_then(&as_f) else {
        eprintln!("error: baseline {baseline_path} is missing scale");
        return ExitCode::from(2);
    };
    if (base_scale - scale()).abs() > 1e-12 {
        eprintln!(
            "error: baseline was measured at COLT_SCALE={base_scale}, current run is {}; \
             pin COLT_SCALE or refresh with --write-baseline",
            scale()
        );
        return ExitCode::from(2);
    }

    let mut ln_sum = 0.0f64;
    let mut below: Vec<String> = Vec::new();
    for (name, rate) in &rates {
        let Some(base_rate) =
            base.get("tuples_per_sec").and_then(|t| t.get(name)).and_then(&as_f)
        else {
            eprintln!("error: baseline {baseline_path} is missing tuples_per_sec.{name}");
            return ExitCode::from(2);
        };
        let ratio = rate / base_rate.max(1e-9);
        println!("  {name:<9} {ratio:>6.2}x row-at-a-time ({base_rate:.0} tuples/s baseline)");
        ln_sum += ratio.ln();
        if ratio < THRESHOLD {
            below.push(format!("{name} {ratio:.2}x"));
        }
    }
    let geomean = (ln_sum / rates.len() as f64).exp();
    println!("  geometric mean speedup: {geomean:.2}x (floor {THRESHOLD}x per microbench)");
    if below.is_empty() {
        println!("OK: every microbench sustains {THRESHOLD}x row-at-a-time throughput");
        ExitCode::SUCCESS
    } else {
        println!(
            "FAIL: below the {THRESHOLD}x row-at-a-time floor: {}",
            below.join(", ")
        );
        ExitCode::FAILURE
    }
}
