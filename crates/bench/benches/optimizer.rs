//! Micro-benchmarks of the optimizer and the what-if interface —
//! the cost that COLT's profiling budget is denominated in.
#![allow(clippy::expect_used, clippy::print_stdout, reason = "a micro-bench prints and aborts")]

use colt_bench::bench;
use colt_catalog::{ColRef, PhysicalConfig};
use colt_engine::{Eqo, IndexSetView, Optimizer, Query, SelPred};
use colt_workload::generate;
use std::hint::black_box;

fn bench_optimize() {
    let data = generate(0.01, 42);
    let db = &data.db;
    let inst = &data.instances[0];
    let cfg = PhysicalConfig::new();
    let opt = Optimizer::new(db);

    let single = Query::single(
        inst.table("lineitem"),
        vec![SelPred::between(
            inst.col(db, "lineitem", "l_shipdate"),
            colt_storage::Value::Date(100),
            colt_storage::Value::Date(130),
        )],
    );
    bench("optimizer/single_table", || {
        black_box(opt.optimize(&single, IndexSetView::real(&cfg)));
    });

    let join = Query::join(
        vec![inst.table("lineitem"), inst.table("orders"), inst.table("customer")],
        vec![
            colt_engine::JoinPred::new(
                inst.col(db, "lineitem", "l_orderkey"),
                inst.col(db, "orders", "o_orderkey"),
            ),
            colt_engine::JoinPred::new(
                inst.col(db, "orders", "o_custkey"),
                inst.col(db, "customer", "c_custkey"),
            ),
        ],
        vec![SelPred::eq(inst.col(db, "customer", "c_mktsegment"), 2i64)],
    );
    bench("optimizer/three_table_join", || {
        black_box(opt.optimize(&join, IndexSetView::real(&cfg)));
    });
}

fn bench_whatif() {
    let data = generate(0.01, 42);
    let db = &data.db;
    let inst = &data.instances[0];
    let cfg = PhysicalConfig::new();

    let q = Query::single(
        inst.table("lineitem"),
        vec![
            SelPred::eq(inst.col(db, "lineitem", "l_partkey"), 7i64),
            SelPred::eq(inst.col(db, "lineitem", "l_quantity"), 10i64),
        ],
    );
    let probes: Vec<ColRef> =
        vec![inst.col(db, "lineitem", "l_partkey"), inst.col(db, "lineitem", "l_quantity")];

    let mut eqo = Eqo::new(db);
    bench("whatif/two_probes", || {
        black_box(eqo.what_if_optimize(&q, &probes, &cfg));
    });
}

fn bench_executor() {
    use colt_catalog::IndexOrigin;
    use colt_engine::{Collect, Executor};
    let data = generate(0.01, 42);
    let db = &data.db;
    let inst = &data.instances[0];
    let col = inst.col(db, "lineitem", "l_partkey");
    let q = Query::single(inst.table("lineitem"), vec![SelPred::eq(col, 7i64)]);

    let bare = PhysicalConfig::new();
    let opt = Optimizer::new(db);
    let seq_plan = opt.optimize(&q, IndexSetView::real(&bare));
    bench("executor/seq_scan_lineitem", || {
        black_box(Executor::new(db, &bare).execute(&q, &seq_plan, Collect::CountOnly))
            .expect("plan matches query");
    });

    let mut indexed = PhysicalConfig::new();
    indexed.create_index(db, col, IndexOrigin::Online);
    let idx_plan = opt.optimize(&q, IndexSetView::real(&indexed));
    assert!(!idx_plan.used_indices().is_empty());
    bench("executor/index_scan_lineitem", || {
        black_box(Executor::new(db, &indexed).execute(&q, &idx_plan, Collect::CountOnly))
            .expect("plan matches query");
    });
}

fn main() {
    println!("# optimizer micro-benchmarks");
    bench_optimize();
    bench_whatif();
    bench_executor();
}
