//! Micro-benchmarks of COLT's own machinery: per-query profiling
//! overhead, the knapsack solver, and hot-set selection — the costs a
//! production deployment of the tuner would care about.

use colt_bench::bench;
use colt_catalog::{ColRef, PhysicalConfig, TableId};
use colt_core::{hotset, knapsack, ColtConfig, ColtTuner};
use colt_engine::Eqo;
use colt_storage::Prng;
use colt_workload::{generate, stable_distribution};
use std::hint::black_box;

/// Full tuner step (profile + amortized reorganization) per query.
fn bench_tuner_step() {
    let data = generate(0.01, 42);
    let db = &data.db;
    let dist = stable_distribution(&data, 0);
    let mut rng = Prng::new(1);
    let queries: Vec<_> = (0..512).map(|_| dist.sample(db, &mut rng)).collect();

    let mut physical = PhysicalConfig::new();
    let mut tuner =
        ColtTuner::new(ColtConfig { storage_budget_pages: 10_000, ..Default::default() });
    let mut eqo = Eqo::new(db);
    let mut i = 0usize;
    bench("tuner/on_query_amortized", || {
        let q = &queries[i % queries.len()];
        i += 1;
        let plan = eqo.optimize(q, &physical);
        black_box(tuner.on_query(db, &mut physical, &mut eqo, q, &plan));
    });
}

fn bench_knapsack() {
    for n in [16usize, 64, 256] {
        let items: Vec<knapsack::Item> = (0..n)
            .map(|i| knapsack::Item {
                size: (i as u64 * 37 % 200) + 1,
                value: ((i * 61) % 997) as f64,
            })
            .collect();
        let capacity: u64 = items.iter().map(|it| it.size).sum::<u64>() / 4;
        bench(&format!("knapsack/solve/{n}"), || {
            black_box(knapsack::solve(items.iter().copied(), capacity));
        });
    }
}

fn bench_hotset() {
    for n in [32usize, 256, 2048] {
        let benefits: Vec<(ColRef, f64)> = (0..n)
            .map(|i| {
                (ColRef::new(TableId((i / 64) as u32), (i % 64) as u32), ((i * 101) % 1009) as f64)
            })
            .collect();
        bench(&format!("hotset/select/{n}"), || {
            black_box(hotset::select_hot(&benefits, 10));
        });
    }
}

fn main() {
    println!("# tuner micro-benchmarks");
    bench_tuner_step();
    bench_knapsack();
    bench_hotset();
}
