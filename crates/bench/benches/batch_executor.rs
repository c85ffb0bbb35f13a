//! Criterion benchmark for the parallel [`BatchExecutor`].
//!
//! One timing covers draining a whole batch — the unit a serving frontend
//! cares about. Variants:
//!
//! * `executor_Nt` — [`BatchExecutor::run`] at 1 / 2 / 4 threads, each
//!   worker owning a private workspace and claiming units through the
//!   atomic cursor.
//!
//! The 1-thread executor is the sequential reference: it runs the same
//! drain loop on the calling thread, with no spawn cost; on a multi-core
//! machine the 2- and 4-thread rows show the scaling. Batches are the mixed-`k`,
//! hub-skewed and hit/miss shapes from `spg_workloads::batch`, because those
//! are the production shapes batch processing targets.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use spg_core::{BatchExecutor, Eve, Query};
use spg_graph::generators::gnm_random;
use spg_graph::DiGraph;
use spg_workloads::{hit_miss_queries, mixed_k_queries, skewed_queries};

/// Short measurement windows keep the full `cargo bench` run laptop-friendly.
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
}

fn batches(g: &DiGraph) -> Vec<(&'static str, Vec<Query>)> {
    vec![
        ("mixed_k", mixed_k_queries(g, 64, &[4, 6, 8], 0x5EED)),
        ("skewed", skewed_queries(g, 64, 6, 16, 0.8, 0x5EED)),
        ("hit_miss", hit_miss_queries(g, 64, 6, 0.5, 0x5EED)),
    ]
}

fn bench_batch_executor(c: &mut Criterion) {
    let g = gnm_random(4_000, 24_000, 7);
    let eve = Eve::with_defaults(&g);
    for (shape, batch) in batches(&g) {
        assert!(!batch.is_empty(), "{shape}: workload generation failed");
        let mut group = c.benchmark_group(format!("batch_executor/{shape}"));
        for threads in [1usize, 2, 4] {
            let executor = BatchExecutor::new(threads);
            group.bench_function(
                BenchmarkId::from_parameter(format!("executor_{threads}t")),
                |b| b.iter(|| std::hint::black_box(executor.run(&eve, &batch))),
            );
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_batch_executor
}
criterion_main!(benches);
