//! Criterion benchmark for the cohort-shared MS-BFS Phase 1.
//!
//! Two comparisons on fraud-ring-shaped batches (many queries fanning out
//! from few sources into few targets — the shape the cohort dedup targets):
//!
//! * **per-query vs shared** — `BatchExecutor` with `shared_phase1(false)`
//!   (one hop-bounded BFS pair per query) against the default cohort path
//!   (one MS-BFS pass per direction per cohort), single worker so the
//!   difference is sharing, not parallelism;
//! * **64-lane vs 256-lane cohorts** — the shared path capped at one-word
//!   lane blocks against the default four-word blocks, on a wide fraud
//!   ring whose distinct-pair count overflows a single 64-lane cohort.
//!
//! A mixed uniform batch is included as the low-dedup control: sharing must
//! still win (or at least not lose) when endpoint pairs rarely repeat — the
//! cost model dissolves unprofitable cohorts into per-query singletons.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spg_core::{BatchExecutor, Eve, LaneWidth};
use spg_graph::generators::gnm_random;
use spg_workloads::{mixed_k_queries, shared_endpoint_queries};

fn bench_batch_phase1(c: &mut Criterion) {
    let g = gnm_random(3_000, 18_000, 7);
    let eve = Eve::with_defaults(&g);
    let shapes = [
        (
            "shared_endpoint",
            shared_endpoint_queries(&g, 256, &[4, 6], 8, 8, 0xFA4D),
        ),
        (
            "shared_wide",
            // Asymmetric pools (many sources, few targets): every narrow
            // cohort re-walks the same source set, which is exactly the
            // repeated work a wider lane block collapses.
            shared_endpoint_queries(&g, 384, &[6, 6], 64, 4, 0x1A4E),
        ),
        (
            "mixed_uniform",
            mixed_k_queries(&g, 256, &[2, 4, 6], 0xBA7C),
        ),
    ];

    let mut group = c.benchmark_group("batch_phase1");
    for (shape, batch) in &shapes {
        assert!(!batch.is_empty(), "{shape}: workload generation failed");
        let per_query = BatchExecutor::new(1).shared_phase1(false);
        let shared = BatchExecutor::new(1);
        let narrow = BatchExecutor::new(1).phase1_lanes(LaneWidth::W64);

        // Sanity: all three paths agree before anything is timed.
        let reference = per_query.run(&eve, batch);
        for executor in [&shared, &narrow] {
            for (a, b) in executor.run(&eve, batch).iter().zip(&reference) {
                assert_eq!(
                    a.as_ref().unwrap().edges(),
                    b.as_ref().unwrap().edges(),
                    "shared and per-query paths diverged"
                );
            }
        }

        group.bench_with_input(
            BenchmarkId::new("per_query", shape),
            batch.as_slice(),
            |b, batch| b.iter(|| per_query.run(&eve, batch)),
        );
        group.bench_with_input(
            BenchmarkId::new("shared_lanes256", shape),
            batch.as_slice(),
            |b, batch| b.iter(|| shared.run(&eve, batch)),
        );
        group.bench_with_input(
            BenchmarkId::new("shared_lanes64", shape),
            batch.as_slice(),
            |b, batch| b.iter(|| narrow.run(&eve, batch)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batch_phase1);
criterion_main!(benches);
