//! Criterion benchmark for the versioned result cache.
//!
//! One timing covers draining a whole batch through the sequential cached
//! path — the unit a serving frontend cares about. Variants per batch shape:
//!
//! * `uncached` — a single-worker [`BatchExecutor::run`], the cache-free
//!   reference;
//! * `cached_cold` — the sequential [`CachedEve`] loop (`query_batch`)
//!   starting from an *empty* cache each iteration (`clear` + misses
//!   compute-then-publish): the worst case, measuring insert overhead on
//!   top of the pipeline;
//! * `cached_warm` — `cached.query_batch` on a pre-populated cache:
//!   the steady state of a hot fraud workload, where every query skips
//!   phases 1–3 and pays only a shard lock, a hash probe and the answer
//!   clone.
//!
//! Shapes: `repeat_heavy` (exact hot-key repeats — the cache's target
//! workload) and `skewed` (hub-skewed endpoints, few exact repeats — the
//! honest adversarial shape where a cold cache buys little).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use spg_core::{BatchExecutor, CachedEve, Eve, Query, SpgCache};
use spg_graph::generators::gnm_random;
use spg_graph::VersionedGraph;
use spg_workloads::{repeat_heavy_queries, skewed_queries};

/// Short measurement windows keep the full `cargo bench` run laptop-friendly.
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
}

fn batches(vg: &VersionedGraph) -> Vec<(&'static str, Vec<Query>)> {
    vec![
        (
            "repeat_heavy",
            repeat_heavy_queries(vg.graph(), 128, &[4, 6], 24, 0.7, 0xCACE),
        ),
        (
            "skewed",
            skewed_queries(vg.graph(), 128, 6, 16, 0.8, 0x5EED),
        ),
    ]
}

fn bench_result_cache(c: &mut Criterion) {
    let vg = VersionedGraph::new(gnm_random(4_000, 24_000, 7));
    let eve = Eve::with_defaults(vg.graph());
    for (shape, batch) in batches(&vg) {
        assert!(!batch.is_empty(), "{shape}: workload generation failed");
        let mut group = c.benchmark_group(format!("result_cache/{shape}"));
        let uncached = BatchExecutor::new(1);
        group.bench_function(BenchmarkId::from_parameter("uncached"), |b| {
            b.iter(|| std::hint::black_box(uncached.run(&eve, &batch)))
        });

        let cache = SpgCache::new(64 << 20);
        let cached = CachedEve::with_defaults(&vg, &cache);
        group.bench_function(BenchmarkId::from_parameter("cached_cold"), |b| {
            b.iter(|| {
                cache.clear();
                std::hint::black_box(cached.query_batch(&batch))
            })
        });

        // Populate once, then measure the all-hits steady state.
        cache.clear();
        let _ = cached.query_batch(&batch);
        group.bench_function(BenchmarkId::from_parameter("cached_warm"), |b| {
            b.iter(|| std::hint::black_box(cached.query_batch(&batch)))
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_result_cache
}
criterion_main!(benches);
