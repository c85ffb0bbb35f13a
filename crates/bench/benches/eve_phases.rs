//! Criterion micro-benchmarks for the individual EVE phases (distance index,
//! essential-vertex propagation, edge labeling, verification, full pipeline).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Short measurement windows keep the full `cargo bench` run laptop-friendly.
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
}

use spg_core::labeling::UpperBoundGraph;
use spg_core::propagation::Propagation;
use spg_core::verification::verify_undetermined;
use spg_core::{Eve, EveConfig, Query};
use spg_graph::{DiGraph, DistanceIndex, DistanceStrategy};
use spg_workloads::{dataset_by_code, reachable_queries, DatasetScale};

fn setup() -> (DiGraph, Vec<Query>) {
    let g = dataset_by_code("ye")
        .expect("dataset registered")
        .build(DatasetScale::Quick);
    let queries = reachable_queries(&g, 8, 6, 42);
    (g, queries)
}

fn bench_distance_strategies(c: &mut Criterion) {
    let (g, queries) = setup();
    let mut group = c.benchmark_group("distance_index");
    for strategy in DistanceStrategy::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy.name()),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    for q in &queries {
                        std::hint::black_box(DistanceIndex::compute(
                            &g, q.source, q.target, q.k, strategy,
                        ));
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_propagation(c: &mut Criterion) {
    let (g, queries) = setup();
    let mut group = c.benchmark_group("propagation");
    for pruning in [false, true] {
        let label = if pruning {
            "with_pruning"
        } else {
            "no_pruning"
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &pruning,
            |b, &pruning| {
                b.iter(|| {
                    for &q in &queries {
                        let idx = DistanceIndex::compute(
                            &g,
                            q.source,
                            q.target,
                            q.k,
                            DistanceStrategy::AdaptiveBidirectional,
                        );
                        std::hint::black_box(Propagation::forward(&g, q, &idx, pruning));
                        std::hint::black_box(Propagation::backward(&g, q, &idx, pruning));
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_labeling_and_verification(c: &mut Criterion) {
    let (g, queries) = setup();
    // Pre-compute the inputs so only the phase under test is measured.
    let prepared: Vec<_> = queries
        .iter()
        .map(|&q| {
            let idx = DistanceIndex::compute(
                &g,
                q.source,
                q.target,
                q.k,
                DistanceStrategy::AdaptiveBidirectional,
            );
            let fwd = Propagation::forward(&g, q, &idx, true);
            let bwd = Propagation::backward(&g, q, &idx, true);
            (q, idx, fwd, bwd)
        })
        .collect();
    c.bench_function("edge_labeling", |b| {
        b.iter(|| {
            for (q, idx, fwd, bwd) in &prepared {
                std::hint::black_box(UpperBoundGraph::build(&g, *q, idx, fwd, bwd));
            }
        })
    });
    let uppers: Vec<_> = prepared
        .iter()
        .map(|(q, idx, fwd, bwd)| (*q, UpperBoundGraph::build(&g, *q, idx, fwd, bwd)))
        .collect();
    c.bench_function("verification", |b| {
        b.iter(|| {
            for (q, ub) in &uppers {
                std::hint::black_box(verify_undetermined(ub, *q));
            }
        })
    });
}

fn bench_full_pipeline(c: &mut Criterion) {
    let (g, queries) = setup();
    let mut group = c.benchmark_group("full_query");
    // The full/naive ablation runs on the hash-map reference pipeline: the
    // workspace pipeline's space compaction structurally subsumes most of
    // the pruning being ablated (see `EveConfig::forward_looking_pruning`).
    // The workspace pipeline itself is measured by the `query_workspace`
    // bench.
    for (label, config) in [("full", EveConfig::full()), ("naive", EveConfig::naive())] {
        let eve = Eve::new(&g, config);
        group.bench_with_input(BenchmarkId::from_parameter(label), &eve, |b, eve| {
            b.iter(|| {
                for &q in &queries {
                    std::hint::black_box(eve.query_detailed_reference(q).unwrap());
                }
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets =
    bench_distance_strategies,
    bench_propagation,
    bench_labeling_and_verification,
    bench_full_pipeline

}
criterion_main!(benches);
