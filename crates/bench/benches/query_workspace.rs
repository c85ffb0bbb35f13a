//! Criterion benchmark for the reusable `QueryWorkspace` hot path.
//!
//! Three variants answer the same query batch:
//!
//! * `legacy_hashmap` — the pre-compaction hash-map pipeline
//!   (`Eve::query_detailed_reference`), the baseline this PR's acceptance criterion
//!   measures against;
//! * `cold_workspace` — the flat pipeline with a fresh workspace per query
//!   (`Eve::query`), isolating the algorithmic win from the reuse win;
//! * `warm_workspace` — the flat pipeline on one long-lived workspace
//!   (`Eve::query_with`), the intended batch-serving configuration.
//!
//! Plus a batch-throughput case that measures whole-batch latency on the
//! warm workspace, mirroring how a query server would drain a request queue.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use spg_core::{Eve, Query, QueryWorkspace};
use spg_graph::generators::{gnm_random, TransactionGraph, TransactionGraphConfig};
use spg_graph::DiGraph;
use spg_workloads::reachable_queries;

/// Short measurement windows keep the full `cargo bench` run laptop-friendly.
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
}

/// The k = 6 suite the acceptance criterion references: a mid-size gnm graph
/// and the fraud case study's transaction network.
fn suites() -> Vec<(&'static str, DiGraph, Vec<Query>)> {
    let gnm = gnm_random(4_000, 24_000, 7);
    let txn = TransactionGraph::generate(TransactionGraphConfig {
        accounts: 3_000,
        background_transactions: 18_000,
        ..Default::default()
    })
    .full_graph();
    [("gnm", gnm), ("transaction", txn)]
        .into_iter()
        .map(|(name, g)| {
            let queries = reachable_queries(&g, 48, 6, 0x5EED);
            assert!(!queries.is_empty(), "{name}: workload generation failed");
            (name, g, queries)
        })
        .collect()
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    for (name, g, queries) in suites() {
        let eve = Eve::with_defaults(&g);
        let mut group = c.benchmark_group(format!("query_workspace/{name}"));
        group.bench_function(BenchmarkId::from_parameter("legacy_hashmap"), |b| {
            b.iter(|| {
                for &q in &queries {
                    std::hint::black_box(eve.query_detailed_reference(q).unwrap());
                }
            })
        });
        group.bench_function(BenchmarkId::from_parameter("cold_workspace"), |b| {
            b.iter(|| {
                for &q in &queries {
                    std::hint::black_box(eve.query(q).unwrap());
                }
            })
        });
        let mut ws = QueryWorkspace::new();
        group.bench_function(BenchmarkId::from_parameter("warm_workspace"), |b| {
            b.iter(|| {
                for &q in &queries {
                    std::hint::black_box(eve.query_with(&mut ws, q).unwrap());
                }
            })
        });
        group.finish();
    }
}

/// Whole-batch throughput on a warm workspace: one timing covers draining
/// the entire shuffled batch, the way a server loop would.
fn bench_batch_throughput(c: &mut Criterion) {
    let g = gnm_random(4_000, 24_000, 7);
    let eve = Eve::with_defaults(&g);
    // A larger mixed-k batch so allocator effects would show if present.
    let mut batch: Vec<Query> = Vec::new();
    for k in [4u32, 6, 8] {
        batch.extend(reachable_queries(&g, 32, k, 0xBA7C4));
    }
    let mut ws = QueryWorkspace::new();
    let mut edges_total = 0usize;
    c.bench_function("query_workspace/batch_96_queries_warm", |b| {
        b.iter(|| {
            edges_total = 0;
            for &q in &batch {
                edges_total += eve.query_with(&mut ws, q).unwrap().edge_count();
            }
            std::hint::black_box(edges_total);
        })
    });
    assert!(edges_total > 0);
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_cold_vs_warm, bench_batch_throughput
}
criterion_main!(benches);
