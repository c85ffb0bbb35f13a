//! Structural properties of the upper-bound graph, the k-hop subgraph and
//! the answer itself, checked across crates.

use hop_spg::baselines::{khsq_plus, spg_by_enumeration, EnumerationAlgorithm};
use hop_spg::eve::{Eve, Query, QueryWorkspace};
use hop_spg::graph::generators::gnm_random;
use hop_spg::workloads::reachable_queries;

/// Theorem 4.8 plus Definition 4.1: the upper bound always contains the
/// exact answer, and equals it for k ≤ 4.
#[test]
fn upper_bound_contains_answer_and_is_exact_for_small_k() {
    for seed in 0..6u64 {
        let g = gnm_random(50, 280, 40 + seed);
        let eve = Eve::with_defaults(&g);
        for k in 2..=7u32 {
            for q in reachable_queries(&g, 4, k, seed) {
                let out = eve
                    .query_detailed_with(&mut QueryWorkspace::new(), q)
                    .unwrap();
                assert!(
                    out.spg.as_subgraph().is_subgraph_of(&out.upper_bound),
                    "answer ⊄ upper bound for {q}"
                );
                if k <= 4 {
                    assert_eq!(
                        out.upper_bound.edge_count(),
                        out.spg.edge_count(),
                        "upper bound not exact for {q}"
                    );
                }
            }
        }
    }
}

/// `SPG_k(s,t) ⊆ G^k_st`: the simple path graph is always inside the k-hop
/// subgraph computed by KHSQ+ (§6.7).
#[test]
fn spg_is_contained_in_the_khop_subgraph() {
    let g = gnm_random(60, 350, 5);
    let eve = Eve::with_defaults(&g);
    for k in 3..=7u32 {
        for q in reachable_queries(&g, 5, k, 60 + k as u64) {
            let spg = eve.query(q).unwrap();
            let (gkst, _) = khsq_plus(&g, q.source, q.target, q.k);
            assert!(
                spg.as_subgraph().is_subgraph_of(&gkst),
                "SPG ⊄ G^k_st for {q}"
            );
        }
    }
}

/// Monotonicity in k: increasing the hop budget can only add edges.
#[test]
fn answers_are_monotone_in_k() {
    let g = gnm_random(45, 240, 71);
    let eve = Eve::with_defaults(&g);
    for q in reachable_queries(&g, 6, 3, 8) {
        let mut previous = eve.query(Query::new(q.source, q.target, 2)).unwrap();
        for k in 3..=8u32 {
            let current = eve.query(Query::new(q.source, q.target, k)).unwrap();
            assert!(
                previous.as_subgraph().is_subgraph_of(current.as_subgraph()),
                "SPG_{} ⊄ SPG_{k} for {q}",
                k - 1
            );
            previous = current;
        }
    }
}

/// Every edge of the answer admits an independently verified witness path:
/// re-running the enumeration oracle restricted to the answer graph yields
/// the answer itself (no dead edges).
#[test]
fn answer_graph_has_no_dead_edges() {
    let g = gnm_random(40, 220, 99);
    let eve = Eve::with_defaults(&g);
    for k in [5u32, 7] {
        for q in reachable_queries(&g, 4, k, 100 + k as u64) {
            let spg = eve.query(q).unwrap();
            let restricted = spg.to_graph(g.vertex_count());
            let re_enumerated = spg_by_enumeration(
                EnumerationAlgorithm::PrunedDfs,
                &restricted,
                q.source,
                q.target,
                q.k,
            );
            assert_eq!(spg.edges(), re_enumerated.edges(), "dead edges in {q}");
        }
    }
}

/// Coverage ratio is a proper ratio and the answer never exceeds the host
/// graph.
#[test]
fn coverage_ratio_is_bounded() {
    let g = gnm_random(80, 500, 3);
    let eve = Eve::with_defaults(&g);
    for q in reachable_queries(&g, 10, 6, 12) {
        let spg = eve.query(q).unwrap();
        let r = spg.coverage_ratio(&g);
        assert!((0.0..=1.0).contains(&r));
        assert!(spg.edge_count() <= g.edge_count());
    }
}
