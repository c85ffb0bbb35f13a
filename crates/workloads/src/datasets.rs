//! Synthetic dataset registry mirroring Table 2 of the paper.
//!
//! The paper evaluates on 15 real networks from NetworkRepository, SNAP and
//! Konect, from 3.1K to 89M vertices. Those downloads are unavailable in
//! this environment and the largest of them would not fit a laptop anyway,
//! so every dataset is *simulated*: a deterministic generator from
//! [`spg_graph::generators`] with the same name, the same broad family, a
//! matching density regime (average degree) and a heavily scaled-down vertex
//! count. The substitution preserves the behaviours the evaluation measures
//! (path-count explosion vs. bounded `|E(SPG_k)|`, dense vs. sparse
//! neighbourhoods, degree skew) because they follow from average degree and
//! skew, which the generators match, rather than from absolute size.
//!
//! Every dataset is identified by the paper's two-letter code (`ps`, `ye`,
//! `wn`, …). [`DatasetSpec::build`] produces the graph deterministically.

use spg_graph::generators::{
    community_graph, gnm_random, power_law_configuration, preferential_attachment,
};
use spg_graph::{DegreeStats, DiGraph};

/// Graph family used to pick the generator that simulates a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphFamily {
    /// Dense homogeneous matrices (economic / brain networks): Erdős–Rényi.
    DenseUniform,
    /// Biological interaction networks: community structure with dense blocks.
    Community,
    /// Web graphs: preferential attachment with heavy-tailed in-degrees.
    Web,
    /// Social / communication networks: power-law configuration model.
    Social,
}

/// Scale factor applied to the dataset sizes.
///
/// `Quick` keeps every graph below ~20K edges so the full experiment matrix
/// runs in seconds; `Full` targets the hundreds-of-thousands-of-edges range,
/// which is the largest laptop-friendly setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DatasetScale {
    /// Small graphs for smoke tests and CI.
    #[default]
    Quick,
    /// Larger graphs for the reported experiments.
    Full,
}

/// Specification of one simulated dataset.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Two-letter code used in the paper (e.g. `"wn"`).
    pub code: &'static str,
    /// Full dataset name from Table 2 (e.g. `"bio-WormNet-v3"`).
    pub paper_name: &'static str,
    /// Family that selects the simulating generator.
    pub family: GraphFamily,
    /// Number of vertices in the paper's original dataset.
    pub paper_vertices: u64,
    /// Number of edges in the paper's original dataset.
    pub paper_edges: u64,
    /// Average degree reported in Table 2.
    pub paper_avg_degree: u32,
    /// RNG seed for deterministic generation.
    pub seed: u64,
}

impl DatasetSpec {
    /// Vertex count used at the given scale.
    pub fn scaled_vertices(&self, scale: DatasetScale) -> usize {
        let base = match scale {
            DatasetScale::Quick => 400usize,
            DatasetScale::Full => 4_000usize,
        };
        // Larger originals get proportionally (but sub-linearly) larger
        // simulations, capped to keep everything laptop-friendly.
        let magnitude = (self.paper_vertices as f64).log10().max(3.0) - 2.0;
        ((base as f64) * magnitude).round() as usize
    }

    /// Target average degree at the given scale (capped so the densest
    /// simulated graphs stay tractable).
    pub fn scaled_avg_degree(&self, scale: DatasetScale) -> f64 {
        let cap = match scale {
            DatasetScale::Quick => 24.0,
            DatasetScale::Full => 48.0,
        };
        (self.paper_avg_degree as f64).min(cap).max(2.0)
    }

    /// Deterministically builds the simulated graph.
    pub fn build(&self, scale: DatasetScale) -> DiGraph {
        let n = self.scaled_vertices(scale);
        let avg = self.scaled_avg_degree(scale);
        let m = (n as f64 * avg) as usize;
        match self.family {
            GraphFamily::DenseUniform => gnm_random(n, m, self.seed),
            GraphFamily::Community => {
                let communities = (n / 60).clamp(2, 24);
                let block = (n / communities).max(2) as f64;
                // p_in chosen so intra-community edges alone deliver ~80% of
                // the requested degree.
                let p_in = (0.8 * avg / block).min(0.9);
                let p_out = (0.2 * avg / n as f64).min(0.1);
                community_graph(n, communities, p_in, p_out, self.seed)
            }
            GraphFamily::Web => {
                let out_per_vertex = (avg / 1.3).round().max(1.0) as usize;
                preferential_attachment(n, out_per_vertex, 0.3, self.seed)
            }
            GraphFamily::Social => power_law_configuration(n, avg, 2.2, self.seed),
        }
    }

    /// Convenience: build and report the degree statistics.
    pub fn build_with_stats(&self, scale: DatasetScale) -> (DiGraph, DegreeStats) {
        let g = self.build(scale);
        let stats = DegreeStats::of(&g);
        (g, stats)
    }
}

/// The 15 datasets of Table 2, in the paper's order.
pub const DATASETS: [DatasetSpec; 15] = [
    DatasetSpec {
        code: "ps",
        paper_name: "econ-psmigr3",
        family: GraphFamily::DenseUniform,
        paper_vertices: 3_100,
        paper_edges: 540_000,
        paper_avg_degree: 172,
        seed: 0xA001,
    },
    DatasetSpec {
        code: "ye",
        paper_name: "bio-grid-yeast",
        family: GraphFamily::Community,
        paper_vertices: 6_000,
        paper_edges: 314_000,
        paper_avg_degree: 52,
        seed: 0xA002,
    },
    DatasetSpec {
        code: "wn",
        paper_name: "bio-WormNet-v3",
        family: GraphFamily::Community,
        paper_vertices: 16_000,
        paper_edges: 763_000,
        paper_avg_degree: 47,
        seed: 0xA003,
    },
    DatasetSpec {
        code: "uk",
        paper_name: "web-uk-2005",
        family: GraphFamily::Web,
        paper_vertices: 130_000,
        paper_edges: 12_000_000,
        paper_avg_degree: 91,
        seed: 0xA004,
    },
    DatasetSpec {
        code: "sf",
        paper_name: "web-Stanford",
        family: GraphFamily::Web,
        paper_vertices: 282_000,
        paper_edges: 13_000_000,
        paper_avg_degree: 46,
        seed: 0xA005,
    },
    DatasetSpec {
        code: "bk",
        paper_name: "web-baidu-baike",
        family: GraphFamily::Web,
        paper_vertices: 416_000,
        paper_edges: 3_300_000,
        paper_avg_degree: 8,
        seed: 0xA006,
    },
    DatasetSpec {
        code: "tw",
        paper_name: "twitter-social",
        family: GraphFamily::Social,
        paper_vertices: 465_000,
        paper_edges: 835_000,
        paper_avg_degree: 2,
        seed: 0xA007,
    },
    DatasetSpec {
        code: "bs",
        paper_name: "web-BerkStan",
        family: GraphFamily::Web,
        paper_vertices: 685_000,
        paper_edges: 7_600_000,
        paper_avg_degree: 11,
        seed: 0xA008,
    },
    DatasetSpec {
        code: "gg",
        paper_name: "web-Google",
        family: GraphFamily::Web,
        paper_vertices: 876_000,
        paper_edges: 5_100_000,
        paper_avg_degree: 6,
        seed: 0xA009,
    },
    DatasetSpec {
        code: "hm",
        paper_name: "bn-human-Jung2015",
        family: GraphFamily::DenseUniform,
        paper_vertices: 976_000,
        paper_edges: 146_000_000,
        paper_avg_degree: 150,
        seed: 0xA00A,
    },
    DatasetSpec {
        code: "wt",
        paper_name: "wikiTalk",
        family: GraphFamily::Social,
        paper_vertices: 2_400_000,
        paper_edges: 5_000_000,
        paper_avg_degree: 2,
        seed: 0xA00B,
    },
    DatasetSpec {
        code: "lj",
        paper_name: "soc-LiveJournal1",
        family: GraphFamily::Social,
        paper_vertices: 4_800_000,
        paper_edges: 68_000_000,
        paper_avg_degree: 14,
        seed: 0xA00C,
    },
    DatasetSpec {
        code: "dl",
        paper_name: "dbpedia-link",
        family: GraphFamily::Web,
        paper_vertices: 18_000_000,
        paper_edges: 137_000_000,
        paper_avg_degree: 7,
        seed: 0xA00D,
    },
    DatasetSpec {
        code: "fr",
        paper_name: "soc-friendster",
        family: GraphFamily::Social,
        paper_vertices: 66_000_000,
        paper_edges: 1_800_000_000,
        paper_avg_degree: 28,
        seed: 0xA00E,
    },
    DatasetSpec {
        code: "hg",
        paper_name: "web-cc12-hostgraph",
        family: GraphFamily::Web,
        paper_vertices: 89_000_000,
        paper_edges: 2_000_000_000,
        paper_avg_degree: 23,
        seed: 0xA00F,
    },
];

/// Looks a dataset up by its two-letter code.
pub fn dataset_by_code(code: &str) -> Option<&'static DatasetSpec> {
    DATASETS.iter().find(|d| d.code == code)
}

/// The subset of datasets the paper highlights most often (used by the
/// quicker experiment presets).
pub fn headline_datasets() -> Vec<&'static DatasetSpec> {
    ["ps", "ye", "wn", "bs", "lj"]
        .iter()
        .filter_map(|c| dataset_by_code(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_fifteen_distinct_datasets() {
        assert_eq!(DATASETS.len(), 15);
        let codes: std::collections::HashSet<&str> = DATASETS.iter().map(|d| d.code).collect();
        assert_eq!(codes.len(), 15);
        assert!(dataset_by_code("wn").is_some());
        assert!(dataset_by_code("zz").is_none());
        assert_eq!(headline_datasets().len(), 5);
    }

    #[test]
    fn quick_scale_graphs_are_small_and_deterministic() {
        for spec in &DATASETS {
            let g1 = spec.build(DatasetScale::Quick);
            assert!(g1.vertex_count() >= 300, "{} too small", spec.code);
            assert!(
                g1.edge_count() < 120_000,
                "{} too large for quick scale",
                spec.code
            );
            let g2 = spec.build(DatasetScale::Quick);
            assert_eq!(g1, g2, "{} not deterministic", spec.code);
        }
    }

    #[test]
    fn density_ordering_roughly_follows_the_paper() {
        // ps (avg 172, capped) must be denser than tw (avg 2).
        let ps = dataset_by_code("ps").unwrap().build(DatasetScale::Quick);
        let tw = dataset_by_code("tw").unwrap().build(DatasetScale::Quick);
        assert!(ps.avg_degree() > 4.0 * tw.avg_degree());
    }

    #[test]
    fn full_scale_is_larger_than_quick_scale() {
        let spec = dataset_by_code("ye").unwrap();
        let quick = spec.build(DatasetScale::Quick);
        let full = spec.build(DatasetScale::Full);
        assert!(full.vertex_count() > quick.vertex_count());
        assert!(full.edge_count() > quick.edge_count());
    }

    #[test]
    fn build_with_stats_reports_consistent_numbers() {
        let spec = dataset_by_code("bk").unwrap();
        let (g, stats) = spec.build_with_stats(DatasetScale::Quick);
        assert_eq!(stats.vertices, g.vertex_count());
        assert_eq!(stats.edges, g.edge_count());
        assert!(stats.avg_degree > 1.0);
    }
}
