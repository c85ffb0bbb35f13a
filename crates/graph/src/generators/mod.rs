//! Deterministic random and structured graph generators.
//!
//! The paper evaluates on 15 real networks (Table 2) ranging from thousands
//! to billions of edges, downloaded from NetworkRepository, SNAP and Konect.
//! Those downloads are not available in this environment, so the workloads
//! crate simulates each dataset with a generator from this module whose
//! density regime and degree skew match the original: the path-count growth
//! and neighbourhood density the evaluation measures follow from those two
//! properties, not from the absolute vertex count.
//! All generators are seeded and fully deterministic, which keeps tests,
//! experiments and benchmarks reproducible.
//!
//! * [`gnm_random`] / [`gnp_random`] — Erdős–Rényi style graphs (homogeneous
//!   degrees; stands in for the economic/biological matrices such as `ps`).
//! * [`preferential_attachment`] — directed Barabási–Albert style growth
//!   (heavy-tailed in-degrees; stands in for web graphs such as `uk`, `sf`).
//! * [`power_law_configuration`] — directed configuration model with
//!   power-law out-degrees (stands in for social networks such as `lj`, `fr`).
//! * [`community_graph`] — planted-partition graph with dense communities and
//!   sparse inter-community edges (the "strongly cohesive communities" the
//!   paper's introduction motivates).
//! * [`structured`] — paths, cycles, complete graphs, grids and layered DAGs
//!   used heavily by unit and property tests.
//! * [`transaction`] — timestamped transaction multigraph with planted short
//!   cycles for the fraud-detection case study (Figure 13(a)).

mod random;
mod structured;
mod transaction;

pub use random::{
    community_graph, gnm_random, gnp_random, power_law_configuration, preferential_attachment,
};
pub use structured::{complete_graph, cycle_graph, grid_graph, layered_dag, path_graph};
pub use transaction::{TransactionEdge, TransactionGraph, TransactionGraphConfig};
