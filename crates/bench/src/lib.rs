//! # spg-bench — benchmark harness reproducing the paper's tables and figures
//!
//! Every table and figure of the evaluation section has a dedicated binary in
//! `src/bin/`, named after it (`fig2_growth`, `table3_redundancy`, …; the
//! README's "Build, test, bench" section shows how to run them). This library
//! holds the shared machinery:
//!
//! * [`HarnessConfig`] — command-line configuration (`--full`, `--queries N`,
//!   `--datasets wn,uk`, `--seed S`, `--budget-ms M`);
//! * [`Table`] — plain-text / CSV table rendering;
//! * algorithm runners with a wall-clock cutoff, mirroring the paper's "INF
//!   if an algorithm does not terminate within the budget" convention;
//! * summary statistics helpers (mean / median / min / max).
//!
//! The binaries print the same rows/series the paper reports. Absolute
//! numbers differ (simulated, scaled-down datasets on laptop hardware); the
//! shapes — who wins, by roughly what factor, where the crossovers are — are
//! what EXPERIMENTS.md tracks.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use spg_baselines::{join_enumerate_with_stats, EdgeUnion, PathEnumIndex, PathSink};
use spg_core::{Eve, EveConfig, Query};
use spg_graph::{DiGraph, VertexId};
use spg_workloads::{DatasetScale, DatasetSpec, DATASETS};

/// Command-line configuration shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Dataset scale (quick by default, `--full` for the larger graphs).
    pub scale: DatasetScale,
    /// Queries per (dataset, k) setting (the paper uses 1000).
    pub queries: usize,
    /// Dataset codes to run on (defaults to a per-experiment selection).
    pub datasets: Option<Vec<String>>,
    /// Workload seed.
    pub seed: u64,
    /// Per-algorithm, per-query wall-clock budget before a run counts as INF.
    pub budget: Duration,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale: DatasetScale::Quick,
            queries: 100,
            datasets: None,
            seed: 0x5EED,
            budget: Duration::from_millis(250),
        }
    }
}

impl HarnessConfig {
    /// Parses the process arguments. Unknown arguments abort with a usage
    /// message so typos do not silently change an experiment.
    pub fn from_args() -> HarnessConfig {
        let mut cfg = HarnessConfig::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => {
                    cfg.scale = DatasetScale::Full;
                    cfg.queries = 1000;
                    cfg.budget = Duration::from_secs(2);
                }
                "--quick" => cfg.scale = DatasetScale::Quick,
                "--queries" => {
                    cfg.queries = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--queries needs a number"));
                }
                "--seed" => {
                    cfg.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs a number"));
                }
                "--budget-ms" => {
                    let ms: u64 = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--budget-ms needs a number"));
                    cfg.budget = Duration::from_millis(ms);
                }
                "--datasets" => {
                    let list = args
                        .next()
                        .unwrap_or_else(|| usage("--datasets needs a comma-separated list"));
                    cfg.datasets = Some(list.split(',').map(|s| s.trim().to_string()).collect());
                }
                "--help" | "-h" => usage("usage"),
                other => usage(&format!("unknown argument {other}")),
            }
        }
        cfg
    }

    /// Resolves the dataset selection: the explicit `--datasets` list if
    /// given, otherwise the experiment's default codes.
    pub fn select_datasets(&self, default_codes: &[&str]) -> Vec<&'static DatasetSpec> {
        let codes: Vec<String> = match &self.datasets {
            Some(list) => list.clone(),
            None => default_codes.iter().map(|s| s.to_string()).collect(),
        };
        codes
            .iter()
            .filter_map(|c| {
                let found = DATASETS.iter().find(|d| d.code == c.as_str());
                if found.is_none() {
                    eprintln!("warning: unknown dataset code {c:?} ignored");
                }
                found
            })
            .collect()
    }
}

fn usage(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "options: --quick | --full | --queries N | --seed S | --budget-ms M | --datasets a,b,c"
    );
    std::process::exit(2);
}

/// A simple text table with aligned columns and CSV export.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many cells as there are headers).
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1))),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        println!("{}", self.render()); // spg-analyze: allow(no-panic) — the rendered report table is the bench bins' stdout product
    }
}

/// Mean of a slice of durations (zero if empty).
pub fn mean_duration(values: &[Duration]) -> Duration {
    if values.is_empty() {
        return Duration::ZERO;
    }
    values.iter().sum::<Duration>() / values.len() as u32
}

/// Mean of a slice of f64 values (zero if empty).
pub fn mean_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Minimum / median / maximum of a slice of usizes (zeros if empty).
pub fn min_median_max(values: &[usize]) -> (usize, usize, usize) {
    if values.is_empty() {
        return (0, 0, 0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    (
        sorted[0],
        sorted[sorted.len() / 2],
        sorted[sorted.len() - 1],
    )
}

/// Formats a duration in milliseconds with three decimals.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Formats a possibly-infinite total time (INF when any query hit the budget).
pub fn fmt_total(total: Option<Duration>) -> String {
    match total {
        Some(d) => fmt_ms(d),
        None => "INF".to_string(),
    }
}

/// Which algorithm generates `SPG_k(s, t)` in a comparison experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpgAlgorithm {
    /// The paper's contribution.
    Eve,
    /// Path enumeration with JOIN, union of edges.
    Join,
    /// Path enumeration with PathEnum, union of edges.
    PathEnum,
    /// JOIN restricted to the `G^k_st` subgraph computed by KHSQ+ (§6.8).
    JoinOnGkst,
    /// PathEnum restricted to `G^k_st` (§6.8).
    PathEnumOnGkst,
}

impl SpgAlgorithm {
    /// Display name used in result tables.
    pub fn name(self) -> &'static str {
        match self {
            SpgAlgorithm::Eve => "EVE",
            SpgAlgorithm::Join => "JOIN",
            SpgAlgorithm::PathEnum => "PathEnum",
            SpgAlgorithm::JoinOnGkst => "KHSQ+ +JOIN",
            SpgAlgorithm::PathEnumOnGkst => "KHSQ+ +PathEnum",
        }
    }
}

/// Result of answering one query with one algorithm.
#[derive(Debug, Clone, Copy)]
pub struct QueryRun {
    /// Time spent (capped by the budget).
    pub elapsed: Duration,
    /// Edges in the produced simple path graph.
    pub spg_edges: usize,
    /// Estimated peak bytes of the algorithm's working state.
    pub memory_bytes: usize,
    /// `true` if the wall-clock budget expired before completion.
    pub timed_out: bool,
}

/// Edge-union sink that aborts once a wall-clock deadline passes.
struct BudgetedUnion {
    union: EdgeUnion,
    deadline: Instant,
    timed_out: bool,
}

impl BudgetedUnion {
    fn new(budget: Duration) -> Self {
        BudgetedUnion {
            union: EdgeUnion::new(),
            deadline: Instant::now() + budget,
            timed_out: false,
        }
    }
}

impl PathSink for BudgetedUnion {
    fn accept(&mut self, path: &[VertexId]) -> bool {
        if !self.union.accept(path) {
            return false;
        }
        if self.union.path_count() % 256 == 0 && Instant::now() > self.deadline {
            self.timed_out = true;
            return false;
        }
        true
    }
}

/// Walk-count ceiling derived from the per-query time budget: enumerations
/// whose estimated work exceeds it are marked INF without being run, because
/// the deepest enumeration loops (partial-path generation, join pairing)
/// cannot be interrupted mid-flight. The constant assumes a conservative
/// ~20M walk-units per second.
fn cost_ceiling(budget: Duration) -> f64 {
    budget.as_secs_f64() * 20e6
}

fn skipped(start: Instant) -> QueryRun {
    QueryRun {
        elapsed: start.elapsed(),
        spg_edges: 0,
        memory_bytes: 0,
        timed_out: true,
    }
}

/// Answers one query with the chosen algorithm, honouring the budget.
pub fn run_query(
    algorithm: SpgAlgorithm,
    g: &DiGraph,
    eve: &Eve<'_>,
    query: Query,
    budget: Duration,
) -> QueryRun {
    let start = Instant::now();
    match algorithm {
        SpgAlgorithm::Eve => {
            let spg = eve.query(query).expect("workload queries are valid"); // spg-analyze: allow(no-panic) — generated workload queries are in-range by construction
            QueryRun {
                elapsed: start.elapsed(),
                spg_edges: spg.edge_count(),
                memory_bytes: spg.stats().memory.peak_bytes(),
                timed_out: false,
            }
        }
        SpgAlgorithm::Join => {
            let index = PathEnumIndex::build(g, query.source, query.target, query.k);
            if index.estimated_join_cost() > cost_ceiling(budget) {
                return skipped(start);
            }
            let mut sink = BudgetedUnion::new(budget);
            let stats =
                join_enumerate_with_stats(g, query.source, query.target, query.k, &mut sink);
            QueryRun {
                elapsed: start.elapsed(),
                spg_edges: sink.union.edge_count(),
                memory_bytes: stats.partial_bytes,
                timed_out: sink.timed_out,
            }
        }
        SpgAlgorithm::PathEnum => {
            let index = PathEnumIndex::build(g, query.source, query.target, query.k);
            let memory = index.memory_bytes();
            let cheapest = index.estimated_dfs_cost().min(index.estimated_join_cost());
            if cheapest > cost_ceiling(budget) {
                return skipped(start);
            }
            let mut sink = BudgetedUnion::new(budget);
            index.enumerate(&mut sink);
            QueryRun {
                elapsed: start.elapsed(),
                spg_edges: sink.union.edge_count(),
                memory_bytes: memory,
                timed_out: sink.timed_out,
            }
        }
        SpgAlgorithm::JoinOnGkst | SpgAlgorithm::PathEnumOnGkst => {
            let (gkst, _) = spg_baselines::khsq_plus(g, query.source, query.target, query.k);
            let restricted = gkst.to_graph(g.vertex_count());
            let index = PathEnumIndex::build(&restricted, query.source, query.target, query.k);
            let mut sink = BudgetedUnion::new(budget);
            match algorithm {
                SpgAlgorithm::JoinOnGkst => {
                    if index.estimated_join_cost() > cost_ceiling(budget) {
                        return skipped(start);
                    }
                    join_enumerate_with_stats(
                        &restricted,
                        query.source,
                        query.target,
                        query.k,
                        &mut sink,
                    );
                }
                _ => {
                    let cheapest = index.estimated_dfs_cost().min(index.estimated_join_cost());
                    if cheapest > cost_ceiling(budget) {
                        return skipped(start);
                    }
                    index.enumerate(&mut sink);
                }
            }
            QueryRun {
                elapsed: start.elapsed(),
                spg_edges: sink.union.edge_count(),
                memory_bytes: restricted.memory_bytes(),
                timed_out: sink.timed_out,
            }
        }
    }
}

/// Sums per-query times for one algorithm; `None` (= INF) if any query timed
/// out, matching the paper's Figure 8 convention.
pub fn total_time(runs: &[QueryRun]) -> Option<Duration> {
    if runs.iter().any(|r| r.timed_out) {
        None
    } else {
        Some(runs.iter().map(|r| r.elapsed).sum())
    }
}

/// Runs a whole query batch with one algorithm.
pub fn run_batch(
    algorithm: SpgAlgorithm,
    g: &DiGraph,
    eve: &Eve<'_>,
    queries: &[Query],
    budget: Duration,
) -> Vec<QueryRun> {
    queries
        .iter()
        .map(|&q| run_query(algorithm, g, eve, q, budget))
        .collect()
}

/// Builds a graph for a dataset at the configured scale.
pub fn build_dataset(spec: &DatasetSpec, cfg: &HarnessConfig) -> DiGraph {
    spec.build(cfg.scale)
}

/// Convenience constructor used by all binaries.
pub fn default_eve(g: &DiGraph) -> Eve<'_> {
    Eve::new(g, EveConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg_workloads::reachable_queries;

    #[test]
    fn table_rendering_and_csv() {
        let mut t = Table::new("demo", &["a", "bee", "c"]);
        t.add_row(vec!["1".into(), "2".into(), "3".into()]);
        t.add_row(vec!["10".into(), "20".into(), "30".into()]);
        let text = t.render();
        assert!(text.contains("## demo"));
        assert!(text.contains("bee"));
        assert_eq!(t.row_count(), 2);
        let csv = t.to_csv();
        assert!(csv.starts_with("a,bee,c\n"));
        assert!(csv.contains("10,20,30"));
    }

    #[test]
    fn statistics_helpers() {
        assert_eq!(
            mean_duration(&[Duration::from_millis(2), Duration::from_millis(4)]),
            Duration::from_millis(3)
        );
        assert_eq!(mean_duration(&[]), Duration::ZERO);
        assert_eq!(mean_f64(&[1.0, 3.0]), 2.0);
        assert_eq!(min_median_max(&[5, 1, 9]), (1, 5, 9));
        assert_eq!(min_median_max(&[]), (0, 0, 0));
        assert_eq!(fmt_total(None), "INF");
        assert!(!fmt_total(Some(Duration::from_millis(3))).is_empty());
    }

    #[test]
    fn all_algorithms_agree_on_edge_counts_within_budget() {
        let g = spg_graph::generators::gnm_random(60, 300, 5);
        let eve = default_eve(&g);
        let queries = reachable_queries(&g, 5, 5, 3);
        let generous = Duration::from_secs(5);
        for &q in &queries {
            let reference = run_query(SpgAlgorithm::Eve, &g, &eve, q, generous);
            for alg in [
                SpgAlgorithm::Join,
                SpgAlgorithm::PathEnum,
                SpgAlgorithm::JoinOnGkst,
                SpgAlgorithm::PathEnumOnGkst,
            ] {
                let run = run_query(alg, &g, &eve, q, generous);
                assert!(!run.timed_out, "{} timed out unexpectedly", alg.name());
                assert_eq!(run.spg_edges, reference.spg_edges, "{}", alg.name());
            }
        }
        let runs = run_batch(SpgAlgorithm::Eve, &g, &eve, &queries, generous);
        assert!(total_time(&runs).is_some());
    }

    #[test]
    fn dataset_selection_resolves_codes() {
        let cfg = HarnessConfig::default();
        let selected = cfg.select_datasets(&["wn", "uk"]);
        assert_eq!(selected.len(), 2);
        let cfg2 = HarnessConfig {
            datasets: Some(vec!["ps".into(), "nope".into()]),
            ..Default::default()
        };
        let selected2 = cfg2.select_datasets(&["wn"]);
        assert_eq!(selected2.len(), 1);
        assert_eq!(selected2[0].code, "ps");
    }
}
