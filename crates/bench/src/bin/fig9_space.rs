//! Figure 9: maximum / median / minimum space cost per query (k = 6) for
//! EVE, JOIN and PathEnum, using analytic per-structure byte counts (EVE's
//! `spg_core::MemoryEstimate`, the baselines' own accounting) in place of
//! process RSS, so the figures are deterministic across runs.

use spg_bench::{
    build_dataset, default_eve, min_median_max, run_batch, HarnessConfig, SpgAlgorithm, Table,
};
use spg_workloads::reachable_queries;

fn main() {
    let cfg = HarnessConfig::from_args();
    let datasets = cfg.select_datasets(&[
        "ps", "ye", "wn", "uk", "sf", "bk", "tw", "bs", "gg", "hm", "wt", "lj", "dl", "fr", "hg",
    ]);
    let k = 6u32;
    let mut table = Table::new(
        "Figure 9: space cost in KiB per query (k = 6): max / median / min",
        &["dataset", "algorithm", "max", "median", "min"],
    );
    for spec in datasets {
        let g = build_dataset(spec, &cfg);
        let eve = default_eve(&g);
        let queries = reachable_queries(&g, cfg.queries, k, cfg.seed);
        if queries.is_empty() {
            continue;
        }
        for alg in [
            SpgAlgorithm::Eve,
            SpgAlgorithm::Join,
            SpgAlgorithm::PathEnum,
        ] {
            let runs = run_batch(alg, &g, &eve, &queries, cfg.budget);
            let bytes: Vec<usize> = runs.iter().map(|r| r.memory_bytes).collect();
            let (min, median, max) = min_median_max(&bytes);
            table.add_row(vec![
                spec.code.to_string(),
                alg.name().to_string(),
                format!("{:.1}", max as f64 / 1024.0),
                format!("{:.1}", median as f64 / 1024.0),
                format!("{:.1}", min as f64 / 1024.0),
            ]);
        }
    }
    table.print();
}
