//! The fixed graph and the seeded inputs of each workload.
//!
//! Everything here runs before the measured phase. The seed drives the
//! keys, arrival times and update edges; the graph never changes.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use spg_core::{Eve, Query};
use spg_graph::generators::power_law_configuration;
use spg_graph::io::write_edge_list_file;
use spg_graph::{DiGraph, Direction};

use crate::util::{poisson_arrivals, Rng, Zipf};

/// Hop bound of every workload: the smallest `k` at which Phase 3 has
/// undetermined edges to verify (Theorem 4.8) and search ordering engages.
pub const K: u32 = 5;
/// Queries per fanout burst (1 source × this many targets).
pub const BURST: usize = 64;
/// Distinct pairs in the `interactive` key pool.
pub const POOL: usize = 2048;
pub const ZIPF_S: f64 = 1.1;
pub const QUERY_RATE: f64 = 200.0;
pub const UPDATE_RATE: f64 = 5.0;
/// Updates cut edges of the answers of this many hottest pool keys.
pub const HOT_KEYS: usize = 32;
/// `--cache-bytes` of the `interactive` server: below the pool's total
/// answer bytes, so entries are evicted.
pub const INTERACTIVE_CACHE_BYTES: usize = 1 << 20;
/// Requests each `miss_stream` connection keeps in flight.
pub const MISS_WINDOW: usize = 8;
/// Fanout endpoints come from the vertices ranked here by degree.
pub const FANOUT_RANKS: (usize, usize) = (200, 3000);
/// Post-phase probes (see README.md): hit repeats, update pairs, bursts.
pub const PROBE_HITS: usize = 512;
pub const PROBE_UPDATES: usize = 128;
pub const PROBE_BURSTS: usize = 48;

/// `power_law_configuration(n, avg_degree, gamma, seed)`: the social
/// generator behind the `lj` dataset spec.
#[derive(Debug, Clone, Copy)]
pub struct GraphSpec {
    pub n: usize,
    pub avg_degree: f64,
    pub gamma: f64,
    pub seed: u64,
}

impl GraphSpec {
    pub const FULL: GraphSpec = GraphSpec {
        n: 100_000,
        avg_degree: 14.0,
        gamma: 2.2,
        seed: 3,
    };
    /// The smoke mode's graph: the same generator, small enough that all
    /// three workloads run in seconds.
    pub const SMOKE: GraphSpec = GraphSpec {
        n: 3_000,
        avg_degree: 8.0,
        gamma: 2.2,
        seed: 3,
    };

    pub fn describe(&self) -> String {
        format!(
            "power_law_configuration({}, {}, {}, seed {})",
            self.n, self.avg_degree, self.gamma, self.seed
        )
    }

    /// Writes the graph's edge list under `dir` once and returns its path.
    /// The file depends only on the spec, so later runs reuse it.
    pub fn edge_list(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(format!(
            "graph-n{}-d{}-g{}-s{}.txt",
            self.n, self.avg_degree, self.gamma, self.seed
        ));
        if !path.exists() {
            let g = power_law_configuration(self.n, self.avg_degree, self.gamma, self.seed);
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            write_edge_list_file(&g, &tmp)?;
            std::fs::rename(&tmp, &path)?;
        }
        Ok(path)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Interactive,
    MissStream,
    Fanout,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Interactive,
        Workload::MissStream,
        Workload::Fanout,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::MissStream => "miss_stream",
            Workload::Fanout => "fanout",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop inputs are generated for this many replies per second,
    /// well above what the server sustains on the graph.
    pub fn capacity_qps(smoke: bool) -> f64 {
        if smoke {
            40_000.0
        } else {
            4_000.0
        }
    }

    /// Warm-up before the measured phase, in seconds: fills the cache
    /// (`interactive`) and the server's worker pools and workspaces.
    pub fn warmup_seconds(self, smoke: bool) -> f64 {
        match (self, smoke) {
            (_, true) => 0.3,
            (Workload::Interactive, false) => 3.0,
            (_, false) => 1.0,
        }
    }

    /// The server's `--cache-bytes`, where it is not the default.
    pub fn cache_bytes(self) -> Option<usize> {
        (self == Workload::Interactive).then_some(INTERACTIVE_CACHE_BYTES)
    }

    /// Measured-phase replies after which `server_rss_mb` is read: about
    /// three quarters of a quiet 20-s phase on `interactive`, a quarter on
    /// `miss_stream` (half of one at a third of its quiet throughput).
    pub fn rss_replies(self) -> usize {
        match self {
            Workload::Interactive => 3_000,
            Workload::MissStream => 8_000,
            Workload::Fanout => 4_000,
        }
    }

    /// Server flags beyond `--graph`.
    pub fn server_flags(self) -> Vec<String> {
        self.cache_bytes()
            .map(|bytes| vec!["--cache-bytes".to_string(), bytes.to_string()])
            .unwrap_or_default()
    }
}

/// One update request: restore the edge the previous update removed and
/// remove a new one. Every update of a chain but the first and the last
/// carries one of each, so update latencies come from one population
/// instead of a cheap-removal/costly-restore mixture whose median would
/// sit on the boundary between the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOp {
    pub add: Option<(u32, u32)>,
    pub remove: Option<(u32, u32)>,
}

impl UpdateOp {
    /// Edge deltas the server applies for this request.
    pub fn deltas(&self) -> usize {
        usize::from(self.add.is_some()) + usize::from(self.remove.is_some())
    }
}

/// The seeded inputs of one run.
#[derive(Debug, Clone, Default)]
pub struct Inputs {
    /// `interactive`: the key pool, ranked hottest first.
    pub pool: Vec<Query>,
    /// `interactive`: (offset from the start in seconds, pool index).
    pub arrivals: Vec<(f64, usize)>,
    /// `interactive`: (offset in seconds, update), one chain.
    pub updates: Vec<(f64, UpdateOp)>,
    /// `miss_stream`: distinct keys, consumed in order.
    pub keys: Vec<Query>,
    /// `fanout` (and the burst probe): bursts of `BURST` distinct pairs.
    pub bursts: Vec<Vec<Query>>,
    /// Post-phase burst probe (`interactive`, `miss_stream`).
    pub probe_bursts: Vec<Vec<Query>>,
    /// Post-phase update probe (`miss_stream`, `fanout`).
    pub probe_updates: Vec<UpdateOp>,
}

/// Rejection sampling of uniform `k`-hop reachable pairs — the
/// distribution of `spg_workloads::reachable_queries` (draw `s` with an
/// out-edge and `t ≠ s` uniformly, keep the pair when `t` is within `k`
/// hops) — with 256 attempts decided per bit-parallel BFS instead of one
/// bidirectional search each.
pub struct PairSampler<'g> {
    g: &'g DiGraph,
    k: u32,
    senders: Vec<u32>,
}

const LANES: usize = 256;
type Lanes = [u64; LANES / 64];

impl<'g> PairSampler<'g> {
    pub fn new(g: &'g DiGraph, k: u32) -> Self {
        let senders = g.vertices().filter(|&v| g.out_degree(v) > 0).collect();
        PairSampler { g, k, senders }
    }

    /// The `k`-hop out-balls of up to 256 sources, one bit lane each:
    /// bit `i` of `result[v]` is set iff `v` is within `k` hops of
    /// `sources[i]`.
    pub fn balls(&self, sources: &[u32]) -> Vec<Lanes> {
        self.lane_balls(sources, self.k, Direction::Forward)
    }

    /// Bit-parallel BFS from up to 256 roots to depth `radius`, along out-
    /// edges (`Forward`) or in-edges (`Backward`).
    fn lane_balls(&self, roots: &[u32], radius: u32, dir: Direction) -> Vec<Lanes> {
        assert!(roots.len() <= LANES);
        let n = self.g.vertex_count();
        let mut visited = vec![[0u64; LANES / 64]; n];
        let mut frontier = vec![[0u64; LANES / 64]; n];
        let mut next = vec![[0u64; LANES / 64]; n];
        for (i, &s) in roots.iter().enumerate() {
            visited[s as usize][i / 64] |= 1 << (i % 64);
            frontier[s as usize][i / 64] |= 1 << (i % 64);
        }
        for _ in 0..radius {
            for (v, f) in frontier.iter().enumerate() {
                if f.iter().all(|&w| w == 0) {
                    continue;
                }
                for &w in self.g.neighbors(v as u32, dir) {
                    let slot = &mut next[w as usize];
                    for j in 0..LANES / 64 {
                        slot[j] |= f[j];
                    }
                }
            }
            let mut any = false;
            for v in 0..n {
                for j in 0..LANES / 64 {
                    let fresh = next[v][j] & !visited[v][j];
                    frontier[v][j] = fresh;
                    visited[v][j] |= fresh;
                    any |= fresh != 0;
                }
                next[v] = [0; LANES / 64];
            }
            if !any {
                break;
            }
        }
        visited
    }

    /// For up to 256 pairs, whether `t` is within `k` hops of `s`: some
    /// vertex is within `⌈k/2⌉` hops of `s` and `⌊k/2⌋` hops of `t`. The
    /// two half-depth searches skip the widest BFS levels.
    pub fn reachable(&self, pairs: &[(u32, u32)]) -> Vec<bool> {
        let sources: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let targets: Vec<u32> = pairs.iter().map(|p| p.1).collect();
        let fwd = self.lane_balls(&sources, self.k - self.k / 2, Direction::Forward);
        let bwd = self.lane_balls(&targets, self.k / 2, Direction::Backward);
        let mut met = [0u64; LANES / 64];
        for (f, b) in fwd.iter().zip(&bwd) {
            for j in 0..LANES / 64 {
                met[j] |= f[j] & b[j];
            }
        }
        (0..pairs.len())
            .map(|i| met[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    }

    /// The accepted pairs of one block of 256 attempts.
    fn block(&self, rng: &mut Rng) -> Vec<Query> {
        let n = self.g.vertex_count();
        let attempts: Vec<(u32, u32)> = (0..LANES)
            .map(|_| {
                let s = self.senders[rng.below(self.senders.len())];
                (s, rng.below(n) as u32)
            })
            .collect();
        let reachable = self.reachable(&attempts);
        attempts
            .iter()
            .zip(reachable)
            .filter(|&(&(s, t), ok)| s != t && ok)
            .map(|(&(s, t), _)| Query::new(s, t, self.k))
            .collect()
    }

    /// `count` distinct pairs. Block `b` draws from its own stream, so the
    /// result does not depend on `threads`.
    pub fn distinct_pairs(
        &self,
        seed: u64,
        stream: u64,
        count: usize,
        threads: usize,
    ) -> Vec<Query> {
        let mut out = Vec::with_capacity(count);
        let mut seen = HashSet::new();
        let mut next_block = 0u64;
        while out.len() < count {
            let round: Vec<Vec<Query>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads.max(1) as u64)
                    .map(|j| {
                        let b = next_block + j;
                        scope.spawn(move || self.block(&mut Rng::new(seed, stream + b)))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("sampler thread"))
                    .collect()
            });
            next_block += threads.max(1) as u64;
            for q in round.into_iter().flatten() {
                if out.len() < count && seen.insert((q.source, q.target)) {
                    out.push(q);
                }
            }
        }
        out
    }

    /// `count` bursts of `BURST` distinct pairs, each one source and
    /// `BURST` targets reachable within `k` hops, all endpoints from
    /// `band`. No pair repeats across the bursts.
    ///
    /// Sources walk the degree-ordered band along a golden-ratio sequence,
    /// the same for every seed, so every prefix of the bursts — a run uses
    /// as many as the server completes — spans the band evenly. A burst's
    /// cost follows its source, so a fixed walk keeps the mix of cheap and
    /// costly bursts, and with it the run's medians, the same across seeds;
    /// `rng` draws the targets.
    pub fn bursts(&self, band: &[u32], rng: &mut Rng, count: usize) -> Vec<Vec<Query>> {
        const GOLDEN: f64 = 0.618_033_988_749_894_9;
        let mut used = HashSet::new();
        let mut out = Vec::with_capacity(count);
        let mut drawn = 0usize;
        while out.len() < count {
            let sources: Vec<u32> = (0..LANES)
                .map(|j| {
                    let at = ((drawn + j) as f64 * GOLDEN).fract();
                    band[((at * band.len() as f64) as usize).min(band.len() - 1)]
                })
                .collect();
            drawn += LANES;
            let balls = self.balls(&sources);
            for (i, &s) in sources.iter().enumerate() {
                if out.len() == count {
                    break;
                }
                let mut candidates: Vec<u32> = band
                    .iter()
                    .copied()
                    .filter(|&t| {
                        t != s
                            && balls[t as usize][i / 64] >> (i % 64) & 1 == 1
                            && !used.contains(&(s, t))
                    })
                    .collect();
                if candidates.len() < BURST {
                    continue;
                }
                // Partial Fisher-Yates: BURST distinct targets.
                for j in 0..BURST {
                    let pick = j + rng.below(candidates.len() - j);
                    candidates.swap(j, pick);
                }
                let burst: Vec<Query> = candidates[..BURST]
                    .iter()
                    .map(|&t| {
                        used.insert((s, t));
                        Query::new(s, t, self.k)
                    })
                    .collect();
                out.push(burst);
            }
        }
        out
    }
}

/// Vertices ranked `lo..hi` by total degree (highest first, ties by id).
pub fn degree_band(g: &DiGraph, (lo, hi): (usize, usize)) -> Vec<u32> {
    let mut order: Vec<u32> = g.vertices().collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    order[lo.min(order.len())..hi.min(order.len())].to_vec()
}

/// A random edge of `key`'s answer on `g` (every reachable pair has a
/// non-empty answer).
fn answer_edge(g: &DiGraph, key: Query, rng: &mut Rng) -> (u32, u32) {
    let answer = Eve::with_defaults(g).query(key).expect("valid key");
    let edges = answer.edges();
    assert!(!edges.is_empty(), "reachable pairs have non-empty answers");
    edges[rng.below(edges.len())]
}

/// A chain of `keys.len() + 1` updates: update `i` restores the edge
/// update `i - 1` removed and removes an edge of `keys[i]`'s answer; the
/// last only restores, so the chain ends on the base graph.
fn update_chain(g: &DiGraph, keys: &[Query], rng: &mut Rng) -> Vec<UpdateOp> {
    let mut out = Vec::with_capacity(keys.len() + 1);
    let mut removed: Option<(u32, u32)> = None;
    for &key in keys {
        // Restoring and removing the same edge in one request would cancel.
        let edge = loop {
            let edge = answer_edge(g, key, rng);
            if Some(edge) != removed {
                break edge;
            }
        };
        out.push(UpdateOp {
            add: removed,
            remove: Some(edge),
        });
        removed = Some(edge);
    }
    out.push(UpdateOp {
        add: removed,
        remove: None,
    });
    out
}

/// Stream ids: one per kind of draw, so the draws stay independent.
const S_POOL: u64 = 1 << 32;
const S_ARRIVALS: u64 = 2 << 32;
const S_UPDATES: u64 = 3 << 32;
const S_KEYS: u64 = 4 << 32;
const S_BURSTS: u64 = 5 << 32;
const S_PROBE: u64 = 6 << 32;

impl Inputs {
    /// The inputs of `workload` for a run of `warmup + seconds`.
    pub fn generate(
        g: &DiGraph,
        workload: Workload,
        seed: u64,
        warmup: f64,
        seconds: f64,
        capacity_qps: f64,
        threads: usize,
    ) -> Inputs {
        let sampler = PairSampler::new(g, K);
        let band = degree_band(g, FANOUT_RANKS);
        let total = warmup + seconds;
        let mut inputs = Inputs::default();
        match workload {
            Workload::Interactive => {
                // The pool is the same for every seed, like the fanout
                // sources: which pairs are hot sets the cost of the misses
                // and updates, and a seeded pool made the run's tail a draw
                // of its own. The seed drives the key sequence, the arrival
                // times and the update edges.
                inputs.pool = sampler.distinct_pairs(0, S_POOL, POOL, threads);
                let zipf = Zipf::new(POOL, ZIPF_S);
                let mut rng = Rng::new(seed, S_ARRIVALS);
                inputs.arrivals = poisson_arrivals(&mut rng, QUERY_RATE, total)
                    .into_iter()
                    .map(|t| (t, zipf.sample(&mut rng)))
                    .collect();
                // Updates run in the measured phase only, each cutting an
                // edge of a hot key's answer and restoring the previous cut.
                // The hot keys take turns, so a run's update cost averages
                // over all of them instead of resting on the few a Zipf draw
                // favours. One update falls at a random point of each
                // 1/UPDATE_RATE slot: updates carry most of the server's CPU
                // here, and a Poisson count would move CPU per query by its
                // own ±10% over 20 s.
                let mut rng = Rng::new(seed, S_UPDATES);
                let slots = (UPDATE_RATE * seconds).floor() as usize;
                let times: Vec<f64> = (0..slots)
                    .map(|i| (i as f64 + rng.unit()) / UPDATE_RATE)
                    .collect();
                let keys: Vec<Query> = (0..times.len().saturating_sub(1))
                    .map(|i| inputs.pool[i % HOT_KEYS])
                    .collect();
                let ops = update_chain(g, &keys, &mut rng);
                inputs.updates = times.iter().map(|t| warmup + t).zip(ops).collect();
            }
            Workload::MissStream => {
                let count = (capacity_qps * total).ceil() as usize;
                inputs.keys = sampler.distinct_pairs(seed, S_KEYS, count, threads);
            }
            Workload::Fanout => {
                let count = (capacity_qps * total / BURST as f64).ceil() as usize;
                let mut rng = Rng::new(seed, S_BURSTS);
                inputs.bursts = sampler.bursts(&band, &mut rng, count);
            }
        }
        // The probes draw from a fixed seed: they measure the server state a
        // workload leaves behind, so their own inputs stay the same.
        let mut probe_rng = Rng::new(0, S_PROBE);
        if workload != Workload::Fanout {
            inputs.probe_bursts = sampler.bursts(&band, &mut probe_rng, PROBE_BURSTS);
        }
        if workload != Workload::Interactive {
            let keys = sampler.distinct_pairs(0, S_PROBE, PROBE_UPDATES, threads);
            inputs.probe_updates = update_chain(g, &keys, &mut probe_rng);
        }
        inputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg_graph::traversal::k_hop_reachable;

    #[test]
    fn sampled_pairs_are_reachable_distinct_and_seeded() {
        let g = power_law_configuration(1500, 3.0, 2.2, 5);
        let sampler = PairSampler::new(&g, 3);
        let a = sampler.distinct_pairs(9, 0, 300, 2);
        assert_eq!(a, sampler.distinct_pairs(9, 0, 300, 1));
        assert_ne!(a, sampler.distinct_pairs(10, 0, 300, 2));
        let distinct: HashSet<_> = a.iter().map(|q| (q.source, q.target)).collect();
        assert_eq!(distinct.len(), a.len());
        for q in &a {
            assert_ne!(q.source, q.target);
            assert!(k_hop_reachable(&g, q.source, q.target, 3));
        }
    }

    #[test]
    fn balls_agree_with_k_hop_reachability() {
        let g = power_law_configuration(800, 2.5, 2.2, 8);
        let sampler = PairSampler::new(&g, 3);
        let sources: Vec<u32> = (0..256u32).map(|i| (i * 3) % 800).collect();
        let balls = sampler.balls(&sources);
        for (i, &s) in sources.iter().enumerate().step_by(7) {
            for t in (0..800u32).step_by(5) {
                let inside = balls[t as usize][i / 64] >> (i % 64) & 1 == 1;
                assert_eq!(inside, s == t || k_hop_reachable(&g, s, t, 3), "{s}->{t}");
            }
        }
    }

    #[test]
    fn meet_in_the_middle_agrees_with_k_hop_reachability() {
        let g = power_law_configuration(800, 2.5, 2.2, 8);
        for k in [1u32, 2, 3, 4, 5] {
            let sampler = PairSampler::new(&g, k);
            let mut rng = Rng::new(k as u64, 0);
            let pairs: Vec<(u32, u32)> = (0..256)
                .map(|_| (rng.below(800) as u32, rng.below(800) as u32))
                .collect();
            for (&(s, t), ok) in pairs.iter().zip(sampler.reachable(&pairs)) {
                assert_eq!(ok, s == t || k_hop_reachable(&g, s, t, k), "{s}->{t} k={k}");
            }
        }
    }

    #[test]
    fn bursts_share_a_source_and_never_repeat_a_pair() {
        let g = power_law_configuration(3000, 8.0, 2.2, 3);
        let band = degree_band(&g, (20, 600));
        let sampler = PairSampler::new(&g, K);
        let bursts = sampler.bursts(&band, &mut Rng::new(1, 0), 10);
        let mut pairs = HashSet::new();
        for burst in &bursts {
            assert_eq!(burst.len(), BURST);
            for q in burst {
                assert_eq!(q.source, burst[0].source);
                assert!(band.contains(&q.target));
                assert!(pairs.insert((q.source, q.target)));
            }
        }
    }
}
