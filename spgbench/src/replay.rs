//! The traced run: replays the socket run's requests in-process — the
//! open loop on its recorded send times, the closed loops and probes with
//! the same number of requests in flight — through the calls the server makes for
//! each request — `protocol::parse_request`, `BatchQueue::push` and
//! `next_batch`, `BatchExecutor::run_cached_coalesced_with_deadlines`
//! over `CachedEve`/`SpgCache`/`FlightGroup`, `protocol::ok_response`,
//! and `apply_delta_scoped` for updates — with a span around each call.
//! A per-key profile then times the EVE phases of the keys that missed.
//! Spans stay in memory and are written out when the run ends.

use std::collections::HashSet;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use spg_core::{
    apply_delta_scoped, BatchExecutor, CacheOutcome, CachedEve, Eve, EveConfig, FlightGroup,
    LaneWidth, Query, QueryWorkspace, SpgCache,
};
use spg_graph::traversal::{FlatDistances, SearchSpace, SpaceScratch};
use spg_graph::{DiGraph, EdgeDelta, VersionedGraph};
use spg_server::admission::BatchQueue;
use spg_server::json::{self, Json};
use spg_server::protocol::{ok_response, parse_request, Request};
use spg_server::ServerConfig;

use crate::check::Checked;
use crate::inputs::{Workload, BURST, MISS_WINDOW};
use crate::util::{mean, percentile, Rng};
use crate::wire::{request_bytes, Phase, Run};
use crate::{client_health, metric, Metric};

pub struct Context<'a> {
    pub graph: &'a DiGraph,
    pub workload: Workload,
    pub run: &'a Run,
    pub checked: &'a Checked,
    pub threads: usize,
    pub seed: u64,
    pub load_ms: f64,
    pub untraced_query_p50_ms: f64,
    pub spans_path: PathBuf,
}

/// Keys the per-key profile times at most, and its time box.
const PROFILE_KEYS: usize = 1500;
const PROFILE_BUDGET: Duration = Duration::from_secs(6);

/// One span: a call into a layer. `parent` is the index of the enclosing
/// span in the same thread's list (`u32::MAX` for none), `req` the
/// request id (`u64::MAX` for spans that serve a whole batch).
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: u32,
    req: u64,
}

#[derive(Default)]
struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        req: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    /// Runs `f` inside a span.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, req);
        (out, end - start)
    }
}

const NONE: u32 = u32::MAX;

/// How many requests the socket client kept in flight in `phase`: the
/// replay keeps the same number, so a closed loop stays closed. `None`:
/// the open loop, replayed on its recorded send times.
fn window(workload: Workload, phase: Phase) -> Option<usize> {
    match (phase, workload) {
        (Phase::ProbeHit | Phase::ProbeUpdate, _) => Some(1),
        (Phase::ProbeBurst, _) => Some(BURST),
        (_, Workload::Interactive) => None,
        (_, Workload::MissStream) => Some(2 * MISS_WINDOW),
        (_, Workload::Fanout) => Some(2 * BURST),
    }
}

/// Requests pushed and not yet answered in the replay.
#[derive(Default)]
struct InFlight {
    count: Mutex<usize>,
    answered: Condvar,
}

impl InFlight {
    fn add(&self) {
        *self.count.lock().expect("in-flight count") += 1;
    }

    fn done(&self) {
        *self.count.lock().expect("in-flight count") -= 1;
        self.answered.notify_all();
    }

    fn wait_below(&self, limit: usize) {
        let mut count = self.count.lock().expect("in-flight count");
        while *count >= limit {
            count = self.answered.wait(count).expect("in-flight count");
        }
    }
}

/// An admitted query waiting in the replay's queue.
struct Pending {
    id: u64,
    query: Query,
    decoded_at: Instant,
    pushed_at: Instant,
    measured: bool,
}

/// What the batcher side measured.
#[derive(Default)]
struct BatcherOut {
    tracer: Tracer,
    batches: usize,
    slots: usize,
    queue_wait_us: Vec<f64>,
    execute_us: Vec<f64>,
    /// Encode time of each counted batch, all its replies.
    batch_encode_us: Vec<f64>,
    encode_us: Vec<f64>,
    response_bytes: Vec<f64>,
    server_ms_measured: Vec<f64>,
    misses: usize,
    phase1_shared: usize,
    distinct_endpoints: usize,
    cohorts: usize,
    msbfs_scans: usize,
    missed_keys: Vec<Query>,
}

/// What the client side measured.
#[derive(Default)]
struct ClientOut {
    tracer: Tracer,
    decode_us: Vec<f64>,
    apply_us: Vec<f64>,
    purged: usize,
    resident_before: usize,
}

pub fn per_layer(ctx: &Context<'_>) -> Vec<Metric> {
    let config = ServerConfig::default();
    let graph = RwLock::new(VersionedGraph::new(ctx.graph.clone()));
    let cache = SpgCache::new(ctx.workload.cache_bytes().unwrap_or(config.cache_bytes));
    let flights = FlightGroup::new();
    let queue: BatchQueue<Pending> = BatchQueue::new(
        config.queue_capacity,
        config.batch_max,
        config.batch_deadline,
    );
    let executor = BatchExecutor::with_available_parallelism()
        .shared_phase1(config.shared_phase1)
        .phase1_lanes(config.phase1_lanes);
    let lanes = LaneWidth::default().lanes();

    // The socket run's requests on its own send timeline.
    let mut order: Vec<usize> = (0..ctx.run.recs.len()).collect();
    order.sort_by(|&a, &b| ctx.run.recs[a].sent.total_cmp(&ctx.run.recs[b].sent));
    let t0 = Instant::now();
    let in_flight = InFlight::default();

    let (client, batcher) = std::thread::scope(|scope| {
        let batcher = scope.spawn(|| {
            let mut out = BatcherOut::default();
            while let Some(batch) = queue.next_batch() {
                let claimed = Instant::now();
                // The metrics describe the measured phase: batches serving
                // at least one of its requests, and its requests.
                let counted = batch.iter().any(|p| p.measured);
                for p in &batch {
                    if p.measured {
                        out.queue_wait_us
                            .push((claimed - p.pushed_at).as_secs_f64() * 1e6);
                    }
                    out.tracer
                        .record("admission.queue_wait", p.pushed_at, claimed, NONE, p.id);
                }
                let queries: Vec<Query> = batch.iter().map(|p| p.query).collect();
                let deadlines = vec![None; queries.len()];
                let batch_start = Instant::now();
                let batch_span =
                    out.tracer
                        .record("server.batch", batch_start, batch_start, NONE, u64::MAX);
                let g = graph.read().expect("replay graph");
                let cached = CachedEve::with_defaults(&g, &cache);
                let (outcome, took) = out.tracer.span("executor.run", batch_span, u64::MAX, || {
                    executor.run_cached_coalesced_with_deadlines(
                        &cached, &flights, &queries, &deadlines,
                    )
                });
                drop(g);
                if counted {
                    let s = &outcome.stats;
                    out.batches += 1;
                    out.slots += batch.len();
                    out.execute_us.push(took.as_secs_f64() * 1e6);
                    out.misses += s.cache_misses;
                    out.phase1_shared += s.phase1.phase1_shared;
                    out.distinct_endpoints += s.phase1.distinct_endpoints;
                    out.cohorts += s.phase1.cohorts;
                    out.msbfs_scans += s.phase1.traversal.total_edge_scans();
                }
                let mut encode_total = 0.0;
                for (i, p) in batch.iter().enumerate() {
                    let Ok(spg) = &outcome.results[i] else {
                        in_flight.done();
                        continue;
                    };
                    let source = outcome.slot_sources[i].expect("ok slots carry a source");
                    let (body, took) = out.tracer.span("protocol.encode", batch_span, p.id, || {
                        ok_response(p.id, source, spg.query().k, spg.edges())
                    });
                    std::hint::black_box(&body);
                    in_flight.done();
                    encode_total += took.as_secs_f64() * 1e6;
                    if p.measured {
                        if source == CacheOutcome::Miss {
                            out.missed_keys.push(p.query);
                        }
                        out.encode_us.push(took.as_secs_f64() * 1e6);
                        out.response_bytes.push(body.len() as f64);
                        out.server_ms_measured
                            .push(p.decoded_at.elapsed().as_secs_f64() * 1e3);
                    }
                }
                if counted {
                    out.batch_encode_us.push(encode_total);
                }
                out.tracer.spans[batch_span as usize].end = Instant::now();
            }
            out
        });

        let mut out = ClientOut::default();
        for &i in &order {
            let rec = &ctx.run.recs[i];
            match window(ctx.workload, rec.phase) {
                None => {
                    let due = t0 + Duration::from_secs_f64(rec.sent.max(0.0));
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                }
                Some(w) => {
                    // Updates wait for the queries before them, as on the
                    // probe connection.
                    let w = if matches!(rec.op, crate::wire::Op::Update(_)) {
                        1
                    } else {
                        w
                    };
                    in_flight.wait_below(w);
                }
            }
            let bytes = request_bytes(rec.id, rec.op);
            let decoded_at = Instant::now();
            let (request, took) = out.tracer.span("protocol.decode", NONE, rec.id, || {
                parse_request(bytes.as_bytes())
            });
            if rec.phase == Phase::Measured {
                out.decode_us.push(took.as_secs_f64() * 1e6);
            }
            match request.expect("the client's own requests parse") {
                Request::Query { id, query, .. } => {
                    let pending = Pending {
                        id,
                        query,
                        decoded_at,
                        pushed_at: Instant::now(),
                        measured: rec.phase == Phase::Measured,
                    };
                    in_flight.add();
                    let (pushed, _) = out
                        .tracer
                        .span("admission.push", NONE, id, || queue.push(pending));
                    assert!(pushed.is_ok(), "the replay queue never fills");
                }
                Request::Update { id, add, remove } => {
                    let deltas: Vec<EdgeDelta> = add
                        .iter()
                        .map(|&(u, v)| EdgeDelta::add(u, v))
                        .chain(remove.iter().map(|&(u, v)| EdgeDelta::remove(u, v)))
                        .collect();
                    let mut g = graph.write().expect("replay graph");
                    out.resident_before += cache.len();
                    let (update, took) =
                        out.tracer.span("dynamic.apply_delta_scoped", NONE, id, || {
                            apply_delta_scoped(&mut g, &cache, &deltas)
                        });
                    out.apply_us.push(took.as_secs_f64() * 1e6);
                    out.purged += update.expect("replayed updates apply").purged;
                }
                Request::Ping { .. } | Request::Stats { .. } => {}
            }
        }
        queue.close();
        (out, batcher.join().expect("replay batcher"))
    });

    // Cache probe cost: the workload's keys against the final cache.
    let version = graph.read().expect("replay graph").version();
    let probe_keys: Vec<Query> = ctx
        .run
        .recs
        .iter()
        .filter_map(|r| match r.op {
            crate::wire::Op::Query(q) => Some(q),
            crate::wire::Op::Update(_) => None,
        })
        .take(4096)
        .collect();
    let probe_start = Instant::now();
    for &q in &probe_keys {
        std::hint::black_box(cache.get(version, q));
    }
    let probe_ns = probe_start.elapsed().as_secs_f64() * 1e9 / probe_keys.len().max(1) as f64;

    let mut profile_tracer = Tracer::default();
    let profile = profile_keys(
        ctx.graph,
        &batcher.missed_keys,
        ctx.seed,
        &mut profile_tracer,
    );

    let stats = json::parse(&ctx.run.stats_reply).unwrap_or(Json::Null);
    let stat = |section: &str, key: &str| {
        stats
            .get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let updates = ctx
        .run
        .recs
        .iter()
        .filter(|r| matches!(r.op, crate::wire::Op::Update(_)))
        .count() as f64;

    let replay_p50 = percentile(&batcher.server_ms_measured, 50.0).unwrap_or(f64::NAN);
    let batch_us = mean(&batcher.execute_us);
    let ideal_us = ratio(
        batcher.misses as f64 * profile.query_us,
        ctx.threads as f64 * batcher.batches as f64,
    );
    let encode_total: f64 = batcher.batch_encode_us.iter().sum();
    let execute_total: f64 = batcher.execute_us.iter().sum();

    let spans_written = write_spans(
        &ctx.spans_path,
        t0,
        &[
            ("client", &client.tracer),
            ("batcher", &batcher.tracer),
            ("profile", &profile_tracer),
        ],
    );
    if let Err(e) = spans_written {
        eprintln!("spgbench: writing spans: {e}");
    }

    let mut metrics = vec![
        metric("graph.load_ms", ctx.load_ms, "ms"),
        metric("traversal.bfs_us", profile.bfs_us, "us"),
        metric("traversal.bfs_edges", profile.bfs_edges, "count"),
        metric("traversal.compact_us", profile.compact_us, "us"),
        metric("traversal.space_vertices", profile.space_vertices, "count"),
        metric("eve.label_us", profile.label_us, "us"),
        metric("eve.ub_edges", profile.ub_edges, "count"),
        metric("eve.verify_us", profile.verify_us, "us"),
        metric("eve.answer_edges", profile.answer_edges, "count"),
        metric(
            "cohort.fill",
            ratio(
                batcher.distinct_endpoints as f64,
                (batcher.cohorts * lanes) as f64,
            ),
            "frac",
        ),
        metric(
            "cohort.dedup_ratio",
            ratio(
                batcher.phase1_shared as f64,
                batcher.distinct_endpoints as f64,
            ),
            "ratio",
        ),
        metric(
            "cohort.shared_frac",
            ratio(batcher.phase1_shared as f64, batcher.misses as f64),
            "frac",
        ),
        metric(
            "msbfs.edge_scans",
            ratio(batcher.msbfs_scans as f64, batcher.phase1_shared as f64),
            "count",
        ),
        metric("executor.batch_us", batch_us, "us"),
        metric("executor.overhead_us", batch_us - ideal_us, "us"),
        metric(
            "admission.queue_wait_us",
            mean(&batcher.queue_wait_us),
            "us",
        ),
        metric(
            "admission.batch_size_mean",
            ratio(batcher.slots as f64, batcher.batches as f64),
            "count",
        ),
        metric("cache.hit_rate", measured_hit_rate(ctx), "frac"),
        metric("cache.evictions", stat("cache", "evictions"), "count"),
        metric("cache.bytes", stat("cache", "bytes"), "bytes"),
        metric("cache.probe_ns", probe_ns, "ns"),
        metric(
            "flight.join_rate",
            ratio(
                stat("flights", "joined"),
                stat("flights", "joined") + stat("flights", "led"),
            ),
            "frac",
        ),
        metric("dynamic.apply_us", mean(&client.apply_us), "us"),
        metric(
            "dynamic.purged_per_update",
            ratio(stat("server", "entries_purged_scoped"), updates),
            "count",
        ),
        metric(
            "dynamic.survivor_rate",
            if client.resident_before > 0 {
                1.0 - ratio(client.purged as f64, client.resident_before as f64)
            } else {
                1.0
            },
            "frac",
        ),
        metric("protocol.decode_us", mean(&client.decode_us), "us"),
        metric("protocol.encode_us", mean(&batcher.encode_us), "us"),
        metric(
            "protocol.response_kb",
            mean(&batcher.response_bytes) / 1024.0,
            "KiB",
        ),
        metric(
            "protocol.encode_share",
            ratio(encode_total, encode_total + execute_total),
            "frac",
        ),
        metric(
            "server.wire_gap_ms",
            ctx.untraced_query_p50_ms - replay_p50,
            "ms",
        ),
    ];
    metrics.extend(client_health(ctx.run, ctx.threads));
    metrics
}

/// Mean per-key phase costs of the profiled keys.
#[derive(Default)]
struct Profile {
    bfs_us: f64,
    bfs_edges: f64,
    compact_us: f64,
    space_vertices: f64,
    label_us: f64,
    ub_edges: f64,
    verify_us: f64,
    answer_edges: f64,
    query_us: f64,
}

/// Times each distinct key that missed in the measured phase (a seeded
/// sample when there are more than `PROFILE_KEYS`, cut at
/// `PROFILE_BUDGET`). Phase 1a is timed call by call —
/// `FlatDistances::compute`, then `SearchSpace::rebuild_from_flat` — each
/// after an untimed warming call. Phases 1b–2 and 3 (with the answer's
/// materialisation) come from the `EveStats` phase timers of a warm
/// `Eve::query_with`, which split one pipeline run at its phase
/// boundaries: subtracting separately timed calls came out negative,
/// because each call found a different part of the workspace in cache.
fn profile_keys(g: &DiGraph, missed: &[Query], seed: u64, tracer: &mut Tracer) -> Profile {
    let mut seen = HashSet::new();
    let mut keys: Vec<Query> = missed
        .iter()
        .copied()
        .filter(|q| seen.insert((q.source, q.target, q.k)))
        .collect();
    let mut rng = Rng::new(seed, 0xF0);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i + 1));
    }
    keys.truncate(PROFILE_KEYS);
    let eve = Eve::with_defaults(g);
    let strategy = EveConfig::default().distance_strategy;
    let mut fd = FlatDistances::new();
    let mut space = SearchSpace::new();
    let mut scratch = SpaceScratch::new();
    let mut ws = QueryWorkspace::new();
    let started = Instant::now();
    let mut rows: Vec<[f64; 9]> = Vec::new();
    for (i, &q) in keys.iter().enumerate() {
        if started.elapsed() > PROFILE_BUDGET {
            break;
        }
        let req = i as u64;
        fd.compute(g, q.source, q.target, q.k, strategy);
        let (_, bfs) = tracer.span("traversal.flat_distance", NONE, req, || {
            fd.compute(g, q.source, q.target, q.k, strategy)
        });
        space.rebuild_from_flat(g, &fd, &mut scratch);
        let (_, compact) = tracer.span("traversal.search_space", NONE, req, || {
            space.rebuild_from_flat(g, &fd, &mut scratch)
        });
        let _ = eve.query_with(&mut ws, q);
        let (answer, full) =
            tracer.span("eve.query_with", NONE, req, || eve.query_with(&mut ws, q));
        let Ok(answer) = answer else { continue };
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let scans = fd.stats();
        let stats = answer.stats();
        let t = &stats.timings;
        rows.push([
            us(bfs),
            scans.total_edge_scans() as f64,
            us(compact),
            space.vertex_count() as f64,
            us(t.propagation + t.labeling),
            stats.upper_bound_edges as f64,
            us(t.verification),
            answer.edge_count() as f64,
            us(full),
        ]);
    }
    let col = |j: usize| mean(&rows.iter().map(|r| r[j]).collect::<Vec<_>>());
    Profile {
        bfs_us: col(0),
        bfs_edges: col(1),
        compact_us: col(2),
        space_vertices: col(3),
        label_us: col(4),
        ub_edges: col(5),
        verify_us: col(6),
        answer_edges: col(7),
        query_us: col(8),
    }
}

/// Share of the measured phase's answered queries the server served from
/// its cache (the replies' `source`).
fn measured_hit_rate(ctx: &Context<'_>) -> f64 {
    let sources: Vec<&str> = ctx
        .run
        .recs
        .iter()
        .zip(&ctx.checked.parsed)
        .filter(|(r, _)| crate::check::measured_query(r))
        .filter_map(|(_, p)| p.as_ref().map(|p| p.source.as_str()))
        .filter(|s| !s.is_empty())
        .collect();
    let hits = sources.iter().filter(|&&s| s == "hit").count();
    hits as f64 / sources.len().max(1) as f64
}

/// Writes every span as one JSON line: thread, index, name, start and end
/// in microseconds since the replay began, parent index and request id.
fn write_spans(path: &PathBuf, t0: Instant, tracers: &[(&str, &Tracer)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let at = |t: Instant| {
        t.checked_duration_since(t0)
            .map_or(0.0, |d| d.as_secs_f64() * 1e6)
    };
    for (thread, tracer) in tracers {
        for (i, s) in tracer.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let req = if s.req == u64::MAX {
                "null".to_string()
            } else {
                s.req.to_string()
            };
            writeln!(
                out,
                r#"{{"thread":"{thread}","span":{i},"name":"{}","start_us":{:.3},"end_us":{:.3},"parent":{parent},"req":{req}}}"#,
                s.name,
                at(s.start),
                at(s.end)
            )?;
        }
    }
    out.flush()
}
