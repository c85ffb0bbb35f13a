//! `spgbench`: the repository's end-to-end benchmark (see README.md).
//!
//! ```text
//! spgbench --server BIN --data-dir DIR --workload NAME --seed N
//!          --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Starts the release `spg-server` on a fixed graph, drives one workload
//! over loopback TCP, checks every reply, and prints one JSON result as
//! the last line of stdout. `--trace 1` adds an in-process replay of the
//! same inputs through each layer's public functions and prints the
//! per-layer metrics instead of the end-to-end ones.

mod check;
mod inputs;
mod replay;
mod util;
mod windows;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use spg_graph::io::read_edge_list_file;

use crate::check::{check, measured_query, Checked};
use crate::inputs::{GraphSpec, Inputs, Workload, K};
use crate::util::percentile;
use crate::windows::Measured;
use crate::wire::{drive, Op, Phase, Run, ServerProc};

/// Server start-ups per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 7;

struct Args {
    server: String,
    data_dir: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut data_dir = None;
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--server" => server = Some(value()?),
            "--data-dir" => data_dir = Some(PathBuf::from(value()?)),
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => trace = value()? == "1",
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        data_dir: data_dir.ok_or("--data-dir is required")?,
        workload: match (workload, smoke) {
            (Some(w), _) => w,
            (None, true) => Workload::Interactive,
            (None, false) => return Err("--workload is required".into()),
        },
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("spgbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spgbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::fs::create_dir_all(&args.data_dir).map_err(|e| format!("data dir: {e}"))?;
    let spec = if args.smoke {
        GraphSpec::SMOKE
    } else {
        GraphSpec::FULL
    };
    let graph_path = spec
        .edge_list(&args.data_dir)
        .map_err(|e| format!("graph: {e}"))?;
    let load_start = Instant::now();
    let graph = read_edge_list_file(&graph_path).map_err(|e| format!("graph: {e}"))?;
    let load_ms = util::ms(load_start.elapsed());

    let workloads: Vec<Workload> = if args.smoke {
        Workload::ALL.to_vec()
    } else {
        vec![args.workload]
    };
    for workload in workloads {
        let seconds = if args.smoke { 1.0 } else { args.seconds };
        let warmup = workload.warmup_seconds(args.smoke);
        eprintln!(
            "spgbench: {} seed {} — generating inputs",
            workload.name(),
            args.seed
        );
        let inputs_start = Instant::now();
        let inputs = Inputs::generate(
            &graph,
            workload,
            args.seed,
            warmup,
            seconds,
            Workload::capacity_qps(args.smoke),
            threads,
        );

        eprintln!(
            "spgbench: inputs ready in {:.2} s",
            inputs_start.elapsed().as_secs_f64()
        );
        let mut server_args = vec!["--graph".to_string(), graph_path.display().to_string()];
        server_args.extend(workload.server_flags());
        let mut setups = Vec::new();
        let mut server = None;
        for _ in 0..SETUP_SPAWNS {
            let (proc, setup) =
                ServerProc::start(&args.server, &server_args).map_err(|e| e.to_string())?;
            setups.push(setup.as_secs_f64());
            server = Some(proc); // Dropping the previous one stops it.
        }
        let mut server = server.expect("at least one spawn");
        eprintln!(
            "spgbench: {} — driving {seconds} s after {warmup} s warm-up",
            workload.name()
        );
        let socket_run = drive(
            server.addr,
            server.pid(),
            workload,
            &inputs,
            warmup,
            seconds,
        )
        .map_err(|e| format!("driving {}: {e}", workload.name()));
        server.stop();
        let socket_run = socket_run?;
        if socket_run.exhausted {
            eprintln!(
                "spgbench: {} ran out of generated keys before the phase ended",
                workload.name()
            );
        }
        eprintln!(
            "spgbench: {} — checking {} replies",
            workload.name(),
            socket_run.recs.len()
        );
        let check_start = Instant::now();
        let checked = check(&graph, &socket_run.recs, threads, args.seed);
        eprintln!(
            "spgbench: checked in {:.2} s",
            check_start.elapsed().as_secs_f64()
        );
        let setup_s = percentile(&setups, 50.0).expect("setups");
        let (e2e, latencies) = end_to_end(workload, &socket_run, &checked, setup_s);

        let attempted = socket_run.recs.len();
        let failed = checked.ok.iter().filter(|&&ok| !ok).count();
        let mut metrics = e2e;
        if args.trace {
            eprintln!("spgbench: {} — traced replay", workload.name());
            let query_p50 = latencies
                .iter()
                .find(|m| m.name == "client.query_p50_ms")
                .map_or(f64::NAN, |m| m.value);
            metrics = replay::per_layer(&replay::Context {
                graph: &graph,
                workload,
                run: &socket_run,
                checked: &checked,
                threads,
                seed: args.seed,
                load_ms,
                untraced_query_p50_ms: query_p50,
                spans_path: args.data_dir.join(format!(
                    "spans-{}-seed{}.jsonl",
                    workload.name(),
                    args.seed
                )),
            });
            metrics.extend(latencies);
        }
        let finite = metrics.iter().all(|m| m.value.is_finite());
        let correct =
            failed == 0 && finite && checked.oracle_mismatches == 0 && !socket_run.exhausted;
        println!(
            "{}",
            provenance(
                args,
                workload,
                &server_args,
                &socket_run,
                &checked,
                spec,
                threads
            )
        );
        println!("{}", result_line(correct, attempted, failed, &metrics));
    }
    Ok(())
}

/// The gated end-to-end metrics, and the client-side latencies of the
/// operations only some workloads issue (hits, updates, bursts), which the
/// traced run reports with the per-layer metrics (README.md).
fn end_to_end(
    workload: Workload,
    run: &Run,
    checked: &Checked,
    setup_s: f64,
) -> (Vec<Metric>, Vec<Metric>) {
    let recs = &run.recs;
    let ok = &checked.ok;
    let phase = Measured::new(run);
    let source = |i: usize| checked.parsed[i].as_ref().map_or("", |p| p.source.as_str());
    // A failed request misses every latency limit: it enters the
    // percentiles as +inf.
    let latency = |i: usize| {
        if ok[i] {
            recs[i].latency_ms()
        } else {
            f64::INFINITY
        }
    };
    let is_update = |i: usize| matches!(recs[i].op, Op::Update(_));
    let measured_where = |pred: &dyn Fn(usize) -> bool| -> Vec<f64> {
        (0..recs.len())
            .filter(|&i| recs[i].phase == Phase::Measured && phase.contains(recs[i].due) && pred(i))
            .map(latency)
            .collect()
    };
    let probe_where = |probe: Phase, pred: &dyn Fn(usize) -> bool| -> Vec<f64> {
        (0..recs.len())
            .filter(|&i| recs[i].phase == probe && pred(i))
            .map(latency)
            .collect()
    };
    let burst_ms = |probe: Phase| {
        run.bursts
            .iter()
            .filter(move |b| b.phase == probe)
            .map(|b| (b.start, (b.end - b.start) * 1e3))
    };
    let measured = measured_where(&|i| !is_update(i));
    let probe_bursts = || -> Vec<f64> { burst_ms(Phase::ProbeBurst).map(|b| b.1).collect() };
    let (hits, updates, bursts) = match workload {
        Workload::Interactive => (
            measured_where(&|i| !is_update(i) && source(i) == "hit"),
            measured_where(&|i| is_update(i)),
            probe_bursts(),
        ),
        Workload::MissStream => (
            probe_where(Phase::ProbeHit, &|i| source(i) == "hit"),
            probe_where(Phase::ProbeUpdate, &|_| true),
            probe_bursts(),
        ),
        Workload::Fanout => (
            probe_where(Phase::ProbeHit, &|i| source(i) == "hit"),
            probe_where(Phase::ProbeUpdate, &|_| true),
            burst_ms(Phase::Measured)
                .filter(|b| phase.contains(b.0))
                .map(|b| b.1)
                .collect(),
        ),
    };
    let mut replied: Vec<f64> = (0..recs.len())
        .filter(|&i| ok[i] && !is_update(i) && phase.contains(recs[i].done))
        .map(|i| recs[i].done)
        .collect();
    let ok_replies = replied.len() as f64;
    // Peak RSS once the server has answered a fixed number of measured
    // queries (at the phase's end if it answers fewer): the cache grows
    // with every answer, so a fixed time would charge a faster server, or
    // a quieter host, with the memory of its extra answers.
    replied.sort_by(f64::total_cmp);
    let rss_at = replied
        .get(workload.rss_replies().saturating_sub(1))
        .map_or(phase.last.at, |&t| t);
    let rss_mb = run
        .windows
        .iter()
        .find(|w| w.at >= rss_at)
        .map_or(phase.last.server_hwm_mb, |w| w.server_hwm_mb);
    let failed = ok.iter().filter(|&&o| !o).count() as f64;
    let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(f64::NAN);
    let gated = vec![
        metric("setup_s", setup_s, "s"),
        metric("query_p25_ms", p(&measured, 25.0), "ms"),
        metric("throughput_qps", ok_replies / phase.seconds(), "1/s"),
        metric(
            "server_cpu_ms_per_query",
            phase.server_cpu_s() * 1e3 / ok_replies,
            "ms",
        ),
        metric("server_rss_mb", rss_mb, "MiB"),
        metric("ok_frac", 1.0 - failed / recs.len().max(1) as f64, "frac"),
    ];
    let latencies = vec![
        metric("client.query_p50_ms", p(&measured, 50.0), "ms"),
        metric("client.hit_p50_ms", p(&hits, 50.0), "ms"),
        metric("client.update_p50_ms", p(&updates, 50.0), "ms"),
        metric("client.burst_p50_ms", p(&bursts, 50.0), "ms"),
    ];
    (gated, latencies)
}

/// Client-side harness health, shared by the traced output.
pub fn client_health(run: &Run, threads: usize) -> Vec<Metric> {
    let measured: Vec<f64> = run
        .recs
        .iter()
        .filter(|r| measured_query(r))
        .map(|r| {
            if r.done.is_nan() {
                f64::INFINITY
            } else {
                r.latency_ms()
            }
        })
        .collect();
    let lag: Vec<f64> = run
        .recs
        .iter()
        .filter(|r| measured_query(r))
        .map(|r| (r.sent - r.due).max(0.0) * 1e3)
        .collect();
    let phase = Measured::new(run);
    let client_cpu = phase.last.client_cpu_s - phase.first.client_cpu_s;
    vec![
        metric(
            "client.query_p99_ms",
            percentile(&measured, 99.0).unwrap_or(f64::NAN),
            "ms",
        ),
        metric(
            "client.gen_lag_p99_ms",
            percentile(&lag, 99.0).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "client.cpu_share",
            client_cpu / (phase.seconds() * threads as f64),
            "frac",
        ),
    ]
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

fn provenance(
    args: &Args,
    workload: Workload,
    server_args: &[String],
    run: &Run,
    checked: &Checked,
    spec: GraphSpec,
    threads: usize,
) -> String {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let phase = Measured::new(run);
    let (first, last) = (phase.first, phase.last);
    let (steal, total) = phase.steal_ticks();
    let flags: Vec<String> = server_args.iter().map(|a| format!("{a:?}")).collect();
    format!(
        concat!(
            r#"{{"provenance": {{"workload": "{}", "seed": {}, "seconds": {}, "trace": {}, "#,
            r#""nproc": {}, "cpu_model": {:?}, "l2": {:?}, "l3": {:?}, "steal_ticks": {}, "#,
            r#""steal_share": {}, "commit": {:?}, "server_flags": [{}], "graph": {:?}, "k": {}, "#,
            r#""connections": {}, "server_vmhwm_mb": [{}, {}], "server_cpu_s": [{}, {}], "#,
            r#""answer_bytes": {}, "enumerated": {}, "cross_checked": {}, "wrong_answers": {}}}}}"#
        ),
        workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        threads,
        cpu_model,
        read_trimmed("/sys/devices/system/cpu/cpu0/cache/index2/size"),
        read_trimmed("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        steal,
        json_number(steal as f64 / total.max(1) as f64),
        commit,
        flags.join(", "),
        spec.describe(),
        K,
        run.connections,
        json_number(first.server_hwm_mb),
        json_number(last.server_hwm_mb),
        json_number(first.server_cpu_s),
        json_number(last.server_cpu_s),
        checked.answer_bytes,
        checked.enumerated,
        checked.cross_checked,
        checked.wrong,
    )
}
