//! The socket side: starts the release `spg-server`, drives one workload
//! over loopback TCP and records every request. Two connections and two
//! threads: one per connection in the closed loops; in the open loop the
//! calling thread generates both streams and a second thread receives the
//! query replies.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use spg_core::Query;
use spg_server::protocol::{read_frame, write_frame, FrameError};

use crate::inputs::{Inputs, UpdateOp, Workload, BURST, MISS_WINDOW, PROBE_HITS};
use crate::util::{peak_rss_mb, process_cpu_seconds, steal_ticks};

/// A reply larger than this is a protocol failure, not an answer.
const MAX_REPLY: usize = 256 << 20;
/// A request unanswered this long counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The running server process; killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns `bin` and waits for its `LISTENING <addr>` line; returns the
    /// process and the time from spawn to that line.
    pub fn start(bin: &str, args: &[String]) -> io::Result<(ServerProc, Duration)> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let setup = started.elapsed();
        let addr = match (read, line.trim().strip_prefix("LISTENING ")) {
            (Ok(_), Some(addr)) => addr.parse().ok(),
            _ => None,
        };
        let mut proc = ServerProc {
            child,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        match addr {
            Some(addr) => {
                proc.addr = addr;
                Ok((proc, setup))
            }
            None => {
                proc.stop();
                Err(io::Error::other(format!(
                    "{bin} exited without a LISTENING line"
                )))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Measured,
    ProbeHit,
    ProbeUpdate,
    ProbeBurst,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Query(Query),
    Update(UpdateOp),
}

/// One request as the client saw it. Times are seconds since the run's
/// start; `due` is the scheduled send time (the actual send time for the
/// closed loops), `done` is `NaN` when no reply came.
#[derive(Debug, Clone)]
pub struct Rec {
    pub id: u64,
    pub op: Op,
    pub phase: Phase,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub reply: Vec<u8>,
}

impl Rec {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

/// A fanout burst (measured or probe): first send to last reply.
#[derive(Debug, Clone, Copy)]
pub struct BurstRec {
    pub phase: Phase,
    pub start: f64,
    pub end: f64,
}

/// Resource counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub at: f64,
    pub server_cpu_s: f64,
    pub server_hwm_mb: f64,
    pub client_cpu_s: f64,
    pub steal: (u64, u64),
}

/// Everything one socket run recorded.
#[derive(Debug, Default)]
pub struct Run {
    pub recs: Vec<Rec>,
    pub bursts: Vec<BurstRec>,
    /// Resource samples at the window boundaries, from the start of the
    /// measured phase through the probes.
    pub windows: Vec<Sample>,
    pub stats_reply: Vec<u8>,
    pub warmup: f64,
    pub seconds: f64,
    pub connections: usize,
    /// A closed loop ran out of keys before the phase ended.
    pub exhausted: bool,
}

/// The exact request bytes; the replay parses the same bytes.
pub fn query_request(id: u64, q: Query) -> String {
    format!(
        r#"{{"id":{id},"op":"query","s":{},"t":{},"k":{}}}"#,
        q.source, q.target, q.k
    )
}

pub fn request_bytes(id: u64, op: Op) -> String {
    let list = |e: Option<(u32, u32)>| e.map_or(String::new(), |(a, b)| format!("[{a},{b}]"));
    match op {
        Op::Query(q) => query_request(id, q),
        Op::Update(u) => format!(
            r#"{{"id":{id},"op":"update","add":[{}],"remove":[{}]}}"#,
            list(u.add),
            list(u.remove)
        ),
    }
}

/// The `id` of a response, read from its prefix (`{"id":N,...`) without
/// parsing the whole answer on the clock.
pub fn reply_id(payload: &[u8]) -> Option<u64> {
    let rest = payload.strip_prefix(br#"{"id":"#)?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

/// Id spaces, so every request of a run has a distinct id.
const ID_UPDATE: u64 = 1 << 40;
const ID_PROBE: u64 = 2 << 40;

struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn { stream })
    }

    fn send(&self, payload: &str) -> io::Result<()> {
        let mut s = &self.stream;
        write_frame(&mut s, payload.as_bytes())
    }

    fn recv(&self) -> Result<Vec<u8>, FrameError> {
        let mut s = &self.stream;
        read_frame(&mut s, MAX_REPLY)
    }
}

/// Length of one resource window of the measured phase, in seconds: the
/// server's CPU time and peak RSS and the machine's steal ticks are
/// sampled at each boundary.
pub const WINDOW: f64 = 0.25;

/// The run's clock and its window boundaries from the start of the
/// measured phase on (through the drain and the probes), with the resource
/// sample at each boundary taken by whichever thread first crosses it.
pub struct Clock {
    t0: Instant,
    warm_end: f64,
    end: f64,
    server_pid: u32,
    next: AtomicUsize,
    samples: Mutex<Vec<Sample>>,
}

impl Clock {
    fn new(warmup: f64, seconds: f64, server_pid: u32) -> Clock {
        Clock {
            t0: Instant::now(),
            warm_end: warmup,
            end: warmup + seconds,
            server_pid,
            next: AtomicUsize::new(0),
            samples: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn instant(&self, at: f64) -> Instant {
        self.t0 + Duration::from_secs_f64(at.max(0.0))
    }

    fn sample(&self) -> Sample {
        Sample {
            at: self.now(),
            server_cpu_s: process_cpu_seconds(self.server_pid).unwrap_or(f64::NAN),
            server_hwm_mb: peak_rss_mb(self.server_pid).unwrap_or(f64::NAN),
            client_cpu_s: process_cpu_seconds(std::process::id()).unwrap_or(f64::NAN),
            steal: steal_ticks().unwrap_or((0, 0)),
        }
    }

    fn boundary_at(&self, i: usize) -> f64 {
        self.warm_end + i as f64 * WINDOW
    }

    /// Called often by every driving thread: takes the boundary samples.
    /// Boundaries crossed together share one sample, which leaves the
    /// windows between them empty.
    fn tick(&self) -> f64 {
        let now = self.now();
        if now >= self.boundary_at(self.next.load(Ordering::SeqCst)) {
            let mut samples = self.samples.lock().expect("samples");
            let crossed = ((now - self.warm_end) / WINDOW) as usize + 1;
            if samples.len() < crossed {
                let s = self.sample();
                samples.resize(crossed, s);
                self.next.store(crossed, Ordering::SeqCst);
            }
        }
        now
    }

    fn phase_at(&self, t: f64) -> Phase {
        if t < self.warm_end {
            Phase::Warmup
        } else {
            Phase::Measured
        }
    }
}

/// Sleeps until `at`, finishing with a short spin so sends leave on time
/// (`thread::sleep` overshoots by tens of microseconds).
fn sleep_until(clock: &Clock, at: f64) {
    let target = clock.instant(at);
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let left = target - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(150));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Drives `workload` on a server at `addr` (process `server_pid`).
pub fn drive(
    addr: SocketAddr,
    server_pid: u32,
    workload: Workload,
    inputs: &Inputs,
    warmup: f64,
    seconds: f64,
) -> io::Result<Run> {
    let clock = Clock::new(warmup, seconds, server_pid);
    let a = Conn::open(addr)?;
    let b = Conn::open(addr)?;
    let mut run = Run {
        warmup,
        seconds,
        connections: 2,
        ..Run::default()
    };
    match workload {
        Workload::Interactive => interactive(&clock, &a, &b, inputs, &mut run)?,
        Workload::MissStream => miss_stream(&clock, &a, &b, inputs, &mut run)?,
        Workload::Fanout => fanout(&clock, &a, &b, inputs, &mut run)?,
    }
    // The open loop can finish its schedule before the phase ends.
    sleep_until(&clock, clock.end);
    clock.tick();
    probes(&clock, &a, &b, workload, inputs, &mut run)?;
    // Close the window the probes ended in.
    sleep_until(&clock, clock.boundary_at(clock.next.load(Ordering::SeqCst)));
    clock.tick();
    run.windows = clock.samples.lock().expect("samples").clone();
    a.send(r#"{"id":0,"op":"stats"}"#)?;
    run.stats_reply = a.recv().map_err(frame_io)?;
    Ok(run)
}

fn frame_io(e: FrameError) -> io::Error {
    match e {
        FrameError::Io(e) => e,
        other => io::Error::other(other.to_string()),
    }
}

fn pending(id: u64, op: Op, phase: Phase, due: f64, sent: f64) -> Rec {
    Rec {
        id,
        op,
        phase,
        due,
        sent,
        done: f64::NAN,
        reply: Vec::new(),
    }
}

/// Reads replies on `conn` until `count` arrived or the connection fails,
/// returning (id, arrival time, payload) triples.
fn receive(clock: &Clock, conn: &Conn, count: usize) -> Vec<(u64, f64, Vec<u8>)> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        match conn.recv() {
            Ok(payload) => {
                let at = clock.tick();
                out.push((reply_id(&payload).unwrap_or(u64::MAX), at, payload));
            }
            Err(_) => break,
        }
    }
    out
}

/// Attaches replies to their records by id.
fn attach(recs: &mut [Rec], replies: Vec<(u64, f64, Vec<u8>)>) {
    let index: std::collections::HashMap<u64, usize> =
        recs.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    for (id, at, payload) in replies {
        if let Some(&i) = index.get(&id) {
            recs[i].done = at;
            recs[i].reply = payload;
        }
    }
}

/// Nonblocking frame reads for the update connection, which the
/// generator thread polls between its sends.
#[derive(Default)]
struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    fn poll(&mut self, stream: &TcpStream) -> io::Result<Option<Vec<u8>>> {
        let mut chunk = [0u8; 4096];
        let mut s = stream;
        loop {
            if self.buf.len() >= 4 {
                let len = u32::from_be_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
                if self.buf.len() >= 4 + len {
                    let frame = self.buf[4..4 + len].to_vec();
                    self.buf.drain(..4 + len);
                    return Ok(Some(frame));
                }
            }
            match s.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e),
            }
        }
    }
}

/// Open loop: the generator (this thread) sends queries on `a` and
/// updates on `b` at their scheduled times; a second thread receives the
/// query replies. Updates are serialised: the next is sent only after the
/// previous reply, which this thread polls for between query sends.
fn interactive(
    clock: &Clock,
    a: &Conn,
    b: &Conn,
    inputs: &Inputs,
    run: &mut Run,
) -> io::Result<()> {
    let mut queries: Vec<Rec> = inputs
        .arrivals
        .iter()
        .enumerate()
        .map(|(i, &(at, key))| {
            let op = Op::Query(inputs.pool[key]);
            pending(i as u64, op, clock.phase_at(at), at, f64::NAN)
        })
        .collect();
    let mut updates: Vec<Rec> = inputs
        .updates
        .iter()
        .enumerate()
        .map(|(j, &(at, u))| {
            pending(
                ID_UPDATE + j as u64,
                Op::Update(u),
                Phase::Measured,
                at,
                f64::NAN,
            )
        })
        .collect();
    b.stream.set_nonblocking(true)?;
    let expected = queries.len();
    let replies = std::thread::scope(|scope| -> io::Result<_> {
        let receiver = scope.spawn(|| receive(clock, a, expected));
        let mut frames = FrameBuf::default();
        let (mut qi, mut ui) = (0usize, 0usize);
        let mut update_out: Option<usize> = None;
        let mut failed = None;
        while qi < queries.len() || ui < updates.len() || update_out.is_some() {
            let next_q = queries.get(qi).map_or(f64::INFINITY, |r| r.due);
            let next_u = if update_out.is_none() {
                updates.get(ui).map_or(f64::INFINITY, |r| r.due)
            } else {
                f64::INFINITY
            };
            let next = next_q.min(next_u);
            if let Some(j) = update_out {
                // Poll the update reply until the next send is due.
                loop {
                    match frames.poll(&b.stream) {
                        Ok(Some(payload)) => {
                            updates[j].done = clock.tick();
                            updates[j].reply = payload;
                            update_out = None;
                            break;
                        }
                        Ok(None) => {}
                        Err(e) => {
                            failed = Some(e);
                            update_out = None;
                            break;
                        }
                    }
                    let now = clock.tick();
                    if now >= next || now - updates[j].sent > REPLY_TIMEOUT.as_secs_f64() {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(20));
                }
                if update_out.is_none() {
                    continue;
                }
                if next.is_infinite() {
                    // Timed out with nothing else to send.
                    update_out = None;
                    continue;
                }
            }
            sleep_until(clock, next);
            let now = clock.tick();
            if next_q <= next_u {
                let rec = &mut queries[qi];
                rec.sent = now;
                a.send(&request_bytes(rec.id, rec.op))?;
                qi += 1;
            } else {
                let rec = &mut updates[ui];
                rec.sent = now;
                b.send(&request_bytes(rec.id, rec.op))?;
                update_out = Some(ui);
                ui += 1;
            }
        }
        if let Some(e) = failed {
            return Err(e);
        }
        Ok(receiver.join().expect("receiver thread"))
    })?;
    b.stream.set_nonblocking(false)?;
    attach(&mut queries, replies);
    run.recs.extend(queries);
    run.recs.extend(updates);
    Ok(())
}

/// Closed loop on one connection: keeps `MISS_WINDOW` requests in flight,
/// drawing keys from the shared cursor, until the measured phase ends.
fn miss_conn(
    clock: &Clock,
    conn: &Conn,
    keys: &[Query],
    cursor: &AtomicUsize,
    exhausted: &AtomicBool,
) -> io::Result<Vec<Rec>> {
    let mut recs: Vec<Rec> = Vec::new();
    let mut index = std::collections::HashMap::new();
    let mut in_flight = 0usize;
    let send_next = |recs: &mut Vec<Rec>,
                     index: &mut std::collections::HashMap<u64, usize>|
     -> io::Result<bool> {
        let now = clock.tick();
        if now >= clock.end {
            return Ok(false);
        }
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(&key) = keys.get(i) else {
            exhausted.store(true, Ordering::Relaxed);
            return Ok(false);
        };
        conn.send(&query_request(i as u64, key))?;
        index.insert(i as u64, recs.len());
        recs.push(pending(
            i as u64,
            Op::Query(key),
            clock.phase_at(now),
            now,
            now,
        ));
        Ok(true)
    };
    for _ in 0..MISS_WINDOW {
        if send_next(&mut recs, &mut index)? {
            in_flight += 1;
        }
    }
    while in_flight > 0 {
        let Ok(payload) = conn.recv() else { break };
        let at = clock.tick();
        in_flight -= 1;
        if let Some(&slot) = reply_id(&payload).and_then(|id| index.get(&id)) {
            recs[slot].done = at;
            recs[slot].reply = payload;
        }
        if send_next(&mut recs, &mut index)? {
            in_flight += 1;
        }
    }
    Ok(recs)
}

fn miss_stream(
    clock: &Clock,
    a: &Conn,
    b: &Conn,
    inputs: &Inputs,
    run: &mut Run,
) -> io::Result<()> {
    let cursor = AtomicUsize::new(0);
    let exhausted = AtomicBool::new(false);
    let (ra, rb) = std::thread::scope(|scope| {
        let other = scope.spawn(|| miss_conn(clock, b, &inputs.keys, &cursor, &exhausted));
        let mine = miss_conn(clock, a, &inputs.keys, &cursor, &exhausted);
        (mine, other.join().expect("connection thread"))
    });
    run.exhausted = exhausted.load(Ordering::Relaxed);
    run.recs.extend(ra?);
    run.recs.extend(rb?);
    Ok(())
}

/// Sends one burst back to back, then waits for all of its replies.
fn burst(
    clock: &Clock,
    conn: &Conn,
    ids: u64,
    keys: &[Query],
    phase: Option<Phase>,
) -> io::Result<(Vec<Rec>, BurstRec)> {
    let start = clock.tick();
    let phase = phase.unwrap_or_else(|| clock.phase_at(start));
    let mut frames = Vec::new();
    let mut recs = Vec::with_capacity(keys.len());
    for (j, &key) in keys.iter().enumerate() {
        let id = ids + j as u64;
        let payload = query_request(id, key);
        frames.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frames.extend_from_slice(payload.as_bytes());
        recs.push(pending(id, Op::Query(key), phase, start, start));
    }
    (&conn.stream).write_all(&frames)?;
    let replies = receive(clock, conn, keys.len());
    let end = replies.iter().map(|r| r.1).fold(f64::NAN, f64::max);
    attach(&mut recs, replies);
    Ok((recs, BurstRec { phase, start, end }))
}

fn fanout_conn(
    clock: &Clock,
    conn: &Conn,
    bursts: &[Vec<Query>],
    cursor: &AtomicUsize,
    exhausted: &AtomicBool,
) -> io::Result<(Vec<Rec>, Vec<BurstRec>)> {
    let mut recs = Vec::new();
    let mut done = Vec::new();
    while clock.tick() < clock.end {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(keys) = bursts.get(i) else {
            exhausted.store(true, Ordering::Relaxed);
            break;
        };
        let (r, b) = burst(clock, conn, (i * BURST) as u64, keys, None)?;
        recs.extend(r);
        done.push(b);
    }
    Ok((recs, done))
}

fn fanout(clock: &Clock, a: &Conn, b: &Conn, inputs: &Inputs, run: &mut Run) -> io::Result<()> {
    let cursor = AtomicUsize::new(0);
    let exhausted = AtomicBool::new(false);
    let (ra, rb) = std::thread::scope(|scope| {
        let other = scope.spawn(|| fanout_conn(clock, b, &inputs.bursts, &cursor, &exhausted));
        let mine = fanout_conn(clock, a, &inputs.bursts, &cursor, &exhausted);
        (mine, other.join().expect("connection thread"))
    });
    run.exhausted = exhausted.load(Ordering::Relaxed);
    for (recs, bursts) in [ra?, rb?] {
        run.recs.extend(recs);
        run.bursts.extend(bursts);
    }
    Ok(())
}

/// The post-phase probes on an idle server, one request at a time: the
/// latencies a workload's own traffic does not produce (README.md).
fn probes(
    clock: &Clock,
    a: &Conn,
    b: &Conn,
    workload: Workload,
    inputs: &Inputs,
    run: &mut Run,
) -> io::Result<()> {
    let mut recs = Vec::new();
    // Bursts first, before the update probe leaves deltas in the overlay.
    if workload != Workload::Fanout {
        for (i, keys) in inputs.probe_bursts.iter().enumerate() {
            let ids = ID_PROBE + (i * BURST) as u64;
            let (r, burst_rec) = burst(clock, a, ids, keys, Some(Phase::ProbeBurst))?;
            recs.extend(r);
            run.bursts.push(burst_rec);
        }
    }
    let mut next_id = ID_PROBE + (inputs.probe_bursts.len() * BURST) as u64;
    let mut one = |conn: &Conn, op: Op, phase: Phase, recs: &mut Vec<Rec>| -> io::Result<()> {
        let now = clock.tick();
        conn.send(&request_bytes(next_id, op))?;
        let mut rec = pending(next_id, op, phase, now, now);
        next_id += 1;
        if let Ok(payload) = conn.recv() {
            rec.done = clock.tick();
            rec.reply = payload;
        }
        recs.push(rec);
        Ok(())
    };
    if workload != Workload::Interactive {
        // Repeats of the first measured keys, which the cache still holds.
        let mut measured: Vec<&Rec> = run
            .recs
            .iter()
            .filter(|r| r.phase == Phase::Measured && !r.done.is_nan())
            .collect();
        measured.sort_by(|x, y| x.sent.total_cmp(&y.sent).then(x.id.cmp(&y.id)));
        let keys: Vec<Op> = measured.iter().take(PROBE_HITS).map(|r| r.op).collect();
        for op in keys {
            one(a, op, Phase::ProbeHit, &mut recs)?;
        }
        for &u in &inputs.probe_updates {
            one(b, Op::Update(u), Phase::ProbeUpdate, &mut recs)?;
        }
    }
    run.recs.extend(recs);
    Ok(())
}
