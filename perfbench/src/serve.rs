//! The `serve` workload: a fresh `tcor-sim serve` daemon (1 compute
//! worker, 1 event thread, an empty cache dir) driven by an open-loop
//! generator of seeded exponential arrivals from this process, over two
//! keep-alive connections, each owned by one thread:
//!
//! * the **read lane** carries every read of `/v1/cell` and
//!   `/v1/misscurve` keys, drawn Zipf over a finite keyspace: a key's
//!   first read is a cold compute, its repeats are warm hits;
//! * the **stream lane** carries the stream sessions. Each uploads one
//!   of the repository's suite PB traces in chunks, polls `/curve`
//!   mid-stream and calls `/finish`.
//!
//! Cold reads and chunk uploads ride different connections, so they
//! meet in the daemon's bounded compute queue. Every request is timed
//! from its scheduled send when the lane's previous reply held it up,
//! else from its actual send. Every warm body must equal its key's cold
//! body, and every finished stream curve must equal the offline render
//! of its trace.

use crate::report::{median, percentile, ratio, Outcome};
use crate::spans::{self, Span, Tracer};
use crate::{host, Opts};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use tcor_cache::profile::OptStackProfiler;
use tcor_cache::Access;
use tcor_common::{fxhash64, Xoshiro256pp};
use tcor_runner::ArtifactStore;
use tcor_serve::HttpClient;
use tcor_sim::misscurves::{suite_traces, BenchTrace};
use tcor_sim::suite::CELL_CONFIGS;
use tcor_workloads::encode_chunk;

// The arrival rates and the chunk size are this benchmark's choices,
// not figures from the paper or the program. The chunk size is the
// `tcor-sim stream` default. At these rates the daemon's one compute
// worker stays well below saturation once the cold keys are computed.
/// Read arrivals per second.
const READ_RATE_HZ: f64 = 250.0;
/// Zipf exponent of the key popularity.
const ZIPF_S: f64 = 1.0;
/// Stream requests (opens, chunk uploads, finishes) per second.
const STREAM_RATE_HZ: f64 = 40.0;
/// Accesses per uploaded chunk.
const CHUNK_ACCESSES: usize = 4096;
/// Idle seconds after which the daemon sweeps a stream session. A
/// finished session stays queryable until then and counts against the
/// daemon's 64-session cap, so the sweep must keep up with the
/// schedule's session rate (several a second); live sessions idle for
/// well under a second.
const STREAM_TTL_SECS: &str = "2";
/// Daemons started per run; the last one takes the traffic, and each
/// start is one set-up sample.
const DAEMON_STARTS: usize = 8;
/// Miss-curve policies in the read keyspace.
const CURVE_POLICIES: [&str; 2] = ["opt", "lru"];

/// One scheduled operation.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Op {
    /// `GET` of keyspace entry `key`.
    Read {
        /// Index into [`Schedule::keys`].
        key: usize,
    },
    /// `POST /v1/stream` for session `session`.
    Open {
        /// Index into [`Schedule::sessions`].
        session: usize,
    },
    /// Upload of chunk `index` of session `session`.
    Chunk {
        /// Index into [`Schedule::sessions`].
        session: usize,
        /// Chunk number within the session.
        index: usize,
    },
    /// Mid-stream `GET …/curve` snapshot.
    Curve {
        /// Index into [`Schedule::sessions`].
        session: usize,
    },
    /// `POST …/finish?policy=opt`.
    Finish {
        /// Index into [`Schedule::sessions`].
        session: usize,
    },
}

/// An operation and when it is due, in µs from the traffic start.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Item {
    /// Due time, µs after the traffic starts.
    pub due_us: u64,
    /// What to send.
    pub op: Op,
}

/// Everything the generator sends, derived from the seed alone.
#[derive(Debug, PartialEq)]
struct Schedule {
    /// Request paths of the read keyspace.
    pub keys: Vec<String>,
    /// Every read, in due order.
    pub reads: Vec<Item>,
    /// Every stream operation, in due order.
    pub stream: Vec<Item>,
    /// The suite trace each stream session uploads (an index into the
    /// trace list the schedule was made for).
    pub sessions: Vec<usize>,
}

/// The read keyspace: every suite cell and two miss curves per
/// workload.
fn keyspace() -> Vec<String> {
    let mut keys = Vec::new();
    for p in tcor_workloads::suite() {
        for cfg in CELL_CONFIGS {
            keys.push(format!("/v1/cell/{}/{cfg}", p.alias));
        }
        for policy in CURVE_POLICIES {
            keys.push(format!("/v1/misscurve/{}/{policy}", p.alias));
        }
    }
    keys
}

/// A seeded permutation of `0..n`.
fn permuted(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.random_range(0..(i as u64 + 1)) as usize);
    }
    v
}

fn exp_gap_us(rng: &mut Xoshiro256pp, rate_hz: f64) -> u64 {
    (-(1.0 - rng.random_f64()).ln() / rate_hz * 1e6) as u64
}

/// The traffic of `duration_s` seconds for `seed`. `chunks[i]` is the
/// number of chunks trace `i` uploads in. Sessions walk the traces in
/// seeded permutations, so every trace is uploaded about equally often.
fn schedule(seed: u64, duration_s: f64, chunks: &[usize]) -> Schedule {
    let keys = keyspace();
    let end_us = (duration_s * 1e6) as u64;
    // Zipf ranks over a seeded permutation of the keyspace.
    let ranked = permuted(keys.len(), seed ^ 0x5eed);
    let weights: Vec<f64> = (1..=keys.len()).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut reads = Vec::new();
    let mut t = 0;
    loop {
        t += exp_gap_us(&mut rng, READ_RATE_HZ);
        if t >= end_us {
            break;
        }
        let u = rng.random_f64();
        let rank = cdf.partition_point(|&c| c < u).min(keys.len() - 1);
        reads.push(Item {
            due_us: t,
            op: Op::Read { key: ranked[rank] },
        });
    }
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x57ea_4000);
    let (mut stream, mut sessions) = (Vec::new(), Vec::new());
    let mut order = Vec::new();
    let mut t = exp_gap_us(&mut rng, STREAM_RATE_HZ);
    while t < end_us {
        if order.is_empty() {
            order = permuted(chunks.len(), rng.next_u64());
        }
        let session = sessions.len();
        let trace = order.pop().expect("refilled above");
        sessions.push(trace);
        stream.push(Item {
            due_us: t,
            op: Op::Open { session },
        });
        for index in 0..chunks[trace] {
            t += exp_gap_us(&mut rng, STREAM_RATE_HZ);
            stream.push(Item {
                due_us: t,
                op: Op::Chunk { session, index },
            });
            if index % 4 == 0 && index + 1 < chunks[trace] {
                stream.push(Item {
                    due_us: t,
                    op: Op::Curve { session },
                });
            }
        }
        t += exp_gap_us(&mut rng, STREAM_RATE_HZ);
        stream.push(Item {
            due_us: t,
            op: Op::Finish { session },
        });
        t += exp_gap_us(&mut rng, STREAM_RATE_HZ);
    }
    Schedule {
        keys,
        reads,
        stream,
        sessions,
    }
}

/// The offline `/finish?policy=opt` body of a suite trace.
fn offline_finish(t: &BenchTrace) -> String {
    let opt = OptStackProfiler::profile(&t.trace, &t.next_use);
    let grid = tcor_stream::default_grid();
    let curve: Vec<f64> = grid
        .caps
        .iter()
        .map(|&c| tcor_stream::miss_ratio(opt.misses_at(c), t.trace.len() as u64))
        .collect();
    tcor_stream::misscurve_json(t.alias, "opt", &grid.size_kb, &curve).render() + "\n"
}

/// A daemon child process, stopped and reaped when dropped.
struct Daemon {
    child: Child,
    addr: String,
    /// Held open so a later line on the daemon's stdout cannot fail.
    _stdout: Option<BufReader<ChildStdout>>,
}

impl Daemon {
    /// Starts `tcor-sim serve` over the empty directory `dir`; returns
    /// it with the seconds from spawn until `/health` answered.
    fn start(tcor_sim: &Path, dir: &Path) -> Result<(Daemon, f64), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let log = std::fs::File::create(dir.join("serve.log"))
            .map_err(|e| format!("creating the daemon log: {e}"))?;
        let t0 = Instant::now();
        let mut child = Command::new(tcor_sim)
            .arg("serve")
            .args(["--port", "0", "--workers", "1", "--event-threads", "1"])
            .args(["--stream-ttl-secs", STREAM_TTL_SECS])
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .arg("--telemetry")
            .arg(dir.join("telemetry.jsonl"))
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", tcor_sim.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            _stdout: None,
        };
        // The daemon prints its bound address once it listens; a read
        // wakes on that line, where polling a port file would add its
        // poll interval to the set-up time.
        stdout
            .read_line(&mut daemon.addr)
            .map_err(|e| format!("reading the daemon address: {e}"))?;
        daemon.addr = daemon.addr.trim().to_string();
        daemon._stdout = Some(stdout);
        if daemon.addr.is_empty() {
            return Err(format!(
                "daemon exited before listening; see {}",
                dir.join("serve.log").display()
            ));
        }
        let mut c = HttpClient::new(daemon.addr.clone(), Duration::from_secs(30));
        match c.request("GET", "/health", None) {
            Ok(r) if r.status == 200 => Ok((daemon, t0.elapsed().as_secs_f64())),
            Ok(r) => Err(format!("/health -> {}", r.status)),
            Err(e) => Err(format!("/health: {e}")),
        }
    }

    fn metrics(&self) -> Result<String, String> {
        let mut c = HttpClient::new(self.addr.clone(), Duration::from_secs(30));
        match c.request("GET", "/metrics", None) {
            Ok(r) if r.status == 200 => Ok(r.body),
            Ok(r) => Err(format!("/metrics -> {}", r.status)),
            Err(e) => Err(format!("/metrics: {e}")),
        }
    }

    /// Drains the daemon over HTTP and waits for a clean exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut c = HttpClient::new(self.addr.clone(), Duration::from_secs(30));
        c.request("POST", "/admin/shutdown", None)
            .map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return status
                    .success()
                    .then_some(())
                    .ok_or(format!("daemon exited with {status}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit within 60 s of shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A counter out of a `/metrics` body (0 when absent).
fn counter(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(" = "))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// What one lane observed.
#[derive(Default)]
struct Lane {
    warm_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    chunk_ms: Vec<f64>,
    /// Accesses per second of each full-size chunk upload. A session's
    /// last chunk is shorter, and its fixed costs weigh more.
    chunk_rates: Vec<f64>,
    snapshot_ms: Vec<f64>,
    late_ms: Vec<f64>,
    outcome: Outcome,
    spans: Vec<Span>,
}

/// Sleeps until `due`. No busy-wait: on a small host a spinning
/// generator would take CPU from the daemon it measures; the sleep's
/// overshoot shows in `loadgen.late_ms_p99`.
fn wait_until(due: Instant) {
    if let Some(left) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(left);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Extracts the session id from an open receipt.
fn session_id(receipt: &str) -> Option<String> {
    match tcor_runner::Json::parse(receipt).ok()?.get("session") {
        Some(tcor_runner::Json::Str(id)) => Some(id.clone()),
        _ => None,
    }
}

/// The accesses chunk `index` of `trace` uploads.
fn chunk_of(trace: &[Access], index: usize) -> &[Access] {
    let rest = &trace[index * CHUNK_ACCESSES..];
    &rest[..rest.len().min(CHUNK_ACCESSES)]
}

/// What both lanes share while they drive one daemon.
struct Traffic<'a> {
    addr: &'a str,
    sched: &'a Schedule,
    traces: &'a [BenchTrace],
    /// The offline `/finish` body of each trace.
    finish_bodies: &'a [String],
    /// When the schedule's time 0 falls.
    t0: Instant,
    trace: bool,
}

impl Traffic<'_> {
    /// The request one item sends: method, path, body, span name.
    fn request(
        &self,
        item: &Item,
        ids: &[Option<String>],
    ) -> (&'static str, String, Option<String>, &'static str) {
        let id = |session: usize| ids[session].clone().unwrap_or_default();
        match item.op {
            Op::Read { key } => ("GET", self.sched.keys[key].clone(), None, "serve.read"),
            Op::Open { session } => (
                "POST",
                "/v1/stream".to_string(),
                Some(format!("label={}", self.alias(session))),
                "stream.open",
            ),
            Op::Chunk { session, index } => (
                "POST",
                format!("/v1/stream/{}/chunk", id(session)),
                Some(encode_chunk(chunk_of(self.session_trace(session), index))),
                "stream.chunk",
            ),
            Op::Curve { session } => (
                "GET",
                format!("/v1/stream/{}/curve", id(session)),
                None,
                "stream.curve",
            ),
            Op::Finish { session } => (
                "POST",
                format!("/v1/stream/{}/finish?policy=opt", id(session)),
                None,
                "stream.finish",
            ),
        }
    }

    fn alias(&self, session: usize) -> &str {
        self.traces[self.sched.sessions[session]].alias
    }

    fn session_trace(&self, session: usize) -> &[Access] {
        &self.traces[self.sched.sessions[session]].trace
    }

    /// Runs one lane's items open loop. A request that came due while
    /// the lane still waited on its previous reply is timed from when
    /// it was due, so a stall counts against every request it delayed.
    /// One sent on time is timed from its send, so this thread's own
    /// timer overshoot (in `loadgen.late_ms_p99`) does not count.
    fn run_lane(&self, items: &[Item], name: &str) -> Lane {
        let mut lane = Lane::default();
        let mut tr = Tracer::new(self.trace, self.t0);
        let mut client = HttpClient::new(self.addr.to_string(), Duration::from_secs(120));
        let mut ids: Vec<Option<String>> = vec![None; self.sched.sessions.len()];
        // The hash of each key's first body.
        let mut bodies: Vec<Option<u64>> = vec![None; self.sched.keys.len()];
        let mut prev_done = self.t0;
        let span = tr.begin(name);
        for item in items {
            let due = self.t0 + Duration::from_micros(item.due_us);
            wait_until(due);
            let (method, path, body, name) = self.request(item, &ids);
            let send = Instant::now();
            let start = if prev_done > due { due } else { send };
            lane.late_ms.push(ms(send.saturating_duration_since(due)));
            let reply = client.request(method, &path, body.as_deref());
            let done = Instant::now();
            prev_done = done;
            tr.record(name, send, done);
            let took = ms(done - start);
            let reply = match reply {
                Ok(r) if (200..300).contains(&r.status) => r,
                Ok(r) => {
                    lane.outcome
                        .check(Some(format!("{method} {path} -> {}", r.status)));
                    continue;
                }
                Err(e) => {
                    lane.outcome.check(Some(format!("{method} {path}: {e}")));
                    continue;
                }
            };
            let err = match item.op {
                Op::Read { key } => {
                    let hash = fxhash64(reply.body.as_bytes());
                    match bodies[key] {
                        None => {
                            lane.cold_ms.push(took);
                            bodies[key] = Some(hash);
                            None
                        }
                        Some(cold) => {
                            lane.warm_ms.push(took);
                            (cold != hash)
                                .then(|| format!("{path}: body differs from the cold body"))
                        }
                    }
                }
                Op::Open { session } => {
                    ids[session] = session_id(&reply.body);
                    ids[session]
                        .is_none()
                        .then(|| "open receipt has no session id".to_string())
                }
                Op::Chunk { session, index } => {
                    let n = chunk_of(self.session_trace(session), index).len();
                    lane.chunk_ms.push(took);
                    if n == CHUNK_ACCESSES {
                        lane.chunk_rates.push(ratio(n as f64, took / 1e3));
                    }
                    None
                }
                Op::Curve { .. } => {
                    lane.snapshot_ms.push(took);
                    None
                }
                Op::Finish { session } => {
                    (reply.body != self.finish_bodies[self.sched.sessions[session]]).then(|| {
                        format!(
                            "session {session} ({}): finished curve differs from the offline render",
                            self.alias(session)
                        )
                    })
                }
            };
            lane.outcome.check(err);
        }
        tr.end(span);
        lane.spans = tr.into_spans();
        lane
    }
}

/// One traffic phase against a fresh daemon.
struct Phase {
    reads: Lane,
    stream: Lane,
    setup_s: Vec<f64>,
    rss_mb: f64,
    before: String,
    after: String,
}

impl Phase {
    fn lanes(&self) -> [&Lane; 2] {
        [&self.reads, &self.stream]
    }

    fn reads_ms(&self) -> Vec<f64> {
        self.reads
            .warm_ms
            .iter()
            .chain(&self.reads.cold_ms)
            .copied()
            .collect()
    }
}

/// Starts [`DAEMON_STARTS`] daemons (set-up samples), drives the last
/// with `sched` and drains it.
fn phase(
    opts: &Opts,
    dir: &Path,
    sched: &Schedule,
    traces: &[BenchTrace],
    finish_bodies: &[String],
    trace: bool,
) -> Result<Phase, String> {
    let mut setup_s = Vec::new();
    for n in 1..DAEMON_STARTS {
        let (d, s) = Daemon::start(&opts.tcor_sim, &dir.join(format!("start{n}")))?;
        setup_s.push(s);
        d.shutdown()?;
    }
    let (daemon, s) = Daemon::start(&opts.tcor_sim, &dir.join("daemon"))?;
    setup_s.push(s);
    let before = daemon.metrics()?;
    let traffic = Traffic {
        addr: &daemon.addr,
        sched,
        traces,
        finish_bodies,
        t0: Instant::now() + Duration::from_millis(20),
        trace,
    };
    let (reads, stream) = std::thread::scope(|scope| {
        let stream = scope.spawn(|| traffic.run_lane(&sched.stream, "loadgen.stream_lane"));
        let reads = traffic.run_lane(&sched.reads, "loadgen.read_lane");
        (reads, stream.join().expect("the stream lane panicked"))
    });
    let after = daemon.metrics()?;
    let rss_mb = host::peak_rss_mb(&daemon.child.id().to_string());
    daemon.shutdown()?;
    Ok(Phase {
        reads,
        stream,
        setup_s,
        rss_mb,
        before,
        after,
    })
}

/// Traffic length for a run of `seconds`: what is left after the
/// daemon starts and the drain.
fn traffic_seconds(opts: &Opts) -> f64 {
    if opts.smoke {
        1.5
    } else {
        (opts.seconds - 2.0).max(1.0)
    }
}

/// Runs the workload and returns what it measured.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let traces = suite_traces(&ArtifactStore::new())
        .map_err(|e| format!("building the suite traces: {e}"))?;
    let chunks: Vec<usize> = traces
        .iter()
        .map(|t| t.trace.len().div_ceil(CHUNK_ACCESSES))
        .collect();
    let finish_bodies: Vec<String> = traces
        .iter()
        .map(offline_finish)
        .collect();
    let phase = |dir: &str, sched: &Schedule, trace: bool| {
        phase(opts, &opts.tmp.join(dir), sched, &traces, &finish_bodies, trace)
    };
    let mut out = Outcome::default();
    if !opts.trace {
        let sched = schedule(opts.seed, traffic_seconds(opts), &chunks);
        let p = phase("untraced", &sched, false)?;
        merge_checks(&mut out, &p);
        out.set("setup_s", median(&p.setup_s));
        out.set("op_p50_ms", median(&p.reads_ms()));
        out.set("maccess_per_s", median(&p.stream.chunk_rates) / 1e6);
        out.set("peak_rss_mb", p.rss_mb);
        return Ok(out);
    }
    // Traced: the same seeded traffic, half untraced then half traced,
    // each against its own fresh daemon.
    let sched = schedule(opts.seed, traffic_seconds(opts) / 2.0, &chunks);
    let untraced = phase("untraced", &sched, false)?;
    let p = phase("traced", &sched, true)?;
    merge_checks(&mut out, &untraced);
    merge_checks(&mut out, &p);
    let op_p50 = median(&p.reads_ms());
    out.set("trace.op_p50_ms", op_p50);
    out.set("trace.overhead_ms", op_p50 - median(&untraced.reads_ms()));
    let delta = |name: &str| counter(&p.after, name) - counter(&p.before, name);
    for name in [
        "request_received",
        "cache_warm_hits",
        "cold_computes",
        "request_coalesced",
        "request_shed",
        "errors",
        "keepalive_reuses",
        "eventloop_wakeups",
        "cache_mem_hits",
        "cache_disk_hits",
    ] {
        out.set(&format!("serve.{name}"), delta(&format!("serve/{name}")));
    }
    let (hits, colds) = (delta("serve/cache_warm_hits"), delta("serve/cold_computes"));
    out.set("serve.warm_hit_ratio", ratio(hits, hits + colds));
    for name in ["accesses", "chunks", "snapshots", "rejected"] {
        out.set(&format!("stream.{name}"), delta(&format!("stream/{name}")));
    }
    out.set("serve.warm_ms_p50", median(&p.reads.warm_ms));
    out.set("serve.warm_ms_p99", percentile(&p.reads.warm_ms, 99.0));
    out.set("serve.cold_ms_p50", median(&p.reads.cold_ms));
    out.set("stream.chunk_ms_p50", median(&p.stream.chunk_ms));
    out.set("stream.chunk_ms_p99", percentile(&p.stream.chunk_ms, 99.0));
    out.set("stream.snapshot_ms_p50", median(&p.stream.snapshot_ms));
    let late: Vec<f64> = p.lanes().iter().flat_map(|l| l.late_ms.clone()).collect();
    out.set("loadgen.sent", late.len() as f64);
    out.set("loadgen.late_ms_p99", percentile(&late, 99.0));
    let spans = spans::merge(vec![p.reads.spans, p.stream.spans]);
    crate::write_spans(opts, &spans).map_err(|e| format!("writing spans: {e}"))?;
    Ok(out)
}

fn merge_checks(out: &mut Outcome, p: &Phase) {
    for lane in p.lanes() {
        out.attempted += lane.outcome.attempted;
        out.failed += lane.outcome.failed;
        out.failures.extend(lane.outcome.failures.iter().cloned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHUNKS: [usize; 10] = [2, 2, 2, 3, 4, 2, 6, 3, 6, 2];

    #[test]
    fn the_same_seed_reproduces_the_traffic() {
        let a = schedule(7, 3.0, &CHUNKS);
        let b = schedule(7, 3.0, &CHUNKS);
        assert_eq!(a, b, "arrival times, key sequence and stream traces");
        assert!(!a.reads.is_empty() && !a.sessions.is_empty());
        let c = schedule(8, 3.0, &CHUNKS);
        assert_ne!(a.reads, c.reads);
        assert_ne!(a.stream, c.stream);
        assert_ne!(a.sessions, c.sessions);
    }

    #[test]
    fn sessions_upload_every_chunk_in_order_and_cover_the_traces() {
        let s = schedule(3, 20.0, &CHUNKS);
        assert!(s.reads.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        assert!(s.stream.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        let mut next = vec![0; s.sessions.len()];
        for item in &s.stream {
            match item.op {
                Op::Chunk { session, index } => {
                    assert_eq!(index, next[session], "chunks go up in order");
                    next[session] += 1;
                }
                Op::Finish { session } => {
                    assert_eq!(next[session], CHUNKS[s.sessions[session]], "finish after the last chunk")
                }
                Op::Read { .. } => panic!("reads ride the read lane"),
                _ => {}
            }
        }
        // Seeded permutations: every full round uploads each trace once.
        for round in s.sessions.chunks_exact(CHUNKS.len()) {
            let mut r = round.to_vec();
            r.sort_unstable();
            assert_eq!(r, (0..CHUNKS.len()).collect::<Vec<_>>());
        }
    }
}
