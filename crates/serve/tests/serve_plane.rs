//! Serve-plane behavior over real loopback sockets: coalescing, load
//! shedding, deadlines, warm-vs-cold responses, graceful shutdown, and
//! the telemetry stream — all against a stub backend so the tests
//! exercise the daemon, not the simulator.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tcor_runner::Telemetry;
use tcor_serve::{ApiBody, ApiCall, Backend, HttpClient, ServeConfig};

/// Counts calls per canonical request and sleeps a configurable time,
/// standing in for the simulator.
struct StubBackend {
    delay: Duration,
    calls: Mutex<HashMap<String, u64>>,
}

impl StubBackend {
    fn new(delay: Duration) -> Self {
        StubBackend {
            delay,
            calls: Mutex::new(HashMap::new()),
        }
    }

    fn calls_for(&self, canonical: &str) -> u64 {
        *self.calls.lock().unwrap().get(canonical).unwrap_or(&0)
    }
}

impl Backend for StubBackend {
    fn call(&self, call: &ApiCall) -> tcor_common::TcorResult<ApiBody> {
        *self
            .calls
            .lock()
            .unwrap()
            .entry(call.canonical())
            .or_insert(0) += 1;
        std::thread::sleep(self.delay);
        Ok(ApiBody {
            content_type: "application/json".to_string(),
            body: format!("{{\"request\":\"{}\"}}", call.canonical()),
        })
    }
}

/// Panics on its first call (after holding the flight open long enough
/// for followers to attach), then behaves like [`StubBackend`].
struct PanicOnceBackend {
    delay: Duration,
    panicked: std::sync::atomic::AtomicBool,
}

impl PanicOnceBackend {
    fn new(delay: Duration) -> Self {
        PanicOnceBackend {
            delay,
            panicked: std::sync::atomic::AtomicBool::new(false),
        }
    }
}

impl Backend for PanicOnceBackend {
    fn call(&self, call: &ApiCall) -> tcor_common::TcorResult<ApiBody> {
        std::thread::sleep(self.delay);
        if !self
            .panicked
            .swap(true, std::sync::atomic::Ordering::SeqCst)
        {
            panic!("injected backend panic");
        }
        Ok(ApiBody {
            content_type: "application/json".to_string(),
            body: format!("{{\"request\":\"{}\"}}", call.canonical()),
        })
    }
}

fn config(workers: usize, queue_depth: usize, deadline: Duration) -> ServeConfig {
    ServeConfig {
        port: 0,
        workers,
        queue_depth,
        cache_cap: 32,
        deadline,
        ..ServeConfig::default()
    }
}

fn get(addr: &str, path: &str) -> tcor_serve::HttpReply {
    HttpClient::new(addr, Duration::from_secs(10))
        .request("GET", path, None)
        .expect("request")
}

fn metric(metrics_text: &str, path: &str) -> u64 {
    metrics_text
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{path} = ")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no metric {path} in:\n{metrics_text}"))
}

#[test]
fn health_and_metrics_answer_inline() {
    let backend = Arc::new(StubBackend::new(Duration::ZERO));
    let server = tcor_serve::start(config(2, 8, Duration::from_secs(5)), backend, None).unwrap();
    let addr = server.addr().to_string();
    assert_eq!(get(&addr, "/health").body, "ok\n");
    let metrics = get(&addr, "/metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("serve/request_received = 0"));
    assert_eq!(get(&addr, "/no/such/route").status, 404);
    server.stop();
    server.wait();
}

/// N identical concurrent requests run ONE simulation; the rest
/// coalesce onto it and all get the same body.
#[test]
fn identical_concurrent_requests_coalesce_to_one_compute() {
    let backend = Arc::new(StubBackend::new(Duration::from_millis(150)));
    let server = tcor_serve::start(
        config(8, 32, Duration::from_secs(10)),
        Arc::clone(&backend) as Arc<dyn Backend>,
        None,
    )
    .unwrap();
    let addr = server.addr().to_string();
    let bodies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || {
                    let reply = get(&addr, "/v1/cell/GTr/base64");
                    assert_eq!(reply.status, 200);
                    reply.body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(backend.calls_for("cell/GTr/base64"), 1, "one simulation");
    assert!(bodies.windows(2).all(|w| w[0] == w[1]), "one shared body");
    let metrics = server.metrics_text();
    assert_eq!(metric(&metrics, "serve/request_received"), 8);
    assert_eq!(metric(&metrics, "serve/cold_computes"), 1);
    assert_eq!(
        metric(&metrics, "serve/request_coalesced") + metric(&metrics, "serve/cache_warm_hits"),
        7,
        "everyone else rode the flight or the cache it filled"
    );
    server.stop();
    server.wait();
}

/// With one worker and a one-slot queue, a burst must shed: refused
/// requests get 429 with a Retry-After hint and never reach the
/// backend, and `POST /admin/shutdown` still drains the daemon after.
#[test]
fn full_queue_sheds_with_429_and_retry_after() {
    let backend = Arc::new(StubBackend::new(Duration::from_millis(300)));
    let server = tcor_serve::start(
        config(1, 1, Duration::from_secs(10)),
        Arc::clone(&backend) as Arc<dyn Backend>,
        None,
    )
    .unwrap();
    let addr = server.addr().to_string();
    let replies: Vec<tcor_serve::HttpReply> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..12)
            .map(|i| {
                let addr = addr.clone();
                // Distinct keys so nothing coalesces away the pressure.
                s.spawn(move || get(&addr, &format!("/v1/table/fig{i}")))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let statuses: Vec<u16> = replies.iter().map(|r| r.status).collect();
    let shed = statuses.iter().filter(|&&s| s == 429).count();
    let ok = statuses.iter().filter(|&&s| s == 200).count();
    assert!(
        shed > 0,
        "a 12-deep burst into depth-1 must shed: {statuses:?}"
    );
    assert!(ok > 0, "admitted work still completes: {statuses:?}");
    assert_eq!(shed + ok, statuses.len(), "nothing lost: {statuses:?}");
    assert_eq!(
        metric(&server.metrics_text(), "serve/request_shed"),
        shed as u64
    );
    // Every shed reply carried both retry hints: integer seconds for
    // generic clients, the precise ms figure (queue depth × recent
    // service time) for ours. The values are load-dependent; what's
    // invariant is that they exist, parse, and agree on scale.
    for reply in replies.iter().filter(|r| r.status == 429) {
        let secs: u64 = reply
            .header("retry-after")
            .expect("Retry-After on 429")
            .parse()
            .expect("integer Retry-After");
        let ms: u64 = reply
            .header("x-tcor-retry-after-ms")
            .expect("X-Tcor-Retry-After-Ms on 429")
            .parse()
            .expect("integer ms hint");
        assert!(secs >= 1);
        assert!((25..=30_000).contains(&ms));
        assert!(secs == ms.div_ceil(1000).max(1));
    }
    let backend_calls: u64 = (0..12)
        .map(|i| backend.calls_for(&format!("table/fig{i}")))
        .sum();
    assert_eq!(backend_calls, ok as u64, "shed work never ran");
    // Right after shedding, the daemon still drains cleanly.
    let bye = HttpClient::new(&addr, Duration::from_secs(5))
        .request("POST", "/admin/shutdown", None)
        .unwrap();
    assert_eq!(bye.status, 200);
    server.wait(); // joins accept + workers: must not hang
}

/// A request that overstays its deadline in the queue is answered 504
/// and its job is never started.
#[test]
fn deadline_expiry_in_queue_aborts_the_job_with_504() {
    let backend = Arc::new(StubBackend::new(Duration::from_millis(400)));
    let server = tcor_serve::start(
        config(1, 8, Duration::from_millis(120)),
        Arc::clone(&backend) as Arc<dyn Backend>,
        None,
    )
    .unwrap();
    let addr = server.addr().to_string();
    // Occupy the single worker well past the victim's deadline.
    let blocker = {
        let addr = addr.clone();
        std::thread::spawn(move || get(&addr, "/v1/table/slow"))
    };
    std::thread::sleep(Duration::from_millis(50));
    let victim = get(&addr, "/v1/cell/GTr/base64");
    assert_eq!(victim.status, 504, "queued past its deadline");
    assert_eq!(
        backend.calls_for("cell/GTr/base64"),
        0,
        "aborted before the job ever started"
    );
    let _ = blocker.join();
    assert_eq!(metric(&server.metrics_text(), "serve/deadline_expired"), 1);
    server.stop();
    server.wait();
}

/// A follower whose leader outlives the follower's deadline gets 504;
/// the leader still completes and fills the cache.
#[test]
fn coalesced_follower_times_out_while_leader_completes() {
    let backend = Arc::new(StubBackend::new(Duration::from_millis(400)));
    let server = tcor_serve::start(
        config(4, 8, Duration::from_millis(150)),
        Arc::clone(&backend) as Arc<dyn Backend>,
        None,
    )
    .unwrap();
    let addr = server.addr().to_string();
    let leader = {
        let addr = addr.clone();
        std::thread::spawn(move || get(&addr, "/v1/cell/SoD/tcor64"))
    };
    std::thread::sleep(Duration::from_millis(50));
    let follower = get(&addr, "/v1/cell/SoD/tcor64");
    assert_eq!(follower.status, 504, "follower deadline < leader runtime");
    // The leader ran over its own deadline check only at *dequeue*; it
    // completes and publishes.
    assert_eq!(leader.join().unwrap().status, 200);
    assert_eq!(backend.calls_for("cell/SoD/tcor64"), 1);
    // The flight's result is cached: an immediate retry is warm.
    let retry = get(&addr, "/v1/cell/SoD/tcor64");
    assert_eq!(retry.status, 200);
    assert_eq!(retry.header("x-tcor-cache"), Some("mem"));
    server.stop();
    server.wait();
}

/// Warm and cold responses are byte-identical bodies; only the cache
/// header distinguishes them.
#[test]
fn warm_response_is_byte_identical_to_cold() {
    let backend = Arc::new(StubBackend::new(Duration::from_millis(30)));
    let server = tcor_serve::start(
        config(2, 8, Duration::from_secs(5)),
        Arc::clone(&backend) as Arc<dyn Backend>,
        None,
    )
    .unwrap();
    let addr = server.addr().to_string();
    let cold = get(&addr, "/v1/misscurve/GTr/lru");
    let warm = get(&addr, "/v1/misscurve/GTr/lru");
    assert_eq!(cold.status, 200);
    assert_eq!(warm.status, 200);
    assert_eq!(cold.body, warm.body, "byte-identical bodies");
    assert_eq!(cold.header("x-tcor-cache"), Some("miss"));
    assert_eq!(warm.header("x-tcor-cache"), Some("mem"));
    assert_eq!(backend.calls_for("misscurve/GTr/lru"), 1);
    let metrics = server.metrics_text();
    assert_eq!(metric(&metrics, "serve/cache_warm_hits"), 1);
    assert_eq!(metric(&metrics, "serve/cache_mem_hits"), 1);
    assert_eq!(metric(&metrics, "serve/cache_disk_hits"), 0);
    assert_eq!(metric(&metrics, "serve/cold_computes"), 1);
    assert_eq!(metric(&metrics, "pcache/mem_hits"), 1);
    server.stop();
    server.wait();
}

/// A daemon restarted over the same `--cache-dir` serves the previous
/// process's results from the disk tier — byte-identical, never
/// touching the backend — and promotes them so the next hit is `mem`.
#[test]
fn restarted_daemon_answers_from_the_disk_tier() {
    let dir = std::env::temp_dir().join(format!("tcor-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let with_disk = |mut cfg: ServeConfig| {
        cfg.cache_dir = Some(dir.clone());
        cfg.cache_disk_bytes = 1 << 20;
        cfg
    };
    let cold_body = {
        let backend = Arc::new(StubBackend::new(Duration::ZERO));
        let server = tcor_serve::start(
            with_disk(config(2, 8, Duration::from_secs(5))),
            backend,
            None,
        )
        .unwrap();
        let addr = server.addr().to_string();
        let cold = get(&addr, "/v1/cell/GTr/base64");
        assert_eq!(cold.status, 200);
        assert_eq!(cold.header("x-tcor-cache"), Some("miss"));
        server.stop();
        server.wait(); // daemon one "dies"
        cold.body
    };
    let backend = Arc::new(StubBackend::new(Duration::ZERO));
    let server = tcor_serve::start(
        with_disk(config(2, 8, Duration::from_secs(5))),
        Arc::clone(&backend) as Arc<dyn Backend>,
        None,
    )
    .unwrap();
    let addr = server.addr().to_string();
    let warm_disk = get(&addr, "/v1/cell/GTr/base64");
    assert_eq!(warm_disk.status, 200);
    assert_eq!(
        warm_disk.header("x-tcor-cache"),
        Some("disk"),
        "first post-restart hit restores from disk"
    );
    assert_eq!(warm_disk.body, cold_body, "byte-identical across restart");
    assert_eq!(backend.calls_for("cell/GTr/base64"), 0, "never recomputed");
    let warm_mem = get(&addr, "/v1/cell/GTr/base64");
    assert_eq!(warm_mem.header("x-tcor-cache"), Some("mem"), "promoted");
    let metrics = server.metrics_text();
    assert_eq!(metric(&metrics, "serve/cache_disk_hits"), 1);
    assert_eq!(metric(&metrics, "serve/cache_mem_hits"), 1);
    assert_eq!(metric(&metrics, "pcache/disk_hits"), 1);
    server.stop();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A leader panic must not cascade to its followers: the panicking
/// request itself answers 500, but every follower re-enters the flight
/// — one re-leads the computation — and is answered 200 with the
/// recomputed body. Regression test for the pre-re-lead behavior where
/// all followers surfaced "leading computation failed".
#[test]
fn followers_relead_after_a_leader_panic() {
    let backend = Arc::new(PanicOnceBackend::new(Duration::from_millis(150)));
    let server = tcor_serve::start(
        config(8, 32, Duration::from_secs(10)),
        backend as Arc<dyn Backend>,
        None,
    )
    .unwrap();
    let addr = server.addr().to_string();
    let replies: Vec<tcor_serve::HttpReply> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || get(&addr, "/v1/cell/GTr/base64"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let failed = replies.iter().filter(|r| r.status == 500).count();
    assert_eq!(failed, 1, "only the panicking leader answers 500");
    let bodies: Vec<&String> = replies
        .iter()
        .filter(|r| r.status == 200)
        .map(|r| &r.body)
        .collect();
    assert_eq!(bodies.len(), 7, "every follower recovered");
    assert!(bodies.windows(2).all(|w| w[0] == w[1]), "one shared body");
    let metrics = server.metrics_text();
    assert!(
        metric(&metrics, "serve/flight_retries") >= 1,
        "at least one follower re-entered the abandoned flight"
    );
    server.stop();
    server.wait();
}

/// `POST /admin/shutdown` answers 200, drains, and every thread exits;
/// afterwards the port no longer accepts work.
#[test]
fn admin_shutdown_drains_and_exits() {
    let telemetry = Arc::new(Telemetry::new());
    let backend = Arc::new(StubBackend::new(Duration::from_millis(20)));
    let server = tcor_serve::start(
        config(2, 8, Duration::from_secs(5)),
        Arc::clone(&backend) as Arc<dyn Backend>,
        Some(Arc::clone(&telemetry)),
    )
    .unwrap();
    let addr = server.addr().to_string();
    assert_eq!(get(&addr, "/v1/cell/GTr/base64").status, 200);
    let bye = HttpClient::new(&addr, Duration::from_secs(5))
        .request("POST", "/admin/shutdown", None)
        .unwrap();
    assert_eq!(bye.status, 200);
    let spans = server.wait(); // joins accept + workers: must not hang
    assert_eq!(spans.len(), 1, "one API request answered");
    assert_eq!(spans[0].endpoint, "/v1/cell/GTr/base64");
    assert_eq!(spans[0].status, 200);
    // The daemon is really gone.
    let after = HttpClient::new(&addr, Duration::from_millis(500)).request("GET", "/health", None);
    assert!(after.is_err(), "port must be closed after shutdown");
    // The telemetry stream carries the serving timeline events.
    let mut jsonl = Vec::new();
    telemetry.write_jsonl(&mut jsonl).unwrap();
    let jsonl = String::from_utf8(jsonl).unwrap();
    assert!(jsonl.contains("\"event\":\"request_received\""));
    assert!(jsonl.contains("\"event\":\"request_done\""));
    assert!(jsonl.contains("\"source\":\"compute\""));
}

/// ≥32 simultaneous keep-alive connections on one cold key: exactly
/// one simulation runs (singleflight), every body is byte-identical,
/// and a second request down each held connection is a warm inline
/// hit counted as a keep-alive reuse.
#[test]
fn many_keepalive_connections_coalesce_on_one_cold_key() {
    const CLIENTS: usize = 32;
    let backend = Arc::new(StubBackend::new(Duration::from_millis(300)));
    let server = tcor_serve::start(
        config(4, 64, Duration::from_secs(10)),
        Arc::clone(&backend) as Arc<dyn Backend>,
        None,
    )
    .unwrap();
    let addr = server.addr().to_string();
    let barrier = Arc::new(std::sync::Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = HttpClient::new(&addr, Duration::from_secs(10));
                barrier.wait();
                let cold = client
                    .request("GET", "/v1/cell/GTr/base64", None)
                    .expect("cold request");
                let warm = client
                    .request("GET", "/v1/cell/GTr/base64", None)
                    .expect("warm request on the same connection");
                (cold.body, warm.body, client.is_connected())
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let expected = "{\"request\":\"cell/GTr/base64\"}";
    for (cold, warm, connected) in &results {
        assert_eq!(cold, expected, "cold bodies byte-identical");
        assert_eq!(warm, expected, "warm bodies byte-identical");
        assert!(connected, "connection survived both requests");
    }
    assert_eq!(
        backend.calls_for("cell/GTr/base64"),
        1,
        "one compute for {CLIENTS} connections"
    );
    let metrics = server.metrics_text();
    assert_eq!(metric(&metrics, "serve/cold_computes"), 1);
    assert_eq!(
        metric(&metrics, "serve/request_received"),
        2 * CLIENTS as u64
    );
    assert_eq!(
        metric(&metrics, "serve/request_coalesced") + metric(&metrics, "serve/cache_warm_hits"),
        2 * CLIENTS as u64 - 1,
        "everyone but the leader coalesced or hit warm"
    );
    assert_eq!(metric(&metrics, "serve/conns_accepted"), CLIENTS as u64);
    assert_eq!(
        metric(&metrics, "serve/keepalive_reuses"),
        CLIENTS as u64,
        "each connection served a second request"
    );
    server.stop();
    server.wait();
}

/// A slowloris peer — request head held open forever — is answered 408
/// at the per-request deadline and closed, and meanwhile never blocks
/// the event plane from answering healthy clients.
#[test]
fn slowloris_partial_request_times_out_with_408() {
    use std::io::{Read, Write};
    let backend = Arc::new(StubBackend::new(Duration::ZERO));
    let server =
        tcor_serve::start(config(2, 8, Duration::from_millis(400)), backend, None).unwrap();
    let addr = server.addr().to_string();
    let mut slow = std::net::TcpStream::connect(&addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    slow.write_all(b"GET /v1/cell/GTr/base64 HTTP/1.1\r\nHost: trickle\r\n")
        .unwrap(); // never finishes the head
                   // The held-open connection must not pin the plane.
    for _ in 0..4 {
        assert_eq!(get(&addr, "/health").status, 200);
        std::thread::sleep(Duration::from_millis(50));
    }
    let mut raw = Vec::new();
    slow.read_to_end(&mut raw).unwrap(); // server answers then closes
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 408 "),
        "slowloris answered 408, got: {text}"
    );
    assert!(text.contains("Connection: close"));
    let metrics = server.metrics_text();
    assert!(metric(&metrics, "serve/deadline_expired") >= 1);
    server.stop();
    server.wait();
}

/// Two requests written back-to-back on one connection come back as
/// two in-order responses (HTTP/1.1 pipelining), visible in the
/// pipelined-batch counter.
#[test]
fn pipelined_requests_answer_in_order_on_one_connection() {
    use std::io::{Read, Write};
    let backend = Arc::new(StubBackend::new(Duration::ZERO));
    let server = tcor_serve::start(config(2, 8, Duration::from_secs(5)), backend, None).unwrap();
    let addr = server.addr().to_string();
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n\
              GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap(); // close after the 2nd reply
    let text = String::from_utf8_lossy(&raw);
    let first = text.find("HTTP/1.1 200").expect("first response");
    let second = text.rfind("HTTP/1.1 200").expect("second response");
    assert!(second > first, "two responses on the wire");
    let (head1, head2) = (&text[..second], &text[second..]);
    assert!(head1.contains("Connection: keep-alive"), "1st keeps alive");
    assert!(head2.contains("Connection: close"), "2nd negotiated close");
    assert!(head1.contains("ok\n"), "health body first");
    assert!(head2.contains("serve/request_done"), "metrics body second");
    let metrics = server.metrics_text();
    assert!(metric(&metrics, "serve/pipelined_batches") >= 1);
    server.stop();
    server.wait();
}

/// Extracts the session id from an open receipt
/// (`{"session":"s…",…}`).
fn stream_session_id(receipt: &str) -> String {
    receipt.split('"').nth(3).expect("session id").to_string()
}

/// The full streaming lifecycle over loopback: open, chunked upload,
/// live snapshot, finish — with the finished curve byte-identical to
/// the offline profiler and the plane's counters advancing.
#[test]
fn stream_session_lifecycle_over_loopback() {
    let backend = Arc::new(StubBackend::new(Duration::ZERO));
    let server = tcor_serve::start(config(2, 8, Duration::from_secs(10)), backend, None).unwrap();
    let addr = server.addr().to_string();
    let post = |path: &str, body: Option<&str>| {
        HttpClient::new(&addr, Duration::from_secs(10))
            .request("POST", path, body)
            .expect("request")
    };

    let open = post("/v1/stream", Some("label=GTr"));
    assert_eq!(open.status, 200);
    let id = stream_session_id(&open.body);
    let chunk1 = post(&format!("/v1/stream/{id}/chunk"), Some("R1\nR2\nR3\n"));
    assert_eq!(chunk1.status, 200);
    assert!(chunk1.body.contains("\"accesses\":3"), "{}", chunk1.body);
    // A live snapshot mid-stream is exact for the ingested prefix.
    let live = get(&addr, &format!("/v1/stream/{id}/curve"));
    assert_eq!(live.status, 200);
    assert!(live.body.contains("\"finished\":false"));
    let chunk2 = post(&format!("/v1/stream/{id}/chunk"), Some("R1\nR2\nR9\n"));
    assert_eq!(chunk2.status, 200);
    let done = post(&format!("/v1/stream/{id}/finish?policy=opt"), None);
    assert_eq!(done.status, 200);

    // Byte parity with the whole-trace profiler, same encoder.
    use tcor_cache::profile::OptStackProfiler;
    use tcor_cache::{annotate_next_use, Access};
    let trace: Vec<Access> = [1u64, 2, 3, 1, 2, 9]
        .iter()
        .map(|&b| Access::read(tcor_common::BlockAddr(b)))
        .collect();
    let opt = OptStackProfiler::profile(&trace, &annotate_next_use(&trace));
    let grid = tcor_stream::default_grid();
    let curve: Vec<f64> = grid
        .caps
        .iter()
        .map(|&c| tcor_stream::miss_ratio(opt.misses_at(c), trace.len() as u64))
        .collect();
    let want = tcor_stream::misscurve_json("GTr", "opt", &grid.size_kb, &curve).render() + "\n";
    assert_eq!(done.body, want, "streamed != whole-trace bytes");

    let metrics = server.metrics_text();
    assert_eq!(metric(&metrics, "stream/sessions_opened"), 1);
    assert_eq!(metric(&metrics, "stream/chunks"), 2);
    assert_eq!(metric(&metrics, "stream/accesses"), 6);
    assert_eq!(metric(&metrics, "stream/snapshots"), 2);
    assert_eq!(metric(&metrics, "stream/rejected"), 0);
    server.stop();
    server.wait();
}

/// Typed stream failures cross the wire as their 4xx statuses — and
/// the daemon survives all of them.
#[test]
fn stream_failures_are_typed_4xx_never_5xx() {
    let mut cfg = config(2, 8, Duration::from_secs(10));
    cfg.stream.max_sessions = 1;
    cfg.stream.session_bytes = 64;
    let backend = Arc::new(StubBackend::new(Duration::ZERO));
    let server = tcor_serve::start(cfg, backend, None).unwrap();
    let addr = server.addr().to_string();
    let post = |path: &str, body: Option<&str>| {
        HttpClient::new(&addr, Duration::from_secs(10))
            .request("POST", path, body)
            .expect("request")
    };

    // Unknown session -> 404.
    assert_eq!(post("/v1/stream/s99/chunk", Some("R1\n")).status, 404);
    let open = post("/v1/stream", None);
    assert_eq!(open.status, 200);
    let id = stream_session_id(&open.body);
    // Sessions full -> 429.
    assert_eq!(post("/v1/stream", None).status, 429);
    // Malformed chunk -> 400, session intact.
    assert_eq!(
        post(&format!("/v1/stream/{id}/chunk"), Some("zap!\n")).status,
        400
    );
    assert_eq!(
        post(&format!("/v1/stream/{id}/chunk"), Some("R1\n")).status,
        200
    );
    // Byte budget -> 413, session still intact.
    let big = "R1\n".repeat(32);
    assert_eq!(
        post(&format!("/v1/stream/{id}/chunk"), Some(&big)).status,
        413
    );
    // Chunk after finish -> 409.
    assert_eq!(post(&format!("/v1/stream/{id}/finish"), None).status, 200);
    assert_eq!(
        post(&format!("/v1/stream/{id}/chunk"), Some("R2\n")).status,
        409
    );
    // Bad method on a stream route -> 405.
    assert_eq!(get(&addr, &format!("/v1/stream/{id}/chunk")).status, 405);

    let metrics = server.metrics_text();
    assert_eq!(metric(&metrics, "stream/rejected"), 5);
    assert_eq!(metric(&metrics, "serve/errors"), 0, "no 5xx anywhere");
    server.stop();
    server.wait();
}

/// Bodies over a route's limit are refused 413 from the head alone —
/// the daemon answers before (and without) buffering the body.
#[test]
fn oversize_bodies_are_rejected_from_the_head() {
    use std::io::{Read, Write};
    let backend = Arc::new(StubBackend::new(Duration::ZERO));
    let server = tcor_serve::start(config(2, 8, Duration::from_secs(5)), backend, None).unwrap();
    let addr = server.addr().to_string();
    for (path, declared) in [
        ("/v1/stream/s0/chunk", 4 * 1024 * 1024), // over the 1 MiB stream cap
        ("/v1/run", 128 * 1024),                  // over the 64 KiB API cap
    ] {
        let mut sock = std::net::TcpStream::connect(&addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Head only — a server waiting for the body would hang here.
        sock.write_all(
            format!("POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {declared}\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
        let mut reply = String::new();
        sock.read_to_string(&mut reply).unwrap();
        assert!(
            reply.starts_with("HTTP/1.1 413 "),
            "{path}: wanted 413, got {}",
            reply.lines().next().unwrap_or("<empty>")
        );
        assert!(reply.contains("Connection: close"), "poisoned conns close");
    }
    // An admitted stream chunk *under* the cap still works even though
    // it exceeds the API-route cap.
    let open = HttpClient::new(&addr, Duration::from_secs(10))
        .request("POST", "/v1/stream", None)
        .unwrap();
    let id = stream_session_id(&open.body);
    let big = "R1\nR2\n".repeat(20_000); // ~120 KiB > 64 KiB API cap
    let reply = HttpClient::new(&addr, Duration::from_secs(10))
        .request("POST", &format!("/v1/stream/{id}/chunk"), Some(&big))
        .unwrap();
    assert_eq!(reply.status, 200, "under-cap stream chunk admitted");
    let metrics = server.metrics_text();
    assert_eq!(metric(&metrics, "serve/body_rejected"), 2);
    server.stop();
    server.wait();
}
