//! The serving API over the real simulator backend: one loopback
//! daemon, driven end to end — liveness, typed validation failures,
//! CLI-parity bytes for tables and cells, `POST /v1/run` dispatch, and
//! graceful shutdown. One test function so the calibrated GTr scene is
//! built once and shared by every request.

use std::sync::Arc;
use std::time::Duration;
use tcor_runner::ArtifactStore;
use tcor_serve::{HttpClient, HttpReply};
use tcor_sim::SimBackend;

fn get(addr: &str, path: &str) -> HttpReply {
    HttpClient::new(addr, Duration::from_secs(600))
        .request("GET", path, None)
        .expect("request")
}

#[test]
fn serve_api_end_to_end_over_the_real_simulator() {
    let backend = Arc::new(SimBackend::new());
    let server = tcor_serve::start(
        tcor_serve::ServeConfig {
            port: 0,
            workers: 2,
            queue_depth: 16,
            cache_cap: 64,
            deadline: Duration::from_secs(600),
            ..Default::default()
        },
        backend,
        None,
    )
    .unwrap();
    let addr = server.addr().to_string();

    // Liveness.
    assert_eq!(get(&addr, "/health").body, "ok\n");

    // Bad identity is typed: unknown names are config errors -> 404,
    // a malformed run body is a serve error -> 400.
    assert_eq!(get(&addr, "/v1/cell/nope/base64").status, 404);
    assert_eq!(get(&addr, "/v1/cell/GTr/nope").status, 404);
    assert_eq!(get(&addr, "/v1/misscurve/GTr/clock").status, 404);
    assert_eq!(get(&addr, "/v1/table/fig99").status, 404);
    let bad_run = HttpClient::new(&addr, Duration::from_secs(10))
        .request("POST", "/v1/run", Some("workload=GTr"))
        .unwrap();
    assert_eq!(bad_run.status, 400);

    // `/v1/table/fig10` is byte-identical to the CLI's CSV of the same
    // experiment.
    let table = get(&addr, "/v1/table/fig10");
    assert_eq!(table.status, 200);
    assert_eq!(
        table.header("content-type"),
        Some("text/csv; charset=utf-8")
    );
    let direct: String = tcor_sim::try_run_experiment(&ArtifactStore::new(), "fig10")
        .unwrap()
        .iter()
        .map(tcor_sim::Table::to_csv)
        .collect();
    assert_eq!(table.body, direct, "serve CSV == CLI CSV");

    // A full cell over loopback is byte-identical to the `cell` CLI
    // encoder run directly, and an immediate retry is a warm hit with
    // the same bytes.
    let cell = get(&addr, "/v1/cell/GTr/base64");
    assert_eq!(cell.status, 200);
    assert_eq!(cell.header("x-tcor-cache"), Some("miss"));
    let cli_backend = SimBackend::new();
    let cli = tcor_serve::Backend::call(
        &cli_backend,
        &tcor_serve::ApiCall::Cell {
            workload: "GTr".into(),
            config: "base64".into(),
        },
    )
    .unwrap();
    assert_eq!(cell.body, cli.body, "serve JSON == CLI JSON");
    let warm = get(&addr, "/v1/cell/GTr/base64");
    assert_eq!(warm.header("x-tcor-cache"), Some("mem"));
    assert_eq!(warm.body, cell.body, "warm == cold, byte for byte");

    // `POST /v1/run` is the same computation under another spelling.
    let run = HttpClient::new(&addr, Duration::from_secs(600))
        .request("POST", "/v1/run", Some("config=base64&workload=GTr"))
        .unwrap();
    assert_eq!(run.status, 200);
    assert_eq!(run.body, cell.body, "run spelling == cell spelling");

    // A single-workload miss curve answers without building the other
    // nine benchmarks, and parses as the expected parallel arrays.
    let curve = get(&addr, "/v1/misscurve/GTr/lru");
    assert_eq!(curve.status, 200);
    assert!(curve
        .body
        .starts_with("{\"workload\":\"GTr\",\"policy\":\"lru\""));
    assert!(curve.body.contains("\"size_kb\":[8,16,"));
    assert!(curve.body.contains("\"miss_ratio\":["));

    // Graceful shutdown: 200, drained, port closed.
    let bye = HttpClient::new(&addr, Duration::from_secs(10))
        .request("POST", "/admin/shutdown", None)
        .unwrap();
    assert_eq!(bye.status, 200);
    let spans = server.wait();
    assert!(!spans.is_empty(), "request timeline recorded");
    let after = HttpClient::new(&addr, Duration::from_millis(500)).request("GET", "/health", None);
    assert!(after.is_err(), "port closed after shutdown");
}
