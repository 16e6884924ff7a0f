//! Kill-and-restart persistence over the real simulator: a daemon
//! generation computes golden responses into a persistent cache
//! directory, dies, and a *fresh* generation (new process-equivalent:
//! new backend, new memory tier) serves the same bytes from the disk
//! tier without recomputing. Also the negative side: a corrupted
//! object is evicted and transparently recomputed, never served.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use tcor_serve::{HttpClient, HttpReply, ServeConfig};
use tcor_sim::SimBackend;

fn get(addr: &str, path: &str) -> HttpReply {
    HttpClient::new(addr, Duration::from_secs(600))
        .request("GET", path, None)
        .expect("request")
}

fn shutdown(addr: &str) {
    let bye = HttpClient::new(addr, Duration::from_secs(10))
        .request("POST", "/admin/shutdown", None)
        .unwrap();
    assert_eq!(bye.status, 200);
}

fn config(dir: &Path) -> ServeConfig {
    ServeConfig {
        port: 0,
        workers: 2,
        queue_depth: 16,
        cache_cap: 64,
        deadline: Duration::from_secs(600),
        cache_dir: Some(dir.to_path_buf()),
        cache_disk_bytes: 64 << 20,
        ..ServeConfig::default()
    }
}

#[test]
fn restarted_daemon_serves_golden_bytes_from_disk() {
    let dir = std::env::temp_dir().join(format!("tcor-sim-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let target = "/v1/cell/GTr/base64";

    // Generation 1: compute once, then die.
    let server = tcor_serve::start(config(&dir), Arc::new(SimBackend::new()), None).unwrap();
    let addr = server.addr().to_string();
    let cold = get(&addr, target);
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-tcor-cache"), Some("miss"));
    shutdown(&addr);
    server.wait();

    // Generation 2: a fresh backend (no memoized artifacts, empty
    // memory tier) over the same directory. The first answer must come
    // from the disk tier, byte-identical to generation 1's, and the
    // backend must not have computed anything; the second is the
    // promoted memory-tier hit.
    let server = tcor_serve::start(config(&dir), Arc::new(SimBackend::new()), None).unwrap();
    let addr = server.addr().to_string();
    let warm_disk = get(&addr, target);
    assert_eq!(warm_disk.status, 200);
    assert_eq!(warm_disk.header("x-tcor-cache"), Some("disk"));
    assert_eq!(warm_disk.body, cold.body, "restart == cold, byte for byte");
    assert_eq!(
        warm_disk.header("content-type"),
        cold.header("content-type"),
        "content type survives the restart"
    );
    let warm_mem = get(&addr, target);
    assert_eq!(warm_mem.header("x-tcor-cache"), Some("mem"));
    assert_eq!(warm_mem.body, cold.body);
    let metrics = get(&addr, "/metrics").body;
    assert!(
        metrics.contains("serve/cold_computes = 0"),
        "nothing recomputed after restart:\n{metrics}"
    );
    assert!(metrics.contains("serve/cache_disk_hits = 1"));
    shutdown(&addr);
    server.wait();

    // Corruption: flip bytes in every persisted object. Generation 3
    // must evict (never serve) the damaged entry and recompute the
    // same bytes.
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "tcpc") {
            let mut raw = std::fs::read(&path).unwrap();
            let mid = raw.len() / 2;
            raw[mid] ^= 0xff;
            std::fs::write(&path, raw).unwrap();
            corrupted += 1;
        }
    }
    assert!(corrupted >= 1, "expected persisted objects to corrupt");
    let server = tcor_serve::start(config(&dir), Arc::new(SimBackend::new()), None).unwrap();
    let addr = server.addr().to_string();
    let recomputed = get(&addr, target);
    assert_eq!(recomputed.status, 200);
    assert_eq!(
        recomputed.header("x-tcor-cache"),
        Some("miss"),
        "corrupt entry must not be served"
    );
    assert_eq!(
        recomputed.body, cold.body,
        "recompute reproduces golden bytes"
    );
    shutdown(&addr);
    server.wait();

    let _ = std::fs::remove_dir_all(&dir);
}

/// The `tcor-sim serve --cache-dir` wiring: the daemon and its
/// `SimBackend` share one `TieredCache`, so the backend persists
/// rendered bodies through the same store the response cache serves
/// from. This is the regression shape for a real deadlock: the call's
/// canonical identity (`cell/GTr/base64`) hashes to the same key the
/// orchestrator memoizes that cell's report under, so the persisted
/// wrapper must not re-enter its own artifact-store slot.
#[test]
fn daemon_and_backend_share_one_cache_without_deadlock() {
    let dir = std::env::temp_dir().join(format!("tcor-sim-shared-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        let cfg = config(&dir);
        let cache: Arc<dyn tcor_pcache::ResultCache> = Arc::new(
            tcor_pcache::TieredCache::open(
                cfg.cache_cap,
                Some((dir.clone(), cfg.cache_disk_bytes)),
            )
            .unwrap(),
        );
        let backend = Arc::new(SimBackend::with_cache(Arc::clone(&cache)));
        (cfg, backend, cache)
    };

    let (cfg, backend, cache) = open();
    let server = tcor_serve::start_with_cache(cfg, backend, None, cache).unwrap();
    let addr = server.addr().to_string();
    let cold = get(&addr, "/v1/cell/GTr/base64");
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-tcor-cache"), Some("miss"));
    // The double put (backend persists, then the response cache does)
    // must land as one object plus one dedup touch, not two writes.
    let metrics = get(&addr, "/metrics").body;
    assert!(metrics.contains("pcache/puts = 1"), "{metrics}");
    assert!(metrics.contains("pcache/dedup_puts = 1"), "{metrics}");
    shutdown(&addr);
    server.wait();

    let (cfg, backend, cache) = open();
    let server = tcor_serve::start_with_cache(cfg, backend, None, cache).unwrap();
    let addr = server.addr().to_string();
    let warm = get(&addr, "/v1/cell/GTr/base64");
    assert_eq!(warm.header("x-tcor-cache"), Some("disk"));
    assert_eq!(warm.body, cold.body, "shared-cache restart == cold");
    shutdown(&addr);
    server.wait();

    let _ = std::fs::remove_dir_all(&dir);
}
