//! `tcor-sim stream`: the chunked-upload client for the streaming
//! profile plane.
//!
//! * **`stream`** — opens a session, uploads a trace (a suite workload
//!   via [`workload_trace`], or any CSV the `trace` subcommand exports)
//!   in bounded chunks, finishes, and prints the final curve document.
//!   With `--policy opt|lru` the finished body is byte-compatible with
//!   the offline `/v1/misscurve/{workload}/{policy}` plane — CI proves
//!   streamed ≡ whole-trace with a `cmp`, not a tolerance.
//! * **`--probe-oversize`** — negative probe: declares a body over the
//!   route's limit and expects the daemon to answer 413 from the head
//!   alone (the body is never sent, so a buffering server would hang
//!   here and fail the probe's timeout).
//!
//! Ingest and snapshot timings live in `python3 perfbench/run.py
//! --workload serve` (`stream.chunk_ms_p50`, `stream.snapshot_ms_p50`).

use crate::misscurves::workload_trace;
use std::io::{Read, Write};
use std::process::ExitCode;
use std::time::Duration;
use tcor_cache::Access;
use tcor_runner::{ArtifactStore, Json};
use tcor_serve::HttpClient;
use tcor_workloads::encode_chunk;

/// Default accesses per uploaded chunk.
const DEFAULT_CHUNK_ACCESSES: usize = 4096;

/// Parsed `tcor-sim stream` flags.
struct StreamOpts {
    addr: String,
    workload: Option<String>,
    trace_csv: Option<String>,
    label: Option<String>,
    policy: Option<String>,
    chunk_accesses: usize,
    probe_oversize: bool,
}

/// `tcor-sim stream <addr> (--workload ALIAS | --trace-csv FILE | --probe-oversize)
/// [--label L] [--policy opt|lru] [--chunk-accesses N]` entry point.
pub fn stream_cmd(args: &[String]) -> ExitCode {
    let mut opts = StreamOpts {
        addr: String::new(),
        workload: None,
        trace_csv: None,
        label: None,
        policy: None,
        chunk_accesses: DEFAULT_CHUNK_ACCESSES,
        probe_oversize: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--probe-oversize" => {
                opts.probe_oversize = true;
                i += 1;
            }
            flag @ ("--workload" | "--trace-csv" | "--label" | "--policy" | "--chunk-accesses") => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("stream: {flag} needs a value");
                    return ExitCode::from(2);
                };
                match flag {
                    "--workload" => opts.workload = Some(value.clone()),
                    "--trace-csv" => opts.trace_csv = Some(value.clone()),
                    "--label" => opts.label = Some(value.clone()),
                    "--policy" => opts.policy = Some(value.clone()),
                    _ => match value.parse::<usize>() {
                        Ok(n) if n >= 1 => opts.chunk_accesses = n,
                        _ => {
                            eprintln!("stream: --chunk-accesses needs a positive integer");
                            return ExitCode::from(2);
                        }
                    },
                }
                i += 2;
            }
            flag if flag.starts_with("--") => {
                eprintln!("stream: unknown flag `{flag}`");
                return ExitCode::from(2);
            }
            addr => {
                opts.addr = addr.to_string();
                i += 1;
            }
        }
    }
    if opts.addr.is_empty() {
        eprintln!("stream: needs a daemon address (host:port)");
        return ExitCode::from(2);
    }
    if opts.probe_oversize {
        return match probe_oversize(&opts.addr) {
            Ok(()) => {
                eprintln!("stream: oversize body refused with 413 from the head alone");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("stream: oversize probe FAILED: {msg}");
                ExitCode::from(6)
            }
        };
    }
    let (trace, default_label) = match (&opts.workload, &opts.trace_csv) {
        (Some(alias), None) => {
            let store = ArtifactStore::new();
            match workload_trace(&store, alias) {
                Ok(bt) => (bt.trace.clone(), alias.clone()),
                Err(e) => {
                    eprintln!("stream: {e}");
                    return ExitCode::from(6);
                }
            }
        }
        (None, Some(path)) => {
            let file = match std::fs::File::open(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("stream: cannot open {path}: {e}");
                    return ExitCode::from(6);
                }
            };
            match tcor_cache::trace::read_csv(std::io::BufReader::new(file)) {
                Ok(t) => (t, "trace".to_string()),
                Err(e) => {
                    eprintln!("stream: {path}: {e}");
                    return ExitCode::from(6);
                }
            }
        }
        _ => {
            eprintln!("stream: needs exactly one of --workload or --trace-csv");
            return ExitCode::from(2);
        }
    };
    let label = opts.label.clone().unwrap_or(default_label);
    match upload(&opts, &trace, &label) {
        Ok(body) => {
            print!("{body}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("stream: {msg}");
            ExitCode::from(6)
        }
    }
}

/// Uploads `trace` through one session and returns the finished body.
fn upload(opts: &StreamOpts, trace: &[Access], label: &str) -> Result<String, String> {
    let mut client = HttpClient::new(opts.addr.clone(), Duration::from_secs(600));
    let open = client
        .request("POST", "/v1/stream", Some(&format!("label={label}")))
        .map_err(|e| format!("open: {e}"))?;
    if open.status != 200 {
        return Err(format!("open -> {}: {}", open.status, open.body.trim_end()));
    }
    let id = session_id(&open.body)?;
    let mut sent = 0usize;
    for chunk in trace.chunks(opts.chunk_accesses) {
        let body = encode_chunk(chunk);
        let reply = client
            .request("POST", &format!("/v1/stream/{id}/chunk"), Some(&body))
            .map_err(|e| format!("chunk at access {sent}: {e}"))?;
        if reply.status != 200 {
            return Err(format!(
                "chunk at access {sent} -> {}: {}",
                reply.status,
                reply.body.trim_end()
            ));
        }
        sent += chunk.len();
    }
    eprintln!(
        "stream: session {id}: {sent} access(es) in {} chunk(s)",
        trace.len().div_ceil(opts.chunk_accesses.max(1))
    );
    let finish_path = match &opts.policy {
        Some(p) => format!("/v1/stream/{id}/finish?policy={p}"),
        None => format!("/v1/stream/{id}/finish"),
    };
    let reply = client
        .request("POST", &finish_path, None)
        .map_err(|e| format!("finish: {e}"))?;
    if reply.status != 200 {
        return Err(format!(
            "finish -> {}: {}",
            reply.status,
            reply.body.trim_end()
        ));
    }
    Ok(reply.body)
}

/// Declares a chunk body over the 1 MiB stream limit without sending
/// it; the daemon must answer 413 from the head alone. A raw socket
/// (not [`HttpClient`]) so nothing here buffers or sends the body.
fn probe_oversize(addr: &str) -> Result<(), String> {
    let mut sock = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("timeout: {e}"))?;
    let head = format!(
        "POST /v1/stream/s0/chunk HTTP/1.1\r\nHost: {addr}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        8 * 1024 * 1024
    );
    sock.write_all(head.as_bytes())
        .map_err(|e| format!("send head: {e}"))?;
    let mut reply = String::new();
    // The daemon answers and closes; a server that waited for the body
    // would hang here and trip the read timeout.
    sock.read_to_string(&mut reply)
        .map_err(|e| format!("read: {e}"))?;
    if !reply.starts_with("HTTP/1.1 413 ") {
        return Err(format!(
            "expected 413, got `{}`",
            reply.lines().next().unwrap_or("<empty>")
        ));
    }
    Ok(())
}

/// Extracts the session id from an open receipt.
fn session_id(receipt: &str) -> Result<String, String> {
    match Json::parse(receipt)
        .map_err(|e| format!("open receipt: {e}"))?
        .get("session")
    {
        Some(Json::Str(id)) => Ok(id.clone()),
        _ => Err("open receipt has no session id".to_string()),
    }
}
