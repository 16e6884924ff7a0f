//! `tcor-serve`: a dependency-free result-serving daemon for the TCOR
//! simulator.
//!
//! The ROADMAP's north star is serving-scale: this crate turns the
//! one-shot CLI into a queryable service with the full
//! inference-serving request shape —
//!
//! * **event-driven connections** — a few event threads multiplex
//!   every socket with a `poll(2)` readiness loop: nonblocking
//!   accept, HTTP/1.1 keep-alive reuse, pipelined request batching,
//!   and inline answers for control routes and warm cache hits
//!   (the private `event` module; counters in [`metrics`]);
//! * **admission control** — only cold work crosses a bounded queue
//!   into a fixed compute pool; at capacity, requests are shed with
//!   429 + `Retry-After` ([`pool`]);
//! * **deadlines** — each request carries an accept-time deadline,
//!   checked when its job is dequeued and while awaiting a coalesced
//!   result (504 on expiry), so queue waits cannot pin workers on
//!   work nobody is waiting for;
//! * **coalescing** — identical in-flight requests collapse onto one
//!   computation ([`coalesce`]), TCOR's never-redundant-work thesis
//!   applied to the request plane;
//! * **content-addressed caching** — responses are keyed by the
//!   `fxhash64` of the canonical request ([`router`]) plus the
//!   backend's version hash, and served from the tiered result cache
//!   (`tcor-pcache`: an in-memory session LRU over an optional
//!   persistent disk tier) so warm hits never touch the simulator and
//!   a restarted daemon answers from disk, not cold;
//! * **streaming ingest** — `POST /v1/stream` opens a profiling
//!   session; chunked trace uploads are profiled incrementally
//!   (`tcor-stream`) with exact live OPT/LRU miss-curve snapshots,
//!   per-session budgets (413/429), TTL eviction, and per-session
//!   fault isolation (the private `stream` module);
//! * **graceful shutdown** — `POST /admin/shutdown` or
//!   SIGINT/SIGTERM ([`signal`]) stops admission, drains admitted
//!   work, and exits 0.
//!
//! The crate is simulator-agnostic: the daemon calls a [`Backend`]
//! trait; `tcor-sim serve` supplies the real simulator-backed
//! implementation and the CLI flags.

pub mod client;
pub mod coalesce;
mod event;
pub mod hist;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod router;
pub mod server;
pub mod signal;
mod stream;

pub use client::{HttpClient, HttpReply, RetryPolicy};
pub use coalesce::{FollowerHandle, Join, LeaderToken, Singleflight, Waited};
pub use hist::LatencyHistogram;
pub use http::{
    parse_request, parse_request_limited, read_request, ParseOutcome, Request, Response, MAX_BODY,
    STREAM_MAX_BODY,
};
pub use metrics::ServeMetrics;
pub use pool::{BoundedQueue, Pushed};
pub use router::{body_limit, route, ApiCall, Route, StreamOp};
pub use server::{start, start_with_cache, ApiBody, Backend, ServeConfig, ServerHandle};
