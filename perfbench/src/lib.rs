//! # tcor-perfbench
//!
//! The repository's benchmark: three workloads (`suite`, `curves`,
//! `serve`), end-to-end metrics from untraced runs and per-layer
//! metrics from traced runs. Every layer is measured from outside, by
//! timing calls into the crates' public functions and reading the
//! counts they already return. See `README.md` next to this crate.

pub mod curves;
pub mod golden;
pub mod host;
pub mod report;
pub mod serve;
pub mod spans;
pub mod suite;

use std::path::PathBuf;

/// Settings shared by every workload.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// A small run for tests: less work, same metrics.
    pub smoke: bool,
    /// Scratch directory of this run, removed when it ends.
    pub tmp: PathBuf,
    /// Where the traced run writes its spans (default: under `tmp`).
    pub spans_out: Option<PathBuf>,
    /// The `tcor-sim` binary the serve workload starts as its daemon.
    pub tcor_sim: PathBuf,
}

/// Writes `spans` where the traced run keeps them.
pub fn write_spans(opts: &Opts, spans: &[spans::Span]) -> std::io::Result<()> {
    let path = opts
        .spans_out
        .clone()
        .unwrap_or_else(|| opts.tmp.join("spans.json"));
    std::fs::write(path, spans::to_json(spans))
}
