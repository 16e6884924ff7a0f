//! # tcor-sim
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation, over the synthetic Table II suite. The `tcor-sim` binary
//! exposes them as subcommands (`tcor-sim fig14`, `tcor-sim all`, …) and
//! can dump CSV next to the pretty tables.
//!
//! | Experiment | Paper result it regenerates |
//! |---|---|
//! | `table1` | simulation parameters |
//! | `table2` | benchmark characteristics (verifies calibration) |
//! | `fig1`, `fig11` | LRU vs OPT (vs lower bound) miss curves, fully associative |
//! | `fig12` | LRU and OPT across associativities |
//! | `fig13` | LRU / MRU / DRRIP / OPT, 4-way |
//! | `fig14`–`fig15` | PB accesses to L2, normalized (64/128 KiB) |
//! | `fig16`–`fig17` | PB accesses to main memory, normalized |
//! | `fig18`–`fig19` | total main-memory accesses, normalized |
//! | `fig20`–`fig21` | memory-hierarchy energy (3 configurations) |
//! | `fig22` | total GPU energy decrease |
//! | `fig23`–`fig24` | Tile Fetcher primitives per cycle |
//! | `headline` | the abstract's summary numbers |
//!
//! All results are deterministic: scenes are seeded, the DRAM model is
//! state-machine-based, and no wall-clock enters any measurement.

pub mod ablation;
pub mod chaos;
pub mod example;
pub mod figures;
pub mod misscurves;
pub mod orchestrate;
pub mod output;
pub mod report_json;
pub mod scaling;
pub mod serve_backend;
pub mod streamcli;
pub mod suite;
pub mod sweep;
pub mod tables;
pub mod traversal_study;
pub mod utilization;

pub use orchestrate::{
    run_experiments, run_experiments_strict, ExecMode, ExperimentOutcome, RunOptions, RunOutcome,
};
pub use output::Table;
pub use serve_backend::{sim_version, SimBackend};
pub use suite::{run_suite, BenchmarkRun, SuiteRun};

/// Every experiment id, in presentation order.
pub const EXPERIMENTS: [&str; 25] = [
    "table1",
    "table2",
    "fig1",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig13x",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "fig22",
    "fig23",
    "fig24",
    "headline",
    "ablation",
    "scaling",
    "sweep",
    "traversal",
    "utilization",
];

/// Runs one experiment by id against `store`, computing (and memoizing)
/// whatever shared artifacts it needs — the full-system [`SuiteRun`],
/// the aggregated PB traces, calibrated scenes.
///
/// # Errors
///
/// Returns a config error listing the valid ids on an unknown id, and
/// propagates typed store errors from the shared-artifact lookups.
pub fn try_run_experiment(
    store: &tcor_runner::ArtifactStore,
    id: &str,
) -> tcor_common::TcorResult<Vec<Table>> {
    let suite = || orchestrate::suite_from_store(store);
    Ok(match id {
        "table1" => vec![tables::table1()],
        "table2" => vec![tables::table2(&*suite()?)],
        "fig1" => vec![misscurves::fig1(store)?],
        "fig10" => vec![example::fig10()],
        "fig11" => vec![misscurves::fig11(store)?],
        "fig12" => misscurves::fig12(store)?,
        "fig13" => vec![misscurves::fig13(store)?],
        "fig13x" => vec![misscurves::fig13x(store)?],
        "fig14" => vec![figures::fig14_15(&*suite()?, false)],
        "fig15" => vec![figures::fig14_15(&*suite()?, true)],
        "fig16" => vec![figures::fig16_17(&*suite()?, false)],
        "fig17" => vec![figures::fig16_17(&*suite()?, true)],
        "fig18" => vec![figures::fig18_19(&*suite()?, false)],
        "fig19" => vec![figures::fig18_19(&*suite()?, true)],
        "fig20" => vec![figures::fig20_21(&*suite()?, false)],
        "fig21" => vec![figures::fig20_21(&*suite()?, true)],
        "fig22" => vec![figures::fig22(&*suite()?)],
        "fig23" => vec![figures::fig23_24(&*suite()?, false)],
        "fig24" => vec![figures::fig23_24(&*suite()?, true)],
        "headline" => vec![figures::headline(&*suite()?)],
        "ablation" => vec![ablation::ablation(store)?],
        "scaling" => vec![scaling::scaling(store)?],
        "sweep" => vec![sweep::sweep(store)?],
        "traversal" => vec![traversal_study::traversal_study(store)?],
        "utilization" => vec![utilization::utilization(&*suite()?)],
        other => {
            return Err(tcor_common::TcorError::config(format!(
                "unknown experiment `{other}`\nvalid experiments: {}",
                EXPERIMENTS.join(", ")
            )))
        }
    })
}

/// Runs one experiment by id, reusing `suite` for the full-system ones
/// (pass `None` to compute on demand). Compatibility wrapper over
/// [`try_run_experiment`] with a private store.
///
/// # Panics
///
/// Panics on an unknown id.
pub fn run_experiment(id: &str, suite: Option<&SuiteRun>) -> Vec<Table> {
    let store = tcor_runner::ArtifactStore::new();
    if let Some(s) = suite {
        let s = s.clone();
        let _ = store.get_or_compute(orchestrate::artifact_key(orchestrate::SUITE_DESC), || s);
    }
    try_run_experiment(&store, id).unwrap_or_else(|e| panic!("{e}"))
}
