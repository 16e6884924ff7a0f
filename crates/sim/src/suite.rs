//! Full-system runs over the benchmark suite — the shared substrate of
//! Figures 14–24.

use std::sync::Arc;
use tcor::{BaselineSystem, FrameReport, SystemConfig, TcorSystem};
use tcor_common::{TcorError, TcorResult, TileCacheOrg, TileGrid};
use tcor_gpu::Scene;
use tcor_workloads::{suite as benchmarks, BenchmarkProfile};

/// All six configurations of one benchmark: {baseline, TCOR-without-L2,
/// TCOR} × {64 KiB, 128 KiB}.
#[derive(Clone, Debug)]
pub struct BenchmarkRun {
    /// The profile that produced it.
    pub profile: BenchmarkProfile,
    /// Measured scene statistics (reuse, footprint) for Table II.
    pub measured_reuse: f64,
    /// Measured PB footprint in bytes.
    pub measured_footprint_bytes: u64,
    /// Baseline, 64 KiB unified Tile Cache.
    pub base64: FrameReport,
    /// TCOR L1s with the baseline L2, 64 KiB budget (ablation).
    pub tcor_nol2_64: FrameReport,
    /// Full TCOR, 64 KiB budget.
    pub tcor64: FrameReport,
    /// Baseline, 128 KiB.
    pub base128: FrameReport,
    /// TCOR without L2 enhancements, 128 KiB.
    pub tcor_nol2_128: FrameReport,
    /// Full TCOR, 128 KiB.
    pub tcor128: FrameReport,
}

impl BenchmarkRun {
    /// The six cell reports paired with their [`CELL_CONFIGS`] names, in
    /// field order — the iteration surface of the audit layer.
    pub fn cells(&self) -> [(&'static str, &FrameReport); 6] {
        [
            ("base64", &self.base64),
            ("tcor_nol2_64", &self.tcor_nol2_64),
            ("tcor64", &self.tcor64),
            ("base128", &self.base128),
            ("tcor_nol2_128", &self.tcor_nol2_128),
            ("tcor128", &self.tcor128),
        ]
    }
}

/// The whole suite.
#[derive(Clone, Debug)]
pub struct SuiteRun {
    /// One entry per Table II benchmark, in the paper's order.
    pub benchmarks: Vec<BenchmarkRun>,
}

impl SuiteRun {
    /// Arithmetic mean of `f` over benchmarks (the paper's "average"
    /// bars).
    pub fn average(&self, f: impl Fn(&BenchmarkRun) -> f64) -> f64 {
        if self.benchmarks.is_empty() {
            return 0.0;
        }
        self.benchmarks.iter().map(f).sum::<f64>() / self.benchmarks.len() as f64
    }
}

/// The six configuration cells of every benchmark, in [`BenchmarkRun`]
/// field order. These names key the runner's memoized cell artifacts
/// and its telemetry labels.
pub const CELL_CONFIGS: [&str; 6] = [
    "base64",
    "tcor_nol2_64",
    "tcor64",
    "base128",
    "tcor_nol2_128",
    "tcor128",
];

/// The system configuration of the [`CELL_CONFIGS`] cell `name` of
/// `profile`, or `None` for any other name.
pub fn cell_config(profile: &BenchmarkProfile, name: &str) -> Option<SystemConfig> {
    let cfg = match name {
        "base64" => SystemConfig::paper_baseline_64k(),
        "tcor_nol2_64" => SystemConfig::paper_tcor_64k().without_l2_enhancements(),
        "tcor64" => SystemConfig::paper_tcor_64k(),
        "base128" => SystemConfig::paper_baseline_128k(),
        "tcor_nol2_128" => SystemConfig::paper_tcor_128k().without_l2_enhancements(),
        "tcor128" => SystemConfig::paper_tcor_128k(),
        _ => return None,
    };
    Some(cfg.with_raster(profile.raster_params()))
}

/// Simulates one frame of `scene` under `cfg`: the baseline GPU for a
/// unified Tile Cache, TCOR for a split one.
pub fn simulate_frame(scene: &Scene, cfg: &SystemConfig) -> FrameReport {
    match cfg.gpu.tile_cache {
        TileCacheOrg::Unified { .. } => BaselineSystem::new(cfg.clone()).run_frame(scene),
        TileCacheOrg::Split { .. } => TcorSystem::new(cfg.clone()).run_frame(scene),
    }
}

/// Runs one configuration cell of one benchmark on an already
/// calibrated scene.
///
/// # Panics
///
/// Panics on a name outside [`CELL_CONFIGS`].
pub fn run_cell(profile: &BenchmarkProfile, scene: &Scene, cfg: &str) -> FrameReport {
    let config = cell_config(profile, cfg).unwrap_or_else(|| panic!("unknown cell config `{cfg}`"));
    simulate_frame(scene, &config)
}

/// Enforces the Attribute Cache's OPT self-check on every TCOR frame a
/// study reads (sweep, ablation, traversal, scaling), paper cells
/// included: an eviction that did not take the farthest-future eligible line
/// makes the frame's numbers untrustworthy, so it is corruption.
///
/// # Errors
///
/// [`ErrorKind::Corruption`](tcor_common::ErrorKind::Corruption) when
/// the frame counted any OPT violation.
pub(crate) fn opt_checked(report: Arc<FrameReport>) -> TcorResult<Arc<FrameReport>> {
    match report.attr_opt_violations {
        0 => Ok(report),
        n => Err(TcorError::corruption(format!(
            "{n} Attribute Cache eviction(s) failed the OPT self-check"
        ))),
    }
}

/// Assembles a [`BenchmarkRun`] from a calibrated scene and a cell
/// supplier (direct simulation here; the runner's memoized store in
/// the orchestrated path).
pub fn assemble_run(
    profile: &BenchmarkProfile,
    calibrated: &tcor_workloads::CalibratedScene,
    mut cell: impl FnMut(&str) -> FrameReport,
) -> BenchmarkRun {
    BenchmarkRun {
        profile: *profile,
        measured_reuse: calibrated.measured_reuse,
        measured_footprint_bytes: calibrated.measured_footprint_bytes,
        base64: cell("base64"),
        tcor_nol2_64: cell("tcor_nol2_64"),
        tcor64: cell("tcor64"),
        base128: cell("base128"),
        tcor_nol2_128: cell("tcor_nol2_128"),
        tcor128: cell("tcor128"),
    }
}

/// Runs one benchmark through all six configurations.
pub fn run_benchmark(profile: &BenchmarkProfile, grid: &TileGrid) -> BenchmarkRun {
    let calibrated = tcor_workloads::synth::calibrate(profile, grid);
    assemble_run(profile, &calibrated, |cfg| {
        run_cell(profile, &calibrated.scene, cfg)
    })
}

/// Runs the full Table II suite (deterministic; takes a few seconds in
/// release builds).
pub fn run_suite() -> SuiteRun {
    let grid = TileGrid::new(1960, 768, 32);
    SuiteRun {
        benchmarks: benchmarks()
            .iter()
            .map(|b| run_benchmark(b, &grid))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One small benchmark end to end through all six configs — the
    /// cheap smoke test; the full suite runs in the harness and in
    /// integration tests.
    #[test]
    fn single_benchmark_all_configs() {
        let grid = TileGrid::new(1960, 768, 32);
        let profile = tcor_workloads::suite()[1]; // SoD: small, high reuse
        let run = run_benchmark(&profile, &grid);
        // Identical streams across configurations.
        assert_eq!(run.base64.prims_fetched, run.tcor64.prims_fetched);
        assert_eq!(run.base128.prims_fetched, run.tcor128.prims_fetched);
        // TCOR reduces PB L2 traffic and PB MM traffic at both sizes.
        assert!(run.tcor64.pb_l2_accesses() < run.base64.pb_l2_accesses());
        assert!(run.tcor64.pb_mm_accesses() <= run.base64.pb_mm_accesses());
        assert!(run.tcor128.pb_l2_accesses() < run.base128.pb_l2_accesses());
        // Tiling engine speedup.
        assert!(run.tcor64.primitives_per_cycle() > run.base64.primitives_per_cycle());
        // The ablation (baseline L2) produces at least as many PB MM
        // writes as the full TCOR.
        assert!(run.tcor64.pb_mm_writes() <= run.tcor_nol2_64.pb_mm_writes());
    }

    #[test]
    fn opt_self_check_violations_are_corruption() {
        let grid = TileGrid::new(256, 256, 32);
        let profile = tcor_workloads::suite()[9]; // GTr: smallest
        let scene = tcor_workloads::generate_scene(&profile, &grid);
        let clean = run_cell(&profile, &scene, "tcor64");
        assert_eq!(clean.attr_opt_violations, 0);
        assert!(opt_checked(Arc::new(clean.clone())).is_ok());
        let tampered = FrameReport {
            attr_opt_violations: 2,
            ..clean
        };
        let err = opt_checked(Arc::new(tampered)).unwrap_err();
        assert_eq!(err.kind(), tcor_common::ErrorKind::Corruption);
        assert!(err.to_string().contains("2 Attribute Cache eviction(s)"));
    }

    #[test]
    fn average_helper() {
        let grid = TileGrid::new(1960, 768, 32);
        let profile = tcor_workloads::suite()[9]; // GTr: smallest
        let run = run_benchmark(&profile, &grid);
        let s = SuiteRun {
            benchmarks: vec![run.clone(), run],
        };
        let avg = s.average(|b| b.base64.num_primitives as f64);
        assert!(avg > 0.0);
    }
}
