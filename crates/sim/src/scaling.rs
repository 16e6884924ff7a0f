//! The "Parallel Renderers" future-work study (§VII).
//!
//! The paper's conclusion argues that the faster Tiling Engine "opens the
//! door to more aggressive Raster Pipeline implementations, including the
//! use of Parallel Renderers". This experiment scales the fragment-shading
//! throughput (processors × SIMD lanes) and measures the frame rate of
//! the baseline and TCOR: as the Raster Pipeline gets faster, the
//! baseline's slow Tile Fetcher becomes the frame-time bottleneck while
//! TCOR keeps scaling.

use crate::orchestrate::{calibrated_scene, frame_report};
use crate::output::Table;
use crate::suite::opt_checked;
use tcor::SystemConfig;
use tcor_common::{TcorResult, TileGrid};
use tcor_energy::EnergyModel;
use tcor_runner::ArtifactStore;
use tcor_workloads::{suite, BenchmarkProfile};

/// Fragment-shading throughput multiples of the Table I configuration.
pub(crate) const MULTIPLIERS: [u32; 4] = [1, 2, 4, 8];

/// The baseline and TCOR configurations at `mult` times the Table I
/// fragment processors.
pub(crate) fn scaled_configs(profile: &BenchmarkProfile, mult: u32) -> [SystemConfig; 2] {
    let rp = profile.raster_params();
    let mut base = SystemConfig::paper_baseline_64k().with_raster(rp);
    let mut tcor = SystemConfig::paper_tcor_64k().with_raster(rp);
    base.fragment_processors = 4 * mult;
    tcor.fragment_processors = 4 * mult;
    [base, tcor]
}

/// FPS of baseline and TCOR as fragment-shading throughput scales
/// (1×..8× the Table I configuration), on a raster-heavy benchmark.
///
/// # Errors
///
/// Propagates store corruption from the scene lookup; a TCOR frame
/// failing the OPT self-check is corruption too.
pub fn scaling(store: &ArtifactStore) -> TcorResult<Table> {
    let grid = TileGrid::new(1960, 768, 32);
    let profile = suite()
        .into_iter()
        .find(|b| b.alias == "Snp")
        .expect("Snp in suite");
    let cal = calibrated_scene(store, &profile, &grid)?;
    let model = EnergyModel::default();

    let mut t = Table::new(
        "scaling",
        "Parallel-renderer scaling (Snp): FPS vs fragment-shading throughput",
        &[
            "processors",
            "baseline_fps",
            "tcor_fps",
            "fps_gain",
            "baseline_fetch_bound_frac",
        ],
    );
    for mult in MULTIPLIERS {
        let [base_cfg, tcor_cfg] = scaled_configs(&profile, mult);
        let procs = tcor_cfg.fragment_processors;
        let base = frame_report(store, &profile, &cal, &base_cfg)?;
        let tcor = opt_checked(frame_report(store, &profile, &cal, &tcor_cfg)?)?;
        let fb = model.evaluate(&base).fps(600_000_000);
        let ft = model.evaluate(&tcor).fps(600_000_000);
        // How much of the baseline's overlapped phase is fetch-bound:
        // coupled - raster-only lower bound, as a fraction.
        let raster_only: f64 = base.raster_cycles + 32.0 * grid.num_tiles() as f64;
        let fetch_bound = ((base.coupled_cycles - raster_only) / base.coupled_cycles).max(0.0);
        t.push_row(vec![
            procs.to_string(),
            format!("{fb:.1}"),
            format!("{ft:.1}"),
            format!("{:.1}%", (ft / fb - 1.0) * 100.0),
            format!("{fetch_bound:.2}"),
        ]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcor_fps_advantage_grows_with_raster_throughput() {
        let t = scaling(&ArtifactStore::new()).unwrap();
        assert_eq!(t.rows.len(), 4);
        let gain =
            |row: &Vec<String>| -> f64 { row[3].trim_end_matches('%').parse::<f64>().unwrap() };
        let first = gain(&t.rows[0]);
        let last = gain(&t.rows[3]);
        assert!(
            last > first,
            "FPS gain should grow with parallel renderers: {first}% -> {last}%"
        );
        assert!(
            last > 5.0,
            "at 8x renderers TCOR should clearly win: {last}%"
        );
    }
}
