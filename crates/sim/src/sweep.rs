//! Tile Cache budget sweep: Figures 14–17 generalized over cache size.
//!
//! The paper evaluates two budgets (64 and 128 KiB). This sweep runs
//! 32–256 KiB to expose the crossover structure: a benchmark's Parameter
//! Buffer traffic collapses once the Attribute Cache covers its working
//! set, and TCOR reaches that point at a fraction of the baseline's
//! capacity (the Fig. 11 "6.8× smaller cache" claim, measured in the
//! full system).

use crate::orchestrate::{calibrated_scene, frame_report};
use crate::output::Table;
use crate::suite::opt_checked;
use tcor::SystemConfig;
use tcor_common::{CacheParams, GpuConfig, TcorResult, TileCacheOrg, TileGrid, LINE_SIZE};
use tcor_mem::L2Mode;
use tcor_runner::ArtifactStore;
use tcor_workloads::suite;

/// The Tile Cache budgets of the sweep, in KiB.
pub(crate) const BUDGETS_KIB: [u64; 7] = [32, 48, 64, 96, 128, 192, 256];

pub(crate) fn baseline_cfg(total_kib: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline_64k();
    cfg.gpu = GpuConfig {
        tile_cache: TileCacheOrg::Unified {
            cache: CacheParams::new(total_kib << 10, LINE_SIZE, 4, 1),
        },
        ..GpuConfig::paper_baseline()
    };
    cfg
}

pub(crate) fn tcor_cfg(total_kib: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_tcor_64k();
    // The paper's split keeps a fixed 16 KiB Primitive List Cache and
    // gives the rest to the Attribute Cache.
    let list_kib = 16u64.min(total_kib / 2);
    cfg.gpu = GpuConfig {
        tile_cache: TileCacheOrg::Split {
            list_cache: CacheParams::new(list_kib << 10, LINE_SIZE, 4, 1),
            attribute_bytes: (total_kib - list_kib) << 10,
            attribute_ways: 4,
        },
        ..GpuConfig::paper_baseline()
    };
    cfg.l2_mode = L2Mode::TcorEnhanced;
    cfg
}

/// PB L2 accesses across Tile Cache budgets, for a small-PB and a
/// large-PB benchmark.
///
/// # Errors
///
/// Propagates store corruption from the scene lookups; a TCOR frame
/// failing the OPT self-check is corruption too.
pub fn sweep(store: &ArtifactStore) -> TcorResult<Table> {
    let grid = TileGrid::new(1960, 768, 32);
    let all = suite();
    let picks: Vec<_> = ["CCS", "DDS"]
        .iter()
        .map(|a| all.iter().find(|b| &b.alias == a).unwrap())
        .collect();
    let mut t = Table::new(
        "sweep",
        "PB L2 accesses vs Tile Cache budget (baseline and TCOR)",
        &[
            "size_kib",
            "ccs_baseline",
            "ccs_tcor",
            "dds_baseline",
            "dds_tcor",
        ],
    );
    let scenes: Vec<_> = picks
        .iter()
        .map(|b| calibrated_scene(store, b, &grid))
        .collect::<TcorResult<_>>()?;
    for kib in BUDGETS_KIB {
        let mut row = vec![kib.to_string()];
        for (b, cal) in picks.iter().zip(&scenes) {
            let rp = b.raster_params();
            let base = frame_report(store, b, cal, &baseline_cfg(kib).with_raster(rp))?;
            let tcor = opt_checked(frame_report(store, b, cal, &tcor_cfg(kib).with_raster(rp))?)?;
            row.push(base.pb_l2_accesses().to_string());
            row.push(tcor.pb_l2_accesses().to_string());
        }
        t.push_row(row);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcor::TcorSystem;

    #[test]
    fn configs_preserve_budget() {
        for kib in [32u64, 64, 128] {
            assert_eq!(baseline_cfg(kib).gpu.tile_cache.total_bytes(), kib << 10);
            assert_eq!(tcor_cfg(kib).gpu.tile_cache.total_bytes(), kib << 10);
        }
    }

    #[test]
    fn tcor_traffic_falls_with_budget() {
        // One benchmark, two budgets: more Attribute Cache, less traffic.
        let grid = TileGrid::new(1960, 768, 32);
        let b = suite().into_iter().find(|b| b.alias == "GTr").unwrap();
        let scene = tcor_workloads::generate_scene(&b, &grid);
        let rp = b.raster_params();
        let small = TcorSystem::new(tcor_cfg(32).with_raster(rp)).run_frame(&scene);
        let big = TcorSystem::new(tcor_cfg(128).with_raster(rp)).run_frame(&scene);
        assert!(big.pb_l2_accesses() <= small.pb_l2_accesses());
    }
}
