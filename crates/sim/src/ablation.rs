//! Ablation studies for the design decisions called out in `DESIGN.md`.
//!
//! * **D1** — hardware OPT Numbers (12-bit next-tile ranks) vs exact
//!   Belady timestamps, on the 4-way Attribute Cache geometry.
//! * **D2** — the Polygon List Builder write bypass on/off.
//! * **D3** — TCOR's interleaved PB-Lists layout vs the baseline strided
//!   layout, under the same split caches.
//! * **D5** — XOR set indexing \[12\] vs modulo in the Primitive Buffer.

use crate::orchestrate::{calibrated_scene, frame_report};
use crate::output::{f3, Table};
use crate::suite::opt_checked;
use tcor::SystemConfig;
use tcor_cache::policy::Opt;
use tcor_cache::profile::simulate_policy;
use tcor_cache::{AccessMeta, Cache, Indexing};
use tcor_common::{CacheParams, TcorResult, TileGrid, Traversal, TraversalOrder};
use tcor_gpu::{bin_scene, Scene};
use tcor_pbuf::ListsScheme;
use tcor_runner::ArtifactStore;
use tcor_workloads::trace::opt_number_annotations;
use tcor_workloads::{primitive_trace, prims_capacity, suite, BenchmarkProfile};

/// The full-system frames of one ablation row: the full TCOR reference,
/// then D3 (baseline strided list layout under the TCOR split caches),
/// D2 (write bypass disabled) and D5 (modulo Primitive Buffer indexing).
pub(crate) fn ablation_configs(profile: &BenchmarkProfile) -> [SystemConfig; 4] {
    let reference = SystemConfig::paper_tcor_64k().with_raster(profile.raster_params());
    let mut d3 = reference.clone();
    d3.list_scheme = ListsScheme::Baseline;
    let mut d2 = reference.clone();
    d2.attr_write_bypass = false;
    let mut d5 = reference.clone();
    d5.attr_indexing = Indexing::Modulo;
    [reference, d3, d2, d5]
}

/// Runs all four ablations over the suite and tabulates the outcome.
///
/// # Errors
///
/// Propagates store corruption from the scene lookups; a TCOR frame
/// failing the OPT self-check is corruption too.
pub fn ablation(store: &ArtifactStore) -> TcorResult<Table> {
    let grid = TileGrid::new(1960, 768, 32);
    let order = Traversal::ZOrder.order(&grid);
    let mut t = Table::new(
        "ablation",
        "Design-decision ablations (PB L2 accesses normalized to full TCOR; \
         miss ratios for D1/D5)",
        &[
            "bench",
            "d3_baseline_layout",
            "d2_no_bypass",
            "d5_modulo_index",
            "d1_exact_belady",
            "d1_opt_number",
        ],
    );
    for b in suite() {
        let cal = calibrated_scene(store, &b, &grid)?;
        let mut pb_l2 = [0.0; 4];
        for (slot, cfg) in pb_l2.iter_mut().zip(ablation_configs(&b)) {
            let frame = opt_checked(frame_report(store, &b, &cal, &cfg)?)?;
            *slot = frame.pb_l2_accesses() as f64;
        }
        let [reference, d3, d2, d5] = pb_l2;
        let (exact, hw) = d1_miss_ratios(&cal.scene, &grid, &order);
        t.push_row(vec![
            b.alias.to_string(),
            f3(d3 / reference),
            f3(d2 / reference),
            f3(d5 / reference),
            f3(exact),
            f3(hw),
        ]);
    }
    Ok(t)
}

/// D1: the miss ratios of exact Belady and of the hardware OPT Numbers
/// (12-bit next-tile ranks), in that order, on a 4-way,
/// 48 KiB-equivalent primitive-granularity cache.
fn d1_miss_ratios(scene: &Scene, grid: &TileGrid, order: &TraversalOrder) -> (f64, f64) {
    let frame = bin_scene(scene, grid, order);
    let trace = primitive_trace(&frame.binned, order);
    let cap = prims_capacity(48 << 10);
    let lines = ((cap as u64 / 4).max(1)) * 4;
    let params = CacheParams::new(lines, 1, 4, 1);
    let exact = simulate_policy(&trace, params, Indexing::Modulo, Opt::new(), true);
    // Hardware OPT Numbers: replay manually with the rank-based
    // priorities.
    let ranks = opt_number_annotations(&frame.binned, order);
    let mut hw = Cache::new(params, Indexing::Modulo, Opt::new());
    for (a, nu) in trace.iter().zip(&ranks) {
        hw.access(a.addr, a.kind, AccessMeta::next_use(*nu));
    }
    (exact.miss_ratio(), hw.stats().miss_ratio())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_table_covers_the_suite() {
        // The full table runs every suite benchmark through four
        // full-system frames, too slow for a debug test; the D1 columns
        // come from `d1_miss_ratios` alone, so check them on the
        // smallest benchmark.
        let grid = TileGrid::new(1960, 768, 32);
        let order = Traversal::ZOrder.order(&grid);
        let b = suite().into_iter().find(|b| b.alias == "GTr").unwrap();
        let scene = tcor_workloads::generate_scene(&b, &grid);
        let (exact, hw) = d1_miss_ratios(&scene, &grid, &order);
        // The hardware OPT Number policy is close to exact Belady —
        // within a few percent of miss ratio.
        assert!(
            (hw - exact).abs() < 0.05,
            "OPT-number approximation drifted: {hw} vs {exact}"
        );
    }
}
