//! Metric names, summary statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("maccess_per_s", "Maccess/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`.
/// A layer the workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 70] = [
    ("core.cell_ms.base64", "ms"),
    ("core.cell_ms.tcor_nol2_64", "ms"),
    ("core.cell_ms.tcor64", "ms"),
    ("core.cell_ms.base128", "ms"),
    ("core.cell_ms.tcor_nol2_128", "ms"),
    ("core.cell_ms.tcor128", "ms"),
    ("core.cell_self_ms", "ms"),
    ("core.ns_per_sim_access", "ns"),
    ("core.tile_hit_ratio", "ratio"),
    ("core.attr_hit_ratio", "ratio"),
    ("core.list_hit_ratio", "ratio"),
    ("core.attr_opt_violations", "count"),
    ("gpu.geometry_ms", "ms"),
    ("gpu.binning_ms", "ms"),
    ("gpu.pb_ops_ms", "ms"),
    ("gpu.raster_blocks_ms", "ms"),
    ("workloads.calibrate_ms", "ms"),
    ("mem.l2_accesses", "count"),
    ("mem.l2_miss_ratio", "ratio"),
    ("mem.dram_accesses", "count"),
    ("mem.dead_drops", "count"),
    ("mem.tex_l1_accesses", "count"),
    ("runner.cells_ms", "ms"),
    ("runner.exp_ms.ablation", "ms"),
    ("runner.exp_ms.sweep", "ms"),
    ("runner.exp_ms.traversal", "ms"),
    ("runner.exp_ms.scaling", "ms"),
    ("runner.exp_ms.misscurves", "ms"),
    ("runner.store_computed", "count"),
    ("runner.store_shared", "count"),
    ("runner.store_share_ratio", "ratio"),
    ("model.err_pp", "pp"),
    ("workloads.trace_ms", "ms"),
    ("sim.curve_ms.fig1", "ms"),
    ("sim.curve_ms.fig11", "ms"),
    ("sim.curve_ms.fig12", "ms"),
    ("sim.curve_ms.fig13", "ms"),
    ("sim.curve_ms.fig13x", "ms"),
    ("cache.annotate_ms", "ms"),
    ("cache.opt_stack_ms", "ms"),
    ("cache.sharded_replay_ms", "ms"),
    ("cache.bank_replay_ms", "ms"),
    ("cache.policy_passes", "count"),
    ("cache.trace_accesses", "count"),
    ("cache.ns_per_access_pass", "ns"),
    ("serve.request_received", "count"),
    ("serve.cache_warm_hits", "count"),
    ("serve.cold_computes", "count"),
    ("serve.request_coalesced", "count"),
    ("serve.request_shed", "count"),
    ("serve.errors", "count"),
    ("serve.keepalive_reuses", "count"),
    ("serve.eventloop_wakeups", "count"),
    ("serve.warm_hit_ratio", "ratio"),
    ("serve.cache_mem_hits", "count"),
    ("serve.cache_disk_hits", "count"),
    ("serve.warm_ms_p50", "ms"),
    ("serve.warm_ms_p99", "ms"),
    ("serve.cold_ms_p50", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("stream.chunk_ms_p50", "ms"),
    ("stream.chunk_ms_p99", "ms"),
    ("stream.snapshot_ms_p50", "ms"),
    ("stream.accesses", "count"),
    ("stream.chunks", "count"),
    ("stream.snapshots", "count"),
    ("stream.rejected", "count"),
    ("trace.op_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100); 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What one run measured: operation counts plus named values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (experiments, figures, requests).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
    /// One line per failed operation, for stderr.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Counts one operation, failed when `err` is `Some`.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            self.failures.push(e);
        }
    }

    /// The result line: `metrics` holds every name of `table`, each
    /// with its unit (0 for a value this run did not measure).
    pub fn render(&self, table: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = self.values.get(*name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn render_lists_every_metric_with_its_unit() {
        let mut o = Outcome::default();
        o.check(None);
        o.set("setup_s", 0.5);
        let line = o.render(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
    }
}
