//! The `suite` workload: all 25 experiments serially in one process, as
//! `tcor-sim all --serial --check` runs them, checked against the
//! goldens. One closed-loop caller; each pass is a fresh child process.
//! The goldens pin the paper calibration, so the seed changes nothing
//! here: every pass runs the experiments in presentation order.
//!
//! The traced run adds a layer probe: per suite scene, the calls a
//! full-system cell makes (calibration, geometry, binning, PB operation
//! lists, raster block generation) and the six `run_frame` cells, each
//! timed on its own and counted from the returned `FrameReport`s.

use crate::report::{median, ratio, Outcome};
use crate::spans::{Span, Tracer};
use crate::{golden, host, Opts};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use tcor::SystemConfig;
use tcor_common::TileGrid;
use tcor_gpu::{bin_scene_with, fetch_ops, plb_ops, GeometryPipeline, RasterTraffic};
use tcor_runner::{ArtifactStore, Telemetry};
use tcor_sim::orchestrate::{artifact_key, paper_grid, SUITE_DESC};
use tcor_sim::suite::{run_cell, CELL_CONFIGS};
use tcor_sim::{run_experiments, ExecMode, ExperimentOutcome, RunOptions, SuiteRun, EXPERIMENTS};

/// Experiments of a smoke pass: cheap, but through the same job graph.
const SMOKE_IDS: [&str; 3] = ["table1", "fig10", "fig1"];

/// Setup-only children per run (each runs `table1` alone), added to
/// the passes' setup samples.
const SETUP_PROBES: usize = 8;

/// The miss-curve experiments, summed into `runner.exp_ms.misscurves`.
const CURVE_IDS: [&str; 5] = ["fig1", "fig11", "fig12", "fig13", "fig13x"];

/// Wall-clock nanoseconds since the Unix epoch: the one clock a parent
/// and its child process share.
fn epoch_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// What one child process reported: `key value` lines.
type ChildReport = BTreeMap<String, String>;

fn spawn_child(opts: &Opts, pass: usize, mode: &str) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = opts.tmp.join(format!("pass{pass}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let out = Command::new(exe)
        .arg("child-suite")
        .arg(epoch_ns().to_string())
        .arg(&dir)
        .arg(mode)
        .output()
        .map_err(|e| format!("spawning the suite child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "suite child exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect())
}

fn num(r: &ChildReport, key: &str) -> f64 {
    r.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

/// Folds one child's checks into `out`.
fn tally(out: &mut Outcome, r: &ChildReport) {
    let n = num(r, "experiments") as u64;
    let fails: Vec<String> = r
        .iter()
        .filter(|(k, _)| k.starts_with("fail."))
        .map(|(k, v)| format!("{}: {v}", &k[5..]))
        .collect();
    for i in 0..n {
        out.check(fails.get(i as usize).cloned());
    }
}

/// Runs the workload and returns what it measured.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mode = if opts.smoke { "smoke" } else { "full" };
    if opts.trace {
        return traced(opts, mode);
    }
    let start = Instant::now();
    let (mut setup, mut walls, mut rates, mut rss) = (vec![], vec![], vec![], vec![]);
    let mut pass = 0;
    // Pass times and rates are scaled to the nominal host speed by the
    // reference kernel the child runs after its pass. The set-up time
    // is process start-up and stays unscaled.
    loop {
        let r = spawn_child(opts, pass, mode)?;
        let scale = num(&r, "speed_scale");
        tally(&mut out, &r);
        setup.push(num(&r, "setup_s"));
        walls.push(num(&r, "wall_ms") * scale);
        rates.push(ratio(num(&r, "sim_accesses"), num(&r, "cells_ms") * 1e3) / scale);
        rss.push(num(&r, "rss_mb"));
        pass += 1;
        let per_pass = start.elapsed().as_secs_f64() / pass as f64;
        if opts.smoke || start.elapsed().as_secs_f64() + per_pass > opts.seconds {
            break;
        }
    }
    for probe in 0..if opts.smoke { 1 } else { SETUP_PROBES } {
        let r = spawn_child(opts, pass + probe, "probe")?;
        tally(&mut out, &r);
        setup.push(num(&r, "setup_s"));
    }
    out.set("setup_s", median(&setup));
    out.set("op_p50_ms", median(&walls));
    out.set("maccess_per_s", median(&rates));
    out.set("peak_rss_mb", median(&rss));
    Ok(out)
}

/// The traced run. Spans cover only the layer probe, which runs in
/// this process; the experiment pass runs in a child without spans and
/// supplies the runner's telemetry and store counts. So the tracing
/// overhead is measured on the probe, run once untraced and once traced.
fn traced(opts: &Opts, mode: &str) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let r = spawn_child(opts, 0, mode)?;
    tally(&mut out, &r);
    out.set("runner.cells_ms", num(&r, "cells_ms"));
    for id in ["ablation", "sweep", "traversal", "scaling"] {
        out.set(
            &format!("runner.exp_ms.{id}"),
            num(&r, &format!("exp_ms.{id}")),
        );
    }
    let curves: f64 = CURVE_IDS
        .iter()
        .map(|id| num(&r, &format!("exp_ms.{id}")))
        .sum();
    out.set("runner.exp_ms.misscurves", curves);
    let (computed, shared) = (num(&r, "store_computed"), num(&r, "store_shared"));
    out.set("runner.store_computed", computed);
    out.set("runner.store_shared", shared);
    out.set("runner.store_share_ratio", ratio(shared, computed + shared));
    out.set("model.err_pp", num(&r, "model_err_pp"));
    let t0 = Instant::now();
    layer_probe(&mut Tracer::new(false, t0), opts.smoke, &mut out);
    let untraced_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let mut tr = Tracer::new(true, t1);
    layer_probe(&mut tr, opts.smoke, &mut out);
    let traced_ms = t1.elapsed().as_secs_f64() * 1e3;
    out.set("trace.op_p50_ms", traced_ms);
    out.set("trace.overhead_ms", traced_ms - untraced_ms);
    let spans = tr.into_spans();
    let self_ms = crate::spans::self_ms_by_name(&spans);
    let ms = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    for cfg in CELL_CONFIGS {
        out.set(
            &format!("core.cell_ms.{cfg}"),
            ms(&format!("core.run_frame.{cfg}")),
        );
    }
    out.set("core.cell_self_ms", cell_self_ms(&spans));
    for layer in [
        "gpu.geometry",
        "gpu.binning",
        "gpu.pb_ops",
        "gpu.raster_blocks",
    ] {
        out.set(&format!("{layer}_ms"), ms(layer));
    }
    out.set("workloads.calibrate_ms", ms("workloads.calibrate"));
    let cells_ns: f64 = CELL_CONFIGS
        .iter()
        .map(|cfg| ms(&format!("core.run_frame.{cfg}")) * 1e6)
        .sum();
    let sim = out.values.get("core.sim_accesses").copied().unwrap_or(0.0);
    out.values.remove("core.sim_accesses");
    out.set("core.ns_per_sim_access", ratio(cells_ns, sim));
    crate::write_spans(opts, &spans).map_err(|e| format!("writing spans: {e}"))?;
    Ok(out)
}

/// Milliseconds of the probe's cells outside the gpu stages. Every
/// `run_frame` runs geometry, binning, PB operations and raster block
/// generation itself, so each cell's span, less its scene's `gpu.*`
/// spans, estimates the time in the core tile caches and the memory
/// hierarchy. Summed over all cells, never below 0 per cell.
fn cell_self_ms(spans: &[Span]) -> f64 {
    let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 / 1e6;
    let mut total = 0.0;
    for scene in spans.iter().filter(|s| s.name == "scene") {
        let children = spans.iter().filter(|s| s.parent == Some(scene.id));
        let (gpu, cells): (Vec<&Span>, Vec<&Span>) = children
            .filter(|s| s.name.starts_with("gpu.") || s.name.starts_with("core.run_frame."))
            .partition(|s| s.name.starts_with("gpu."));
        let gpu_ms: f64 = gpu.iter().map(|s| dur(s)).sum();
        total += cells.iter().map(|s| (dur(s) - gpu_ms).max(0.0)).sum::<f64>();
    }
    total
}

/// Sums of the simulated counts one probe reads off its cell reports.
#[derive(Default)]
struct CellCounts {
    sim_accesses: u64,
    tile: (u64, u64),
    attr: (u64, u64),
    list: (u64, u64),
    violations: u64,
    l2: (u64, u64),
    dram: u64,
    dead_drops: u64,
    tex: u64,
}

impl CellCounts {
    fn add(&mut self, r: &tcor::FrameReport) {
        for s in &r.structures {
            self.sim_accesses += s.stats.accesses();
            let slot = match s.name {
                "tile$" => Some(&mut self.tile),
                "attr$" => Some(&mut self.attr),
                "list$" => Some(&mut self.list),
                _ => None,
            };
            if let Some((hits, accesses)) = slot {
                *hits += s.stats.hits();
                *accesses += s.stats.accesses();
            }
            if s.name == "tex$" {
                self.tex += s.stats.accesses();
            }
        }
        self.sim_accesses += r.l2_stats.accesses();
        self.violations += r.attr_opt_violations;
        self.l2.0 += r.l2_stats.misses();
        self.l2.1 += r.l2_stats.accesses();
        self.dram += r.total_mm_accesses();
        self.dead_drops += r.dead_drops;
    }
}

/// Times, per suite scene, each public call a full-system cell is made
/// of, then the six cells themselves.
fn layer_probe(tr: &mut Tracer, smoke: bool, out: &mut Outcome) {
    let grid = paper_grid();
    let profiles = tcor_workloads::suite();
    let profiles = if smoke {
        &profiles[profiles.len() - 1..]
    } else {
        &profiles[..]
    };
    let cfg = SystemConfig::paper_baseline_64k();
    let g = TileGrid::new(
        cfg.gpu.screen_width,
        cfg.gpu.screen_height,
        cfg.gpu.tile_size,
    );
    let order = cfg.gpu.traversal.order(&g);
    let mut counts = CellCounts::default();
    for p in profiles {
        let scene = tr.begin("scene");
        let cal = tr.time("workloads.calibrate", || {
            tcor_workloads::synth::calibrate(p, &grid)
        });
        let geo = tr.time("gpu.geometry", || GeometryPipeline::new(g).run(&cal.scene));
        let frame = tr.time("gpu.binning", || {
            bin_scene_with(&geo.visible, &g, &order, cfg.overlap_test)
        });
        let ops = tr.time("gpu.pb_ops", || {
            plb_ops(&frame.binned, &order).len() + fetch_ops(&frame.binned, &order).len()
        });
        let blocks = tr.time("gpu.raster_blocks", || {
            let mut raster = RasterTraffic::new(p.raster_params());
            let mut n = 0;
            for tile in order.iter() {
                let i = tile.index();
                n += raster.texture_blocks(frame.fragments_per_tile[i]).len()
                    + raster.instruction_blocks().len()
                    + raster.framebuffer_blocks(i, g.tile_size()).len();
            }
            n
        });
        std::hint::black_box((ops, blocks));
        for name in CELL_CONFIGS {
            let r = tr.time(&format!("core.run_frame.{name}"), || {
                run_cell(p, &cal.scene, name)
            });
            counts.add(&r);
        }
        tr.end(scene);
    }
    let c = &counts;
    out.set("core.sim_accesses", c.sim_accesses as f64);
    out.set(
        "core.tile_hit_ratio",
        ratio(c.tile.0 as f64, c.tile.1 as f64),
    );
    out.set(
        "core.attr_hit_ratio",
        ratio(c.attr.0 as f64, c.attr.1 as f64),
    );
    out.set(
        "core.list_hit_ratio",
        ratio(c.list.0 as f64, c.list.1 as f64),
    );
    out.set("core.attr_opt_violations", c.violations as f64);
    out.set("mem.l2_accesses", c.l2.1 as f64);
    out.set("mem.l2_miss_ratio", ratio(c.l2.0 as f64, c.l2.1 as f64));
    out.set("mem.dram_accesses", c.dram as f64);
    out.set("mem.dead_drops", c.dead_drops as f64);
    out.set("mem.tex_l1_accesses", c.tex as f64);
}

/// Child process body: one pass of the experiments, printing `key
/// value` lines. Arguments: spawn time (epoch ns), scratch dir, mode
/// (`full`, `smoke` or `probe`).
pub fn child(args: &[String]) -> ExitCode {
    let [spawn_ns, dir, mode] = args else {
        eprintln!("child-suite: SPAWN_NS DIR MODE");
        return ExitCode::from(2);
    };
    let spawn_ns: u128 = spawn_ns.parse().unwrap_or(0);
    let ids: &[&str] = match mode.as_str() {
        "probe" => &["table1"],
        "smoke" => &SMOKE_IDS,
        _ => &EXPERIMENTS,
    };
    let ids: Vec<String> = ids.iter().map(|s| s.to_string()).collect();
    // The host's speed, gauged on this CPU right before the pass and
    // again right after it. The set-up time leaves the gauge out.
    let gauge = Instant::now();
    let before = host::speed_scale(3);
    let gauge_s = gauge.elapsed().as_secs_f64();
    let store = ArtifactStore::new();
    let telemetry = Telemetry::new();
    let telemetry_epoch = epoch_ns();
    if let Err(e) = telemetry.stream_to(&Path::new(dir).join("telemetry.jsonl")) {
        eprintln!("telemetry streaming disabled: {e}");
    }
    let opts = RunOptions {
        mode: ExecMode::Serial,
        ..RunOptions::default()
    };
    let t0 = Instant::now();
    let outcome = match run_experiments(&ids, &opts, &store, &telemetry) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(3);
        }
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut lines = vec![("experiments".to_string(), ids.len().to_string())];
    let mut rendered = String::new();
    let mut model_err = 0.0;
    for (id, exp) in &outcome.experiments {
        let err = match exp {
            ExperimentOutcome::Tables(tables) => {
                let mut errs = Vec::new();
                for t in tables {
                    rendered.push_str(&t.render());
                    errs.extend(golden::mismatch(t));
                    if t.id == "headline" {
                        model_err = golden::model_err_pp(t);
                    }
                }
                (!errs.is_empty()).then(|| errs.join("; "))
            }
            other => Some(format!("{other:?}")),
        };
        if let Some(e) = err {
            lines.push((format!("fail.{id}"), e.replace('\n', " ")));
        }
    }
    std::hint::black_box(rendered);
    let records = telemetry.records();
    let first_job_ms = records
        .iter()
        .map(|r| r.start_ms)
        .fold(f64::INFINITY, f64::min);
    let first_job_ns = telemetry_epoch as f64 + first_job_ms.min(wall_ms) * 1e6;
    let mut exp_ms: BTreeMap<String, f64> = BTreeMap::new();
    let mut cells_ms = 0.0;
    for r in &records {
        if let Some(id) = r.label.strip_prefix("exp:") {
            exp_ms.insert(id.to_string(), r.wall_ms);
        } else if r.label.starts_with("cell:") {
            cells_ms += r.wall_ms;
        }
    }
    let sim_accesses: u64 = store
        .get::<SuiteRun>(artifact_key(SUITE_DESC))
        .ok()
        .flatten()
        .map_or(0, |suite| {
            suite
                .benchmarks
                .iter()
                .flat_map(|b| b.cells())
                .map(|(_, r)| {
                    r.structures.iter().map(|s| s.stats.accesses()).sum::<u64>()
                        + r.l2_stats.accesses()
                })
                .sum()
        });
    lines.extend([
        (
            "setup_s".to_string(),
            ((first_job_ns - spawn_ns as f64) / 1e9 - gauge_s).to_string(),
        ),
        ("wall_ms".to_string(), wall_ms.to_string()),
        ("cells_ms".to_string(), cells_ms.to_string()),
        ("sim_accesses".to_string(), sim_accesses.to_string()),
        ("store_computed".to_string(), store.computes().to_string()),
        ("store_shared".to_string(), store.hits().to_string()),
        ("model_err_pp".to_string(), model_err.to_string()),
        ("rss_mb".to_string(), host::peak_rss_mb("self").to_string()),
    ]);
    // The kernel runs after the peak RSS is read; before the pass its
    // memory is freed again, below the pass's own peak. A pass is one
    // sample, not one of fifty as on curves, so the kernel runs three
    // times on each side to steady its own time.
    let after = host::speed_scale(3);
    lines.push(("speed_scale".to_string(), ((before + after) / 2.0).to_string()));
    lines.extend(
        exp_ms
            .into_iter()
            .map(|(k, v)| (format!("exp_ms.{k}"), v.to_string())),
    );
    for (k, v) in lines {
        println!("{k} {v}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &str, start_ms: u64, end_ms: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: start_ms * 1_000_000,
            end_ns: end_ms * 1_000_000,
        }
    }

    #[test]
    fn cell_self_time_subtracts_its_scenes_gpu_stages() {
        let spans = vec![
            span(0, None, "scene", 0, 100),
            span(1, Some(0), "workloads.calibrate", 0, 5),
            span(2, Some(0), "gpu.geometry", 5, 8),
            span(3, Some(0), "gpu.binning", 8, 10),
            span(4, Some(0), "core.run_frame.base64", 10, 30),
            span(5, Some(0), "core.run_frame.tcor64", 30, 33),
            span(6, None, "scene", 100, 200),
            span(7, Some(6), "gpu.raster_blocks", 100, 101),
            span(8, Some(6), "core.run_frame.base64", 101, 111),
        ];
        // Scene 0: gpu 5 ms; cells 20 and 3 ms give 15 + 0 (clamped).
        // Scene 1: gpu 1 ms; the cell's 10 ms gives 9.
        assert!((cell_self_ms(&spans) - 24.0).abs() < 1e-9);
    }
}
