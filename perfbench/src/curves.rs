//! The `curves` workload: the single-pass miss-curve engine
//! (`CurveEngine::SinglePass`) computing fig1, fig11, fig12, fig13 and
//! fig13x over the ten suite PB traces, checked against the goldens.
//! One closed-loop caller in this process; each pass starts from a
//! fresh artifact store, so it rebuilds the traces (the set-up) and
//! then computes the five figures (the operation). The goldens pin the
//! paper calibration, so the seed changes nothing here.
//!
//! The traced run adds a cache probe: per suite trace, trace
//! generation, next-use annotation, the OPT stack profiler, a sharded
//! and a banked LRU replay.

use crate::report::{median, ratio, Outcome};
use crate::spans::Tracer;
use crate::{golden, host, Opts};
use std::time::Instant;
use tcor_cache::policy::Lru;
use tcor_cache::profile::{simulate_policy_bank, OptStackProfiler};
use tcor_cache::{annotate_next_use, simulate_policy_sharded, Indexing, ShardedTrace};
use tcor_common::{CacheParams, Traversal};
use tcor_gpu::bin_scene;
use tcor_runner::ArtifactStore;
use tcor_sim::misscurves::{self, suite_traces, CurveEngine};
use tcor_sim::orchestrate::{calibrated_scene, paper_grid};
use tcor_sim::Table;
use tcor_workloads::{primitive_trace, prims_capacity};

/// The five miss-curve figures.
const FIGS: [&str; 5] = ["fig1", "fig11", "fig12", "fig13", "fig13x"];

fn figure(store: &ArtifactStore, id: &str) -> tcor_common::TcorResult<(Vec<Table>, u64)> {
    let e = CurveEngine::SinglePass;
    Ok(match id {
        "fig1" => {
            let (t, n) = misscurves::fig1_engine(store, e)?;
            (vec![t], n)
        }
        "fig11" => {
            let (t, n) = misscurves::fig11_engine(store, e)?;
            (vec![t], n)
        }
        "fig12" => misscurves::fig12_engine(store, e)?,
        "fig13" => {
            let (t, n) = misscurves::fig13_engine(store, e)?;
            (vec![t], n)
        }
        _ => {
            let (t, n) = misscurves::fig13x_engine(store, e)?;
            (vec![t], n)
        }
    })
}

/// One pass's measurements.
struct Pass {
    setup_s: f64,
    wall_ms: f64,
    passes: u64,
    accesses: u64,
}

/// Builds the traces in a fresh store, then computes the figures in
/// `ids` order, checking every table.
fn pass(ids: &[&str], tr: &mut Tracer, out: &mut Outcome) -> Result<(Pass, ArtifactStore), String> {
    let store = ArtifactStore::new();
    let t0 = Instant::now();
    let traces = tr
        .time("workloads.suite_traces", || suite_traces(&store))
        .map_err(|e| format!("building the suite traces: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    let accesses = traces.iter().map(|b| b.trace.len() as u64).sum();
    let t1 = Instant::now();
    let mut passes = 0;
    for id in ids {
        let span = format!("sim.curve.{id}");
        match tr.time(&span, || figure(&store, id)) {
            Ok((tables, n)) => {
                passes += n;
                let errs: Vec<String> = tables.iter().filter_map(golden::mismatch).collect();
                out.check((!errs.is_empty()).then(|| errs.join("; ")));
            }
            Err(e) => out.check(Some(format!("{id}: {e}"))),
        }
    }
    let wall_ms = t1.elapsed().as_secs_f64() * 1e3;
    Ok((
        Pass {
            setup_s,
            wall_ms,
            passes,
            accesses,
        },
        store,
    ))
}

/// Runs the workload and returns what it measured.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let figs: &[&str] = if opts.smoke { &FIGS[..1] } else { &FIGS };
    let mut off = Tracer::new(false, Instant::now());
    if opts.trace {
        let (untraced, _) = pass(figs, &mut off, &mut out)?;
        let mut tr = Tracer::new(true, Instant::now());
        let (traced, store) = pass(figs, &mut tr, &mut out)?;
        out.set("trace.op_p50_ms", traced.wall_ms);
        out.set("trace.overhead_ms", traced.wall_ms - untraced.wall_ms);
        out.set("cache.policy_passes", traced.passes as f64);
        out.set("cache.trace_accesses", traced.accesses as f64);
        out.set(
            "cache.ns_per_access_pass",
            ratio(
                traced.wall_ms * 1e6,
                (traced.passes * traced.accesses) as f64,
            ),
        );
        cache_probe(&store, &mut tr, opts.smoke)?;
        let spans = tr.into_spans();
        let ms = crate::spans::self_ms_by_name(&spans);
        let get = |name: &str| ms.get(name).copied().unwrap_or(0.0);
        for id in FIGS {
            out.set(
                &format!("sim.curve_ms.{id}"),
                get(&format!("sim.curve.{id}")),
            );
        }
        for layer in [
            "workloads.trace",
            "gpu.binning",
            "cache.annotate",
            "cache.opt_stack",
            "cache.sharded_replay",
            "cache.bank_replay",
        ] {
            out.set(&format!("{layer}_ms"), get(layer));
        }
        crate::write_spans(opts, &spans).map_err(|e| format!("writing spans: {e}"))?;
        return Ok(out);
    }
    // A first, untimed pass warms up. Its peak RSS is the workload's,
    // read before the reference kernel first runs. Times and rates of
    // the timed passes are scaled to the nominal host speed by the
    // kernel run after each pass: on a shared host the raw pass time
    // drifts by up to 30% over minutes. Every pass's outputs are
    // checked.
    let start = Instant::now();
    pass(figs, &mut off, &mut out)?;
    let peak_rss_mb = host::peak_rss_mb("self");
    let (mut setup, mut walls, mut rates) = (vec![], vec![], vec![]);
    let mut n = 0u64;
    loop {
        let (p, _) = pass(figs, &mut off, &mut out)?;
        let scale = host::speed_scale(1);
        setup.push(p.setup_s * scale);
        walls.push(p.wall_ms * scale);
        rates.push(ratio((p.passes * p.accesses) as f64, p.wall_ms * 1e3) / scale);
        n += 1;
        let per_pass = start.elapsed().as_secs_f64() / (n + 1) as f64;
        if opts.smoke || start.elapsed().as_secs_f64() + per_pass > opts.seconds {
            break;
        }
    }
    out.set("setup_s", median(&setup));
    out.set("op_p50_ms", median(&walls));
    out.set("maccess_per_s", median(&rates));
    out.set("peak_rss_mb", peak_rss_mb);
    Ok(out)
}

/// 4-way geometry of `kb` KiB of primitive lines, as the figures size it.
fn four_way(kb: usize) -> CacheParams {
    let lines = prims_capacity(kb as u64 * 1024).max(4) as u64;
    CacheParams::new(lines / 4 * 4, 1, 4, 1)
}

/// Times each cache-layer call once per suite trace.
fn cache_probe(store: &ArtifactStore, tr: &mut Tracer, smoke: bool) -> Result<(), String> {
    let grid = paper_grid();
    let order = Traversal::ZOrder.order(&grid);
    let profiles = tcor_workloads::suite();
    let profiles = if smoke {
        &profiles[profiles.len() - 1..]
    } else {
        &profiles[..]
    };
    let bank: Vec<CacheParams> = (40..=160).step_by(8).map(four_way).collect();
    let one = four_way(64);
    for p in profiles {
        let scene = calibrated_scene(store, p, &grid).map_err(|e| e.to_string())?;
        let frame = tr.time("gpu.binning", || bin_scene(&scene.scene, &grid, &order));
        let trace = tr.time("workloads.trace", || primitive_trace(&frame.binned, &order));
        let next = tr.time("cache.annotate", || annotate_next_use(&trace));
        let opt = tr.time("cache.opt_stack", || {
            OptStackProfiler::profile(&trace, &next)
        });
        let sharded = tr.time("cache.sharded_replay", || {
            let shard = ShardedTrace::build(&trace, None, one.num_sets(), Indexing::Modulo);
            simulate_policy_sharded(&shard, one, false, Lru::new)
        });
        let banked = tr.time("cache.bank_replay", || {
            simulate_policy_bank(&trace, None, &bank, Indexing::Modulo, Lru::new)
        });
        std::hint::black_box((opt.cold_misses(), sharded, banked));
    }
    Ok(())
}
