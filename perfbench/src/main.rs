//! `tcor-perfbench --workload suite|curves|serve --seed N --seconds S
//! --trace 0|1 [--tcor-sim PATH] [--smoke] [--spans FILE]`
//!
//! Prints the host record, then as its last stdout line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics, or with `--trace 1` the per-layer ones). Exits non-zero on
//! any failed or wrong operation.

use std::path::PathBuf;
use std::process::ExitCode;
use tcor_perfbench::report::{END_TO_END, PER_LAYER};
use tcor_perfbench::{curves, host, serve, suite, Opts};

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: tcor-perfbench --workload suite|curves|serve --seed N --seconds S \
         --trace 0|1 [--tcor-sim PATH] [--smoke] [--spans FILE]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("child-suite") {
        return suite::child(&args[1..]);
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (0u64, 10.0f64, false, false);
    let (mut tcor_sim, mut spans_out) = (None, None);
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--smoke" {
            smoke = true;
            i += 1;
            continue;
        }
        let Some(v) = args.get(i + 1) else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag {
            "--workload" => {
                workload = Some(v.clone());
                true
            }
            "--seed" => v.parse().map(|s| seed = s).is_ok(),
            "--seconds" => v.parse().map(|s| seconds = s).is_ok() && seconds > 0.0,
            "--trace" => {
                matches!(v.as_str(), "0" | "1") && {
                    trace = v == "1";
                    true
                }
            }
            "--tcor-sim" => {
                tcor_sim = Some(PathBuf::from(v));
                true
            }
            "--spans" => {
                spans_out = Some(PathBuf::from(v));
                true
            }
            _ => return usage(&format!("unknown flag `{flag}`")),
        };
        if !ok {
            return usage(&format!("bad value `{v}` for {flag}"));
        }
        i += 2;
    }
    if !std::path::Path::new(tcor_perfbench::golden::GOLDEN_DIR).is_dir() {
        return usage("run from the root of a checkout: results/golden is missing");
    }
    let tcor_sim = tcor_sim.unwrap_or_else(|| {
        let exe = std::env::current_exe().unwrap_or_default();
        exe.with_file_name("tcor-sim")
    });
    let tmp = PathBuf::from(".bench_tmp").join(format!("{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }
    let opts = Opts {
        seed,
        seconds,
        trace,
        smoke,
        tmp: tmp.clone(),
        spans_out,
        tcor_sim,
    };
    let result = match workload.as_deref() {
        Some("suite") => suite::run(&opts),
        Some("curves") => curves::run(&opts),
        Some("serve") => serve::run(&opts),
        Some(other) => Err(format!("unknown workload `{other}` (suite, curves, serve)")),
        None => Err("--workload is required".to_string()),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".bench_tmp");
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("tcor-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    println!("host {}", host::record());
    println!(
        "{}",
        out.render(if trace { &PER_LAYER } else { &END_TO_END })
    );
    if out.failed == 0 && out.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}
