//! Smoke-size runs of every workload, untraced and traced: each prints
//! every metric `BENCHMARK.json` names, with its unit, and passes its
//! output checks.

use std::path::{Path, PathBuf};
use std::process::Command;
use tcor_runner::Json;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

/// `(name, unit)` of every metric in `section` of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = doc.get(section) else {
        panic!("BENCHMARK.json has no `{section}` list")
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("metric without name/unit in `{section}`"),
        })
        .collect()
}

/// Builds the daemon binary the serve workload starts.
fn tcor_sim() -> PathBuf {
    let target = root().join("target");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "tcor-sim",
        ])
        .env("CARGO_TARGET_DIR", &target)
        .current_dir(root())
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building tcor-sim failed");
    target.join("release").join("tcor-sim")
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let sim = tcor_sim();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(section);
        for workload in ["suite", "curves", "serve"] {
            let spans =
                Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("spans-{workload}.json"));
            let _ = std::fs::remove_file(&spans);
            let out = Command::new(env!("CARGO_BIN_EXE_tcor-perfbench"))
                .args(["--workload", workload, "--seed", "1", "--seconds", "5"])
                .args(["--trace", trace, "--smoke", "--tcor-sim"])
                .arg(&sim)
                .arg("--spans")
                .arg(&spans)
                .current_dir(root())
                .output()
                .expect("the benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace={trace}: {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the result line is JSON");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed"), Some(&Json::UInt(0)));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics object: {last}")
            };
            assert_eq!(metrics.len(), want.len(), "{workload}: {last}");
            if trace == "1" {
                let text = std::fs::read_to_string(&spans).expect("a traced run writes its spans");
                let Ok(Json::Arr(list)) = Json::parse(&text) else {
                    panic!("{workload}: spans are not a JSON array")
                };
                assert!(!list.is_empty(), "{workload}: no spans");
                assert!(list
                    .iter()
                    .all(|s| s.get("name").is_some() && s.get("parent").is_some()));
            }
            for (name, unit) in &want {
                let m = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .unwrap_or_else(|| panic!("{workload} trace={trace}: `{name}` missing"));
                assert_eq!(m.get("unit"), Some(&Json::Str(unit.clone())), "{name}");
                assert!(
                    matches!(
                        m.get("value"),
                        Some(Json::Float(_) | Json::UInt(_) | Json::Int(_))
                    ),
                    "{name} has no numeric value"
                );
            }
        }
    }
    assert!(
        !root().join(".bench_tmp").exists(),
        "runs clean up after themselves"
    );
}
