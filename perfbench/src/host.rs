//! The host and build record printed with every result, and a fixed
//! reference kernel that gauges the host's current speed.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// Logical CPUs available to this process.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MB; 0 when unreadable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time of [`reference_ms`] at the host's usual speed: a 2-vCPU Xeon
/// VM at 2.1 GHz. Normalised times are scaled to this host.
pub const REFERENCE_NOMINAL_MS: f64 = 40.0;

/// The factor that scales a pass to the nominal host speed:
/// [`REFERENCE_NOMINAL_MS`] over the median time of `runs` reference
/// kernel runs now. Call it in the process that runs the pass, right
/// next to the pass: on the same CPU the kernel tracks the pass's
/// speed; run in another process it tracked it less well. The
/// kernel's memory stays with the process's allocator, so read a peak
/// RSS before calling it.
pub fn speed_scale(runs: usize) -> f64 {
    let mut ms: Vec<f64> = (0..runs.max(1)).map(|_| reference_ms()).collect();
    ms.sort_by(f64::total_cmp);
    REFERENCE_NOMINAL_MS / ms[ms.len() / 2]
}

/// Milliseconds one run of the reference kernel takes now: exact LRU
/// stack distances of a fixed synthetic 400,000-access trace, with a
/// hash map of last uses and a Fenwick tree over time. It is the same
/// kind of work as the miss-curve engine's profilers, but it belongs to
/// the benchmark, so no change to the program changes it. Its time
/// follows the host's speed, which drifts on a shared machine.
fn reference_ms() -> f64 {
    const N: usize = 400_000;
    let t0 = Instant::now();
    let mut last: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut fenwick = vec![0i64; N + 1];
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut total = 0i64;
    for t in 0..N {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let block = (x % 16_384) ^ ((x >> 40) % 64);
        if let Some(p) = last.insert(block, t) {
            // Distinct blocks touched since the last use of `block`.
            total += prefix(&fenwick, t) - prefix(&fenwick, p + 1);
            bump(&mut fenwick, p, -1);
        }
        bump(&mut fenwick, t, 1);
    }
    std::hint::black_box(total);
    t0.elapsed().as_secs_f64() * 1e3
}

fn bump(fenwick: &mut [i64], i: usize, by: i64) {
    let mut i = i + 1;
    while i < fenwick.len() {
        fenwick[i] += by;
        i += i & i.wrapping_neg();
    }
}

fn prefix(fenwick: &[i64], mut i: usize) -> i64 {
    let mut sum = 0;
    while i > 0 {
        sum += fenwick[i];
        i -= i & i.wrapping_neg();
    }
    sum
}

/// `{"nproc": …, "cpu_model": …, "rustc": …, "git_sha": …,
/// "git_dirty": …, "profile": …}`; fields that cannot be read are
/// `"unknown"`; a checkout without `.git` has no sha.
pub fn record() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
    // Only the checkout's own repository: git would otherwise report
    // an enclosing one.
    let sha = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten();
    let dirty = sha
        .as_ref()
        .and_then(|_| command_line("git", &["status", "--porcelain"]))
        .map_or("\"unknown\"".to_string(), |s| (!s.is_empty()).to_string());
    format!(
        "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_sha\": {}, \"git_dirty\": {dirty}, \"profile\": {}}}",
        nproc(),
        json_str(&cpu),
        json_str(&rustc),
        json_str(sha.as_deref().unwrap_or("unknown")),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
    )
}
