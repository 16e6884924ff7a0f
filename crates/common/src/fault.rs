//! Deterministic fault injection: the one trigger every injected fault
//! in the process goes through.
//!
//! A [`FaultInjector`] is armed from a **seed** plus a **spec string**
//! naming *fault points* — stable identifiers like `pcache/read`,
//! `serve/drop_conn` or the runner's `job` that components ask about at
//! the moment they are about to do the real operation:
//!
//! ```text
//! spec     := clause [ "," clause ]*
//! clause   := point "=" pct [ "@" arg ] [ "#" limit ]
//! point    := fault-point name ("pcache/read", "serve/drop_conn", ...)
//! pct      := fire probability in percent (0..=100)
//! arg      := optional u64 payload (a byte offset, a stall in ms)
//! limit    := optional cap on total fires for this point
//! ```
//!
//! `pcache/read=100#6` fails the first six disk reads and then goes
//! quiet — the schedule a circuit-breaker test needs (errors, then
//! recovery). `serve/drop_conn=25@0` drops a quarter of responses
//! after zero body bytes.
//!
//! Decisions are deterministic, in one of two ways:
//!
//! - [`fire`](FaultInjector::fire) — the `n`-th ask at a point rolls a
//!   xoshiro256++ stream keyed by `seed ^ fxhash64(point) ^ mix(n)`, so
//!   a fixed seed replays the same per-point fire pattern on every run
//!   regardless of thread interleaving across *different* points.
//! - [`fire_keyed`](FaultInjector::fire_keyed) — the ask names a stable
//!   key (a job label, a write tag) and rolls `seed ^ fxhash64(point) ^
//!   fxhash64(key)` with no ask counter, so a job's fault does not
//!   depend on the worker schedule. A rule named `{point}/{key}`
//!   (`job/scene:GTr=100`) targets one key.
//!
//! The process-wide injector is **zero-cost when disarmed**: the global
//! [`fire`] helper is a single relaxed atomic load on the disarmed
//! path, so production binaries pay nothing. Components that need
//! hermetic tests (or, like the runner, a per-run schedule) hold their
//! own injector instance instead of arming the global one.

use crate::hash::fxhash64;
use crate::rng::Xoshiro256pp;
use crate::{ErrorKind, TcorError, TcorResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// One armed fault point.
#[derive(Clone, Debug)]
struct Rule {
    point: String,
    /// Fire probability per ask, percent.
    pct: u64,
    /// Payload handed to the caller on fire (offset, millis, ...).
    arg: u64,
    /// Total-fire cap; `None` = unbounded.
    limit: Option<u64>,
}

#[derive(Clone, Copy, Debug, Default)]
struct PointState {
    asks: u64,
    fired: u64,
}

/// A seeded, spec-driven fault injector.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    rules: Vec<Rule>,
    state: Mutex<HashMap<String, PointState>>,
}

impl FaultInjector {
    /// Parses `spec` (see the module docs for the grammar) under
    /// `seed`.
    ///
    /// # Errors
    ///
    /// A config error naming the malformed clause, including an empty
    /// point name or a point armed twice (whose second clause would
    /// never be consulted).
    pub fn parse(seed: u64, spec: &str) -> TcorResult<Self> {
        let mut rules = Vec::new();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let Some((point, rest)) = clause.split_once('=') else {
                return Err(TcorError::config(format!(
                    "bad fault clause `{clause}`: expected point=pct[@arg][#limit]"
                )));
            };
            let (rest, limit) = match rest.split_once('#') {
                Some((head, limit)) => {
                    let limit = limit
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| TcorError::config(format!("bad fault limit in `{clause}`")))?;
                    (head, Some(limit))
                }
                None => (rest, None),
            };
            let (pct, arg) = match rest.split_once('@') {
                Some((pct, arg)) => (
                    pct,
                    arg.trim()
                        .parse::<u64>()
                        .map_err(|_| TcorError::config(format!("bad fault arg in `{clause}`")))?,
                ),
                None => (rest, 0),
            };
            let pct = pct
                .trim()
                .parse::<u64>()
                .map_err(|_| TcorError::config(format!("bad fault rate in `{clause}`")))?;
            if pct > 100 {
                return Err(TcorError::config(format!(
                    "fault rate {pct} in `{clause}` exceeds 100"
                )));
            }
            let point = point.trim();
            if point.is_empty() {
                return Err(TcorError::config(format!(
                    "bad fault clause `{clause}`: empty point name"
                )));
            }
            if rules.iter().any(|r: &Rule| r.point == point) {
                return Err(TcorError::config(format!(
                    "fault point `{point}` is armed twice (in `{clause}`)"
                )));
            }
            rules.push(Rule {
                point: point.to_string(),
                pct,
                arg,
                limit,
            });
        }
        Ok(FaultInjector {
            seed,
            rules,
            state: Mutex::new(HashMap::new()),
        })
    }

    /// The seed the injector was armed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, PointState>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Asks whether the fault at `point` fires now; `Some(arg)` means
    /// it does, carrying the clause's payload. Each ask advances the
    /// point's deterministic decision stream.
    pub fn fire(&self, point: &str) -> Option<u64> {
        let rule = self.rules.iter().find(|r| r.point == point)?;
        let mut state = self.lock();
        let entry = state.entry(rule.point.clone()).or_default();
        let n = entry.asks;
        entry.asks += 1;
        if rule.limit.is_some_and(|limit| entry.fired >= limit) {
            return None;
        }
        let mut rng = Xoshiro256pp::seed_from_u64(
            self.seed ^ fxhash64(point.as_bytes()) ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        if rng.random_range(0..100u64) < rule.pct {
            entry.fired += 1;
            Some(rule.arg)
        } else {
            None
        }
    }

    /// Asks whether the fault at `point` fires for `key` (a job label,
    /// a write tag); `Some(arg)` means it does. A rule named
    /// `{point}/{key}` targets this one key and is consulted before the
    /// plain `point` rule. The draw is a pure function of `(seed,
    /// point, key)` — no ask counter — so the answer does not depend on
    /// which keys or points were asked before; only a `#limit`, once
    /// reached, silences the rule.
    pub fn fire_keyed(&self, point: &str, key: &str) -> Option<u64> {
        let target = format!("{point}/{key}");
        let rule = (self.rules.iter().find(|r| r.point == target))
            .or_else(|| self.rules.iter().find(|r| r.point == point))?;
        let mut rng = Xoshiro256pp::seed_from_u64(
            self.seed ^ fxhash64(point.as_bytes()) ^ fxhash64(key.as_bytes()),
        );
        if rng.random_range(0..100u64) >= rule.pct {
            return None;
        }
        let mut state = self.lock();
        let entry = state.entry(rule.point.clone()).or_default();
        if rule.limit.is_some_and(|limit| entry.fired >= limit) {
            return None;
        }
        entry.fired += 1;
        Some(rule.arg)
    }

    /// Per-point fire counts, sorted by point name. Points that are
    /// armed but never fired report 0, so an armed process's metrics
    /// always show which faults are live.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let state = self.lock();
        let mut counts: Vec<(String, u64)> = self
            .rules
            .iter()
            .map(|r| (r.point.clone(), state.get(&r.point).map_or(0, |s| s.fired)))
            .collect();
        counts.sort();
        counts
    }

    /// The injected I/O error for a fired point.
    pub fn io_error(&self, point: &str) -> TcorError {
        TcorError::with_source(
            ErrorKind::Io,
            format!("injected fault (seed {}) at {point}", self.seed),
            std::io::Error::other("fault injection"),
        )
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn global() -> &'static Mutex<Option<Arc<FaultInjector>>> {
    static GLOBAL: OnceLock<Mutex<Option<Arc<FaultInjector>>>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(None))
}

/// Arms the process-wide injector. Every [`fire`] call after this
/// consults `injector`'s schedule.
pub fn arm(injector: FaultInjector) {
    *global().lock().unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(injector));
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms the process-wide injector; [`fire`] returns to its
/// zero-cost no-op path.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    *global().lock().unwrap_or_else(PoisonError::into_inner) = None;
}

/// Asks the process-wide injector about `point`. Disarmed (the
/// default), this is one relaxed atomic load and `None`.
pub fn fire(point: &str) -> Option<u64> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let injector = global()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()?;
    injector.fire(point)
}

/// Per-point fire counts of the process-wide injector; empty when
/// disarmed.
pub fn snapshot() -> Vec<(String, u64)> {
    if !ARMED.load(Ordering::Relaxed) {
        return Vec::new();
    }
    global()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
        .map(|i| i.snapshot())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_rates_args_and_limits() {
        let inj = FaultInjector::parse(1, "pcache/read=100, serve/drop_conn=25@64#3").unwrap();
        assert_eq!(inj.fire("pcache/read"), Some(0), "always fires at 100%");
        assert_eq!(inj.fire("unarmed/point"), None);
        assert!(FaultInjector::parse(1, "nonsense").is_err());
        assert!(FaultInjector::parse(1, "p=101").is_err());
        assert!(FaultInjector::parse(1, "p=x").is_err());
        assert!(FaultInjector::parse(1, "p=50@y").is_err());
        assert!(FaultInjector::parse(1, "p=50#z").is_err());
        // A repeated point (its second clause would never be consulted)
        // and an empty point are config errors; a targeted rule is
        // neither.
        for bad in ["p=10,p=50", "=50", "p=10, =50"] {
            let err = FaultInjector::parse(1, bad).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Config, "{bad}");
        }
        assert!(FaultInjector::parse(1, "p=10,p/k=100").is_ok());
        // Empty spec arms nothing but is valid (a quiet injector).
        assert!(FaultInjector::parse(1, "").unwrap().fire("p").is_none());
    }

    #[test]
    fn decision_streams_are_deterministic_per_point() {
        let a = FaultInjector::parse(42, "p/x=30,p/y=30").unwrap();
        let b = FaultInjector::parse(42, "p/x=30,p/y=30").unwrap();
        let xs: Vec<bool> = (0..200).map(|_| a.fire("p/x").is_some()).collect();
        // Interleave differently on the second injector: p/x's stream
        // must not care what p/y consumed.
        let ys: Vec<bool> = (0..200)
            .map(|_| {
                let _ = b.fire("p/y");
                b.fire("p/x").is_some()
            })
            .collect();
        assert_eq!(xs, ys, "per-point streams are independent");
        let c = FaultInjector::parse(43, "p/x=30").unwrap();
        let zs: Vec<bool> = (0..200).map(|_| c.fire("p/x").is_some()).collect();
        assert_ne!(xs, zs, "a different seed reschedules");

        // Keyed draws are a pure function of (seed, point, key).
        let keyed = |inj: &FaultInjector, point: &str| -> Vec<bool> {
            (0..1000)
                .map(|i| inj.fire_keyed(point, &format!("cell:{i}")).is_some())
                .collect()
        };
        assert_eq!(keyed(&a, "p/x"), keyed(&b, "p/x"), "same seed replays");
        assert_ne!(keyed(&a, "p/x"), keyed(&c, "p/x"), "seed-sensitive");
        assert_ne!(keyed(&a, "p/x"), keyed(&a, "p/y"), "point-sensitive");
        // The runner's rates fault a small minority of jobs.
        let jobs = FaultInjector::parse(7, "job=4,job_stall=8@20").unwrap();
        let (panics, stalls) = (keyed(&jobs, "job"), keyed(&jobs, "job_stall"));
        let panicked = panics.iter().filter(|&&p| p).count();
        let faulted = panics
            .iter()
            .zip(&stalls)
            .filter(|(p, s)| **p || **s)
            .count();
        assert!((10..100).contains(&panicked), "panics={panicked}");
        assert!(faulted < 250, "faulted={faulted}");
    }

    #[test]
    fn keyed_draws_ignore_ask_order_and_targets_win() {
        let keys: Vec<String> = (0..100).map(|i| format!("exp:{i}")).collect();
        let fresh = FaultInjector::parse(42, "job=30,io=30").unwrap();
        let alone: Vec<_> = keys.iter().map(|k| fresh.fire_keyed("job", k)).collect();
        // The same keys in reverse, each after asks for another key,
        // another point and the counted `fire`.
        let busy = FaultInjector::parse(42, "job=30,io=30").unwrap();
        let mut interleaved: Vec<_> = (keys.iter().rev())
            .map(|k| {
                let _ = (busy.fire_keyed("job", "x"), busy.fire_keyed("io", k));
                let _ = busy.fire("job");
                busy.fire_keyed("job", k)
            })
            .collect();
        interleaved.reverse();
        assert_eq!(alone, interleaved, "a key's answer ignores ask order");
        assert!(alone.contains(&None) && alone.contains(&Some(0)));

        // `{point}/{key}` targets one key at one point, over the plain
        // rule.
        let inj = FaultInjector::parse(0, "job=0,job/cell:CCS/tcor64=100@9").unwrap();
        assert_eq!(inj.fire_keyed("job", "cell:CCS/tcor64"), Some(9));
        assert_eq!(inj.fire_keyed("job", "cell:CCS/base64"), None);
        assert_eq!(inj.fire_keyed("io", "cell:CCS/tcor64"), None);
        let counts = [("job", 0), ("job/cell:CCS/tcor64", 1)].map(|(p, n)| (p.to_string(), n));
        assert_eq!(inj.snapshot(), counts);
    }

    #[test]
    fn limits_cap_total_fires() {
        let inj = FaultInjector::parse(7, "disk=100#4").unwrap();
        let fired = (0..50).filter(|_| inj.fire("disk").is_some()).count();
        assert_eq!(fired, 4);
        assert_eq!(inj.snapshot(), vec![("disk".to_string(), 4)]);
        // Keyed asks count against the same cap.
        let inj = FaultInjector::parse(7, "disk=100#4").unwrap();
        let fired = (0..50).filter(|i| inj.fire_keyed("disk", &i.to_string()).is_some());
        assert_eq!(fired.count(), 4);
    }

    #[test]
    fn global_injector_arms_fires_and_disarms() {
        // Unique point names: the global is shared with any parallel
        // test in this process.
        assert_eq!(fire("test/global-point"), None, "disarmed is quiet");
        arm(FaultInjector::parse(5, "test/global-point=100#2").unwrap());
        assert_eq!(fire("test/global-point"), Some(0));
        assert_eq!(fire("test/global-point"), Some(0));
        assert_eq!(fire("test/global-point"), None, "limit reached");
        assert_eq!(snapshot(), vec![("test/global-point".to_string(), 2)]);
        disarm();
        assert!(snapshot().is_empty());
        assert_eq!(fire("test/global-point"), None);
    }
}
