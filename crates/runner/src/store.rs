//! Content-addressed artifact memoization: in-memory always, persistent
//! on request.
//!
//! Artifacts (a calibrated scene, a binned frame, an annotated trace, a
//! whole `SuiteRun`, a rendered serve response) are keyed by a stable
//! `fxhash64` of the configuration that produces them. The first
//! requester computes; any concurrent requester for the same key blocks
//! until the winner publishes and shares the resulting `Arc` — each
//! artifact is built exactly once per process regardless of schedule.
//! Encodable artifacts can additionally ride a `tcor_pcache`
//! [`ResultCache`] ([`ArtifactStore::get_or_try_compute_persisted`]),
//! making them *once per cache directory* rather than once per process.
//!
//! Failure model: a key that resolves to a value of a different type
//! than requested is a key-collision bug at some call site; it is
//! reported as a typed [`ErrorKind::Corruption`] error, never a panic,
//! so one bad cell cannot tear down the suite. Each slot is an explicit
//! `Empty → InFlight → Ready` state machine guarded by its own
//! mutex+condvar: a computation that panics *or* returns a typed error
//! resets its slot to `Empty` and wakes every waiter, so a partial
//! entry can never wedge concurrent readers — one of them simply
//! becomes the next leader and retries. Lock poisoning is recovered
//! with [`PoisonError::into_inner`]: state transitions are single
//! assignments, so a thread that panicked while holding a lock cannot
//! have left the slot half-updated.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use tcor_common::{TcorError, TcorResult};
use tcor_pcache::{CacheKey, CachedBody, ResultCache};

type Erased = Arc<dyn Any + Send + Sync>;

/// Where one slot is in its lifecycle.
enum SlotState {
    /// Nothing computed; the next requester becomes the leader.
    Empty,
    /// A leader is computing; followers wait on the condvar.
    InFlight,
    /// The artifact is published.
    Ready(Erased),
}

/// One key's state machine: mutex-guarded state plus the condvar the
/// leader signals on every transition out of `InFlight`.
struct Slot {
    state: Mutex<SlotState>,
    changed: Condvar,
}

impl Slot {
    fn new() -> Self {
        Slot {
            state: Mutex::new(SlotState::Empty),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SlotState> {
        // Transitions are single assignments: a panicking holder cannot
        // leave the state half-updated, so poisoning is recoverable.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The shared store. Cheap to share by reference across the worker
/// pool; all methods take `&self`.
#[derive(Default)]
pub struct ArtifactStore {
    map: Mutex<HashMap<u64, Arc<Slot>>>,
    hits: AtomicU64,
    computes: AtomicU64,
}

fn type_confusion(key: u64, requested: &str) -> TcorError {
    TcorError::corruption(format!(
        "artifact store key {key:#018x} holds a value of a different type \
         than the requested `{requested}` — key collision or type confusion \
         at a call site"
    ))
}

fn downcast<A: Send + Sync + 'static>(key: u64, erased: Erased) -> TcorResult<Arc<A>> {
    erased
        .downcast::<A>()
        .map_err(|_| type_confusion(key, std::any::type_name::<A>()))
}

impl ArtifactStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, key: u64) -> Arc<Slot> {
        let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(key).or_insert_with(|| Arc::new(Slot::new())))
    }

    /// Returns the artifact under `key`, computing it with `f` if
    /// absent. Concurrent calls with the same key compute once and
    /// share; the losers block until the artifact exists. If `f`
    /// panics the slot is reset to empty, every waiter is woken (one
    /// of them retries as the new leader), and the panic is propagated
    /// to — and contained by — the executor.
    ///
    /// # Errors
    ///
    /// Returns an [`ErrorKind::Corruption`](tcor_common::ErrorKind)
    /// error if `key` already holds an artifact of a different type —
    /// a key-collision bug at the call site, never silent.
    pub fn get_or_compute<A, F>(&self, key: u64, f: F) -> TcorResult<Arc<A>>
    where
        A: Send + Sync + 'static,
        F: FnOnce() -> A,
    {
        self.get_or_try_compute(key, || Ok(f()))
    }

    /// The fallible, concurrency-hardened entry point (the serving
    /// plane's get-or-compute): like [`get_or_compute`], but `f` may
    /// return a typed error. An error is returned to the leader *and
    /// leaves the slot empty* — waiters are woken and the first of
    /// them retries the computation, so a transient failure (or a
    /// panicking leader) never leaves a poisoned or partial entry
    /// behind.
    ///
    /// Reentrancy: computing `key` from inside its own `f` deadlocks
    /// (exactly like the `OnceLock`-based predecessor); keep artifact
    /// dependencies acyclic.
    ///
    /// # Errors
    ///
    /// Propagates `f`'s error verbatim; returns a corruption error on
    /// key type confusion.
    pub fn get_or_try_compute<A, F>(&self, key: u64, f: F) -> TcorResult<Arc<A>>
    where
        A: Send + Sync + 'static,
        F: FnOnce() -> TcorResult<A>,
    {
        let slot = self.slot(key);
        {
            let mut st = slot.lock();
            loop {
                match &*st {
                    SlotState::Ready(v) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return downcast(key, Arc::clone(v));
                    }
                    SlotState::InFlight => {
                        st = slot
                            .changed
                            .wait(st)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    SlotState::Empty => {
                        *st = SlotState::InFlight;
                        break;
                    }
                }
            }
        }
        // This thread is the leader; compute outside the slot lock so
        // followers can park on the condvar, not the mutex.
        let outcome = catch_unwind(AssertUnwindSafe(f));
        let mut st = slot.lock();
        match outcome {
            Ok(Ok(value)) => {
                let erased: Erased = Arc::new(value);
                *st = SlotState::Ready(Arc::clone(&erased));
                self.computes.fetch_add(1, Ordering::Relaxed);
                slot.changed.notify_all();
                drop(st);
                downcast(key, erased)
            }
            Ok(Err(e)) => {
                *st = SlotState::Empty;
                slot.changed.notify_all();
                Err(e)
            }
            Err(panic) => {
                *st = SlotState::Empty;
                slot.changed.notify_all();
                drop(st);
                resume_unwind(panic)
            }
        }
    }

    /// [`get_or_try_compute`](Self::get_or_try_compute) with a
    /// persistent tier behind it: the leader consults `cache` (keyed
    /// by `key` + `version`) before computing, and publishes what it
    /// computed back through the cache, so an artifact survives the
    /// process that built it. `encode`/`decode` bridge the artifact to
    /// its cacheable byte form; a `decode` that returns `None`
    /// (undecodable or schema-drifted bytes) falls through to a fresh
    /// computation, which then overwrites the entry.
    ///
    /// In-process semantics are unchanged — one computation per key,
    /// concurrent requesters share the leader's `Arc` — and the cache
    /// is only ever consulted *inside* the leader's critical section,
    /// so a cache hit is published to followers exactly like a
    /// computed value.
    ///
    /// The in-process slot is keyed by a *salted* derivative of `key`
    /// (the persistent [`CacheKey`] keeps the raw identity, so other
    /// cache consumers still share entries). The salt matters: `f` may
    /// itself memoize intermediate artifacts in this same store, and a
    /// caller's `key` can legitimately equal one of those inner keys
    /// (both are `fxhash64` of a textual identity, in one key space).
    /// Without the salt the leader would re-enter its own in-flight
    /// slot and deadlock (and the two values would collide as type
    /// confusion even if it didn't).
    ///
    /// # Errors
    ///
    /// Propagates `f`'s error verbatim; returns a corruption error on
    /// key type confusion. Cache I/O failures are absorbed by the
    /// cache itself (counted in its stats) and degrade to computing.
    pub fn get_or_try_compute_persisted<A, F, E, D>(
        &self,
        key: u64,
        cache: &dyn ResultCache,
        version: u64,
        encode: E,
        decode: D,
        f: F,
    ) -> TcorResult<Arc<A>>
    where
        A: Send + Sync + 'static,
        F: FnOnce() -> TcorResult<A>,
        E: FnOnce(&A) -> CachedBody,
        D: FnOnce(&CachedBody) -> Option<A>,
    {
        let slot_key = tcor_common::fxhash64(format!("pcache-slot/{key:016x}").as_bytes());
        self.get_or_try_compute(slot_key, || {
            let ck = CacheKey::new(key, version);
            if let Some((body, _tier)) = cache.get(&ck) {
                if let Some(artifact) = decode(&body) {
                    return Ok(artifact);
                }
            }
            let artifact = f()?;
            cache.put(&ck, &Arc::new(encode(&artifact)));
            Ok(artifact)
        })
    }

    /// Returns the artifact under `key` if (and only if) it has been
    /// computed, without blocking on in-flight computation by others.
    ///
    /// # Errors
    ///
    /// Returns a corruption error on type confusion, like
    /// [`get_or_compute`](Self::get_or_compute).
    pub fn get<A: Send + Sync + 'static>(&self, key: u64) -> TcorResult<Option<Arc<A>>> {
        let slot = {
            let map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
            map.get(&key).cloned()
        };
        let Some(slot) = slot else { return Ok(None) };
        let st = slot.lock();
        match &*st {
            SlotState::Ready(v) => downcast(key, Arc::clone(v)).map(Some),
            _ => Ok(None),
        }
    }

    /// Number of keys with a completed artifact.
    pub fn len(&self) -> usize {
        let slots: Vec<Arc<Slot>> = {
            let map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
            map.values().cloned().collect()
        };
        slots
            .iter()
            .filter(|s| matches!(&*s.lock(), SlotState::Ready(_)))
            .count()
    }

    /// Whether nothing has been stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many lookups were served from memory.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// How many artifacts were actually computed.
    pub fn computes(&self) -> u64 {
        self.computes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn computes_once_and_shares() {
        let store = ArtifactStore::new();
        let calls = AtomicUsize::new(0);
        let a: Arc<Vec<u32>> = store
            .get_or_compute(1, || {
                calls.fetch_add(1, Ordering::SeqCst);
                vec![1, 2, 3]
            })
            .unwrap();
        let b: Arc<Vec<u32>> = store
            .get_or_compute(1, || {
                calls.fetch_add(1, Ordering::SeqCst);
                vec![9, 9, 9]
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.computes(), 1);
        assert_eq!(store.hits(), 1);
    }

    #[test]
    fn distinct_keys_are_independent() {
        let store = ArtifactStore::new();
        let a: Arc<u64> = store.get_or_compute(10, || 100).unwrap();
        let b: Arc<u64> = store.get_or_compute(11, || 200).unwrap();
        assert_eq!((*a, *b), (100, 200));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn get_sees_only_completed() {
        let store = ArtifactStore::new();
        assert!(store.get::<u64>(5).unwrap().is_none());
        let _ = store.get_or_compute(5, || 7u64);
        assert_eq!(*store.get::<u64>(5).unwrap().expect("present"), 7);
    }

    #[test]
    fn type_collision_is_a_typed_corruption_error() {
        let store = ArtifactStore::new();
        let _ = store.get_or_compute(3, || 1u64);
        let err = store
            .get_or_compute::<String, _>(3, || "oops".to_string())
            .unwrap_err();
        assert_eq!(err.kind(), tcor_common::ErrorKind::Corruption);
        let msg = err.to_string();
        assert!(msg.contains("0x0000000000000003"), "{msg}");
        assert!(msg.contains("String"), "{msg}");
        // The blocking-free getter reports the same way.
        let err = store.get::<String>(3).unwrap_err();
        assert_eq!(err.kind(), tcor_common::ErrorKind::Corruption);
        // The store itself is still usable and the original intact.
        assert_eq!(*store.get::<u64>(3).unwrap().expect("original"), 1);
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        let store = ArtifactStore::new();
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let v: Arc<u64> = store
                        .get_or_compute(42, || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window.
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            99
                        })
                        .unwrap();
                    assert_eq!(*v, 99);
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    /// The serving plane's regression: two callers racing through the
    /// fallible entry point compute exactly once, and both get the
    /// winner's artifact.
    #[test]
    fn racing_fallible_callers_compute_once() {
        let store = ArtifactStore::new();
        let calls = AtomicUsize::new(0);
        let gate = Barrier::new(2);
        std::thread::scope(|s| {
            let run = || {
                gate.wait();
                let v: Arc<String> = store
                    .get_or_try_compute(7, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        Ok("artifact".to_string())
                    })
                    .unwrap();
                assert_eq!(*v, "artifact");
            };
            let t = s.spawn(run);
            run();
            t.join().unwrap();
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!((store.computes(), store.hits()), (1, 1));
    }

    /// A failed computation leaves the slot empty: the waiter that was
    /// blocked on the failing leader is woken, retries as the new
    /// leader, and succeeds — no poisoned/partial entry survives.
    #[test]
    fn failed_leader_wakes_waiter_who_retries() {
        let store = ArtifactStore::new();
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let loser = s.spawn(|| {
                store.get_or_try_compute::<u64, _>(11, || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    Err(TcorError::execution("transient failure"))
                })
            });
            // Give the loser time to become the leader, then pile on.
            std::thread::sleep(std::time::Duration::from_millis(5));
            let winner: Arc<u64> = store
                .get_or_try_compute(11, || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Ok(5)
                })
                .unwrap();
            assert_eq!(*winner, 5);
            let err = loser.join().unwrap().unwrap_err();
            assert_eq!(err.kind(), tcor_common::ErrorKind::Execution);
        });
        assert_eq!(calls.load(Ordering::SeqCst), 2, "fail once, retry once");
        assert_eq!(*store.get::<u64>(11).unwrap().expect("retried"), 5);
    }

    #[allow(clippy::ptr_arg)] // must match FnOnce(&String) at the call sites
    fn encode(s: &String) -> CachedBody {
        CachedBody::text("text/plain; charset=utf-8", s.as_str())
    }

    fn decode(c: &CachedBody) -> Option<String> {
        String::from_utf8(c.bytes.clone()).ok()
    }

    /// The persistence contract: a second store (a "restarted
    /// process") over the same cache decodes instead of recomputing; a
    /// bumped version recomputes instead of trusting stale bytes.
    #[test]
    fn persisted_artifacts_survive_into_a_fresh_store() {
        use tcor_pcache::TieredCache;
        let dir = std::env::temp_dir().join(format!("tcor-store-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TieredCache::open(4, Some((dir.clone(), 1 << 20))).unwrap();
        let calls = AtomicUsize::new(0);
        let compute = || {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok("artifact-v1".to_string())
        };
        let a: Arc<String> = ArtifactStore::new()
            .get_or_try_compute_persisted(21, &cache, 7, encode, decode, compute)
            .unwrap();
        assert_eq!(*a, "artifact-v1");
        // "Restart": fresh store, same cache — decoded, not recomputed.
        let b: Arc<String> = ArtifactStore::new()
            .get_or_try_compute_persisted(21, &cache, 7, encode, decode, compute)
            .unwrap();
        assert_eq!(*b, "artifact-v1");
        assert_eq!(calls.load(Ordering::SeqCst), 1, "served from the cache");
        // A new code version must not trust the persisted bytes.
        let c: Arc<String> = ArtifactStore::new()
            .get_or_try_compute_persisted(21, &cache, 8, encode, decode, || {
                calls.fetch_add(1, Ordering::SeqCst);
                Ok("artifact-v2".to_string())
            })
            .unwrap();
        assert_eq!(*c, "artifact-v2");
        assert_eq!(calls.load(Ordering::SeqCst), 2, "version bump recomputes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The persisted wrapper's `key` equals a key the computation
    /// itself memoizes under.
    /// The salted slot must keep the inner call on its own slot —
    /// unsalted, this deadlocks a single thread forever.
    #[test]
    fn persisted_compute_may_reuse_its_own_key_internally() {
        use tcor_pcache::TieredCache;
        let cache = TieredCache::memory_only(4);
        let store = ArtifactStore::new();
        let v: Arc<String> = store
            .get_or_try_compute_persisted(55, &cache, 7, encode, decode, || {
                let inner = store.get_or_compute(55, || "inner artifact".to_string())?;
                Ok(format!("wrapped {inner}"))
            })
            .unwrap();
        assert_eq!(*v, "wrapped inner artifact");
        // Both values exist under their own slots, no type confusion.
        let inner = store.get::<String>(55).unwrap().expect("inner slot");
        assert_eq!(*inner, "inner artifact");
        let (body, _) = cache
            .get(&tcor_pcache::CacheKey::new(55, 7))
            .expect("persisted under the raw identity");
        assert_eq!(body.bytes, b"wrapped inner artifact");
    }

    /// An undecodable cache entry falls through to computation and is
    /// overwritten, not served.
    #[test]
    fn undecodable_cache_entry_recomputes() {
        use tcor_pcache::TieredCache;
        let cache = TieredCache::memory_only(4);
        let key = tcor_pcache::CacheKey::new(33, 7);
        cache.put(&key, &Arc::new(CachedBody::text("text/plain", "\u{fffd}")));
        let v: Arc<String> = ArtifactStore::new()
            .get_or_try_compute_persisted(
                33,
                &cache,
                7,
                encode,
                |_c: &CachedBody| None, // decoder rejects the bytes
                || Ok("recomputed".to_string()),
            )
            .unwrap();
        assert_eq!(*v, "recomputed");
        // The overwrite published the good bytes.
        let (body, _) = cache.get(&key).expect("refilled");
        assert_eq!(body.bytes, b"recomputed");
    }

    #[test]
    fn panicked_initialization_leaves_the_slot_retryable() {
        let store = ArtifactStore::new();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = store.get_or_compute::<u64, _>(9, || panic!("boom"));
        }));
        assert!(attempt.is_err());
        // The slot was not filled; a clean retry succeeds.
        let v = store.get_or_compute(9, || 5u64).unwrap();
        assert_eq!(*v, 5);
    }
}
