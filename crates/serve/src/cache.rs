//! Content-addressed result cache with LRU byte-budget eviction and
//! single-flight deduplication.
//!
//! The cache maps [`SpecHash`] → `Arc<V>` where `V` is the full
//! figure-table/obs-bundle payload for one spec. Three properties the
//! serving gates depend on:
//!
//! * **Single-flight.** When N clients ask for the same cold spec
//!   concurrently, exactly one runs the simulation; the rest park on a
//!   condvar and receive the same `Arc`. Without this, a popular cold
//!   key stampedes the engine and the "hits are free" contract
//!   collapses exactly when load is highest.
//! * **Byte-budget LRU.** Entries charge their payload size against a
//!   budget; inserting past it evicts least-recently-*used* entries
//!   (a monotonic touch tick, not insert order). In-flight
//!   computations are never evicted.
//! * **Observable.** `serve_cache_hits_total`, `serve_cache_misses_total`,
//!   `serve_cache_evictions_total`, `serve_singleflight_waits_total`
//!   counters and the `serve_cache_bytes` gauge publish through the
//!   shared [`Obs`] registry, so the Prometheus plane sees cache
//!   behavior with no extra plumbing. The series are resolved once, in
//!   [`ResultCache::new`], and exist at 0 from then on; a request bumps
//!   the handle and never goes back to the registry.
//!
//! A hit's critical section is one map probe, one tick store and one
//! `Arc::clone`; its counter is bumped after the lock is released.

use crate::canonical::SpecHash;
use polaris_obs::{Counter, Gauge, Obs};
use polaris_simnet::fasthash::FastHashMap;
use std::sync::{Arc, Condvar, Mutex};

enum Slot<V> {
    /// Someone is computing this entry; waiters park on the condvar.
    Pending,
    Ready {
        value: Arc<V>,
        bytes: u64,
        last_used: u64,
    },
}

struct Inner<V> {
    /// Keys are FNV-128 content addresses: already uniform, so the
    /// multiply-xor hasher spreads them as well as SipHash would.
    map: FastHashMap<u128, Slot<V>>,
    /// Monotonic touch counter driving LRU order.
    tick: u64,
    /// Bytes charged by Ready entries.
    bytes: u64,
}

/// Content-addressed single-flight LRU cache. Cheap to clone-by-Arc via
/// [`ResultCache::handle`]; all clones share one store.
pub struct ResultCache<V> {
    inner: Mutex<Inner<V>>,
    done: Condvar,
    budget: u64,
    obs: Obs,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    singleflight_waits: Counter,
    bytes: Gauge,
}

/// Point-in-time cache counters (mirrors the obs series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub singleflight_waits: u64,
    pub bytes: u64,
    /// Resident results; a slot whose computation is still in flight
    /// is not an entry.
    pub entries: usize,
}

impl<V> ResultCache<V> {
    /// A cache charging entries against `budget_bytes`, publishing its
    /// counters into `obs`.
    pub fn new(budget_bytes: u64, obs: Obs) -> Self {
        ResultCache {
            inner: Mutex::new(Inner { map: FastHashMap::default(), tick: 0, bytes: 0 }),
            done: Condvar::new(),
            budget: budget_bytes,
            hits: obs.counter("serve_cache_hits_total", &[]),
            misses: obs.counter("serve_cache_misses_total", &[]),
            evictions: obs.counter("serve_cache_evictions_total", &[]),
            singleflight_waits: obs.counter("serve_singleflight_waits_total", &[]),
            bytes: obs.gauge("serve_cache_bytes", &[]),
            obs,
        }
    }

    /// Shared handle.
    pub fn handle(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// Look up `key`, or compute it with `compute` under single-flight:
    /// concurrent callers with the same key get the one in-flight
    /// result. `size` prices a freshly computed value for the byte
    /// budget (called once per computation, outside the lock).
    pub fn get_or_compute<F, S>(&self, key: SpecHash, compute: F, size: S) -> Arc<V>
    where
        F: FnOnce() -> V,
        S: FnOnce(&V) -> u64,
    {
        {
            let mut inner = self.inner.lock().unwrap();
            let mut waited = false;
            loop {
                let store = &mut *inner;
                match store.map.get_mut(&key.0) {
                    Some(Slot::Ready { value, last_used, .. }) => {
                        store.tick += 1;
                        *last_used = store.tick;
                        let value = Arc::clone(value);
                        drop(inner);
                        self.hits.add(1);
                        return value;
                    }
                    Some(Slot::Pending) => {
                        // Once per call: `notify_all` also wakes this
                        // waiter for every other key's completion.
                        if !waited {
                            waited = true;
                            self.singleflight_waits.add(1);
                        }
                        // Woken: the leader finished (Ready), died
                        // (slot removed — claim it below), the entry
                        // was since evicted, or another key completed
                        // (still Pending — park again).
                        inner = self.done.wait(inner).unwrap();
                    }
                    None => break,
                }
            }
            // Miss: claim the slot as the computing leader.
            inner.map.insert(key.0, Slot::Pending);
        }
        self.misses.add(1);

        // Compute outside the lock. If `compute` panics, clear the
        // Pending slot and wake waiters so they can elect a new leader
        // instead of parking forever.
        struct Unpend<'a, V> {
            cache: &'a ResultCache<V>,
            key: u128,
            armed: bool,
        }
        impl<V> Drop for Unpend<'_, V> {
            fn drop(&mut self) {
                if self.armed {
                    let mut inner = self.cache.inner.lock().unwrap();
                    if matches!(inner.map.get(&self.key), Some(Slot::Pending)) {
                        inner.map.remove(&self.key);
                    }
                    self.cache.done.notify_all();
                }
            }
        }
        let mut guard = Unpend { cache: self, key: key.0, armed: true };
        let value = Arc::new(compute());
        let bytes = size(&value);
        guard.armed = false;

        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        inner.bytes += bytes;
        inner.map.insert(
            key.0,
            Slot::Ready { value: Arc::clone(&value), bytes, last_used: tick },
        );
        self.evict_locked(&mut inner, key.0);
        self.bytes.set(inner.bytes as f64);
        drop(inner);
        self.done.notify_all();
        value
    }

    /// Evict least-recently-used Ready entries (never Pending, never
    /// `just_inserted` — a value larger than the whole budget must
    /// still be returned and is evicted by the *next* insert) until the
    /// budget holds.
    fn evict_locked(&self, inner: &mut Inner<V>, just_inserted: u128) {
        while inner.bytes > self.budget {
            let victim = inner
                .map
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready { last_used, .. } if *k != just_inserted => {
                        Some((*last_used, *k))
                    }
                    _ => None,
                })
                .min();
            let Some((_, k)) = victim else { break };
            if let Some(Slot::Ready { bytes, .. }) = inner.map.remove(&k) {
                inner.bytes -= bytes;
                self.evictions.add(1);
            }
        }
    }

    /// Current counters (the obs series plus the store).
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            singleflight_waits: self.singleflight_waits.get(),
            bytes: inner.bytes,
            entries: inner.map.values().filter(|s| matches!(s, Slot::Ready { .. })).count(),
        }
    }

    /// The obs bundle the cache publishes into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;

    fn key(n: u64) -> SpecHash {
        SpecHash(n as u128)
    }

    #[test]
    fn second_lookup_hits_without_recompute() {
        let cache: ResultCache<u64> = ResultCache::new(1 << 20, Obs::new());
        let computed = AtomicU64::new(0);
        for _ in 0..3 {
            let v = cache.get_or_compute(
                key(7),
                || {
                    computed.fetch_add(1, Ordering::Relaxed);
                    42
                },
                |_| 8,
            );
            assert_eq!(*v, 42);
        }
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        // Budget fits two 8-byte entries.
        let cache: ResultCache<u64> = ResultCache::new(16, Obs::new());
        cache.get_or_compute(key(1), || 1, |_| 8);
        cache.get_or_compute(key(2), || 2, |_| 8);
        cache.get_or_compute(key(1), || 99, |_| 8); // touch 1 → 2 is now LRU
        cache.get_or_compute(key(3), || 3, |_| 8); // evicts 2
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        // 1 survives (hit), 2 was evicted (recomputes).
        let recomputed = AtomicU64::new(0);
        cache.get_or_compute(key(1), || panic!("must be cached"), |_| 8);
        cache.get_or_compute(
            key(2),
            || {
                recomputed.fetch_add(1, Ordering::Relaxed);
                2
            },
            |_| 8,
        );
        assert_eq!(recomputed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn oversized_entry_is_still_served() {
        let cache: ResultCache<u64> = ResultCache::new(4, Obs::new());
        let v = cache.get_or_compute(key(9), || 5, |_| 1000);
        assert_eq!(*v, 5);
        // It stays resident until the next insert displaces it.
        cache.get_or_compute(key(9), || panic!("resident"), |_| 1000);
        cache.get_or_compute(key(10), || 6, |_| 2);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn single_flight_runs_the_computation_once() {
        let cache = ResultCache::<u64>::new(1 << 20, Obs::new()).handle();
        let computed = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computed = Arc::clone(&computed);
            handles.push(std::thread::spawn(move || {
                let v = cache.get_or_compute(
                    key(5),
                    || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        // Widen the race window so waiters really park.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        77
                    },
                    |_| 8,
                );
                assert_eq!(*v, 77);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(computed.load(Ordering::Relaxed), 1, "exactly one leader computes");
    }

    #[test]
    fn panicking_leader_does_not_wedge_waiters() {
        let cache = ResultCache::<u64>::new(1 << 20, Obs::new()).handle();
        let c2 = Arc::clone(&cache);
        let leader = std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c2.get_or_compute(key(3), || panic!("boom"), |_| 8)
            }));
            assert!(r.is_err());
        });
        leader.join().unwrap();
        // A later caller becomes the new leader and succeeds.
        let v = cache.get_or_compute(key(3), || 11, |_| 8);
        assert_eq!(*v, 11);
    }

    /// Two keys in flight: a waiter parked on A is woken by every B's
    /// completion (`notify_all` is per cache, not per key), finds A
    /// still pending and parks again. That is one wait, however often
    /// it woke.
    #[test]
    fn a_wait_is_counted_once_however_often_it_wakes() {
        let cache = ResultCache::<u64>::new(1 << 20, Obs::new());
        let cache = &cache;
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        // Nothing is asserted while the leader is held: a panic in the
        // scope would wait for a release that never comes.
        let (mid, answers) = std::thread::scope(|scope| {
            let leader = scope.spawn(move || {
                let held = || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    10
                };
                *cache.get_or_compute(key(1), held, |_| 8)
            });
            started_rx.recv().unwrap();
            let waiter = scope.spawn(move || {
                *cache.get_or_compute(key(1), || panic!("the leader computes"), |_| 8)
            });
            // The wait is counted under the lock, which the waiter
            // gives up only by parking: once it shows, it is parked.
            while cache.stats().singleflight_waits == 0 {
                std::thread::yield_now();
            }
            for b in 2..10 {
                cache.get_or_compute(key(b), || b, |_| 8);
                std::thread::yield_now();
            }
            let mid = cache.stats();
            release_tx.send(()).unwrap();
            (mid, [leader.join().unwrap(), waiter.join().unwrap()])
        });
        assert_eq!(answers, [10, 10]);
        let stats = cache.stats();
        assert_eq!(stats.singleflight_waits, 1);
        assert_eq!(mid.entries, 8, "A is in flight, not an entry");
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 9, 9));
    }
}
