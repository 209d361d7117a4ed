//! Metrics primitives: monotonic counters, gauges, log-bucketed
//! histograms, and the registry that names them.
//!
//! All handles are `Arc`-backed and cheap to clone; instrumented code
//! caches a handle once and bumps it on the hot path without touching
//! the registry lock again. Registry keys are `name{label="value",..}`
//! with labels sorted by key, so iteration order — and therefore every
//! export — is deterministic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sub-buckets per octave in [`Histogram`] (log-linear, HDR-style).
pub const SUB_BUCKETS: usize = 16;

/// Total bucket count: 16 exact buckets for values `0..16`, then 16
/// sub-buckets for each of the 60 remaining octaves of `u64`.
pub const NUM_BUCKETS: usize = SUB_BUCKETS + 60 * SUB_BUCKETS;

/// Bucket index for a recorded value. Values below 16 get exact
/// single-value buckets; above that, each power-of-two octave is split
/// into 16 linear sub-buckets, bounding relative quantile error at
/// 1/16 ≈ 6%.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= 4
    let sub = ((v >> (msb - 4)) & 0xF) as usize;
    (msb - 3) * SUB_BUCKETS + sub
}

/// Inclusive `[lo, hi]` range of values landing in bucket `idx`.
/// Bucket 0 starts at 0, bucket `NUM_BUCKETS - 1` ends at `u64::MAX`,
/// and consecutive buckets tile `u64` without gaps — the property
/// suite proves all three.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    assert!(idx < NUM_BUCKETS, "bucket index {idx} out of range");
    if idx < SUB_BUCKETS {
        return (idx as u64, idx as u64);
    }
    let octave = idx / SUB_BUCKETS; // >= 1
    let sub = (idx % SUB_BUCKETS) as u64;
    let shift = octave - 1;
    let lo = (SUB_BUCKETS as u64 + sub) << shift;
    let hi = lo + ((1u64 << shift) - 1);
    (lo, hi)
}

/// Atomically add with saturation (counters and histogram sums must
/// never wrap backwards, even under pathological property inputs).
fn saturating_fetch_add(cell: &AtomicU64, v: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(v);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Monotonic counter. The API exposes no decrement, so the value never
/// goes down — the property suite asserts this over arbitrary
/// operation sequences.
#[derive(Clone, Default, Debug)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, v: u64) {
        saturating_fetch_add(&self.value, v);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge holding an `f64` (stored as raw bits).
#[derive(Clone, Default, Debug)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Log-linear latency histogram covering all of `u64`.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

struct HistInner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        let mut buckets = Vec::with_capacity(NUM_BUCKETS);
        buckets.resize_with(NUM_BUCKETS, AtomicU64::default);
        Histogram {
            inner: Arc::new(HistInner {
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&self, v: u64) {
        self.inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        saturating_fetch_add(&self.inner.sum, v);
    }

    /// Fold `other`'s observations into `self` (bucket-wise saturating
    /// add). Merge is associative and commutative — the property suite
    /// proves it on snapshots.
    pub fn merge_from(&self, other: &Histogram) {
        for (dst, src) in self.inner.buckets.iter().zip(&other.inner.buckets) {
            saturating_fetch_add(dst, src.load(Ordering::Relaxed));
        }
        saturating_fetch_add(&self.inner.count, other.inner.count.load(Ordering::Relaxed));
        saturating_fetch_add(&self.inner.sum, other.inner.sum.load(Ordering::Relaxed));
    }

    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Saturating sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// The `q`-quantile observation (`q` in `(0, 1]`), interpolated
    /// within the bucket holding it; see [`HistogramSnapshot::quantile`]
    /// for the edge cases (`q <= 0`, empty histogram) and the residual
    /// half-sub-bucket resolution limit.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Immutable point-in-time copy of a [`Histogram`], used by exporters
/// and the property suite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile of the recorded values, interpolated within the
    /// bucket that holds it.
    ///
    /// Defined edge cases: an **empty histogram** returns 0 (there is no
    /// observation to bound), and **`q <= 0`** (including `-0.0` and
    /// anything that rounds to rank 0) returns the *lower* bound of the
    /// lowest recorded bucket — the minimum observation's bucket floor —
    /// rather than an arbitrary bucket's upper bound.
    ///
    /// For `q > 0` the rank-`⌈q·count⌉` observation is located and its
    /// value estimated by linear interpolation across its bucket's
    /// `[lo, hi]` range, placing the `k`-th of the bucket's `n` occupants
    /// at the midpoint of its rank slot (`lo + (hi−lo)·(k−½)/n`). Exact
    /// buckets (values below 16) report the value itself. This replaces
    /// the earlier bucket-upper-bound convention, whose reported
    /// quantiles read up to one log-linear sub-bucket (~6%) high; the
    /// interpolated estimate is unbiased under a within-bucket uniform
    /// assumption, with residual error bounded by half a sub-bucket
    /// (~±3%).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil() as u64;
        if rank == 0 {
            // q <= 0: the minimum observation, reported by its bucket
            // floor so the value never exceeds anything recorded.
            let first = self.buckets.iter().position(|&n| n > 0);
            return first.map_or(0, |idx| bucket_bounds(idx).0);
        }
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if seen.saturating_add(n) >= rank {
                let (lo, hi) = bucket_bounds(idx);
                if lo == hi {
                    return lo;
                }
                // Rank position within this bucket's occupants, mapped
                // to the midpoint of its slot in [lo, hi].
                let pos = rank - seen; // 1..=n
                let frac = (pos as f64 - 0.5) / n as f64;
                return lo + ((hi - lo) as f64 * frac).round() as u64;
            }
            seen = seen.saturating_add(n);
        }
        bucket_bounds(NUM_BUCKETS - 1).1
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// Named metric store. Keys are `name{label="value",..}` with labels
/// sorted, so every snapshot iterates in one canonical order.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Registry")
    }
}

/// Canonical registry key for a name + label set.
pub fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_unstable();
    let mut key = String::with_capacity(name.len() + 16 * sorted.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push_str("=\"");
        key.push_str(v);
        key.push('"');
    }
    key.push('}');
    key
}

/// Fetch-or-create in one series map. A label-free key is the name
/// itself, so it is looked up as the `&str` it arrived as and a
/// `String` is built only to insert.
fn series<T: Default + Clone>(
    map: &mut BTreeMap<String, T>,
    name: &str,
    labels: &[(&str, &str)],
) -> T {
    if labels.is_empty() {
        if let Some(found) = map.get(name) {
            return found.clone();
        }
    }
    map.entry(metric_key(name, labels)).or_default().clone()
}

/// Read-only counterpart of [`series`]: never materializes one.
fn existing<'a, T>(
    map: &'a BTreeMap<String, T>,
    name: &str,
    labels: &[(&str, &str)],
) -> Option<&'a T> {
    if labels.is_empty() {
        map.get(name)
    } else {
        map.get(&metric_key(name, labels))
    }
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch-or-create the counter for `name` + `labels`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        series(&mut self.inner.lock().unwrap().counters, name, labels)
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        series(&mut self.inner.lock().unwrap().gauges, name, labels)
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        series(&mut self.inner.lock().unwrap().histograms, name, labels)
    }

    /// Current value of a counter, 0 if it was never created (reading
    /// must not materialize series).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        existing(&self.inner.lock().unwrap().counters, name, labels).map_or(0, Counter::get)
    }

    /// Current value of a gauge, 0.0 if absent.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        existing(&self.inner.lock().unwrap().gauges, name, labels).map_or(0.0, Gauge::get)
    }

    /// Fold every series of `other` into `self`: counters add, gauges
    /// take `other`'s value (last-write-wins, in merge-call order), and
    /// histograms merge bucket-wise. Used by the parallel sweep harness
    /// to combine per-trial isolated registries — merging trial
    /// registries in trial-index order reproduces the series a single
    /// shared registry would have held, because counter/histogram merge
    /// is commutative and the sweep points write disjoint gauge keys.
    pub fn merge_from(&self, other: &Registry) {
        let src = other.inner.lock().unwrap();
        let mut dst = self.inner.lock().unwrap();
        for (k, c) in &src.counters {
            dst.counters.entry(k.clone()).or_default().add(c.get());
        }
        for (k, g) in &src.gauges {
            dst.gauges.entry(k.clone()).or_default().set(g.get());
        }
        for (k, h) in &src.histograms {
            dst.histograms.entry(k.clone()).or_default().merge_from(h);
        }
    }

    /// Sorted `(key, value)` snapshot of all counters.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        self.inner
            .lock()
            .unwrap()
            .counters
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect()
    }

    /// Sorted `(key, value)` snapshot of all gauges.
    pub fn gauges_snapshot(&self) -> Vec<(String, f64)> {
        self.inner
            .lock()
            .unwrap()
            .gauges
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect()
    }

    /// Sorted `(key, snapshot)` of all histograms.
    pub fn histograms_snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        self.inner
            .lock()
            .unwrap()
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_tiles_u64() {
        assert_eq!(bucket_bounds(0).0, 0);
        assert_eq!(bucket_bounds(NUM_BUCKETS - 1).1, u64::MAX);
        for idx in 0..NUM_BUCKETS - 1 {
            let (_, hi) = bucket_bounds(idx);
            let (lo_next, _) = bucket_bounds(idx + 1);
            assert_eq!(hi + 1, lo_next, "gap/overlap after bucket {idx}");
        }
    }

    #[test]
    fn bucket_index_lands_in_bounds() {
        for v in [0, 1, 15, 16, 17, 31, 32, 1000, 1 << 40, u64::MAX] {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "{v} not in [{lo}, {hi}]");
        }
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new();
        for v in 0..10 {
            h.record(v); // exact buckets report the value itself
        }
        assert_eq!(h.quantile(0.5), 4);
        assert_eq!(h.quantile(1.0), 9);
        h.record(1_000_000);
        // A single occupant interpolates to its bucket's midpoint —
        // inside the bucket, no longer pinned to the upper bound.
        let p999 = h.quantile(0.999);
        let (lo, hi) = bucket_bounds(bucket_index(1_000_000));
        assert_eq!(p999, lo + ((hi - lo) as f64 * 0.5).round() as u64);
        assert!(lo <= p999 && p999 <= hi);
    }

    /// Interpolation splits a bucket's range across its occupants: with
    /// many observations in one bucket, low ranks resolve near `lo`,
    /// high ranks near `hi`, and the estimate is monotone in `q`.
    #[test]
    fn quantiles_spread_across_a_shared_bucket() {
        let h = Histogram::new();
        let (lo, hi) = bucket_bounds(bucket_index(1_000));
        for _ in 0..100 {
            h.record(1_000);
        }
        let p01 = h.quantile(0.01);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(lo <= p01 && p01 <= p50 && p50 <= p99 && p99 <= hi);
        let width = hi - lo;
        assert!(p01 < lo + width / 10, "low rank must sit near lo, got {p01}");
        assert!(p99 > hi - width / 10, "high rank must sit near hi, got {p99}");
    }

    /// Regression: the empty histogram and `q = 0` must return defined
    /// values. Pre-fix, `q = 0` clamped to rank 1 and returned the first
    /// non-empty bucket's *upper* bound — an arbitrary value above the
    /// true minimum.
    #[test]
    fn quantile_edge_cases_are_defined() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.0), 0, "empty histogram must report 0");
        assert_eq!(h.quantile(0.99), 0, "empty histogram must report 0");
        h.record(100);
        h.record(5000);
        let q0 = h.quantile(0.0);
        assert!(q0 <= 100, "q=0 must not exceed the minimum observation, got {q0}");
        assert_eq!(q0, bucket_bounds(bucket_index(100)).0, "minimum's bucket floor");
        assert_eq!(h.quantile(-1.0), q0, "q below 0 clamps to the minimum");
        // Positive quantiles interpolate inside the rank's bucket.
        let (lo, hi) = bucket_bounds(bucket_index(5000));
        let p100 = h.quantile(1.0);
        assert!(lo <= p100 && p100 <= hi, "max must stay inside its bucket");
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("ops_total", &[("kind", "send")]);
        c.inc();
        c.add(4);
        assert_eq!(r.counter_value("ops_total", &[("kind", "send")]), 5);
        // Same name+labels in any order resolves to the same series.
        let c2 = r.counter("ops_total", &[("kind", "send")]);
        c2.inc();
        assert_eq!(c.get(), 6);
        let g = r.gauge("depth", &[]);
        g.set(2.5);
        assert_eq!(r.gauge_value("depth", &[]), 2.5);
    }

    #[test]
    fn label_order_is_canonical() {
        assert_eq!(
            metric_key("m", &[("b", "2"), ("a", "1")]),
            metric_key("m", &[("a", "1"), ("b", "2")]),
        );
    }

    #[test]
    fn registry_merge_matches_shared_writes() {
        // Two isolated registries merged in order must equal one shared
        // registry that saw the same writes.
        let shared = Registry::new();
        let a = Registry::new();
        let b = Registry::new();
        for r in [&shared, &a] {
            r.counter("n", &[("k", "1")]).add(3);
            r.histogram("h", &[]).record(7);
            r.gauge("g", &[("k", "1")]).set(1.5);
        }
        for r in [&shared, &b] {
            r.counter("n", &[("k", "1")]).add(2);
            r.counter("n", &[("k", "2")]).inc();
            r.histogram("h", &[]).record(9);
            r.gauge("g", &[("k", "2")]).set(2.5);
        }
        let merged = Registry::new();
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.counters_snapshot(), shared.counters_snapshot());
        assert_eq!(merged.gauges_snapshot(), shared.gauges_snapshot());
        assert_eq!(merged.histograms_snapshot(), shared.histograms_snapshot());
    }

    #[test]
    fn merge_accumulates() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(3);
        b.record(3);
        b.record(100);
        a.merge_from(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 106);
        assert_eq!(a.snapshot().buckets[bucket_index(3)], 2);
    }
}
