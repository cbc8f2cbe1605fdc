//! Named counters, gauges and log-linear histograms behind sharded
//! atomics.
//!
//! Handles are `Arc`s resolved once by name from a [`Registry`]; the hot
//! path then costs one relaxed atomic RMW — no lock, and for counters no
//! shared cache line either (per-thread shard striping). A registry is a
//! plain value, so an owner (one `pqe-serve` server, say) keeps its own
//! books; the free functions [`counter`] / [`gauge`] / [`histogram`] /
//! [`snapshot`] address the process-wide default registry, which the
//! estimators, the router and the CLI's `--profile` report use.
//!
//! Histograms use log-linear buckets (8 sub-buckets per octave, ≤ 9.4 %
//! relative width), the standard HdrHistogram-style layout: cheap O(1)
//! recording, percentile queries by a bucket walk. Values are whatever
//! unit the caller picks; the serve stack records microseconds.
//!
//! Metrics are always on (unlike spans): they are aggregate-only, so the
//! steady-state cost is a handful of atomic adds per request/sample loop.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Cache-line-padded atomic, so counter shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

const COUNTER_SHARDS: usize = 8;

static NEXT_THREAD_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Round-robin shard assignment per thread.
    static THREAD_SHARD: usize =
        NEXT_THREAD_SHARD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
}

/// A monotone counter striped across cache-line-padded shards.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl Counter {
    /// Adds `n` (relaxed; one uncontended atomic add in steady state).
    pub fn add(&self, n: u64) {
        let shard = THREAD_SHARD.with(|s| *s);
        self.shards[shard].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total across all shards.
    pub fn get(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// A last-write-wins signed gauge.
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-buckets per octave (3 bits of mantissa precision).
const SUB: usize = 8;
/// Bucket count: values `0..8` map to identity buckets `0..8`; each
/// octave `msb = 3..=63` contributes 8 more.
const NBUCKETS: usize = SUB + (64 - 3) * SUB;

/// Index of the log-linear bucket covering `v`.
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // ≥ 3
    let sub = ((v >> (msb - 3)) & 7) as usize;
    (msb - 3) * SUB + SUB + sub
}

/// Inclusive lower bound of bucket `b`.
fn bucket_lo(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    let o = (b - SUB) / SUB;
    let sub = (b - SUB) % SUB;
    ((SUB + sub) as u64) << o
}

/// Representative value of bucket `b` (midpoint of its range).
fn bucket_mid(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    let o = (b - SUB) / SUB;
    bucket_lo(b) + (1u64 << o) / 2
}

/// A log-linear histogram: O(1) recording, percentile walk on read.
pub struct Histogram {
    buckets: Box<[AtomicU64; NBUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..NBUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect::<Vec<_>>()
                .try_into()
                .ok()
                .map(Box::new)
                .expect("bucket count matches"),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation (four relaxed atomic RMWs).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// An immutable snapshot with precomputed percentiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let counts: Vec<u64> =
            self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let min = if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) };
        let max = self.max.load(Ordering::Relaxed);
        let pct = |p: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // Rank of the p-th percentile observation (1-based ceil).
            let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            let b = counts
                .iter()
                .position(|&c| {
                    seen += c;
                    seen >= rank
                })
                .unwrap_or(NBUCKETS - 1);
            // A midpoint may lie outside the observed range (1000 alone
            // reads 992), so clamp into [min, max]; not `clamp`, which
            // panics when a snapshot racing the first `record` has min > max.
            bucket_mid(b).max(min).min(max)
        };
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min,
            max,
            p50: pct(50.0),
            p95: pct(95.0),
            p99: pct(99.0),
        }
    }
}

/// Point-in-time percentile summary of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// Percentiles are bucket midpoints clamped into `[min, max]`:
    /// ≤ 9.4 % relative error.
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the recorded values (exact, from `sum`).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A set of named metrics. Each name resolves to one shared handle per
/// registry; two registries never see each other's metrics.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// The handle named `name` in `map`, created on first use.
fn resolve<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut m = map.lock().expect("metrics poisoned");
    Arc::clone(m.entry(name.to_owned()).or_default())
}

/// Name-sorted `(name, get(handle))` pairs of `map`.
fn read<T, V>(map: &Mutex<BTreeMap<String, Arc<T>>>, get: impl Fn(&T) -> V) -> Vec<(String, V)> {
    let m = map.lock().expect("metrics poisoned");
    m.iter().map(|(k, v)| (k.clone(), get(v))).collect()
}

impl Registry {
    /// The counter named `name`, created on first use. Resolve once and
    /// keep the `Arc` on hot paths.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        resolve(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        resolve(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        resolve(&self.histograms, name)
    }

    /// Snapshots every metric of this registry (names sorted —
    /// deterministic order).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: read(&self.counters, Counter::get),
            gauges: read(&self.gauges, Gauge::get),
            histograms: read(&self.histograms, Histogram::snapshot),
        }
    }
}

/// Name-sorted snapshot of every metric in a registry.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

static DEFAULT: OnceLock<Registry> = OnceLock::new();

/// The process-wide default registry.
fn default_registry() -> &'static Registry {
    DEFAULT.get_or_init(Registry::default)
}

/// The process-wide counter named `name` (see [`Registry::counter`]).
pub fn counter(name: &str) -> Arc<Counter> {
    default_registry().counter(name)
}

/// The process-wide gauge named `name`, created on first use.
pub fn gauge(name: &str) -> Arc<Gauge> {
    default_registry().gauge(name)
}

/// The process-wide histogram named `name`, created on first use.
pub fn histogram(name: &str) -> Arc<Histogram> {
    default_registry().histogram(name)
}

/// Snapshots the process-wide registry (names sorted).
pub fn snapshot() -> MetricsSnapshot {
    default_registry().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_u64_range() {
        // Identity below SUB, contiguous and monotone after.
        for v in 0..64u64 {
            let b = bucket_of(v);
            assert!(bucket_lo(b) <= v, "v={v} b={b}");
            if b + 1 < NBUCKETS {
                assert!(v < bucket_lo(b + 1), "v={v} b={b}");
            }
        }
        for shift in 3..63 {
            let v = 1u64 << shift;
            assert_eq!(bucket_lo(bucket_of(v)), v);
        }
        assert_eq!(bucket_of(u64::MAX), NBUCKETS - 1);
        // Relative bucket width ≤ 1/8 of the value at the octave floor.
        let v = 1_000_000u64;
        let b = bucket_of(v);
        let width = bucket_lo(b + 1) - bucket_lo(b);
        assert!(width as f64 / v as f64 <= 0.125 + 1e-9);
    }

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(Counter::default());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn gauge_set_add_get() {
        let g = Gauge::default();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_percentiles_are_order_of_magnitude_right() {
        let h = Histogram::default();
        // 100 observations: 1..=100.
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert!((s.mean() - 50.5).abs() < 1e-9);
        // Bucket midpoints: within one bucket (≤ 12.5 %) of the exact value.
        assert!(s.p50 >= 44 && s.p50 <= 57, "p50={}", s.p50);
        assert!(s.p95 >= 84 && s.p95 <= 107, "p95={}", s.p95);
        assert!(s.p99 >= 87 && s.p99 <= 112, "p99={}", s.p99);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let h = Histogram::default();
        let s = h.snapshot();
        assert_eq!(s, HistogramSnapshot::default());
    }

    #[test]
    fn registry_returns_same_handle_and_snapshots_sorted() {
        let a = counter("t_reg.b");
        let b = counter("t_reg.b");
        let _ = counter("t_reg.a");
        a.add(5);
        b.add(2);
        let snap = snapshot();
        let names: Vec<&str> = snap
            .counters
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| n.starts_with("t_reg."))
            .collect();
        assert_eq!(names, vec!["t_reg.a", "t_reg.b"]);
        let total = snap.counters.iter().find(|(n, _)| n == "t_reg.b").unwrap().1;
        assert_eq!(total, 7);
    }
}
