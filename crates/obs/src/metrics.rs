//! The global metrics registry: named counters, gauges, and
//! fixed-bucket histograms with atomic updates.
//!
//! Handles are `Arc`-backed and cheap to clone; the registry maps names
//! to handles in `BTreeMap`s so snapshots iterate in a deterministic
//! order. [`Registry::reset`] zeroes values *in place* — it never
//! removes entries — so handles cached by [`crate::counter_add!`] call
//! sites survive across runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// A monotonically increasing counter. Cloning shares the value.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `delta` (relaxed; safe from any thread).
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: self-contained stats cell; readers tolerate a stale
        // count and no other memory is published through it.
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        // ordering: report-boundary reset of a stats cell; callers
        // serialize phases themselves (see `Registry::reset`).
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins `f64` gauge (stored as bits in an `AtomicU64`).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        // ordering: last-write-wins stats cell; the bits are the whole
        // payload, so no Release fence is needed to publish them.
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        // ordering: stats read; staleness is acceptable.
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        // ordering: report-boundary reset of a stats cell.
        self.0.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// A histogram with fixed upper-bound buckets plus an overflow bucket.
///
/// `bounds` are ascending inclusive upper edges; an observation lands in
/// the first bucket whose bound is `>= x`, or in the overflow bucket.
/// Bucket counts are atomic, so observation is hot-loop safe.
#[derive(Clone, Debug)]
pub struct HistogramMetric {
    inner: Arc<HistInner>,
}

#[derive(Debug)]
struct HistInner {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>, // bounds.len() + 1 (last = overflow)
}

impl HistogramMetric {
    fn new(bounds: &[f64]) -> HistogramMetric {
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        HistogramMetric {
            inner: Arc::new(HistInner {
                bounds: bounds.to_vec(),
                counts,
            }),
        }
    }

    /// Records one observation.
    pub fn observe(&self, x: f64) {
        let b = self
            .inner
            .bounds
            .iter()
            .position(|&ub| x <= ub)
            .unwrap_or(self.inner.bounds.len());
        self.inner.counts[b].fetch_add(1, Ordering::Relaxed);
    }

    /// The configured upper bounds (excludes the overflow bucket).
    pub fn bounds(&self) -> &[f64] {
        &self.inner.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn counts(&self) -> Vec<u64> {
        self.inner
            .counts
            .iter()
            // ordering: each bucket is an independent stats cell; a
            // snapshot taken mid-observation is acceptable.
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Total observations across all buckets.
    pub fn total(&self) -> u64 {
        self.counts().iter().sum()
    }

    fn reset(&self) {
        for c in self.inner.counts.iter() {
            // ordering: report-boundary reset of independent stats cells.
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// A latency histogram over wall-clock nanoseconds, log2-bucketed.
///
/// Unlike [`HistogramMetric`], whose bucket counts are part of the
/// deterministic report surface, a `WallHistogram` records *timings*:
/// only its total observation count is deterministic; the quantiles it
/// reports appear in `wall_`-prefixed fields that
/// [`crate::report::mask_wall_clock`] zeroes. Bucket `b` holds
/// observations with `ns` in `[2^(b-1), 2^b)`, so 64 buckets cover the
/// full `u64` range with ≤ 2x quantile error — plenty for p50/p90
/// service-latency reporting.
#[derive(Clone, Debug)]
pub struct WallHistogram {
    inner: Arc<WallHistInner>,
}

#[derive(Debug)]
struct WallHistInner {
    /// counts[b] = observations with bucket(ns) == b; bucket 0 is ns == 0.
    counts: Vec<AtomicU64>,
    max_ns: AtomicU64,
}

/// A frozen quantile summary of one [`WallHistogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WallHistStat {
    /// Total observations (deterministic given deterministic traffic).
    pub count: u64,
    /// Median latency upper bound in nanoseconds (wall clock).
    pub p50_ns: u64,
    /// 90th-percentile latency upper bound in nanoseconds (wall clock).
    pub p90_ns: u64,
    /// Largest single observation in nanoseconds (wall clock).
    pub max_ns: u64,
}

impl WallHistogram {
    fn new() -> WallHistogram {
        WallHistogram {
            inner: Arc::new(WallHistInner {
                counts: (0..65).map(|_| AtomicU64::new(0)).collect(),
                max_ns: AtomicU64::new(0),
            }),
        }
    }

    /// `ns == 0` lands in bucket 0; otherwise bucket `64 - leading_zeros`.
    fn bucket(ns: u64) -> usize {
        (64 - ns.leading_zeros()) as usize
    }

    /// Records one wall-clock observation.
    pub fn observe_ns(&self, ns: u64) {
        self.inner.counts[Self::bucket(ns)].fetch_add(1, Ordering::Relaxed);
        self.inner.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] observation.
    pub fn observe(&self, d: std::time::Duration) {
        self.observe_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.inner
            .counts
            .iter()
            // ordering: independent stats cells; a mid-observation
            // snapshot is acceptable for latency reporting.
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Upper bound (ns) of the bucket containing quantile `q` in `[0,1]`,
    /// clamped to the observed maximum. 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .inner
            .counts
            .iter()
            // ordering: stats snapshot; quantiles already carry ≤ 2x
            // bucket error, so torn cross-bucket reads are in budget.
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (b, &c) in counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                // Inclusive upper edge of bucket b: 2^b - 1 (bucket 0 is
                // exactly 0).
                let edge = if b == 0 {
                    0
                } else {
                    (1u64 << b).wrapping_sub(1)
                };
                // ordering: stats read of a fetch_max cell.
                return edge.min(self.inner.max_ns.load(Ordering::Relaxed));
            }
        }
        // ordering: stats read of a fetch_max cell.
        self.inner.max_ns.load(Ordering::Relaxed)
    }

    /// A frozen `{count, p50, p90, max}` summary.
    pub fn snapshot(&self) -> WallHistStat {
        WallHistStat {
            count: self.count(),
            p50_ns: self.quantile_ns(0.5),
            p90_ns: self.quantile_ns(0.9),
            // ordering: stats read of a fetch_max cell.
            max_ns: self.inner.max_ns.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for c in self.inner.counts.iter() {
            // ordering: report-boundary reset of independent stats cells.
            c.store(0, Ordering::Relaxed);
        }
        // ordering: report-boundary reset of a stats cell.
        self.inner.max_ns.store(0, Ordering::Relaxed);
    }
}

/// The process-global metric tables.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, HistogramMetric>>,
    wall_hists: Mutex<BTreeMap<String, WallHistogram>>,
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Registry {
    /// Returns the counter registered under `name`, creating it at zero
    /// on first use.
    pub fn counter(&self, name: &str) -> Counter {
        relock(&self.counters)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns the gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        relock(&self.gauges)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns the histogram registered under `name`. The first caller
    /// fixes the bucket bounds; later bounds are ignored.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> HistogramMetric {
        relock(&self.histograms)
            .entry(name.to_string())
            .or_insert_with(|| HistogramMetric::new(bounds))
            .clone()
    }

    /// Returns the wall-clock latency histogram registered under `name`.
    pub fn wall_hist(&self, name: &str) -> WallHistogram {
        relock(&self.wall_hists)
            .entry(name.to_string())
            .or_insert_with(WallHistogram::new)
            .clone()
    }

    /// Zeroes every registered value in place. Entries (and therefore
    /// cached handles) are preserved.
    pub fn reset(&self) {
        for c in relock(&self.counters).values() {
            c.reset();
        }
        for g in relock(&self.gauges).values() {
            g.reset();
        }
        for h in relock(&self.histograms).values() {
            h.reset();
        }
        for w in relock(&self.wall_hists).values() {
            w.reset();
        }
    }

    /// Counter names and values, sorted by name.
    pub fn counter_values(&self) -> BTreeMap<String, u64> {
        relock(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Gauge names and values, sorted by name.
    pub fn gauge_values(&self) -> BTreeMap<String, f64> {
        relock(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Histogram names with `(bounds, counts)`, sorted by name.
    pub fn histogram_values(&self) -> BTreeMap<String, (Vec<f64>, Vec<u64>)> {
        relock(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), (v.bounds().to_vec(), v.counts())))
            .collect()
    }

    /// Wall-histogram names with quantile snapshots, sorted by name.
    pub fn wall_hist_values(&self) -> BTreeMap<String, WallHistStat> {
        relock(&self.wall_hists)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }
}

/// The process-global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Shorthand for `registry().counter(name)`.
pub fn counter(name: &str) -> Counter {
    registry().counter(name)
}

/// Shorthand for `registry().gauge(name)`.
pub fn gauge(name: &str) -> Gauge {
    registry().gauge(name)
}

/// Shorthand for `registry().histogram(name, bounds)`.
pub fn histogram(name: &str, bounds: &[f64]) -> HistogramMetric {
    registry().histogram(name, bounds)
}

/// Shorthand for `registry().wall_hist(name)`.
pub fn wall_hist(name: &str) -> WallHistogram {
    registry().wall_hist(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock;

    #[test]
    fn counters_accumulate_across_threads() {
        let _g = lock();
        crate::reset();
        let c = counter("test.metrics.threads");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn gauge_round_trips_f64() {
        let _g = lock();
        crate::reset();
        let g = gauge("test.metrics.gauge");
        g.set(-3.75);
        assert_eq!(g.get(), -3.75);
        g.set(1e18);
        assert_eq!(g.get(), 1e18);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let _g = lock();
        crate::reset();
        let h = histogram("test.metrics.hist", &[1.0, 10.0, 100.0]);
        // Exactly on a bound lands in that bucket (inclusive upper edge).
        for x in [0.5, 1.0] {
            h.observe(x);
        }
        for x in [1.0001, 10.0] {
            h.observe(x);
        }
        for x in [10.5, 100.0] {
            h.observe(x);
        }
        for x in [100.0001, 1e9] {
            h.observe(x);
        }
        assert_eq!(h.counts(), vec![2, 2, 2, 2]);
        assert_eq!(h.total(), 8);
    }

    #[test]
    fn histogram_bounds_fixed_by_first_registration() {
        let _g = lock();
        crate::reset();
        let a = histogram("test.metrics.hist_fixed", &[5.0]);
        let b = histogram("test.metrics.hist_fixed", &[99.0, 100.0]);
        assert_eq!(b.bounds(), a.bounds());
    }

    #[test]
    fn wall_hist_quantiles_bracket_observations() {
        let _g = lock();
        crate::reset();
        let w = wall_hist("test.metrics.wall");
        // 9 fast observations and one slow outlier: p50 stays near the
        // fast cluster, p90 reaches the outlier's bucket, max is exact.
        for _ in 0..9 {
            w.observe_ns(1_000);
        }
        w.observe_ns(1_000_000);
        let s = w.snapshot();
        assert_eq!(s.count, 10);
        assert!(s.p50_ns >= 1_000 && s.p50_ns < 2_048, "p50 {}", s.p50_ns);
        assert!(s.p90_ns >= 1_000 && s.p90_ns < 2_048, "p90 {}", s.p90_ns);
        assert_eq!(s.max_ns, 1_000_000);
        // The 95th percentile reaches the outlier.
        assert!(w.quantile_ns(0.95) >= 524_288, "{}", w.quantile_ns(0.95));
    }

    #[test]
    fn wall_hist_empty_and_zero() {
        let _g = lock();
        crate::reset();
        let w = wall_hist("test.metrics.wall_empty");
        assert_eq!(w.snapshot(), WallHistStat::default());
        w.observe_ns(0);
        let s = w.snapshot();
        assert_eq!((s.count, s.p50_ns, s.max_ns), (1, 0, 0));
    }

    #[test]
    fn wall_hist_resets_in_place() {
        let _g = lock();
        crate::reset();
        let w = wall_hist("test.metrics.wall_reset");
        w.observe_ns(500);
        crate::reset();
        assert_eq!(w.count(), 0);
        w.observe(std::time::Duration::from_micros(2));
        assert_eq!(w.count(), 1);
        assert_eq!(w.snapshot().max_ns, 2_000);
    }

    #[test]
    fn snapshot_maps_are_name_sorted() {
        let _g = lock();
        crate::reset();
        counter("test.sorted.b").add(2);
        counter("test.sorted.a").add(1);
        let names: Vec<String> = registry()
            .counter_values()
            .into_keys()
            .filter(|k| k.starts_with("test.sorted."))
            .collect();
        assert_eq!(names, vec!["test.sorted.a", "test.sorted.b"]);
    }
}
