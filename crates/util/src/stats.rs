//! Summary and streaming statistics, histograms, and empirical CDFs.
//!
//! These back Table 2 (avg/sd/max of typical-cascade sizes), Figure 3
//! (probability CDFs), Figure 4 (time distributions) and Figure 5
//! (cost-vs-size buckets) in the experiment harness.

/// Streaming mean/variance via Welford's algorithm, plus min/max.
///
/// Numerically stable for long streams; `O(1)` space.
#[derive(Clone, Debug, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; 0 for fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample (Bessel-corrected) standard deviation; 0 for < 2 observations.
    pub fn sample_sd(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Population standard deviation.
    pub fn sd(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; +inf when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; -inf when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A one-shot five-number-ish summary of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected).
    pub sd: f64,
    /// Minimum.
    pub min: f64,
    /// Median (50th percentile, linear interpolation).
    pub median: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a slice. Returns a zeroed summary for empty input.
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                sd: 0.0,
                min: 0.0,
                median: 0.0,
                max: 0.0,
            };
        }
        let mut rs = RunningStats::new();
        for &x in xs {
            rs.push(x);
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            count: xs.len(),
            mean: rs.mean(),
            sd: rs.sample_sd(),
            min: rs.min(),
            median: percentile_sorted(&sorted, 50.0),
            max: rs.max(),
        }
    }
}

/// Percentile (0–100) of an ascending-sorted slice with linear interpolation.
///
/// Panics on an empty slice; clamps `p` into `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Points `(x, F(x))` of the empirical CDF of a sample, one per distinct
/// value, suitable for plotting Figure 3-style probability CDFs.
pub fn empirical_cdf(xs: &[f64]) -> Vec<(f64, f64)> {
    if xs.is_empty() {
        return Vec::new();
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let mut out: Vec<(f64, f64)> = Vec::new();
    for (i, &x) in sorted.iter().enumerate() {
        let frac = (i + 1) as f64 / n;
        match out.last_mut() {
            Some(last) if last.0 == x => last.1 = frac,
            _ => out.push((x, frac)),
        }
    }
    out
}

/// A fixed-width histogram over `[lo, hi)` with `buckets` equal bins.
///
/// Out-of-range observations clamp into the first/last bin so nothing is
/// silently dropped (experiment binaries report totals).
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `buckets` bins spanning `[lo, hi)`.
    ///
    /// Panics unless `lo < hi` and `buckets > 0`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo < hi, "lo must be < hi");
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            lo,
            hi,
            counts: vec![0; buckets],
        }
    }

    /// Adds one observation (clamped into range).
    pub fn push(&mut self, x: f64) {
        let b = self.bucket_of(x);
        self.counts[b] += 1;
    }

    fn bucket_of(&self, x: f64) -> usize {
        let nb = self.counts.len();
        let t = (x - self.lo) / (self.hi - self.lo);
        ((t * nb as f64).floor() as isize).clamp(0, nb as isize - 1) as usize
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert_eq!(rs.count(), 8);
        assert!((rs.mean() - 5.0).abs() < 1e-12);
        assert!(
            (rs.sd() - 2.0).abs() < 1e-12,
            "population sd of classic example is 2"
        );
        assert_eq!(rs.min(), 2.0);
        assert_eq!(rs.max(), 9.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        b.push(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 3.0);
        let empty = RunningStats::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        let empty = Summary::of(&[]);
        assert_eq!(empty.count, 0);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&xs, 0.0), 10.0);
        assert_eq!(percentile_sorted(&xs, 100.0), 40.0);
        assert!((percentile_sorted(&xs, 50.0) - 25.0).abs() < 1e-12);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let cdf = empirical_cdf(&[0.3, 0.1, 0.3, 0.7]);
        assert_eq!(cdf.len(), 3, "distinct values collapse");
        assert_eq!(cdf[0], (0.1, 0.25));
        assert_eq!(cdf[1], (0.3, 0.75));
        assert_eq!(cdf[2], (0.7, 1.0));
        assert!(cdf.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
        assert!(empirical_cdf(&[]).is_empty());
    }

    #[test]
    fn histogram_buckets_and_clamping() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        for x in [0.0, 0.1, 0.3, 0.6, 0.9, 1.5, -0.5] {
            h.push(x);
        }
        assert_eq!(h.total(), 7);
        assert_eq!(
            h.counts(),
            &[3, 1, 1, 2],
            "out-of-range clamps to edge bins"
        );
    }
}
