//! Streaming statistics, percentiles and empirical CDFs.
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
}
