//! Wall-clock timing helpers for the experiment harness (Figure 4 reports
//! per-node computation-time distributions).

use std::time::{Duration, Instant};

/// A simple wall-clock stopwatch.
#[derive(Clone, Copy, Debug)]
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Starts timing now.
    pub fn start() -> Self {
        Timer {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in fractional milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for Timer {
    fn default() -> Self {
        Timer::start()
    }
}

/// Times a closure, returning `(result, elapsed)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Timer::start();
    let out = f();
    (out, t.elapsed())
}

pub use soi_obs::report::format_duration;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_result_and_positive_duration() {
        let (v, d) = timed(|| (0..1000).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_nanos(412)), "412ns");
        assert_eq!(format_duration(Duration::from_micros(3200)), "3.2ms");
        assert_eq!(format_duration(Duration::from_millis(15)), "15.0ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.00s");
    }

    #[test]
    fn duration_formatting_zero_and_exact_boundaries() {
        assert_eq!(format_duration(Duration::ZERO), "0ns");
        assert_eq!(format_duration(Duration::from_nanos(999)), "999ns");
        assert_eq!(format_duration(Duration::from_nanos(1_000)), "1.0µs");
        assert_eq!(format_duration(Duration::from_nanos(1_000_000)), "1.0ms");
        assert_eq!(format_duration(Duration::from_secs(1)), "1.00s");
    }

    #[test]
    fn duration_formatting_promotes_at_rounding_boundary() {
        // Values that would round to a 1000.0 mantissa move up a unit.
        assert_eq!(format_duration(Duration::from_nanos(999_949)), "999.9µs");
        assert_eq!(format_duration(Duration::from_nanos(999_950)), "1.0ms");
        assert_eq!(
            format_duration(Duration::from_nanos(999_949_999)),
            "999.9ms"
        );
        assert_eq!(format_duration(Duration::from_nanos(999_950_000)), "1.00s");
    }

    #[test]
    fn duration_formatting_long_runs_use_minutes() {
        assert_eq!(format_duration(Duration::from_secs(99)), "99.00s");
        assert_eq!(format_duration(Duration::from_secs(100)), "1m40s");
        assert_eq!(format_duration(Duration::from_secs(150)), "2m30s");
        assert_eq!(format_duration(Duration::from_secs(3_601)), "60m01s");
        assert_eq!(format_duration(Duration::from_millis(100_400)), "1m40s");
    }
}
