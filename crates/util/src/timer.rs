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

/// Formats a duration compactly for human-readable experiment logs
/// (`"412ns"`, `"3.2µs"`, `"15.0ms"`, `"2.34s"`, `"2m30s"`).
///
/// Unit boundaries are exact (`1_000ns` is `"1.0µs"`, not `"1000ns"`),
/// and a value whose rounded mantissa would read `1000.0` is promoted to
/// the next unit (`999_950ns` is `"1.0ms"`, never `"1000.0µs"`). Runs of
/// 100 seconds or more switch to a minutes-and-seconds form, where
/// sub-second precision is noise.
pub fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        return format!("{ns}ns");
    }
    if ns < 1_000_000 {
        let us = ns as f64 / 1e3;
        if us < 999.95 {
            return format!("{us:.1}µs");
        }
        return "1.0ms".to_string();
    }
    if ns < 1_000_000_000 {
        let ms = ns as f64 / 1e6;
        if ms < 999.95 {
            return format!("{ms:.1}ms");
        }
        return "1.00s".to_string();
    }
    let secs = ns as f64 / 1e9;
    if secs < 99.995 {
        return format!("{secs:.2}s");
    }
    let total = secs.round() as u128;
    format!("{}m{:02}s", total / 60, total % 60)
}

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
