//! Instrumentation-overhead guard for the per-thread timing plane.
//!
//! The introspection plane (`soi_obs::perthread`) promises to answer
//! "where do the cycles go" *without perturbing the answer*. This module
//! makes that promise checkable: [`measure`] times the same parallel
//! workload with the plane off and on, interleaved A/B so drift in
//! machine load hits both arms equally, and reports the relative cost of
//! each arm's fastest run. Host noise only ever adds time (a 4-way
//! fan-out on a 2-vCPU guest waits on whatever else the host runs), so
//! the minimum is the estimate a noisy neighbour cannot inflate — the
//! same argument that makes the repo benchmark's `time_to_seeds_s` its
//! fastest run.
//! The `bench_obs_overhead` target publishes the two arms as
//! `obs_overhead/*` entries in `BENCH_summary.json`, and CI's
//! `kernel-rows` step holds their `min_ns` ratio under
//! [`MAX_OVERHEAD_FRACTION`]. No unit test asserts the ratio: a wall-clock
//! ratio measured beside other load is not a pass/fail signal.
//!
//! The plane's cost model is per-dispatch and per-chunk — never
//! per-item — so the workload here uses deliberately *small* dispatches
//! (many fan-outs of modest work) to stress the worst realistic case.

use std::time::Instant;

/// The guard threshold: the timing plane may cost at most 5% of the
/// uninstrumented runtime on the dispatch-heavy workload.
pub const MAX_OVERHEAD_FRACTION: f64 = 0.05;

/// Fewest interleaved pairs [`measure`] runs: enough that each arm's
/// minimum is a run the host left alone.
pub const MIN_ROUNDS: usize = 15;

/// One A/B comparison of the workload with the plane off and on.
#[derive(Clone, Copy, Debug)]
pub struct Overhead {
    /// Fastest workload time with the plane disabled, nanoseconds.
    pub disabled_ns: u128,
    /// Fastest workload time with the plane enabled, nanoseconds.
    pub enabled_ns: u128,
}

impl Overhead {
    /// Relative cost of the plane: `enabled / disabled - 1`, floored at
    /// zero (an enabled arm that measures faster is noise, not a
    /// negative cost).
    pub fn fraction(&self) -> f64 {
        if self.disabled_ns == 0 {
            return 0.0;
        }
        let ratio = self.enabled_ns as f64 / self.disabled_ns as f64;
        (ratio - 1.0).max(0.0)
    }
}

/// The measured workload: repeated 4-way fan-outs over a small slice
/// with real per-item compute. Dispatch-heavy relative to total work,
/// which is the plane's worst case (its cost is per-dispatch).
pub fn workload() {
    let mut slots = vec![0u64; 128];
    for round in 0..8u64 {
        soi_util::pool::for_each_indexed(&mut slots, 4, |i, slot| {
            let mut acc = round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
            for step in 0..2_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(step);
            }
            *slot = acc;
        });
    }
    std::hint::black_box(&slots);
}

/// Times one run of [`workload`] in nanoseconds.
fn timed_run() -> u128 {
    let t = Instant::now();
    workload();
    t.elapsed().as_nanos()
}

/// Runs `rounds` interleaved disabled/enabled pairs (after one warmup
/// pair) and compares the per-arm minima. The plane is left enabled.
pub fn measure(rounds: usize) -> Overhead {
    let rounds = rounds.max(MIN_ROUNDS);
    soi_obs::reset();
    // Warmup both arms once so allocator and cache state are settled.
    soi_obs::perthread::set_enabled(false);
    workload();
    soi_obs::perthread::set_enabled(true);
    workload();

    let mut fastest = Overhead {
        disabled_ns: u128::MAX,
        enabled_ns: u128::MAX,
    };
    for _ in 0..rounds {
        soi_obs::perthread::set_enabled(false);
        fastest.disabled_ns = fastest.disabled_ns.min(timed_run());
        soi_obs::perthread::set_enabled(true);
        fastest.enabled_ns = fastest.enabled_ns.min(timed_run());
    }
    fastest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_floors_at_zero_and_handles_degenerate_input() {
        let faster = Overhead {
            disabled_ns: 100,
            enabled_ns: 90,
        };
        assert_eq!(faster.fraction(), 0.0);
        let degenerate = Overhead {
            disabled_ns: 0,
            enabled_ns: 50,
        };
        assert_eq!(degenerate.fraction(), 0.0);
        let ten_pct = Overhead {
            disabled_ns: 1_000,
            enabled_ns: 1_100,
        };
        assert!((ten_pct.fraction() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn measure_leaves_the_timing_plane_enabled() {
        let measured = measure(MIN_ROUNDS);
        assert!(measured.disabled_ns > 0 && measured.enabled_ns > 0);
        assert!(
            soi_obs::perthread::enabled(),
            "measure must leave the plane enabled"
        );
    }
}
