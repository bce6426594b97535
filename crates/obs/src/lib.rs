//! # soi-obs
//!
//! Dependency-free observability for the spheres-of-influence pipeline:
//! hierarchical wall-clock **spans**, a registry of named **metrics**
//! (counters, gauges, fixed-bucket histograms), a level-filtered
//! **event log**, and **run-report** emitters (JSONL) that keep
//! deterministic counts separate from wall-clock timings.
//!
//! Everything lives in one process-global registry so instrumentation
//! can be dropped into any crate without threading handles through
//! signatures. The design contract, mirrored by `cargo xtask lint`'s
//! determinism pass (and CI's clippy console step, which keeps library
//! code from printing around the event log):
//!
//! - **Counts are deterministic.** Counters, gauges, histogram bucket
//!   counts, and span *call counts* must depend only on the seeded
//!   inputs — never on wall-clock time. Two same-seed runs produce
//!   byte-identical reports once wall-clock fields are masked with
//!   [`report::mask_wall_clock`].
//! - **Timings are quarantined.** Every nanosecond value in a report
//!   lives in a field whose name starts with `wall_`, so golden tests
//!   and diff tooling can ignore them mechanically.
//! - **Hot loops stay hot.** [`counter_add!`] caches its registry
//!   handle in a per-call-site `static`, so the steady-state cost is a
//!   single relaxed atomic add. Disabled events cost one relaxed
//!   atomic load — format arguments are not evaluated.
//!
//! See `docs/OBSERVABILITY.md` for naming conventions and wiring
//! guidance.

pub mod event;
pub mod metrics;
pub mod perthread;
pub mod report;
pub mod span;

pub use event::Level;
pub use metrics::{
    counter, gauge, histogram, wall_hist, Counter, Gauge, HistogramMetric, WallHistStat,
    WallHistogram,
};
pub use report::RunReport;
pub use span::{span, SpanGuard, SpanStat};

/// Resets all global observability state: metric values, span
/// statistics, per-thread timing slots, and event counters. Cached
/// [`counter_add!`] handles stay valid — values are zeroed in place,
/// entries are never removed.
pub fn reset() {
    metrics::registry().reset();
    span::reset_spans();
    perthread::reset();
}

/// Increments a named counter, caching the registry handle at the call
/// site so hot loops pay one relaxed atomic add after the first call.
///
/// ```
/// soi_obs::counter_add!("sampling.worlds_sampled", 1);
/// ```
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $delta:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        HANDLE
            .get_or_init(|| $crate::metrics::counter($name))
            .add($delta as u64);
    }};
}

/// Records one observation in a named fixed-bucket histogram, caching
/// the registry handle at the call site.
///
/// ```
/// soi_obs::hist_observe!("sampling.cascade_size", &[1.0, 8.0, 64.0], 5.0);
/// ```
#[macro_export]
macro_rules! hist_observe {
    ($name:expr, $bounds:expr, $value:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::metrics::HistogramMetric> =
            ::std::sync::OnceLock::new();
        HANDLE
            .get_or_init(|| $crate::metrics::histogram($name, $bounds))
            .observe($value as f64);
    }};
}

/// Emits a level-filtered event. When the level is disabled this is a
/// single atomic load; the format arguments are **not** evaluated.
///
/// ```
/// soi_obs::event!(soi_obs::Level::Debug, "sampled {} worlds", 256);
/// ```
#[macro_export]
macro_rules! event {
    ($level:expr, $($arg:tt)*) => {
        if $crate::event::enabled($level) {
            $crate::event::emit($level, module_path!(), format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    /// Serializes tests that touch the process-global registry.
    pub fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn counter_add_macro_caches_handle() {
        let _g = lock();
        super::reset();
        for _ in 0..10 {
            crate::counter_add!("test.lib.macro_counter", 2);
        }
        assert_eq!(super::metrics::counter("test.lib.macro_counter").get(), 20);
    }

    #[test]
    fn hist_observe_macro_records() {
        let _g = lock();
        super::reset();
        crate::hist_observe!("test.lib.macro_hist", &[1.0, 10.0], 5);
        let h = super::metrics::histogram("test.lib.macro_hist", &[1.0, 10.0]);
        assert_eq!(h.counts(), vec![0, 1, 0]);
    }

    #[test]
    fn reset_keeps_cached_handles_valid() {
        let _g = lock();
        super::reset();
        crate::counter_add!("test.lib.reset_counter", 7);
        super::reset();
        assert_eq!(super::metrics::counter("test.lib.reset_counter").get(), 0);
        crate::counter_add!("test.lib.reset_counter", 3);
        assert_eq!(super::metrics::counter("test.lib.reset_counter").get(), 3);
    }
}
