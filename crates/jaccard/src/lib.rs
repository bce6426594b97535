//! # soi-jaccard
//!
//! The set-similarity machinery behind typical cascades:
//!
//! * [`distance`] — Jaccard distance over canonical (sorted, deduplicated)
//!   node-id sets; it is a metric, which §2.2 of the paper relies on;
//! * [`cost`] — the empirical expected cost `ρ̂(C)` of a candidate median
//!   against a collection of sampled cascades, plus an incremental
//!   evaluator used by the sweep algorithm;
//! * [`median`] — Jaccard-median algorithms (Problem 2 of the paper):
//!   majority vote, the frequency-prefix sweep in the spirit of
//!   Chierichetti et al. (SODA 2010) §3.2 achieving a `1 + O(ε)` factor,
//!   bounded local-search polish, and an exact brute force for tiny
//!   universes that anchors the tests;
//! * [`theory`] — the sample-size bounds of Theorem 2
//!   (`ℓ = O(log(1/α)/α²)` gives a `1 + O(α)` approximation, independent
//!   of the graph size).
//!
//! Sets are `Vec<u32>`/`&[u32]`, sorted ascending with no duplicates — the
//! representation cascades arrive in from `soi-sampling`.

mod bound;
pub mod cost;
pub mod distance;
pub mod median;
pub mod theory;

pub use cost::empirical_cost;
pub use distance::jaccard_distance;
pub use median::{jaccard_median, jaccard_median_budgeted, MedianConfig, MedianResult};

#[cfg(test)]
mod oracle;

/// The `median.*` counters are process-wide, so the one test that reads
/// their deltas holds this lock exclusively, and every test that fits a
/// median holds it shared ([`fits_medians`]).
#[cfg(test)]
static MEDIAN_COUNTERS: std::sync::RwLock<()> = std::sync::RwLock::new(());

/// A shared hold on [`MEDIAN_COUNTERS`], for a test that fits medians.
#[cfg(test)]
fn fits_medians() -> std::sync::RwLockReadGuard<'static, ()> {
    MEDIAN_COUNTERS
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
