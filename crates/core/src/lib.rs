//! # soi-core
//!
//! The paper's primary contribution: computing **typical cascades**
//! (spheres of influence) and their **stability**.
//!
//! For a source `s` in a probabilistic graph, the typical cascade is the
//! set `C*` minimizing the expected Jaccard distance to a random cascade
//! from `s` (Problem 1, §2.2). Evaluating that expectation exactly is
//! `#P`-hard (Theorem 1), so the solver follows §3–§4:
//!
//! 1. sample ℓ cascades from `s` (via direct sampling or the shared
//!    [`soi_index::CascadeIndex`]);
//! 2. compute their Jaccard median (Problem 2) with the
//!    `soi-jaccard` pipeline;
//! 3. report the median's *expected cost* on a **fresh** sample pool — the
//!    stability measure of §2.2 — so the estimate is not biased by the
//!    overfitting phenomenon Theorem 2 controls.
//!
//! [`all_typical_cascades`] is Algorithm 2: one shared index, a median per
//! node, optionally fanned out over threads. [`SphereStore`] holds one
//! index's spheres for Algorithm 3's cover, fitted only when the cover
//! reads them and ranked until then by a bound on their size.

pub mod engine;
pub mod stability;
pub mod store;

pub use engine::{
    all_typical_cascades, all_typical_cascades_resumable, index_median, sphere_bound,
    typical_cascade, typical_cascade_of_set, NodeScratch, NodeTypicalCascade, TypicalCascade,
    TypicalCascadeConfig,
};
pub use stability::{expected_cost, expected_cost_of_seed_set};
pub use store::SphereStore;
