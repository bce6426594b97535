//! # soi-util
//!
//! Shared, dependency-free utilities for the *Spheres of Influence*
//! workspace: a compact fixed-capacity bitset, streaming/summary statistics,
//! histogram and empirical-CDF helpers, wall-clock timers, a small TSV
//! emitter used by every experiment binary, deterministic seed derivation
//! and the workspace RNG ([`rng`]), plus `debug_assertions`-gated runtime
//! invariant checkers ([`invariant`]) for CSR graphs, edge probabilities,
//! and condensation DAGs.
//!
//! It also hosts the fault-tolerant execution substrate: cooperative
//! deadline tokens, typed partial results and the one run policy —
//! block loop, checkpoint cadence, resume — behind every budgeted
//! pipeline ([`runtime`]),
//! versioned checksummed checkpoint files ([`ckpt`]), streaming Mix64
//! hashing for fingerprints and corruption detection ([`hash`]),
//! deterministic fault injection ([`failpoint`](mod@failpoint)), seeded schedule
//! perturbation at the same sites ([`schedule`]), and the workspace-wide
//! error type ([`error`]), plus worker-count resolution and chunked
//! scoped fan-out shared by every parallel pipeline ([`pool`]) and
//! deterministic capped-exponential retry schedules ([`backoff`]), and
//! the one lazy-greedy (CELF) candidate heap every seed-selection loop in
//! the workspace pulls from ([`lazy`]).
//!
//! Nothing in this crate knows about graphs or cascades; it exists so the
//! algorithmic crates stay focused and allocation-conscious.

pub mod backoff;
pub mod bitset;
pub mod ckpt;
pub mod error;
pub mod failpoint;
pub mod hash;
pub mod invariant;
pub mod lazy;
pub mod pool;
pub mod rng;
pub mod runtime;
pub mod schedule;
pub mod stats;
pub mod timer;
pub mod tsv;

pub use bitset::BitSet;
pub use error::{ProtoErrorKind, SoiError};
pub use lazy::LazyGreedy;
pub use runtime::{Deadline, Outcome, Progress, Run};
pub use stats::RunningStats;
pub use timer::Timer;
