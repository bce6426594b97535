//! Differential correctness harness for the spheres-of-influence
//! serving stack.
//!
//! Three pieces, each usable on its own and composed by `soi fuzz`:
//!
//! * [`bdd`] — an exact influence-spread oracle built on binary
//!   decision diagrams over live-edge worlds. Ground truth for graphs
//!   up to [`bdd::MAX_EDGES`] edges, validated bit-for-bit against
//!   `exact_spread_bruteforce` and used to pin the typical-cascade,
//!   RIS, and sketch estimators within declared tolerances.
//! * [`reference`](mod@reference) — a deliberately naive engine answering the full v2
//!   server protocol by direct recomputation: no cache, no worker
//!   pool, no persisted index. Slow and obviously correct, it is the
//!   spec the real `ServerEngine` is diffed against.
//! * [`stream`] + [`fuzz`] — a seeded generator of random graphs and
//!   weighted random request streams (valid, boundary, malformed, and
//!   control traffic), a replay-file format for pinning repros, and
//!   the differential driver that runs each stream against the real
//!   engine (in-process and over TCP through the real binary) and the
//!   reference, masks nondeterministic fields, asserts byte-identical
//!   answers, and shrinks any divergence to a minimal repro.
//!
//! Everything here is deterministic: the same `--seed` produces a
//! byte-identical stream and verdict on every run.

pub mod bdd;
pub mod fuzz;
pub mod reference;
pub mod stream;

pub use bdd::{exact_spread_bdd, exact_spread_bdd_stats, BddStats, MAX_EDGES, MAX_NODES};
pub use fuzz::{run_fuzz, run_replay, run_stream, FuzzConfig, FuzzReport, StreamVerdict};
pub use reference::ReferenceEngine;
pub use stream::{FuzzStream, StreamConfig};
