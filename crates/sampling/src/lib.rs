//! # soi-sampling
//!
//! Monte-Carlo machinery over probabilistic graphs:
//!
//! * [`WorldSampler`] — materializes possible worlds `G ⊑ 𝒢` under the
//!   independent-edge semantics of §2.1 (Eq. 1), in CSR form ready for SCC
//!   and reachability; [`world::WorldMasks`] keeps ℓ such worlds as one
//!   bit per world and arc, drawn 64 worlds at a time;
//! * [`cascade`] — samples the random cascade `R_s(G)` from a source (or a
//!   seed set) *without* materializing the world, flipping each arc's coin
//!   lazily — distribution-equivalent and much faster for single queries;
//! * [`ic`] — the discrete-time Independent Cascade process itself, with
//!   activation timestamps, used by the influence-probability learners'
//!   synthetic action logs;
//! * [`spread`] — Monte-Carlo estimation of the expected spread `σ(S)`;
//! * [`reliability`] — 2-terminal reliability and reliability search, the
//!   related query family of §7;
//! * [`lt`] — the Linear Threshold model with Kempe et al.'s live-edge
//!   equivalence, so the typical-cascade pipeline applies beyond IC.

pub mod cascade;
pub mod ic;
pub mod lt;
pub mod reliability;
pub mod spread;
pub mod world;

pub use cascade::CascadeSampler;
pub use spread::{estimate_spread, estimate_spread_budgeted};
pub use world::WorldSampler;
