//! # soi-influence
//!
//! Influence maximization, both the paper's baseline and its contribution:
//!
//! * [`spread`] — an index-backed Monte-Carlo spread oracle with the
//!   covered-state bookkeeping greedy algorithms need;
//! * [`greedy`] — `InfMax_std`: the theoretically optimal `(1 − 1/e)`
//!   greedy of Kempe et al. over sampled worlds, run lazily (CELF:
//!   Leskovec et al. / Goyal et al.'s optimization, what the paper runs
//!   for Figure 6), optionally recording each round's exact top gains for
//!   the Figure 7 saturation study;
//! * [`tc_cover`] — `InfMax_TC` (Algorithm 3): greedy max-cover over the
//!   typical cascades of all nodes, plus the weighted-value and budgeted
//!   extensions sketched in §8;
//! * [`ris`] — a reverse-reachable-sketch comparator (Borgs et al. /
//!   TIM-flavoured), the modern baseline referenced in §7;
//! * [`saturation`] — the marginal-gain-ratio analysis (`MG₁₀/MG₁`) behind
//!   Figure 7;
//! * [`backend`] — the name of the selectable spread oracle (cascade
//!   index vs bottom-k sketches) shared by the CLI and serving layers.

pub mod backend;
pub mod baselines;
#[cfg(test)]
mod exhaustive;
pub mod greedy;
pub mod ris;
pub mod saturation;
pub mod spread;
pub mod tc_cover;

pub use backend::BackendKind;
pub use baselines::{degree_discount_seeds, high_degree_seeds, pagerank_seeds, random_seeds};
pub use greedy::{infmax_celf_resumable, infmax_std, infmax_std_mc, GreedyResult};
pub use ris::{infmax_ris, infmax_ris_budgeted};
pub use spread::SpreadOracle;
pub use tc_cover::{infmax_tc, infmax_tc_budgeted, infmax_tc_lazy, infmax_tc_weighted, TcResult};
