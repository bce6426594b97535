//! # soi-bench
//!
//! The experiment harness: one binary, `run_all`, that runs the paper's
//! §6 tables and figures by name, plus dependency-free micro-benchmarks
//! (see [`microbench`]).
//!
//! `cargo run --release -p soi-bench --bin run_all -- [NAME...]` writes
//! `<--out>/NAME.tsv` per experiment; no name runs the eight of §6.
//!
//! | name | reproduces | output |
//! |---|---|---|
//! | `table1`  | Table 1 — dataset characteristics | TSV |
//! | `figure3` | Figure 3 — CDFs of edge probabilities | TSV |
//! | `table2`  | Table 2 — typical-cascade size stats | TSV |
//! | `figure4` | Figure 4 — per-node computation-time distributions | TSV |
//! | `figure5` | Figure 5 — expected cost vs sphere size | TSV |
//! | `figure6` | Figure 6 — spread: InfMax_std vs InfMax_TC, k = 1..200 | TSV |
//! | `figure7` | Figure 7 — marginal-gain-ratio saturation | TSV |
//! | `figure8` | Figure 8 — seed-set stability | TSV |
//! | `ext_learners`, `ext_lt`, `ext_baselines` | beyond the paper ([`extensions`]) | TSV |
//!
//! Flags: `--scale <f>` (dataset size multiplier, default
//! 1.0), `--samples <n>` (worlds/cascades, default 256; the paper uses
//! 1000), `--seed <n>`, and `--k <n>` where applicable. Determinism: same
//! flags, same output.

pub mod cli;
pub mod experiments;
pub mod extensions;
pub mod microbench;
pub mod overhead;

pub use cli::Args;
