//! Synthetic action-log generation.
//!
//! The Digg/Flixster/Twitter logs of §6.1 are not redistributable, so the
//! dataset registry simulates the process that produced them: items
//! propagate over a ground-truth probabilistic graph under the
//! discrete-time IC model, and every activation is written to the log with
//! its timestamp. Learners then only see the log and the topology — the
//! same observational setting as the paper — and are judged on recovering
//! the ground-truth probabilities (`eval` module).

use crate::log::{Action, ActionLog};
use soi_graph::{NodeId, ProbGraph};
use soi_sampling::ic::simulate_ic;
use soi_util::rng::derive_seed;
use soi_util::rng::Rng;

/// Options for [`generate_log`].
#[derive(Clone, Copy, Debug)]
pub struct LogGenConfig {
    /// Number of items (independent cascades) to simulate.
    pub num_items: usize,
    /// Seeds activated per item at time 0 (distinct, uniform random).
    pub seeds_per_item: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for LogGenConfig {
    fn default() -> Self {
        LogGenConfig {
            num_items: 500,
            seeds_per_item: 1,
            seed: 0,
        }
    }
}

/// Simulates `config.num_items` IC cascades on `truth` and returns the
/// resulting action log. Item `i` is deterministic in `(seed, i)`.
pub fn generate_log(truth: &ProbGraph, config: &LogGenConfig) -> ActionLog {
    assert!(config.seeds_per_item >= 1);
    assert!(
        config.seeds_per_item <= truth.num_nodes(),
        "more seeds than nodes"
    );
    let mut actions = Vec::new();
    for item in 0..config.num_items {
        let mut rng =
            soi_util::rng::Xoshiro256pp::seed_from_u64(derive_seed(config.seed, item as u64));
        let seeds = distinct_seeds(truth.num_nodes(), config.seeds_per_item, &mut rng);
        for ev in simulate_ic(truth, &seeds, &mut rng) {
            actions.push(Action {
                user: ev.node,
                item: item as u32,
                time: ev.time,
            });
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "every action's user comes from simulate_ic on `truth`, so ids are below truth.num_nodes()"
    )]
    ActionLog::new(truth.num_nodes(), actions).expect("simulated users are in range")
}

fn distinct_seeds<R: Rng>(n: usize, k: usize, rng: &mut R) -> Vec<NodeId> {
    let mut seeds = Vec::with_capacity(k);
    while seeds.len() < k {
        let s = rng.random_range(0..n as NodeId);
        if !seeds.contains(&s) {
            seeds.push(s);
        }
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::gen;

    #[test]
    fn log_covers_requested_items() {
        let truth = ProbGraph::fixed(gen::cycle(10), 0.5).unwrap();
        let log = generate_log(
            &truth,
            &LogGenConfig {
                num_items: 20,
                seeds_per_item: 1,
                seed: 3,
            },
        );
        assert_eq!(log.num_items(), 20);
        // Every episode has at least its seed.
        for (_, ep) in log.episodes() {
            assert!(!ep.is_empty());
            assert_eq!(ep[0].time, 0);
        }
        assert_eq!(log.episodes().count(), 20);
    }

    #[test]
    fn deterministic_chain_produces_full_episodes() {
        let truth = ProbGraph::fixed(gen::path(4), 1.0).unwrap();
        let log = generate_log(
            &truth,
            &LogGenConfig {
                num_items: 5,
                seeds_per_item: 1,
                seed: 1,
            },
        );
        for (_, ep) in log.episodes() {
            // Cascade from seed s covers s..3, times 0,1,2,...
            let seed = ep[0].user;
            assert_eq!(ep.len(), 4 - seed as usize);
            for (i, a) in ep.iter().enumerate() {
                assert_eq!(a.user, seed + i as u32);
                assert_eq!(a.time, i as u32);
            }
        }
    }

    #[test]
    fn multi_seed_items_have_multiple_time_zero_actions() {
        let truth = ProbGraph::fixed(gen::path(10), 0.5).unwrap();
        let log = generate_log(
            &truth,
            &LogGenConfig {
                num_items: 10,
                seeds_per_item: 3,
                seed: 7,
            },
        );
        for (_, ep) in log.episodes() {
            assert_eq!(ep.iter().filter(|a| a.time == 0).count(), 3);
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let truth = ProbGraph::fixed(gen::cycle(8), 0.4).unwrap();
        let cfg = LogGenConfig {
            num_items: 15,
            seeds_per_item: 2,
            seed: 42,
        };
        let a = generate_log(&truth, &cfg);
        let b = generate_log(&truth, &cfg);
        assert_eq!(a.num_actions(), b.num_actions());
        for i in 0..15u32 {
            assert_eq!(a.episode(i), b.episode(i));
        }
    }
}
