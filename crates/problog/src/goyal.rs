//! The frequentist learner of Goyal, Bonchi & Lakshmanan (WSDM 2010).
//!
//! The paper uses their simplest (static, Bernoulli) model: the influence
//! probability of arc `(u, v)` is the number of items on which `v` acted
//! *after* `u`, divided by the number of items `u` acted on:
//! `p(u, v) = A_{u2v} / A_u` (§6.2).

#![expect(
    clippy::disallowed_types,
    reason = "the arc counters are only looked up, in CSR order; nothing iterates them"
)]

use crate::log::ActionLog;
use soi_graph::DiGraph;
use std::collections::HashMap;

/// Learns per-edge probabilities from `log` for the arcs of `graph`.
///
/// Returns a vector aligned with `graph`'s CSR edge order; arcs with no
/// evidence (`A_u = 0`) get probability 0. Feed the result to
/// [`crate::to_prob_graph`] to obtain a usable [`soi_graph::ProbGraph`].
///
/// `max_lag`: if `Some(τ)`, only actions with `0 < t_v - t_u <= τ` count
/// as propagation (Goyal et al.'s time-window refinement); `None` counts
/// any strictly-later action.
pub fn learn_goyal(graph: &DiGraph, log: &ActionLog, max_lag: Option<u32>) -> Vec<f64> {
    let a_u = log.actions_per_user();
    let mut a_u2v: HashMap<(u32, u32), u32> = HashMap::new();

    for (_, episode) in log.episodes() {
        // Episodes are sorted by (time, user); for every ordered pair
        // (earlier u, later v) connected by an arc u -> v, credit u.
        for (i, later) in episode.iter().enumerate() {
            for earlier in &episode[..i] {
                if earlier.time >= later.time {
                    continue; // same-time actions are not propagation
                }
                if let Some(lag) = max_lag {
                    if later.time - earlier.time > lag {
                        continue;
                    }
                }
                if graph.has_edge(earlier.user, later.user) {
                    *a_u2v.entry((earlier.user, later.user)).or_insert(0) += 1;
                }
            }
        }
    }

    let mut probs = Vec::with_capacity(graph.num_edges());
    for u in graph.nodes() {
        for &v in graph.out_neighbors(u) {
            let denom = a_u[u as usize];
            let num = a_u2v.get(&(u, v)).copied().unwrap_or(0);
            probs.push(if denom == 0 {
                0.0
            } else {
                (num as f64 / denom as f64).min(1.0)
            });
        }
    }
    probs
}

/// The *Jaccard index* variant from the same paper:
/// `p(u, v) = A_{u2v} / |A_u ∪ A_v|` — the propagation count normalized by
/// the union of both users' activity, which penalizes pairs whose
/// activity barely overlaps. Goyal et al. report it as a more robust
/// alternative to the Bernoulli estimator on noisy logs.
pub fn learn_goyal_jaccard(graph: &DiGraph, log: &ActionLog, max_lag: Option<u32>) -> Vec<f64> {
    let a_u = log.actions_per_user();
    let mut a_u2v: HashMap<(u32, u32), u32> = HashMap::new();
    let mut a_common: HashMap<(u32, u32), u32> = HashMap::new();

    for (_, episode) in log.episodes() {
        for (i, later) in episode.iter().enumerate() {
            for earlier in &episode[..i] {
                // Any co-occurrence counts toward the union denominator's
                // intersection term (both directions of the arc).
                for (a, b) in [(earlier.user, later.user), (later.user, earlier.user)] {
                    if graph.has_edge(a, b) {
                        *a_common.entry((a, b)).or_insert(0) += 1;
                    }
                }
                if earlier.time >= later.time {
                    continue;
                }
                if let Some(lag) = max_lag {
                    if later.time - earlier.time > lag {
                        continue;
                    }
                }
                if graph.has_edge(earlier.user, later.user) {
                    *a_u2v.entry((earlier.user, later.user)).or_insert(0) += 1;
                }
            }
        }
    }

    let mut probs = Vec::with_capacity(graph.num_edges());
    for u in graph.nodes() {
        for &v in graph.out_neighbors(u) {
            let num = a_u2v.get(&(u, v)).copied().unwrap_or(0) as f64;
            let common = a_common.get(&(u, v)).copied().unwrap_or(0) as f64;
            let union = a_u[u as usize] as f64 + a_u[v as usize] as f64 - common;
            probs.push(if union <= 0.0 {
                0.0
            } else {
                (num / union).min(1.0)
            });
        }
    }
    probs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::Action;
    use soi_graph::gen;

    fn act(user: u32, item: u32, time: u32) -> Action {
        Action { user, item, time }
    }

    #[test]
    fn counts_follower_fraction() {
        // Graph 0 -> 1. User 0 acts on items 0..4 (4 items); user 1
        // follows on items 0 and 2. p(0,1) = 2/4.
        let g = gen::path(2);
        let log = ActionLog::new(
            2,
            vec![
                act(0, 0, 0),
                act(1, 0, 1),
                act(0, 1, 0),
                act(0, 2, 0),
                act(1, 2, 3),
                act(0, 3, 0),
            ],
        )
        .unwrap();
        let p = learn_goyal(&g, &log, None);
        assert_eq!(p, vec![0.5]);
    }

    #[test]
    fn lag_window_excludes_stale_follows() {
        let g = gen::path(2);
        let log = ActionLog::new(
            2,
            vec![act(0, 0, 0), act(1, 0, 10), act(0, 1, 0), act(1, 1, 1)],
        )
        .unwrap();
        assert_eq!(learn_goyal(&g, &log, None), vec![1.0]);
        assert_eq!(learn_goyal(&g, &log, Some(2)), vec![0.5]);
    }

    #[test]
    fn same_time_actions_do_not_count() {
        let g = gen::path(2);
        let log = ActionLog::new(2, vec![act(0, 0, 5), act(1, 0, 5)]).unwrap();
        assert_eq!(learn_goyal(&g, &log, None), vec![0.0]);
    }

    #[test]
    fn direction_matters() {
        // Arc 0 -> 1 only; user 1 acts before user 0, so no credit.
        let g = gen::path(2);
        let log = ActionLog::new(2, vec![act(1, 0, 0), act(0, 0, 1)]).unwrap();
        assert_eq!(learn_goyal(&g, &log, None), vec![0.0]);
    }

    #[test]
    fn inactive_influencer_gets_zero_not_nan() {
        let g = gen::path(2);
        let log = ActionLog::new(2, vec![act(1, 0, 0)]).unwrap();
        let p = learn_goyal(&g, &log, None);
        assert_eq!(p, vec![0.0]);
    }

    #[test]
    fn jaccard_variant_penalizes_disjoint_activity() {
        // u acts on 4 items; v follows once but also acts on 6 unrelated
        // items. Bernoulli: 1/4. Jaccard: 1 / |A_u ∪ A_v| = 1 / (4+7-1).
        let g = gen::path(2);
        let mut actions = vec![
            act(0, 0, 0),
            act(1, 0, 1), // the one follow
            act(0, 1, 0),
            act(0, 2, 0),
            act(0, 3, 0),
        ];
        for item in 10..16 {
            actions.push(act(1, item, 0));
        }
        let log = ActionLog::new(2, actions).unwrap();
        let bernoulli = learn_goyal(&g, &log, None);
        let jaccard = learn_goyal_jaccard(&g, &log, None);
        assert_eq!(bernoulli, vec![0.25]);
        assert!((jaccard[0] - 0.1).abs() < 1e-9, "{}", jaccard[0]);
        assert!(jaccard[0] < bernoulli[0]);
    }

    #[test]
    fn jaccard_variant_handles_empty_evidence() {
        let g = gen::path(2);
        let log = ActionLog::new(2, vec![]).unwrap();
        assert_eq!(learn_goyal_jaccard(&g, &log, None), vec![0.0]);
    }

    #[test]
    fn recovers_rough_magnitude_from_simulated_logs() {
        // Ground truth p = 0.8 on a chain; many single-seed cascades from
        // random nodes. The frequentist estimate should land near 0.8 for
        // well-observed arcs.
        use crate::generate::{generate_log, LogGenConfig};
        use soi_graph::ProbGraph;
        let truth = ProbGraph::fixed(gen::path(6), 0.8).unwrap();
        let log = generate_log(
            &truth,
            &LogGenConfig {
                num_items: 3000,
                seeds_per_item: 1,
                seed: 5,
            },
        );
        let learned = learn_goyal(truth.graph(), &log, Some(1));
        // Arc (0,1): every time 0 acted (as seed), 1 followed w.p. 0.8;
        // when 0 itself was downstream... on a path node 0 only acts as a
        // seed, so the estimate is clean.
        assert!(
            (learned[0] - 0.8).abs() < 0.05,
            "learned p(0,1) = {}",
            learned[0]
        );
    }
}
