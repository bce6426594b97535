//! The EM learner of Saito, Nakano & Kimura (KES 2008).
//!
//! Models the log as realizations of the discrete-time IC process and
//! maximizes the likelihood of the observed episodes over the edge
//! probabilities. For arc `(u, v)`:
//!
//! * a **success context** is an episode where `u` was active at `t_v − 1`
//!   when `v` activated at `t_v` — one of possibly several parents that
//!   could have caused the activation;
//! * a **failure context** is an episode where `u` activated at `t_u` but
//!   `v` was not active at any time `≤ t_u + 1` — the one attempt `u` got
//!   at `v` observably failed.
//!
//! The E-step attributes each activation fractionally to its possible
//! parents (`p_uv / P_v` with `P_v = 1 − Π_w (1 − p_wv)`); the M-step
//! divides by the total number of attempts. Iterated to convergence, the
//! likelihood is non-decreasing (a property the tests check).

#![expect(
    clippy::disallowed_types,
    reason = "`time_of` is only looked up; the contexts are built in episode and CSR order"
)]

use crate::log::ActionLog;
use soi_graph::{DiGraph, NodeId};
use std::collections::HashMap;

/// Maximum EM iterations.
const MAX_ITERS: usize = 100;
/// Stop when the largest per-edge update falls below this.
const TOLERANCE: f64 = 1e-6;
/// Initial probability for every arc.
const INIT_P: f64 = 0.3;

/// Precomputed sufficient statistics of a (graph, log) pair.
struct Contexts {
    /// One entry per explained activation: the CSR edge ids of all
    /// candidate parent arcs.
    success_records: Vec<Vec<u32>>,
    /// Per-edge count of success records containing the edge (`|A+|`).
    plus: Vec<u32>,
    /// Per-edge count of observed failed attempts (`|A−|`).
    minus: Vec<u32>,
}

fn edge_id(graph: &DiGraph, u: NodeId, v: NodeId) -> Option<u32> {
    let r = graph.edge_range(u);
    graph
        .out_neighbors(u)
        .binary_search(&v)
        .ok()
        .map(|i| (r.start + i) as u32)
}

fn build_contexts(graph: &DiGraph, log: &ActionLog) -> Contexts {
    let m = graph.num_edges();
    let mut success_records = Vec::new();
    let mut plus = vec![0u32; m];
    let mut minus = vec![0u32; m];
    let reverse = graph.reverse();

    let mut time_of: HashMap<NodeId, u32> = HashMap::new();
    for (_, episode) in log.episodes() {
        time_of.clear();
        for a in episode {
            time_of.insert(a.user, a.time);
        }
        // Success contexts: each non-seed activation's candidate parents.
        for a in episode {
            if a.time == 0 {
                continue;
            }
            let mut parents: Vec<u32> = Vec::new();
            for &w in reverse.out_neighbors(a.user) {
                if time_of.get(&w) == Some(&(a.time - 1)) {
                    if let Some(e) = edge_id(graph, w, a.user) {
                        parents.push(e);
                    }
                }
            }
            if parents.is_empty() {
                // Activation unexplained by the topology (possible when the
                // log did not come from this graph); carries no information
                // about any arc.
                continue;
            }
            for &e in &parents {
                plus[e as usize] += 1;
            }
            success_records.push(parents);
        }
        // Failure contexts: u active at t_u, v not active by t_u + 1.
        for a in episode {
            for &v in graph.out_neighbors(a.user) {
                let failed = match time_of.get(&v) {
                    None => true,
                    Some(&tv) => tv > a.time + 1,
                };
                if failed {
                    #[expect(
                        clippy::expect_used,
                        reason = "`v` comes from out_neighbors(a.user), so the arc exists"
                    )]
                    let e = edge_id(graph, a.user, v).expect("iterating real arcs");
                    minus[e as usize] += 1;
                }
            }
        }
    }
    Contexts {
        success_records,
        plus,
        minus,
    }
}

/// Learns per-edge probabilities by EM. Returns a vector aligned with
/// `graph`'s CSR edge order (zeros for arcs with no positive evidence).
/// Feed the result to [`crate::to_prob_graph`].
pub fn learn_saito(graph: &DiGraph, log: &ActionLog) -> Vec<f64> {
    em(graph, log, MAX_ITERS, TOLERANCE)
}

/// EM from `p = INIT_P` for at most `max_iters` iterations, stopping
/// early once the largest per-edge update falls below `tolerance`.
fn em(graph: &DiGraph, log: &ActionLog, max_iters: usize, tolerance: f64) -> Vec<f64> {
    let ctx = build_contexts(graph, log);
    let m = graph.num_edges();
    let mut p = vec![INIT_P; m];
    // Arcs never observed in a success context converge to 0 in one step;
    // set them now so the loop only touches informative arcs.
    for (slot, &plus) in p.iter_mut().zip(&ctx.plus) {
        if plus == 0 {
            *slot = 0.0;
        }
    }
    let mut acc = vec![0.0f64; m];
    for _ in 0..max_iters {
        acc.fill(0.0);
        for record in &ctx.success_records {
            let mut q = 1.0;
            for &e in record {
                q *= 1.0 - p[e as usize];
            }
            let p_v = (1.0 - q).max(1e-12);
            for &e in record {
                acc[e as usize] += p[e as usize] / p_v;
            }
        }
        let mut max_delta = 0.0f64;
        for e in 0..m {
            let attempts = ctx.plus[e] + ctx.minus[e];
            if attempts == 0 {
                continue;
            }
            let new_p = (acc[e] / attempts as f64).clamp(0.0, 1.0);
            max_delta = max_delta.max((new_p - p[e]).abs());
            p[e] = new_p;
        }
        if max_delta < tolerance {
            break;
        }
    }
    p
}

/// Log-likelihood of the episodes under edge probabilities `p` (aligned
/// with `graph`'s CSR edges), using the same context definitions as the
/// learner. Unexplained activations are skipped, matching the learner.
pub fn log_likelihood(graph: &DiGraph, log: &ActionLog, p: &[f64]) -> f64 {
    assert_eq!(p.len(), graph.num_edges());
    let ctx = build_contexts(graph, log);
    let mut ll = 0.0;
    for record in &ctx.success_records {
        let mut q = 1.0;
        for &e in record {
            q *= 1.0 - p[e as usize];
        }
        ll += (1.0 - q).max(1e-300).ln();
    }
    for (e, &count) in ctx.minus.iter().enumerate() {
        if count > 0 {
            ll += count as f64 * (1.0 - p[e]).max(1e-300).ln();
        }
    }
    ll
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_log, LogGenConfig};
    use crate::log::Action;
    use soi_graph::{gen, ProbGraph};

    fn act(user: u32, item: u32, time: u32) -> Action {
        Action { user, item, time }
    }

    #[test]
    fn single_edge_closed_form() {
        // Arc 0 -> 1. In 10 episodes user 0 acts at t=0; user 1 follows at
        // t=1 in 3 of them. MLE: p = 3/10.
        let g = gen::path(2);
        let mut actions = Vec::new();
        for item in 0..10u32 {
            actions.push(act(0, item, 0));
            if item < 3 {
                actions.push(act(1, item, 1));
            }
        }
        let log = ActionLog::new(2, actions).unwrap();
        let p = learn_saito(&g, &log);
        assert!((p[0] - 0.3).abs() < 1e-6, "p = {}", p[0]);
    }

    #[test]
    fn no_positive_evidence_gives_zero() {
        let g = gen::path(2);
        let log = ActionLog::new(2, vec![act(0, 0, 0), act(0, 1, 0)]).unwrap();
        let p = learn_saito(&g, &log);
        assert_eq!(p, vec![0.0]);
    }

    #[test]
    fn late_follow_is_a_failure_not_success() {
        // v activates at t=5 after u at t=0: u's attempt failed; the
        // activation is unexplained (no parent at t=4) and skipped.
        let g = gen::path(2);
        let log = ActionLog::new(2, vec![act(0, 0, 0), act(1, 0, 5)]).unwrap();
        let p = learn_saito(&g, &log);
        assert_eq!(p, vec![0.0]);
    }

    #[test]
    fn shared_credit_between_parents() {
        // Arcs 0 -> 2 and 1 -> 2; both parents always active at t=0, child
        // always activates at t=1. EM shares credit; by symmetry both arcs
        // converge to the same value, and the pair must explain every
        // activation: 1 - (1-p)^2 should be close to 1 given infinite
        // evidence... with 100% success contexts and no failures, the MLE
        // pushes both to 1? No: acc[e] = p/(1-(1-p)^2) per record, and
        // attempts = plus only. Fixed point: p = p / (1 - (1-p)^2) / 1 →
        // 1 - (1-p)^2 = 1 → p = 1.
        let g = soi_graph::DiGraph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let mut actions = Vec::new();
        for item in 0..20u32 {
            actions.push(act(0, item, 0));
            actions.push(act(1, item, 0));
            actions.push(act(2, item, 1));
        }
        let log = ActionLog::new(3, actions).unwrap();
        let p = learn_saito(&g, &log);
        assert!((p[0] - p[1]).abs() < 1e-9, "symmetric arcs stay equal");
        assert!(p[0] > 0.9, "all-success evidence drives p up: {}", p[0]);
    }

    #[test]
    fn em_is_likelihood_nondecreasing() {
        let truth = ProbGraph::fixed(gen::cycle(12), 0.4).unwrap();
        let log = generate_log(
            &truth,
            &LogGenConfig {
                num_items: 150,
                seeds_per_item: 1,
                seed: 11,
            },
        );
        let g = truth.graph();
        let mut prev = f64::NEG_INFINITY;
        for iters in [1usize, 2, 4, 8, 16, 32] {
            let p = em(g, &log, iters, 0.0);
            let ll = log_likelihood(g, &log, &p);
            assert!(
                ll >= prev - 1e-6,
                "likelihood decreased at {iters} iters: {prev} -> {ll}"
            );
            prev = ll;
        }
    }

    #[test]
    fn recovers_ground_truth_on_simulated_logs() {
        let truth = ProbGraph::fixed(gen::path(6), 0.7).unwrap();
        let log = generate_log(
            &truth,
            &LogGenConfig {
                num_items: 4000,
                seeds_per_item: 1,
                seed: 13,
            },
        );
        let learned = learn_saito(truth.graph(), &log);
        for (e, &p) in learned.iter().enumerate() {
            assert!((p - 0.7).abs() < 0.06, "edge {e}: learned {p}, truth 0.7");
        }
    }
}
