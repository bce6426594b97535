//! # soi-problog
//!
//! Influence-probability learning and assignment (§6.2 of the paper).
//!
//! The paper's evaluation uses twelve dataset configurations: probabilities
//! *learnt* from user-activity logs with two methods — Saito et al.'s EM
//! for the discrete-time IC model (suffix `-S`) and Goyal et al.'s
//! frequentist estimator (suffix `-G`) — and probabilities *assigned* with
//! the weighted-cascade (`-W`) and fixed-`p` (`-F`) models.
//!
//! This crate supplies the full learning path:
//!
//! * [`log`] — the action-log data model (user, item, timestamp triples
//!   grouped into per-item episodes);
//! * [`generate`] — synthetic log generation by simulating IC cascades on
//!   a ground-truth probabilistic graph (the stand-in for the Digg /
//!   Flixster / Twitter activity logs, see DESIGN.md §2);
//! * [`saito`] — the EM learner;
//! * [`goyal`] — the frequentist learner;
//! * [`assign`] — the artificial assignment models (re-exported from
//!   `soi-graph` plus helpers);
//! * [`eval`] — learned-vs-truth diagnostics (MAE, RMSE, Pearson).

pub mod assign;
pub mod eval;
pub mod generate;
pub mod goyal;
pub mod log;
pub mod saito;

pub use generate::generate_log;
pub use goyal::{learn_goyal, learn_goyal_jaccard};
pub use log::{Action, ActionLog};
pub use saito::learn_saito;

use soi_graph::{DiGraph, GraphBuilder, GraphError, ProbGraph};

/// Converts learned per-edge probabilities (aligned with `graph`'s CSR
/// edge order, zeros allowed) into a [`ProbGraph`], dropping edges whose
/// probability is below `min_prob`. Mirrors how learned influence graphs
/// are used downstream: a zero-probability edge carries no influence and
/// only slows sampling.
pub fn to_prob_graph(
    graph: &DiGraph,
    probs: &[f64],
    min_prob: f64,
) -> Result<ProbGraph, GraphError> {
    assert_eq!(probs.len(), graph.num_edges(), "probs misaligned");
    let mut b = GraphBuilder::new(graph.num_nodes());
    let mut e = 0usize;
    for u in graph.nodes() {
        for &v in graph.out_neighbors(u) {
            let p = probs[e];
            if p >= min_prob {
                b.add_weighted_edge(u, v, p.min(1.0));
            }
            e += 1;
        }
    }
    b.build_prob()
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::gen;

    #[test]
    fn to_prob_graph_filters_low_probability_edges() {
        let g = gen::path(4); // edges (0,1),(1,2),(2,3)
        let pg = to_prob_graph(&g, &[0.5, 0.0001, 0.9], 0.01).unwrap();
        assert_eq!(pg.num_edges(), 2);
        assert_eq!(pg.edge_prob_between(0, 1), Some(0.5));
        assert_eq!(pg.edge_prob_between(1, 2), None);
        assert_eq!(pg.edge_prob_between(2, 3), Some(0.9));
    }

    #[test]
    fn to_prob_graph_caps_at_one() {
        let g = gen::path(2);
        let pg = to_prob_graph(&g, &[1.2], 0.01).unwrap();
        assert_eq!(pg.edge_prob_between(0, 1), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_probs_panic() {
        let g = gen::path(3);
        let _ = to_prob_graph(&g, &[0.5], 0.01);
    }
}
