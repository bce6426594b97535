//! Stability: the expected cost `ρ(C)` of a candidate sphere of influence.
//!
//! §2.2 of the paper: the expected Jaccard distance between `C` and a
//! random cascade from the source measures how much cascades deviate from
//! the typical one — lower is more stable/reliable. Exact evaluation is
//! `#P`-hard (Theorem 1), so this module provides the Monte-Carlo
//! estimator `ρ̂` used throughout the evaluation (notably Figures 4, 5
//! and 8), plus an exact brute-force evaluator over tiny graphs that the
//! tests compare against.

use soi_graph::{NodeId, ProbGraph};
use soi_jaccard::distance::jaccard_distance;
use soi_sampling::CascadeSampler;
use soi_util::runtime::Deadline;

/// Monte-Carlo estimate of `ρ_{G,s}(candidate)` from `samples` fresh
/// cascades. `candidate` must be canonical (sorted, deduplicated).
/// Deterministic in `seed`.
pub fn expected_cost(
    pg: &ProbGraph,
    source: NodeId,
    candidate: &[NodeId],
    samples: usize,
    seed: u64,
) -> f64 {
    expected_cost_of_seed_set(pg, std::slice::from_ref(&source), candidate, samples, seed)
}

/// Monte-Carlo estimate of the expected cost for a *seed set* (Figure 8's
/// stability analysis evaluates exactly this, with 1000 cascades).
pub fn expected_cost_of_seed_set(
    pg: &ProbGraph,
    seeds: &[NodeId],
    candidate: &[NodeId],
    samples: usize,
    seed: u64,
) -> f64 {
    assert!(samples > 0, "need at least one sample");
    debug_assert!(
        candidate.windows(2).all(|w| w[0] < w[1]),
        "candidate not canonical"
    );
    let mut total = 0.0;
    let unlimited = Deadline::unlimited();
    CascadeSampler::for_each_cascade(pg, seeds, samples, seed, &unlimited, |cascade| {
        cascade.sort_unstable();
        total += jaccard_distance(candidate, cascade);
    });
    total / samples as f64
}

/// Exact `ρ_{G,s}(C)` by exhaustive enumeration of all `2^E` worlds
/// ([`soi_sampling::world::enumerate_worlds`]). Only for ≤ 20 edges;
/// anchors the estimator tests and reproduces the closed-form quantities
/// of Example 1.
pub fn exact_expected_cost_bruteforce(pg: &ProbGraph, source: NodeId, candidate: &[NodeId]) -> f64 {
    let mut reach = soi_graph::Reachability::new(pg.num_nodes());
    let mut cascade = Vec::new();
    let mut total = 0.0;
    soi_sampling::world::enumerate_worlds(pg, |world, prob| {
        reach.reachable_from(world, source, &mut cascade);
        cascade.sort_unstable();
        total += prob * jaccard_distance(candidate, &cascade);
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::{gen, GraphBuilder};

    #[test]
    fn deterministic_graph_has_zero_cost_at_reachability() {
        let pg = ProbGraph::fixed(gen::path(4), 1.0).unwrap();
        assert_eq!(expected_cost(&pg, 0, &[0, 1, 2, 3], 100, 1), 0.0);
        // And positive cost for a wrong candidate.
        assert!(expected_cost(&pg, 0, &[0], 100, 1) > 0.0);
    }

    #[test]
    fn estimator_matches_bruteforce() {
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 0.6);
        b.add_weighted_edge(0, 2, 0.3);
        b.add_weighted_edge(1, 3, 0.5);
        let pg = b.build_prob().unwrap();
        for candidate in [vec![0], vec![0, 1], vec![0, 1, 3], vec![0, 1, 2, 3]] {
            let exact = exact_expected_cost_bruteforce(&pg, 0, &candidate);
            let est = expected_cost(&pg, 0, &candidate, 200_000, 9);
            assert!(
                (est - exact).abs() < 0.005,
                "candidate {candidate:?}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn theorem1_identity_on_example_reduction() {
        // Sanity-check the Theorem 1 reduction arithmetic on a concrete
        // instance: rel(G, s, t) recovered from ρ(H1), ρ(H2) on G'.
        // G: 0 -> 1 with p = 0.3 (so rel(G, 0, 1) = 0.3), n = 2.
        // G': adds arcs 1 -> 0 and 1 -> 1(dropped) with probability 1.
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 0.3);
        b.add_weighted_edge(1, 0, 1.0); // t -> every node, p = 1
        let gp = b.build_prob().unwrap();
        let n = 2.0;
        let rho_h1 = exact_expected_cost_bruteforce(&gp, 0, &[0, 1]);
        let rho_h2 = exact_expected_cost_bruteforce(&gp, 0, &[0]);
        // The intermediate identity the proof derives,
        //   n·ρ(H1) − (n−1)·ρ(H2) = q(2 − 1/n) − 1 + 1/n,
        // rearranges to rel = 1 − q = (1 − n·ρ(H1) + (n−1)·ρ(H2)) / (2 − 1/n).
        // (The paper's final displayed formula carries an extra −1/n in the
        // numerator, inconsistent with its own intermediate step; we verify
        // the corrected form.)
        let rel = (1.0 - n * rho_h1 + (n - 1.0) * rho_h2) / (2.0 - 1.0 / n);
        assert!((rel - 0.3).abs() < 1e-9, "recovered reliability {rel}");
        // And the intermediate identity itself, with q = 0.7:
        let lhs = n * rho_h1 - (n - 1.0) * rho_h2;
        let rhs = 0.7 * (2.0 - 1.0 / n) - 1.0 + 1.0 / n;
        assert!((lhs - rhs).abs() < 1e-9, "identity: {lhs} vs {rhs}");
    }

    #[test]
    fn seed_set_cost_of_union_candidate() {
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(2, 3, 1.0);
        let pg = b.build_prob().unwrap();
        let c = expected_cost_of_seed_set(&pg, &[0, 2], &[0, 1, 2, 3], 50, 3);
        assert_eq!(c, 0.0);
    }

    #[test]
    fn determinism() {
        let pg = ProbGraph::fixed(gen::star(6), 0.5).unwrap();
        let a = expected_cost(&pg, 0, &[0, 1, 2], 500, 11);
        let b = expected_cost(&pg, 0, &[0, 1, 2], 500, 11);
        assert_eq!(a, b);
    }
}
