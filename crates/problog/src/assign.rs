//! Artificial probability-assignment models (§6.2).
//!
//! Thin, discoverable wrappers over the constructors in
//! [`soi_graph::ProbGraph`], so callers working with the learning pipeline
//! find both paths (learnt / assigned) in one crate, plus a uniform-random
//! assignment used as ground truth by the dataset registry.

use soi_graph::{DiGraph, GraphError, ProbGraph};
use soi_util::rng::Rng;

/// Weighted cascade: `p(u, v) = 1 / inDeg(v)` (suffix `-W` in the paper).
pub fn weighted_cascade(graph: DiGraph) -> ProbGraph {
    ProbGraph::weighted_cascade(graph)
}

/// Fixed probability `p` on every arc (suffix `-F`; the paper uses 0.1).
pub fn fixed(graph: DiGraph, p: f64) -> Result<ProbGraph, GraphError> {
    ProbGraph::fixed(graph, p)
}

/// Independent uniform probabilities in `[lo, hi]` — the ground-truth
/// model the dataset registry plants before generating logs, so learners
/// face heterogeneous arc strengths.
pub fn uniform_random<R: Rng>(
    graph: DiGraph,
    lo: f64,
    hi: f64,
    rng: &mut R,
) -> Result<ProbGraph, GraphError> {
    assert!(lo > 0.0 && hi <= 1.0 && lo <= hi, "need 0 < lo <= hi <= 1");
    let probs = (0..graph.num_edges())
        .map(|_| lo + (hi - lo) * rng.random::<f64>())
        .collect();
    ProbGraph::new(graph, probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::gen;
    use soi_util::rng::Xoshiro256pp;

    #[test]
    fn uniform_random_stays_in_range() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let pg = uniform_random(gen::complete(10), 0.05, 0.4, &mut rng).unwrap();
        assert!(pg.probs().iter().all(|&p| (0.05..=0.4).contains(&p)));
        // Heterogeneous: not all equal.
        let first = pg.probs()[0];
        assert!(pg.probs().iter().any(|&p| (p - first).abs() > 1e-6));
    }

    #[test]
    #[should_panic(expected = "need 0 < lo <= hi <= 1")]
    fn uniform_random_validates_bounds() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let _ = uniform_random(gen::path(3), 0.5, 0.2, &mut rng);
    }

    #[test]
    fn wrappers_delegate() {
        let pg = weighted_cascade(gen::star(4));
        assert_eq!(pg.edge_prob_between(0, 1), Some(1.0));
        let pg = fixed(gen::star(4), 0.1).unwrap();
        assert!(pg.probs().iter().all(|&p| p == 0.1));
    }
}
