//! Artificial probability assignment beyond the paper's two models.
//!
//! Weighted cascade and fixed probabilities (§6.2) are the
//! [`soi_graph::ProbGraph`] constructors themselves; this module adds the
//! uniform-random assignment used as ground truth in the examples.

use soi_graph::{DiGraph, GraphError, ProbGraph};
use soi_util::rng::Rng;

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
}
