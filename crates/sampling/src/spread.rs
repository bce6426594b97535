//! Monte-Carlo estimation of the expected spread `σ(S)`.
//!
//! The expected spread — the objective of influence maximization (§1) — is
//! `#P`-hard to compute exactly, so Kempe et al. estimate it by averaging
//! cascade sizes over sampled worlds. `soi-influence` has a faster,
//! index-backed estimator for greedy loops; this standalone one is the
//! reference implementation every other estimator is tested against.

use crate::CascadeSampler;
use soi_graph::{NodeId, ProbGraph};
use soi_util::runtime::{Deadline, Outcome};

/// Estimates `σ(seeds)` as the mean cascade size over `samples` independent
/// cascades. Deterministic in `seed`.
///
/// ```
/// use soi_graph::{gen, ProbGraph};
/// use soi_sampling::estimate_spread;
/// // Path 0 -> 1 -> 2 with p = 0.5: σ({0}) = 1 + 1/2 + 1/4.
/// let pg = ProbGraph::fixed(gen::path(3), 0.5).unwrap();
/// let sigma = estimate_spread(&pg, &[0], 20_000, 42);
/// assert!((sigma - 1.75).abs() < 0.05);
/// ```
pub fn estimate_spread(pg: &ProbGraph, seeds: &[NodeId], samples: usize, seed: u64) -> f64 {
    assert!(samples > 0, "need at least one sample");
    estimate_spread_budgeted(pg, seeds, samples, seed, &Deadline::unlimited()).value()
}

/// Budgeted [`estimate_spread`]: one tick per sampled cascade. On expiry
/// returns the mean over the cascades completed so far (0.0 when none
/// finished); sample `i` depends only on `(seed, i)`, so the partial mean
/// is over the same prefix an uninterrupted run would average first.
pub fn estimate_spread_budgeted(
    pg: &ProbGraph,
    seeds: &[NodeId],
    samples: usize,
    seed: u64,
    deadline: &Deadline,
) -> Outcome<f64> {
    let mut total = 0usize;
    let done = CascadeSampler::for_each_cascade(pg, seeds, samples, seed, deadline, |cascade| {
        total += cascade.len();
    });
    let mean = if done == 0 {
        0.0
    } else {
        total as f64 / done as f64
    };
    deadline.outcome(mean, done as u64, samples as u64)
}

/// Exact expected spread by exhaustive world enumeration
/// ([`crate::world::enumerate_worlds`]) — `O(2^E)`, only for graphs with
/// very few edges; anchors the estimator tests.
pub fn exact_spread_bruteforce(pg: &ProbGraph, seeds: &[NodeId]) -> f64 {
    let mut total = 0.0;
    let mut reach = soi_graph::Reachability::new(pg.num_nodes());
    let mut out = Vec::new();
    crate::world::enumerate_worlds(pg, |world, prob| {
        reach.multi_source(world, seeds, &mut out);
        total += prob * out.len() as f64;
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::{gen, GraphBuilder};

    #[test]
    fn path_spread_closed_form() {
        // Path 0->1->2->3 with p = 0.5: σ({0}) = 1 + 1/2 + 1/4 + 1/8.
        let pg = ProbGraph::fixed(gen::path(4), 0.5).unwrap();
        let est = estimate_spread(&pg, &[0], 60_000, 42);
        assert!((est - 1.875).abs() < 0.02, "est {est}");
    }

    #[test]
    fn estimator_matches_bruteforce() {
        let mut b = GraphBuilder::new(5);
        b.add_weighted_edge(0, 1, 0.3);
        b.add_weighted_edge(0, 2, 0.7);
        b.add_weighted_edge(1, 3, 0.5);
        b.add_weighted_edge(2, 3, 0.2);
        b.add_weighted_edge(3, 4, 0.9);
        let pg = b.build_prob().unwrap();
        let exact = exact_spread_bruteforce(&pg, &[0]);
        let est = estimate_spread(&pg, &[0], 100_000, 7);
        assert!((est - exact).abs() < 0.02, "est {est} vs exact {exact}");
    }

    #[test]
    fn spread_is_monotone_in_seeds() {
        let pg = ProbGraph::fixed(
            gen::gnm(30, 90, &mut {
                soi_util::rng::Xoshiro256pp::seed_from_u64(1)
            }),
            0.2,
        )
        .unwrap();
        let s1 = estimate_spread(&pg, &[0], 2_000, 5);
        let s2 = estimate_spread(&pg, &[0, 1], 2_000, 5);
        let s3 = estimate_spread(&pg, &[0, 1, 2], 2_000, 5);
        assert!(s2 >= s1 - 1e-9, "{s2} < {s1}");
        assert!(s3 >= s2 - 1e-9, "{s3} < {s2}");
    }

    #[test]
    fn budgeted_spread_stops_at_the_sample_boundary() {
        use soi_util::runtime::Deadline;
        let pg = ProbGraph::fixed(gen::path(4), 0.5).unwrap();
        let complete = estimate_spread_budgeted(&pg, &[0], 500, 42, &Deadline::unlimited());
        assert!(complete.is_complete());
        assert_eq!(complete.value(), estimate_spread(&pg, &[0], 500, 42));

        let d = Deadline::ticks(100);
        let partial = estimate_spread_budgeted(&pg, &[0], 500, 42, &d);
        assert!(!partial.is_complete());
        assert_eq!(partial.progress().unwrap().done, 100);
        // The partial mean is over the same first 100 samples an
        // uninterrupted 100-sample run would draw.
        assert_eq!(partial.value(), estimate_spread(&pg, &[0], 100, 42));

        let none = estimate_spread_budgeted(&pg, &[0], 500, 42, &Deadline::ticks(0));
        assert_eq!(none.value_ref(), &0.0);
        assert!(!none.is_complete());
    }

    #[test]
    fn empty_seed_set_spreads_nothing() {
        let pg = ProbGraph::fixed(gen::complete(5), 0.5).unwrap();
        assert_eq!(estimate_spread(&pg, &[], 100, 1), 0.0);
    }

    #[test]
    fn seeds_count_themselves() {
        let pg = ProbGraph::fixed(gen::path(3), 1e-9).unwrap();
        let s = estimate_spread(&pg, &[0, 2], 500, 2);
        assert!((s - 2.0).abs() < 0.05, "isolated seeds still count: {s}");
    }
}
