//! Reliability queries over probabilistic graphs.
//!
//! The paper's related work (§7) situates typical cascades among
//! *reliability* problems: 2-terminal reliability `rel(s, t)` — the
//! probability that `t` is reachable from `s` — is `#P`-complete
//! (Valiant), and Theorem 1's hardness proof reduces from it. This module
//! provides the standard Monte-Carlo estimators, plus *reliability
//! search* (Khan et al., EDBT 2014): all nodes reachable from a source
//! set with probability at least a threshold.
//!
//! Reliability search connects directly to typical cascades: the
//! `η = 0.5` reliability-search result is exactly the majority median of
//! the cascade distribution, which Chierichetti et al. show is within
//! `ε + O(ε^{3/2})` of the optimal typical cascade (§5, observation 4).

use crate::CascadeSampler;
use soi_graph::{NodeId, ProbGraph};
use soi_util::runtime::Deadline;

/// Monte-Carlo estimate of the 2-terminal reliability `rel(source, target)`.
/// Deterministic in `seed`.
pub fn two_terminal(
    pg: &ProbGraph,
    source: NodeId,
    target: NodeId,
    samples: usize,
    seed: u64,
) -> f64 {
    assert!(samples > 0);
    let mut hits = 0usize;
    let unlimited = Deadline::unlimited();
    CascadeSampler::for_each_cascade(pg, &[source], samples, seed, &unlimited, |cascade| {
        if cascade.contains(&target) {
            hits += 1;
        }
    });
    hits as f64 / samples as f64
}

/// Per-node reachability probabilities from a source set: index `v` holds
/// `Pr[v reachable from sources]`. One pass of `samples` cascades.
pub fn reachability_probabilities(
    pg: &ProbGraph,
    sources: &[NodeId],
    samples: usize,
    seed: u64,
) -> Vec<f64> {
    assert!(samples > 0);
    let n = pg.num_nodes();
    let mut counts = vec![0u32; n];
    let unlimited = Deadline::unlimited();
    CascadeSampler::for_each_cascade(pg, sources, samples, seed, &unlimited, |cascade| {
        for &v in cascade.iter() {
            counts[v as usize] += 1;
        }
    });
    counts
        .into_iter()
        .map(|c| c as f64 / samples as f64)
        .collect()
}

/// Reliability search: nodes reachable from `sources` with probability
/// `>= eta`, as a canonical sorted set.
pub fn reliability_search(
    pg: &ProbGraph,
    sources: &[NodeId],
    eta: f64,
    samples: usize,
    seed: u64,
) -> Vec<NodeId> {
    assert!((0.0..=1.0).contains(&eta), "eta must be a probability");
    reachability_probabilities(pg, sources, samples, seed)
        .into_iter()
        .enumerate()
        .filter(|&(_, p)| p >= eta)
        .map(|(v, _)| v as NodeId)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::{gen, GraphBuilder};

    #[test]
    fn two_terminal_on_a_path() {
        // rel(0, 2) on 0 -0.5-> 1 -0.5-> 2 is 0.25.
        let pg = ProbGraph::fixed(gen::path(3), 0.5).unwrap();
        let r = two_terminal(&pg, 0, 2, 100_000, 1);
        assert!((r - 0.25).abs() < 0.01, "{r}");
        assert_eq!(two_terminal(&pg, 0, 0, 100, 1), 1.0, "self-reliability");
        assert_eq!(two_terminal(&pg, 2, 0, 1000, 1), 0.0, "wrong direction");
    }

    #[test]
    fn two_terminal_parallel_paths() {
        // Two independent 2-hop routes 0->1->3 and 0->2->3, each p = 0.6:
        // per-route 0.36, combined 1 - (1 - 0.36)^2 = 0.5904.
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(0, 1), (1, 3), (0, 2), (2, 3)] {
            b.add_weighted_edge(u, v, 0.6);
        }
        let pg = b.build_prob().unwrap();
        let r = two_terminal(&pg, 0, 3, 200_000, 2);
        assert!((r - 0.5904).abs() < 0.005, "{r}");
    }

    #[test]
    fn reachability_probabilities_match_closed_form() {
        let pg = ProbGraph::fixed(gen::path(4), 0.5).unwrap();
        let probs = reachability_probabilities(&pg, &[0], 200_000, 3);
        for (v, expect) in [(0usize, 1.0), (1, 0.5), (2, 0.25), (3, 0.125)] {
            assert!((probs[v] - expect).abs() < 0.01, "node {v}: {}", probs[v]);
        }
    }

    #[test]
    fn reliability_search_thresholds() {
        let pg = ProbGraph::fixed(gen::path(4), 0.5).unwrap();
        assert_eq!(reliability_search(&pg, &[0], 0.4, 50_000, 4), vec![0, 1]);
        assert_eq!(reliability_search(&pg, &[0], 0.2, 50_000, 4), vec![0, 1, 2]);
        assert_eq!(reliability_search(&pg, &[0], 1.0, 50_000, 4), vec![0]);
        assert_eq!(
            reliability_search(&pg, &[0], 0.0, 100, 4).len(),
            4,
            "eta = 0 keeps everything"
        );
    }

    #[test]
    fn majority_search_matches_majority_median_of_cascades() {
        // The η = 0.5 reliability search equals the majority median of the
        // same cascade sample (both = "in at least half the cascades").
        let pg = ProbGraph::fixed(gen::star(8), 0.7).unwrap();
        let samples = 10_001; // odd, avoids boundary ties
        let sets = crate::CascadeSampler::sample_many(&pg, &[0], samples, 5);
        let maj = soi_jaccard_majority(&sets);
        let search = reliability_search(&pg, &[0], 0.5, samples, 5);
        assert_eq!(maj, search);
    }

    // Local copy of the majority rule (this crate cannot depend on
    // soi-jaccard without a cycle); mirrors soi_jaccard::median::majority.
    fn soi_jaccard_majority(samples: &[Vec<NodeId>]) -> Vec<NodeId> {
        let mut counts = std::collections::BTreeMap::new();
        for s in samples {
            for &v in s {
                *counts.entry(v).or_insert(0usize) += 1;
            }
        }
        let threshold = samples.len().div_ceil(2);
        let mut out: Vec<NodeId> = counts
            .into_iter()
            .filter(|&(_, c)| c >= threshold)
            .map(|(v, _)| v)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn multi_source_reliability() {
        let mut b = GraphBuilder::new(5);
        b.add_weighted_edge(0, 2, 0.5);
        b.add_weighted_edge(1, 2, 0.5);
        let pg = b.build_prob().unwrap();
        // From both sources: Pr[2 reachable] = 1 - 0.25 = 0.75.
        let probs = reachability_probabilities(&pg, &[0, 1], 100_000, 6);
        assert!((probs[2] - 0.75).abs() < 0.01, "{}", probs[2]);
        assert_eq!(probs[0], 1.0);
        assert_eq!(probs[4], 0.0);
    }
}
