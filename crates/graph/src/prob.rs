//! The probabilistic directed graph `G = (V, E, p)` of §2.1.
//!
//! A [`ProbGraph`] pairs a [`DiGraph`] with one existence probability per
//! CSR edge slot. Under the possible-world semantics (Eq. 1 of the paper)
//! it defines a distribution over subgraphs: every arc is kept
//! independently with its probability. Sampling lives in `soi-sampling`;
//! this module owns representation, validation, and the standard
//! *assignment models* used in the evaluation (§6.2): weighted cascade,
//! fixed probability, and the trivalency model.

use crate::{DiGraph, GraphError, NodeId};
use soi_util::rng::Rng;

/// A directed graph whose arcs carry independent existence probabilities
/// in `(0, 1]`.
#[derive(Clone, Debug, PartialEq)]
pub struct ProbGraph {
    graph: DiGraph,
    /// `probs[e]` is the probability of the CSR edge at position `e`.
    probs: Vec<f64>,
}

impl ProbGraph {
    /// Pairs a graph with per-edge probabilities (CSR edge order).
    ///
    /// Every probability must be finite and in `(0, 1]`; the vector length
    /// must equal the edge count.
    pub fn new(graph: DiGraph, probs: Vec<f64>) -> Result<Self, GraphError> {
        if probs.len() != graph.num_edges() {
            return Err(GraphError::ProbabilityArityMismatch {
                edges: graph.num_edges(),
                probs: probs.len(),
            });
        }
        for (i, &p) in probs.iter().enumerate() {
            if !p.is_finite() || p <= 0.0 || p > 1.0 {
                return Err(GraphError::InvalidProbability {
                    edge_index: i,
                    value: p,
                });
            }
        }
        Ok(ProbGraph { graph, probs })
    }

    /// Assigns the same probability `p` to every arc — the paper's *fixed*
    /// model (`p = 0.1` in §6.2, suffix `-F`).
    pub fn fixed(graph: DiGraph, p: f64) -> Result<Self, GraphError> {
        let probs = vec![p; graph.num_edges()];
        ProbGraph::new(graph, probs)
    }

    /// The *weighted cascade* model (§6.2, suffix `-W`):
    /// `p(u, v) = 1 / inDeg(v)`.
    ///
    /// Nodes necessarily have `inDeg >= 1` wherever they appear as a
    /// target, so all probabilities are valid.
    pub fn weighted_cascade(graph: DiGraph) -> Self {
        let in_deg = graph.in_degrees();
        let mut probs = Vec::with_capacity(graph.num_edges());
        for u in graph.nodes() {
            for &v in graph.out_neighbors(u) {
                probs.push(1.0 / in_deg[v as usize] as f64);
            }
        }
        soi_util::invariant::debug_check_probabilities(&probs);
        ProbGraph { graph, probs }
    }

    /// The *trivalency* model: each arc draws uniformly from
    /// `{0.1, 0.01, 0.001}` (a standard benchmark assignment in the
    /// influence-maximization literature; listed as an extension in
    /// DESIGN.md).
    pub fn trivalency<R: Rng>(graph: DiGraph, rng: &mut R) -> Self {
        const LEVELS: [f64; 3] = [0.1, 0.01, 0.001];
        let probs: Vec<f64> = (0..graph.num_edges())
            .map(|_| LEVELS[rng.random_range(0..3)])
            .collect();
        soi_util::invariant::debug_check_probabilities(&probs);
        ProbGraph { graph, probs }
    }

    /// Assigns probabilities via a callback `(u, v) -> p`; useful for
    /// custom models and tests. Fails if any produced value is invalid.
    pub fn from_fn(
        graph: DiGraph,
        mut f: impl FnMut(NodeId, NodeId) -> f64,
    ) -> Result<Self, GraphError> {
        let mut probs = Vec::with_capacity(graph.num_edges());
        for u in graph.nodes() {
            for &v in graph.out_neighbors(u) {
                probs.push(f(u, v));
            }
        }
        ProbGraph::new(graph, probs)
    }

    /// The underlying topology.
    #[inline]
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of arcs.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Probability of the CSR edge at position `e`.
    #[inline]
    pub fn edge_prob(&self, e: usize) -> f64 {
        self.probs[e]
    }

    /// All probabilities in CSR edge order.
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Probability of arc `(u, v)`, or `None` when the arc is absent.
    pub fn edge_prob_between(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let r = self.graph.edge_range(u);
        let list = self.graph.out_neighbors(u);
        list.binary_search(&v).ok().map(|i| self.probs[r.start + i])
    }

    /// Out-neighbors of `u` with their probabilities.
    pub fn out_arcs(&self, u: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let r = self.graph.edge_range(u);
        self.graph
            .out_neighbors(u)
            .iter()
            .zip(&self.probs[r])
            .map(|(&v, &p)| (v, p))
    }

    /// A 64-bit fingerprint of this probabilistic graph (topology plus
    /// exact probability bits), used to pin checkpoints and resumable
    /// runs to the graph they were started on. Deterministic across
    /// processes and platforms (little-endian byte hashing).
    pub fn fingerprint(&self) -> u64 {
        let mut h = soi_util::hash::Mix64Hasher::new();
        h.update_u64(self.num_nodes() as u64);
        h.update_u64(self.num_edges() as u64);
        for u in self.graph.nodes() {
            for &v in self.graph.out_neighbors(u) {
                h.update_u64(v as u64);
            }
            // Degree boundaries distinguish e.g. 0->{1,2} from 0->{1}, 1->{2}.
            h.update_u64(u64::MAX);
        }
        for &p in &self.probs {
            h.update_u64(p.to_bits());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_util::rng::Xoshiro256pp;

    fn diamond() -> DiGraph {
        DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn validation_rejects_bad_probs() {
        let g = diamond();
        assert!(matches!(
            ProbGraph::new(g.clone(), vec![0.5; 3]),
            Err(GraphError::ProbabilityArityMismatch { edges: 4, probs: 3 })
        ));
        for bad in [0.0, -0.1, 1.1, f64::NAN, f64::INFINITY] {
            let mut probs = vec![0.5; 4];
            probs[2] = bad;
            assert!(
                matches!(
                    ProbGraph::new(g.clone(), probs),
                    Err(GraphError::InvalidProbability { edge_index: 2, .. })
                ),
                "{bad} accepted"
            );
        }
    }

    #[test]
    fn fixed_model() {
        let pg = ProbGraph::fixed(diamond(), 0.1).unwrap();
        assert!(pg.probs().iter().all(|&p| p == 0.1));
        assert!(ProbGraph::fixed(diamond(), 0.0).is_err());
    }

    #[test]
    fn weighted_cascade_uses_in_degree() {
        let pg = ProbGraph::weighted_cascade(diamond());
        // in-degrees: 1->1, 2->1, 3->2
        assert_eq!(pg.edge_prob_between(0, 1), Some(1.0));
        assert_eq!(pg.edge_prob_between(0, 2), Some(1.0));
        assert_eq!(pg.edge_prob_between(1, 3), Some(0.5));
        assert_eq!(pg.edge_prob_between(2, 3), Some(0.5));
    }

    #[test]
    fn trivalency_draws_from_levels() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let pg = ProbGraph::trivalency(diamond(), &mut rng);
        for &p in pg.probs() {
            assert!([0.1, 0.01, 0.001].contains(&p));
        }
    }

    #[test]
    fn from_fn_and_lookup() {
        let pg = ProbGraph::from_fn(diamond(), |u, v| ((u + v) as f64) / 10.0).unwrap();
        assert_eq!(pg.edge_prob_between(1, 3), Some(0.4));
        assert_eq!(pg.edge_prob_between(3, 1), None);
        assert_eq!(pg.edge_prob_between(0, 3), None);
    }

    #[test]
    fn out_arcs_pairs_neighbors_with_probs() {
        let pg = ProbGraph::from_fn(diamond(), |_, v| (v as f64 + 1.0) / 10.0).unwrap();
        let arcs: Vec<_> = pg.out_arcs(0).collect();
        assert_eq!(arcs, vec![(1, 0.2), (2, 0.3)]);
    }
}
