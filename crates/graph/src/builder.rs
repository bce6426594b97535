//! Incremental graph construction with optional per-edge payloads.
//!
//! [`GraphBuilder`] accumulates arcs (optionally weighted), deduplicates
//! them, and produces a [`DiGraph`] — plus, when weights were supplied, the
//! probability vector aligned with the CSR edge order that
//! [`crate::ProbGraph`] requires.

use crate::{DiGraph, GraphError, NodeId, ProbGraph};

/// Accumulates arcs and builds CSR graphs.
///
/// ```
/// use soi_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(0, 1); // duplicate, collapsed at build time
/// let g = b.build().unwrap();
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId, f64)>,
    keep_self_loops: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
            keep_self_loops: false,
        }
    }

    /// Pre-allocates space for `n` edges.
    pub fn with_edge_capacity(mut self, n: usize) -> Self {
        self.edges.reserve(n);
        self
    }

    /// Keeps self-loops instead of dropping them (default: dropped — a
    /// self-loop never changes a cascade, the source is already active).
    pub fn keep_self_loops(mut self, keep: bool) -> Self {
        self.keep_self_loops = keep;
        self
    }

    /// Adds an unweighted arc `(u, v)` (weight recorded as 1.0).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.edges.push((u, v, 1.0));
    }

    /// Adds a weighted arc; the weight becomes the edge probability when
    /// building a [`ProbGraph`].
    pub fn add_weighted_edge(&mut self, u: NodeId, v: NodeId, p: f64) {
        self.edges.push((u, v, p));
    }

    /// Adds the symmetric pair `(u, v)` and `(v, u)` with weight `p`
    /// (undirected-graph convention from §6.1 of the paper).
    pub fn add_undirected_edge(&mut self, u: NodeId, v: NodeId, p: f64) {
        self.edges.push((u, v, p));
        self.edges.push((v, u, p));
    }

    /// Deduplicated, sorted arc list; for duplicate arcs the *maximum*
    /// weight is kept (two influence channels: keep the stronger estimate).
    fn canonical_edges(&self) -> Result<Vec<(NodeId, NodeId, f64)>, GraphError> {
        for &(u, v, _) in &self.edges {
            for w in [u, v] {
                if w as usize >= self.num_nodes {
                    return Err(GraphError::NodeOutOfRange {
                        node: w,
                        num_nodes: self.num_nodes,
                    });
                }
            }
        }
        let mut es: Vec<_> = self
            .edges
            .iter()
            .filter(|&&(u, v, _)| self.keep_self_loops || u != v)
            .copied()
            .collect();
        es.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
        es.dedup_by(|next, prev| {
            if (next.0, next.1) == (prev.0, prev.1) {
                prev.2 = prev.2.max(next.2);
                true
            } else {
                false
            }
        });
        Ok(es)
    }

    /// Builds a plain [`DiGraph`], discarding weights.
    pub fn build(&self) -> Result<DiGraph, GraphError> {
        let es = self.canonical_edges()?;
        let pairs: Vec<(NodeId, NodeId)> = es.iter().map(|&(u, v, _)| (u, v)).collect();
        DiGraph::from_edges(self.num_nodes, &pairs)
    }

    /// Builds a [`ProbGraph`] using the accumulated weights as edge
    /// probabilities. Fails if any weight is outside `(0, 1]`.
    pub fn build_prob(&self) -> Result<ProbGraph, GraphError> {
        let es = self.canonical_edges()?;
        let pairs: Vec<(NodeId, NodeId)> = es.iter().map(|&(u, v, _)| (u, v)).collect();
        let graph = DiGraph::from_edges(self.num_nodes, &pairs)?;
        // canonical_edges sorts by (u, v), which is exactly CSR order.
        let probs: Vec<f64> = es.iter().map(|&(_, _, p)| p).collect();
        ProbGraph::new(graph, probs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_max_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 0.2);
        b.add_weighted_edge(0, 1, 0.7);
        b.add_weighted_edge(0, 1, 0.5);
        let pg = b.build_prob().unwrap();
        assert_eq!(pg.graph().num_edges(), 1);
        assert_eq!(pg.edge_prob_between(0, 1), Some(0.7));
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        assert_eq!(b.build().unwrap().num_edges(), 1);

        let mut b = GraphBuilder::new(2).keep_self_loops(true);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        assert_eq!(b.build().unwrap().num_edges(), 2);
    }

    #[test]
    fn undirected_adds_both_arcs() {
        let mut b = GraphBuilder::new(3);
        b.add_undirected_edge(0, 2, 0.4);
        let pg = b.build_prob().unwrap();
        assert_eq!(pg.graph().num_edges(), 2);
        assert_eq!(pg.edge_prob_between(0, 2), Some(0.4));
        assert_eq!(pg.edge_prob_between(2, 0), Some(0.4));
    }

    #[test]
    fn out_of_range_reported() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 3);
        assert!(matches!(
            b.build(),
            Err(GraphError::NodeOutOfRange { node: 3, .. })
        ));
    }

    #[test]
    fn invalid_probability_rejected_at_build_prob() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 1.5);
        assert!(matches!(
            b.build_prob(),
            Err(GraphError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn prob_alignment_follows_csr_order() {
        let mut b = GraphBuilder::new(3);
        // Insert out of order; CSR order is (0,1),(0,2),(1,2).
        b.add_weighted_edge(1, 2, 0.3);
        b.add_weighted_edge(0, 2, 0.2);
        b.add_weighted_edge(0, 1, 0.1);
        let pg = b.build_prob().unwrap();
        assert_eq!(pg.edge_prob_between(0, 1), Some(0.1));
        assert_eq!(pg.edge_prob_between(0, 2), Some(0.2));
        assert_eq!(pg.edge_prob_between(1, 2), Some(0.3));
    }
}
