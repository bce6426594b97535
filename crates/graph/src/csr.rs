//! Compressed-sparse-row directed graph storage.
//!
//! A [`DiGraph`] stores, for each node, a contiguous slice of out-neighbor
//! ids. This is the representation every hot loop in the workspace walks:
//! possible-world sampling, SCC, reachability, spread simulation. Undirected
//! graphs are represented as symmetric arc pairs, exactly as the paper does
//! ("when a graph is undirected, we just consider the edges existing in both
//! directions", §6.1).

use crate::{GraphError, NodeId};

/// The most arcs a [`DiGraph`] holds: its CSR offsets are `u32`, which
/// halves their footprint in every sampled world the cascade index keeps.
pub const MAX_ARCS: usize = u32::MAX as usize;

/// [`GraphError::TooManyArcs`] when `arcs` exceeds [`MAX_ARCS`]. Every
/// graph's arcs pass this check (in [`DiGraph::from_edges`]), so an
/// offset never wraps.
pub fn check_arc_count(arcs: usize) -> Result<(), GraphError> {
    if arcs > MAX_ARCS {
        return Err(GraphError::TooManyArcs { arcs });
    }
    Ok(())
}

/// An immutable directed graph in CSR form.
///
/// Construct via [`crate::GraphBuilder`] or [`DiGraph::from_edges`].
#[derive(Clone, Debug, PartialEq)]
pub struct DiGraph {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for node `v`'s out-arcs.
    offsets: Vec<u32>,
    /// Concatenated out-neighbor lists, sorted within each node.
    targets: Vec<NodeId>,
}

impl DiGraph {
    /// Builds a graph from `(source, target)` arcs.
    ///
    /// Arcs may appear in any order; within each node the stored neighbor
    /// list is sorted. Parallel arcs and self-loops are kept verbatim (use
    /// [`crate::GraphBuilder`] for deduplication). More than
    /// [`MAX_ARCS`] arcs is [`GraphError::TooManyArcs`].
    pub fn from_edges(num_nodes: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        check_arc_count(edges.len())?;
        let mut counts = vec![0u32; num_nodes + 1];
        for &(u, v) in edges {
            for w in [u, v] {
                if w as usize >= num_nodes {
                    return Err(GraphError::NodeOutOfRange { node: w, num_nodes });
                }
            }
            counts[u as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as NodeId; edges.len()];
        for &(u, v) in edges {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
        }
        let mut g = DiGraph { offsets, targets };
        g.sort_neighbors();
        Ok(g)
    }

    /// Builds a graph directly from CSR arrays.
    ///
    /// Used by hot paths (world sampling) that produce CSR layout natively.
    /// Requirements, validated in debug builds by
    /// [`soi_util::invariant::check_csr`]: `offsets` is monotonically
    /// non-decreasing, starts at 0, ends at `targets.len()`, and every
    /// per-node target slice is sorted with ids `< offsets.len()-1`.
    pub fn from_csr_parts(offsets: Vec<u32>, targets: Vec<NodeId>) -> Self {
        soi_util::invariant::debug_check_csr(&offsets, &targets);
        DiGraph { offsets, targets }
    }

    /// The raw CSR arrays `(offsets, targets)`.
    ///
    /// `offsets[v]..offsets[v+1]` indexes `targets` for node `v`; exposed
    /// so invariant checkers and serializers can walk the layout without
    /// per-node accessor calls.
    #[inline]
    pub fn csr_parts(&self) -> (&[u32], &[NodeId]) {
        (&self.offsets, &self.targets)
    }

    /// Builds an empty graph with `num_nodes` isolated nodes.
    pub fn empty(num_nodes: usize) -> Self {
        DiGraph {
            offsets: vec![0; num_nodes + 1],
            targets: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of arcs.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbors of `v` as a sorted slice.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.edge_range(v)]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// The CSR edge-array range of `v`'s out-arcs; parallel arrays (edge
    /// probabilities in [`crate::ProbGraph`]) are indexed by this range.
    #[inline]
    pub fn edge_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// The target of the CSR edge at position `e`.
    #[inline]
    pub fn edge_target(&self, e: usize) -> NodeId {
        self.targets[e]
    }

    /// Iterates over all arcs as `(source, target)` pairs in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes() as NodeId)
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Iterates over node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// Whether arc `(u, v)` exists (binary search on the sorted list).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// The reverse graph (every arc flipped). In-degree of `v` here equals
    /// `reverse.out_degree(v)`; the weighted-cascade model needs this.
    pub fn reverse(&self) -> DiGraph {
        let n = self.num_nodes();
        let mut counts = vec![0u32; n + 1];
        for &t in &self.targets {
            counts[t as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as NodeId; self.targets.len()];
        for u in 0..n {
            for &v in self.out_neighbors(u as NodeId) {
                targets[cursor[v as usize] as usize] = u as NodeId;
                cursor[v as usize] += 1;
            }
        }
        let mut g = DiGraph { offsets, targets };
        g.sort_neighbors();
        g
    }

    /// Sorts every node's out-neighbor slice in place.
    fn sort_neighbors(&mut self) {
        for v in self.nodes() {
            let r = self.edge_range(v);
            self.targets[r].sort_unstable();
        }
    }

    /// In-degrees of every node (one pass, no reverse materialization).
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.num_nodes()];
        for &t in &self.targets {
            deg[t as usize] += 1;
        }
        deg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert!(g.has_edge(1, 3));
        assert!(!g.has_edge(3, 1));
    }

    #[test]
    fn neighbor_lists_are_sorted_regardless_of_input_order() {
        let g = DiGraph::from_edges(3, &[(0, 2), (0, 1), (2, 0), (2, 1)]).unwrap();
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.out_neighbors(2), &[0, 1]);
    }

    #[test]
    fn out_of_range_edge_is_rejected() {
        let err = DiGraph::from_edges(2, &[(0, 2)]).unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: 2,
                num_nodes: 2
            }
        );
        // Source endpoint checked too.
        assert!(DiGraph::from_edges(2, &[(5, 0)]).is_err());
    }

    #[test]
    fn edges_iterator_covers_all_arcs() {
        let g = diamond();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn reverse_flips_arcs() {
        let g = diamond();
        let r = g.reverse();
        assert_eq!(r.num_edges(), 4);
        assert_eq!(r.out_neighbors(3), &[1, 2]);
        assert_eq!(r.out_neighbors(0), &[] as &[NodeId]);
        assert_eq!(r.reverse(), g, "double reverse is identity");
    }

    #[test]
    fn in_degrees_match_reverse_out_degrees() {
        let g = diamond();
        let deg = g.in_degrees();
        let r = g.reverse();
        for v in g.nodes() {
            assert_eq!(deg[v as usize], r.out_degree(v));
        }
        assert_eq!(deg, vec![0, 1, 1, 2]);
    }

    #[test]
    fn empty_and_isolated() {
        let g = DiGraph::empty(3);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.out_neighbors(2), &[] as &[NodeId]);
        let g0 = DiGraph::empty(0);
        assert_eq!(g0.num_nodes(), 0);
        assert_eq!(g0.edges().count(), 0);
    }

    #[test]
    fn from_csr_parts_matches_from_edges() {
        let g = diamond();
        let rebuilt = DiGraph::from_csr_parts(vec![0, 2, 3, 4, 4], vec![1, 2, 3, 3]);
        assert_eq!(rebuilt, g);
    }

    #[test]
    fn arc_limit_is_u32_max() {
        // Tested on the count alone: no 2^32-arc graph is allocated.
        assert_eq!(check_arc_count(MAX_ARCS), Ok(()));
        assert_eq!(
            check_arc_count(MAX_ARCS + 1),
            Err(GraphError::TooManyArcs { arcs: MAX_ARCS + 1 })
        );
    }

    #[test]
    fn self_loops_and_parallel_edges_kept() {
        let g = DiGraph::from_edges(2, &[(0, 0), (0, 1), (0, 1)]).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_neighbors(0), &[0, 1, 1]);
    }
}
