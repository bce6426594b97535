//! Reachability with reusable scratch space.
//!
//! In a deterministic possible world, the cascade from `s` is exactly the
//! set of nodes reachable from `s` (§2.2). This module provides an
//! iterative DFS/BFS whose visited array and work stack survive across
//! calls — the sampling loops call it once per (world, source) pair and
//! the allocation cost would otherwise dominate.

use crate::{DiGraph, NodeId};

/// Reusable reachability scratch: a visited epoch array plus a work stack.
///
/// Epoch-stamping avoids clearing the visited array between queries: a node
/// is "visited" iff its stamp equals the current epoch.
#[derive(Clone, Debug)]
pub struct Reachability {
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
}

impl Reachability {
    /// Creates scratch space for graphs with up to `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Reachability {
            stamp: vec![0; num_nodes],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: reset stamps so stale equal-stamps cannot alias.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.stack.clear();
    }

    #[inline]
    fn visit(&mut self, v: NodeId) -> bool {
        let s = &mut self.stamp[v as usize];
        if *s == self.epoch {
            false
        } else {
            *s = self.epoch;
            true
        }
    }

    /// Nodes reachable from `source` (including `source` itself), appended
    /// to `out` in visit order. `out` is cleared first.
    pub fn reachable_from(&mut self, g: &DiGraph, source: NodeId, out: &mut Vec<NodeId>) {
        self.multi_source(g, std::slice::from_ref(&source), out)
    }

    /// Nodes reachable from any of `sources` (union of cascades), appended
    /// to `out` in visit order. `out` is cleared first. Duplicate sources
    /// are fine.
    pub fn multi_source(&mut self, g: &DiGraph, sources: &[NodeId], out: &mut Vec<NodeId>) {
        self.multi_source_deferring(g, sources, |_| true, |_| false, out, &mut Vec::new());
    }

    /// [`multi_source`](Self::multi_source) over the arcs `live` holds for
    /// (CSR arc ids, as [`DiGraph::edge_range`] numbers them), that visits
    /// but does not expand the nodes `defer` holds for: they go to
    /// `deferred` (cleared first) instead of `out`, and
    /// [`resume`](Self::resume) can expand them later. A walk over a
    /// materialised world passes `|_| true`; one over a possible world
    /// kept as a live-arc mask of `g` passes the mask.
    pub fn multi_source_deferring(
        &mut self,
        g: &DiGraph,
        sources: &[NodeId],
        live: impl Fn(usize) -> bool,
        defer: impl Fn(NodeId) -> bool,
        out: &mut Vec<NodeId>,
        deferred: &mut Vec<NodeId>,
    ) {
        self.begin();
        out.clear();
        deferred.clear();
        for &s in sources {
            self.enter(s, &defer, out, deferred);
        }
        self.drain(g, &live, &defer, out, deferred);
    }

    /// Continues the last walk over the arcs `live` holds for from `from`,
    /// nodes it visited but did not expand: appends them, and every node
    /// they reach that the walk has not visited, to `out`.
    pub fn resume(
        &mut self,
        g: &DiGraph,
        live: impl Fn(usize) -> bool,
        from: &[NodeId],
        out: &mut Vec<NodeId>,
    ) {
        out.extend_from_slice(from);
        self.stack.extend_from_slice(from);
        self.drain(g, &live, &|_| false, out, &mut Vec::new());
    }

    #[inline]
    fn enter(
        &mut self,
        v: NodeId,
        defer: &impl Fn(NodeId) -> bool,
        out: &mut Vec<NodeId>,
        deferred: &mut Vec<NodeId>,
    ) {
        if self.visit(v) {
            if defer(v) {
                deferred.push(v);
            } else {
                out.push(v);
                self.stack.push(v);
            }
        }
    }

    /// Expands the stacked nodes over their live arcs until the stack is
    /// empty.
    fn drain(
        &mut self,
        g: &DiGraph,
        live: &impl Fn(usize) -> bool,
        defer: &impl Fn(NodeId) -> bool,
        out: &mut Vec<NodeId>,
        deferred: &mut Vec<NodeId>,
    ) {
        while let Some(v) = self.stack.pop() {
            let first = g.edge_range(v).start;
            for (e, &w) in (first..).zip(g.out_neighbors(v)) {
                if live(e) {
                    self.enter(w, defer, out, deferred);
                }
            }
        }
    }

    /// Number of nodes reachable from `source` without materializing the
    /// set.
    pub fn count_reachable(&mut self, g: &DiGraph, source: NodeId) -> usize {
        self.begin();
        let mut count = 0usize;
        if self.visit(source) {
            count += 1;
            self.stack.push(source);
        }
        while let Some(v) = self.stack.pop() {
            for &w in g.out_neighbors(v) {
                if self.visit(w) {
                    count += 1;
                    self.stack.push(w);
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(mut v: Vec<NodeId>) -> Vec<NodeId> {
        v.sort_unstable();
        v
    }

    #[test]
    fn single_source_reachability() {
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let mut r = Reachability::new(5);
        let mut out = Vec::new();
        r.reachable_from(&g, 0, &mut out);
        assert_eq!(sorted(out.clone()), vec![0, 1, 2]);
        r.reachable_from(&g, 3, &mut out);
        assert_eq!(sorted(out.clone()), vec![3, 4]);
        r.reachable_from(&g, 2, &mut out);
        assert_eq!(out, vec![2], "sink reaches only itself");
    }

    #[test]
    fn multi_source_union() {
        let g = DiGraph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]).unwrap();
        let mut r = Reachability::new(6);
        let mut out = Vec::new();
        r.multi_source(&g, &[0, 2], &mut out);
        assert_eq!(sorted(out.clone()), vec![0, 1, 2, 3]);
        // Duplicates in sources don't duplicate output.
        r.multi_source(&g, &[0, 0, 1], &mut out);
        assert_eq!(sorted(out.clone()), vec![0, 1]);
        // Empty source list -> empty cascade.
        r.multi_source(&g, &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn deferred_nodes_wait_for_resume() {
        // 0 → 1 → 2 → 3 and 0 → 4; node 1 is deferred.
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (0, 4)]).unwrap();
        let mut r = Reachability::new(5);
        let (mut out, mut deferred) = (Vec::new(), Vec::new());
        r.multi_source_deferring(&g, &[0], |_| true, |v| v == 1, &mut out, &mut deferred);
        assert_eq!(sorted(out.clone()), vec![0, 4]);
        assert_eq!(deferred, vec![1]);
        r.resume(&g, |_| true, &deferred, &mut out);
        assert_eq!(sorted(out), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn dead_arcs_are_not_walked() {
        // CSR arcs 0 → 1, 0 → 4, 1 → 2, 2 → 3 are ids 0..4; arcs 1
        // (0 → 4) and 3 (2 → 3) are dead, and node 2 is deferred.
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (0, 4)]).unwrap();
        let live = |e| e != 1 && e != 3;
        let mut r = Reachability::new(5);
        let (mut out, mut deferred) = (Vec::new(), Vec::new());
        r.multi_source_deferring(&g, &[0], live, |v| v == 2, &mut out, &mut deferred);
        assert_eq!(sorted(out.clone()), vec![0, 1]);
        assert_eq!(deferred, vec![2]);
        r.resume(&g, live, &deferred, &mut out);
        assert_eq!(sorted(out), vec![0, 1, 2]);
    }

    #[test]
    fn cycles_terminate() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let mut r = Reachability::new(3);
        let mut out = Vec::new();
        r.reachable_from(&g, 1, &mut out);
        assert_eq!(sorted(out), vec![0, 1, 2]);
    }

    #[test]
    fn count_matches_materialized() {
        let g = DiGraph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (1, 4), (5, 6)]).unwrap();
        let mut r = Reachability::new(7);
        let mut out = Vec::new();
        for s in 0..7 {
            r.reachable_from(&g, s, &mut out);
            assert_eq!(r.count_reachable(&g, s), out.len(), "source {s}");
        }
    }

    #[test]
    fn scratch_reuse_is_clean_across_many_queries() {
        let g = DiGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let mut r = Reachability::new(4);
        let mut out = Vec::new();
        for _ in 0..10_000 {
            r.reachable_from(&g, 0, &mut out);
            assert_eq!(sorted(out.clone()), vec![0, 1]);
            r.reachable_from(&g, 2, &mut out);
            assert_eq!(sorted(out.clone()), vec![2, 3]);
        }
    }
}
