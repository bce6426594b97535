//! Strongly connected components and condensation DAGs.
//!
//! §4 of the paper builds its cascade index on the observation that all
//! vertices in the same SCC of a possible world share one reachability set.
//! We implement Tarjan's algorithm iteratively (an explicit work stack, so
//! pathological worlds cannot overflow the call stack) and derive the
//! *condensation*: the DAG obtained by contracting each SCC to a single
//! vertex, with member lists for expanding components back to nodes.

use crate::{DiGraph, NodeId};

/// Output of [`tarjan_scc`]: a component id per node plus the count.
///
/// Component ids are assigned in *reverse topological order of discovery*:
/// Tarjan emits sinks first, so `comp_of[u] >= comp_of[v]` whenever the
/// condensation has an arc `comp(u) -> comp(v)`. Equivalently, ids in
/// increasing order form a topological order of the condensation *reversed*;
/// [`Condensation::new`] relies on this.
#[derive(Clone, Debug, PartialEq)]
pub struct SccResult {
    /// `comp_of[v]` is the SCC id of node `v`.
    pub comp_of: Vec<u32>,
    /// Number of components.
    pub num_comps: usize,
}

/// Iterative Tarjan SCC. `O(V + E)` time, `O(V)` extra space.
pub fn tarjan_scc(g: &DiGraph) -> SccResult {
    let n = g.num_nodes();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n]; // discovery index
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp_of = vec![UNVISITED; n];
    let mut stack: Vec<NodeId> = Vec::new(); // Tarjan's stack
    let mut next_index = 0u32;
    let mut num_comps = 0u32;

    // Work stack frames: (node, next-neighbor-position).
    let mut work: Vec<(NodeId, usize)> = Vec::new();

    for root in 0..n as NodeId {
        if index[root as usize] != UNVISITED {
            continue;
        }
        work.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut pos)) = work.last_mut() {
            let neighbors = g.out_neighbors(v);
            if *pos < neighbors.len() {
                let w = neighbors[*pos];
                *pos += 1;
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    work.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    // v is the root of an SCC; pop it off Tarjan's stack.
                    loop {
                        #[expect(
                            clippy::expect_used,
                            reason = "v itself is on the stack whenever it is an SCC root, \
                                      so the pop cannot underflow before the `w == v` break"
                        )]
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp_of[w as usize] = num_comps;
                        if w == v {
                            break;
                        }
                    }
                    num_comps += 1;
                }
            }
        }
    }

    SccResult {
        comp_of,
        num_comps: num_comps as usize,
    }
}

/// The condensation of a directed graph: one vertex per SCC, arcs
/// deduplicated, plus member lists mapping components back to nodes.
///
/// The condensation is always a DAG. Component ids follow the Tarjan order
/// (see [`SccResult`]): every arc goes from a higher id to a lower id, so
/// `num_comps-1, ..., 1, 0` is a topological order.
#[derive(Clone, Debug)]
pub struct Condensation {
    /// DAG over component ids (arcs deduplicated, no self-loops).
    pub dag: DiGraph,
    /// `comp_of[v]` is the component of original node `v`.
    pub comp_of: Vec<u32>,
    /// CSR offsets into `members`: component `c`'s nodes are
    /// `members[member_offsets[c]..member_offsets[c + 1]]`.
    pub member_offsets: Vec<u32>,
    /// Original node ids grouped by component.
    pub members: Vec<NodeId>,
}

impl Condensation {
    /// Computes SCCs of `g` and contracts them.
    pub fn new(g: &DiGraph) -> Self {
        let scc = tarjan_scc(g);
        Condensation::from_scc(g, &scc)
    }

    /// Contracts a graph given a precomputed SCC result.
    pub fn from_scc(g: &DiGraph, scc: &SccResult) -> Self {
        let nc = scc.num_comps;
        // Member lists via counting sort on component id.
        let mut member_offsets = vec![0u32; nc + 1];
        for &c in &scc.comp_of {
            member_offsets[c as usize + 1] += 1;
        }
        for i in 0..nc {
            member_offsets[i + 1] += member_offsets[i];
        }
        let mut cursor = member_offsets.clone();
        let mut members = vec![0 as NodeId; g.num_nodes()];
        for v in 0..g.num_nodes() {
            let c = scc.comp_of[v] as usize;
            members[cursor[c] as usize] = v as NodeId;
            cursor[c] += 1;
        }

        // Cross-component arcs, deduplicated.
        let mut arcs: Vec<(NodeId, NodeId)> = Vec::new();
        for u in g.nodes() {
            let cu = scc.comp_of[u as usize];
            for &v in g.out_neighbors(u) {
                let cv = scc.comp_of[v as usize];
                if cu != cv {
                    arcs.push((cu, cv));
                }
            }
        }
        arcs.sort_unstable();
        arcs.dedup();
        #[expect(
            clippy::expect_used,
            reason = "component ids are `< nc` by construction, so the only from_edges error \
                      (node out of range) cannot occur"
        )]
        let dag = DiGraph::from_edges(nc, &arcs).expect("component ids in range");
        {
            let (offsets, targets) = dag.csr_parts();
            soi_util::invariant::debug_check_acyclic(offsets, targets);
        }

        Condensation {
            dag,
            comp_of: scc.comp_of.clone(),
            member_offsets,
            members,
        }
    }

    /// Number of components.
    pub fn num_comps(&self) -> usize {
        self.dag.num_nodes()
    }

    /// The original nodes belonging to component `c`.
    pub fn members_of(&self, c: u32) -> &[NodeId] {
        let c = c as usize;
        &self.members[self.member_offsets[c] as usize..self.member_offsets[c + 1] as usize]
    }

    /// Size of component `c`.
    pub fn comp_size(&self, c: u32) -> usize {
        self.members_of(c).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comp_partition(scc: &SccResult) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); scc.num_comps];
        for (v, &c) in scc.comp_of.iter().enumerate() {
            groups[c as usize].push(v);
        }
        groups.sort();
        groups
    }

    #[test]
    fn two_cycles_and_a_bridge() {
        // 0 <-> 1 -> 2 <-> 3, plus 4 isolated.
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]).unwrap();
        let scc = tarjan_scc(&g);
        assert_eq!(scc.num_comps, 3);
        let groups = comp_partition(&scc);
        assert!(groups.contains(&vec![0, 1]));
        assert!(groups.contains(&vec![2, 3]));
        assert!(groups.contains(&vec![4]));
        // Arc {0,1} -> {2,3} means comp({0,1}) > comp({2,3}).
        assert!(
            scc.comp_of[0] > scc.comp_of[2],
            "ids are reverse-topological"
        );
    }

    #[test]
    fn dag_has_singleton_components() {
        let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let scc = tarjan_scc(&g);
        assert_eq!(scc.num_comps, 4);
    }

    #[test]
    fn single_big_cycle() {
        let n = 1000;
        let edges: Vec<_> = (0..n)
            .map(|i| (i as NodeId, ((i + 1) % n) as NodeId))
            .collect();
        let scc = tarjan_scc(&DiGraph::from_edges(n, &edges).unwrap());
        assert_eq!(scc.num_comps, 1);
    }

    #[test]
    fn long_path_does_not_overflow_stack() {
        // 200k-node path; a recursive Tarjan would blow the stack here.
        let n = 200_000;
        let edges: Vec<_> = (0..n - 1)
            .map(|i| (i as NodeId, (i + 1) as NodeId))
            .collect();
        let scc = tarjan_scc(&DiGraph::from_edges(n, &edges).unwrap());
        assert_eq!(scc.num_comps, n);
    }

    #[test]
    fn component_ids_are_reverse_topological() {
        // Random-ish DAG plus cycles: verify the documented invariant that
        // every condensation arc goes from higher id to lower id.
        let g = DiGraph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 0), // SCC {0,1,2}
                (2, 3),
                (3, 4),
                (4, 3), // SCC {3,4}
                (4, 5),
                (1, 6),
                (6, 7),
            ],
        )
        .unwrap();
        let scc = tarjan_scc(&g);
        for (u, v) in g.edges() {
            let (cu, cv) = (scc.comp_of[u as usize], scc.comp_of[v as usize]);
            if cu != cv {
                assert!(cu > cv, "arc {u}->{v}: comp {cu} must be > {cv}");
            }
        }
    }

    #[test]
    fn condensation_members_and_dag() {
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (1, 4)]).unwrap();
        let c = Condensation::new(&g);
        assert_eq!(c.num_comps(), 3);
        let c01 = c.comp_of[0];
        assert_eq!(c.comp_of[1], c01);
        let mut m: Vec<_> = c.members_of(c01).to_vec();
        m.sort();
        assert_eq!(m, vec![0, 1]);
        assert_eq!(c.comp_size(c01), 2);
        // DAG: comp{0,1} -> comp{2,3}, comp{0,1} -> comp{4}; dedup applies.
        assert_eq!(c.dag.num_edges(), 2);
        // Topo order visits sources before sinks.
        for (a, b) in c.dag.edges() {
            assert!(a > b, "topo violated for {a}->{b}");
        }
    }

    #[test]
    fn condensation_of_empty_graph() {
        let c = Condensation::new(&DiGraph::empty(0));
        assert_eq!(c.num_comps(), 0);
        let c = Condensation::new(&DiGraph::empty(3));
        assert_eq!(c.num_comps(), 3);
        assert_eq!(c.dag.num_edges(), 0);
    }

    #[test]
    fn members_partition_the_nodes() {
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (2, 3)]).unwrap();
        let c = Condensation::new(&g);
        let mut all: Vec<NodeId> = (0..c.num_comps() as u32)
            .flat_map(|k| c.members_of(k).iter().copied())
            .collect();
        all.sort();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    }
}
