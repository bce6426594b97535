//! Transitive reduction of DAGs.
//!
//! Algorithm 1 of the paper stores, for each sampled possible world, the
//! transitive *reduction* of its SCC condensation: the unique minimal DAG
//! with the same reachability (Aho, Garey & Ullman, SIAM J. Comput. 1972).
//! Arc `(u, v)` is redundant iff another successor of `u` reaches `v`,
//! i.e. iff some path of length ≥ 2 leads from `u` to `v`. That can only
//! happen when `u` has out-degree ≥ 2 and `v` in-degree ≥ 2 — under
//! weighted cascade almost no arc qualifies — so only those *candidate*
//! arcs are examined and nothing proportional to `n²` is ever built.
//!
//! Candidates are handled 64 targets at a time, targets taken in
//! topological order so a batch's window ends at its last target. One
//! memoised DFS from the batch's sources computes, per touched node, which
//! batch targets it reaches by a path of length ≥ 1 and of length ≥ 2 as
//! `u64` masks; nodes past the window are never entered. Scratch is `O(n)`
//! words, work `O((n + m) · ⌈targets / 64⌉)` at worst and close to the
//! number of candidates on the sparse worlds the index stores.

use crate::{DiGraph, NodeId};

/// A topological order of a DAG (Kahn's algorithm).
///
/// Returns `None` if the graph has a cycle — callers in this workspace pass
/// condensations, which are DAGs by construction, but the check is cheap
/// and turns corruption into an error instead of nonsense.
pub fn topological_order(g: &DiGraph) -> Option<Vec<NodeId>> {
    let n = g.num_nodes();
    let mut in_deg = g.in_degrees();
    let mut queue: Vec<NodeId> = (0..n as NodeId)
        .filter(|&v| in_deg[v as usize] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for &w in g.out_neighbors(v) {
            in_deg[w as usize] -= 1;
            if in_deg[w as usize] == 0 {
                queue.push(w);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Each node's position in a topological order of `g`, or `None` if `g`
/// has a cycle. Every arc of a Tarjan condensation goes from a higher
/// component id to a lower one, and when every arc of `g` descends so
/// (one pass over the arcs, which also rules out cycles and self-loops)
/// node `v`'s position is `n − 1 − v`. Otherwise Kahn's algorithm
/// ([`topological_order`]) decides.
fn topological_positions(g: &DiGraph) -> Option<Vec<u32>> {
    let n = g.num_nodes();
    let descends = g.nodes().all(|u| g.out_neighbors(u).iter().all(|&v| v < u));
    #[cfg(test)]
    BRANCHES.with(|b| b.set(b.get() | if descends { 1 } else { 2 }));
    if descends {
        return Some((0..n as u32).rev().collect());
    }
    let mut pos = vec![0u32; n];
    for (i, v) in topological_order(g)?.into_iter().enumerate() {
        pos[v as usize] = i as u32;
    }
    Some(pos)
}

// Which ways `topological_positions` has found an order on this thread:
// bit 0 by descending ids, bit 1 by Kahn's algorithm.
#[cfg(test)]
thread_local! {
    static BRANCHES: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
}

/// Per-node scratch of [`transitive_reduction`]: the batch the entry was
/// last reset in, the node's own bit when it is a target of that batch,
/// and the batch targets it reaches by a path of length ≥ 1 and ≥ 2. Four
/// words, so a node is one cache line and the zeroed `Vec` comes untouched
/// from the allocator.
type Reach = [u64; 4];
const SEEN: usize = 0;
const OWN: usize = 1;
const FAR: usize = 2;
const FAR2: usize = 3;

/// The transitive reduction of a DAG.
///
/// Keeps arc `(u, v)` iff no other direct successor `w` of `u` reaches `v`.
/// For DAGs this produces the unique minimum-arc graph with identical
/// reachability. Returns `None` on cyclic input.
pub fn transitive_reduction(g: &DiGraph) -> Option<DiGraph> {
    let n = g.num_nodes();
    let pos = topological_positions(g)?;
    let in_deg = g.in_degrees();
    let targets = g.csr_parts().1;
    // Candidate arcs as (target position, source, CSR slot), sorted so the
    // arcs of one target are adjacent and targets follow the order.
    let mut cand: Vec<(u32, NodeId, usize)> = g
        .nodes()
        .filter(|&u| g.out_degree(u) >= 2)
        .flat_map(|u| g.edge_range(u).map(move |e| (u, e)))
        .filter(|&(_, e)| in_deg[targets[e] as usize] >= 2)
        .map(|(u, e)| (pos[targets[e] as usize], u, e))
        .collect();
    cand.sort_unstable();
    let by_target: Vec<_> = cand.chunk_by(|a, b| a.0 == b.0).collect();

    let mut dead = vec![false; targets.len()];
    let mut reach: Vec<Reach> = vec![[0; 4]; n];
    let mut stack: Vec<(NodeId, bool)> = Vec::new();
    for (batch, groups) in by_target.chunks(64).enumerate() {
        let batch = batch as u64 + 1;
        let window = groups[groups.len() - 1][0].0;
        let in_window = |c: &&NodeId| pos[**c as usize] <= window;
        for (bit, arcs) in groups.iter().enumerate() {
            reach[targets[arcs[0].2] as usize][OWN] = 1 << bit;
        }
        // A node is expanded on its first visit and folded on its second,
        // by when every successor inside the window is final.
        stack.extend(groups.iter().copied().flatten().map(|a| (a.1, false)));
        while let Some((x, expanded)) = stack.pop() {
            let successors = g.out_neighbors(x).iter().filter(in_window);
            if expanded {
                let (mut far, mut far2) = (0, 0);
                for &c in successors {
                    let child = reach[c as usize];
                    far |= child[OWN] | child[FAR];
                    far2 |= child[FAR];
                }
                (reach[x as usize][FAR], reach[x as usize][FAR2]) = (far, far2);
            } else if reach[x as usize][SEEN] != batch {
                reach[x as usize][SEEN] = batch;
                stack.push((x, true));
                stack.extend(successors.map(|&c| (c, false)));
            }
        }
        for &(_, u, e) in groups.iter().copied().flatten() {
            dead[e] = reach[u as usize][FAR2] & reach[targets[e] as usize][OWN] != 0;
        }
        for arcs in groups {
            reach[targets[arcs[0].2] as usize][OWN] = 0;
        }
    }

    let mut kept_offsets: Vec<u32> = Vec::with_capacity(n + 1);
    let mut kept = Vec::with_capacity(targets.len());
    kept_offsets.push(0);
    for u in g.nodes() {
        kept.extend(g.edge_range(u).filter(|&e| !dead[e]).map(|e| targets[e]));
        // At most `g`'s arcs, whose count fits a `u32` offset.
        kept_offsets.push(kept.len() as u32);
    }
    Some(DiGraph::from_csr_parts(kept_offsets, kept))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, scc::Condensation, ProbGraph};
    use soi_util::rng::{Rng, Xoshiro256pp};
    use soi_util::BitSet;

    /// The oracle: the transitive closure as one bitset row per node
    /// (`O(n² / 64)`, what the kernel used to build). `closure[v]` holds
    /// every node reachable from `v` by a path of length ≥ 1.
    fn transitive_closure(g: &DiGraph) -> Option<Vec<BitSet>> {
        let n = g.num_nodes();
        let order = topological_order(g)?;
        let mut closure: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        // Reverse topological order, so successors are final.
        for &v in order.iter().rev() {
            let mut row = BitSet::new(n);
            for &w in g.out_neighbors(v) {
                row.insert(w as usize);
                row.union_with(&closure[w as usize]);
            }
            closure[v as usize] = row;
        }
        Some(closure)
    }

    /// The definition, arc by arc: keep `(u, v)` iff no other successor of
    /// `u` reaches `v`.
    fn reduction_by_definition(g: &DiGraph) -> DiGraph {
        let closure = transitive_closure(g).unwrap();
        let kept: Vec<(NodeId, NodeId)> = g
            .edges()
            .filter(|&(u, v)| {
                !g.out_neighbors(u)
                    .iter()
                    .any(|&w| w != v && closure[w as usize].contains(v as usize))
            })
            .collect();
        DiGraph::from_edges(g.num_nodes(), &kept).unwrap()
    }

    fn diamond_with_shortcut() -> DiGraph {
        // 0->1->3, 0->2->3, plus redundant shortcut 0->3.
        DiGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn topo_order_respects_arcs() {
        let g = diamond_with_shortcut();
        let order = topological_order(&g).unwrap();
        let pos = |x: NodeId| order.iter().position(|&y| y == x).unwrap();
        for (u, v) in g.edges() {
            assert!(pos(u) < pos(v));
        }
    }

    #[test]
    fn topo_order_detects_cycles() {
        let g = DiGraph::from_edges(2, &[(0, 1), (1, 0)]).unwrap();
        assert!(topological_order(&g).is_none());
        assert!(transitive_reduction(&g).is_none());
        // A cycle behind candidate arcs, and a self-loop.
        let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 1)]).unwrap();
        assert!(transitive_reduction(&g).is_none());
        let g = DiGraph::from_edges(2, &[(0, 1), (1, 1)]).unwrap();
        assert!(transitive_reduction(&g).is_none());
    }

    #[test]
    fn reduction_removes_shortcut() {
        let g = diamond_with_shortcut();
        let r = transitive_reduction(&g).unwrap();
        assert_eq!(r.num_edges(), 4);
        assert!(!r.has_edge(0, 3), "shortcut arc removed");
        assert!(r.has_edge(0, 1) && r.has_edge(0, 2) && r.has_edge(1, 3) && r.has_edge(2, 3));
    }

    #[test]
    fn reduction_of_already_minimal_graph_is_identity() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(transitive_reduction(&g).unwrap(), g);
        let empty = DiGraph::empty(0);
        assert_eq!(transitive_reduction(&empty).unwrap(), empty);
    }

    #[test]
    fn reduction_long_redundancy() {
        // 0->1->2->3 with shortcuts 0->2, 0->3, 1->3: all shortcuts die.
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 2), (0, 3), (1, 3)]).unwrap();
        let r = transitive_reduction(&g).unwrap();
        assert_eq!(r.num_edges(), 3);
    }

    /// Builds a random DAG by orienting random pairs from low to high id.
    fn random_dag(n: usize, arcs: &[(u8, u8)]) -> DiGraph {
        let edges: Vec<(NodeId, NodeId)> = arcs
            .iter()
            .map(|&(a, b)| {
                let (a, b) = (a as usize % n, b as usize % n);
                (a.min(b) as NodeId, a.max(b) as NodeId)
            })
            .filter(|&(a, b)| a != b)
            .collect();
        let mut dedup = edges;
        dedup.sort_unstable();
        dedup.dedup();
        DiGraph::from_edges(n, &dedup).unwrap()
    }

    /// Draws a random arc list for [`random_dag`] from a derived stream.
    fn random_arcs(case: u64, ids: u8, max_len: usize) -> Vec<(u8, u8)> {
        let mut rng = Xoshiro256pp::from_stream(0x07A1_1DA6, case);
        let len = rng.random_range(0usize..max_len);
        (0..len)
            .map(|_| (rng.random_range(0u8..ids), rng.random_range(0u8..ids)))
            .collect()
    }

    /// Transitive reduction preserves the closure exactly and never has
    /// more arcs than the input. (Property test over 32 seeded cases.)
    #[test]
    fn reduction_preserves_reachability() {
        for case in 0..32u64 {
            let arcs = random_arcs(case, 20, 60);
            let n = 20;
            let g = random_dag(n, &arcs);
            let r = transitive_reduction(&g).unwrap();
            assert!(r.num_edges() <= g.num_edges(), "case {case}");
            let cg = transitive_closure(&g).unwrap();
            let cr = transitive_closure(&r).unwrap();
            for v in 0..n {
                assert_eq!(cg[v].to_vec_u32(), cr[v].to_vec_u32(), "case {case}");
            }
        }
    }

    /// The reduction is minimal: removing any arc changes reachability.
    #[test]
    fn reduction_is_minimal() {
        for case in 0..32u64 {
            let arcs = random_arcs(case, 12, 30);
            let n = 12;
            let g = random_dag(n, &arcs);
            let r = transitive_reduction(&g).unwrap();
            let arcs: Vec<_> = r.edges().collect();
            for skip in 0..arcs.len() {
                let rest: Vec<_> = arcs
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != skip)
                    .map(|(_, &e)| e)
                    .collect();
                let sub = DiGraph::from_edges(n, &rest).unwrap();
                let (u, v) = arcs[skip];
                let c = transitive_closure(&sub).unwrap();
                assert!(
                    !c[u as usize].contains(v as usize),
                    "arc {u}->{v} was redundant in the reduction (case {case})"
                );
            }
        }
    }

    /// How [`seeded_dag`] names its nodes.
    #[derive(Clone, Copy)]
    enum Ids {
        /// Every arc ascends: ids are a topological order.
        Ascending,
        /// Every arc descends, as in a Tarjan condensation.
        Descending,
        /// Ids are no topological order either way.
        Shuffled,
    }

    /// A seeded random DAG on `n` nodes with about `n · avg_deg` distinct
    /// arcs, its nodes named by `ids`.
    fn seeded_dag(case: u64, n: usize, avg_deg: usize, ids: Ids) -> DiGraph {
        let mut rng = Xoshiro256pp::from_stream(0xDA6_5EED, case);
        let mut name: Vec<NodeId> = (0..n as NodeId).collect();
        match ids {
            Ids::Ascending => {}
            Ids::Descending => name.reverse(),
            Ids::Shuffled => {
                for i in (1..n).rev() {
                    name.swap(i, rng.random_range(0usize..i + 1));
                }
            }
        }
        let mut arcs: Vec<(NodeId, NodeId)> = (0..n * avg_deg)
            .map(|_| (rng.random_range(0usize..n), rng.random_range(0usize..n)))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (name[a.min(b)], name[a.max(b)]))
            .collect();
        arcs.sort_unstable();
        arcs.dedup();
        DiGraph::from_edges(n, &arcs).unwrap()
    }

    /// The kernel equals the definition on 240 seeded DAGs: sparse to
    /// dense (average degree 20, where almost every arc is redundant and
    /// one source's targets span several 64-bit batches), ids ascending,
    /// descending (the order found without Kahn's algorithm) and shuffled.
    #[test]
    fn kernel_matches_the_definition_on_random_dags() {
        BRANCHES.with(|b| b.set(0));
        let mut case = 0;
        for n in [2usize, 17, 64, 65, 150, 300] {
            for avg_deg in [1usize, 2, 5, 20] {
                for round in 0..10 {
                    let ids = [Ids::Ascending, Ids::Descending, Ids::Shuffled][round % 3];
                    let g = seeded_dag(case, n, avg_deg, ids);
                    let want = reduction_by_definition(&g);
                    assert_eq!(
                        transitive_reduction(&g).unwrap(),
                        want,
                        "case {case}: n {n}, degree {avg_deg}"
                    );
                    if avg_deg == 20 && n >= 150 {
                        assert!(
                            want.num_edges() * 3 < g.num_edges(),
                            "case {case} not dense"
                        );
                    }
                    case += 1;
                }
            }
        }
        assert!(case >= 200);
        assert_eq!(BRANCHES.with(|b| b.get()), 3, "both ways to an order ran");
    }

    /// One live-edge world of `pg`, condensed: the input the index feeds
    /// the kernel.
    fn world_condensation(pg: &ProbGraph, rng: &mut Xoshiro256pp) -> DiGraph {
        let live: Vec<(NodeId, NodeId)> = pg
            .graph()
            .nodes()
            .flat_map(|u| pg.out_arcs(u).map(move |(v, p)| (u, v, p)))
            .filter(|&(_, _, p)| rng.random_bool(p))
            .map(|(u, v, _)| (u, v))
            .collect();
        Condensation::new(&DiGraph::from_edges(pg.num_nodes(), &live).unwrap()).dag
    }

    /// Condensations of sampled worlds — weighted cascade on a BA graph
    /// (near-forests: few candidates, fewer redundant arcs) and a
    /// supercritical G(n, m) (one giant component with high in- and
    /// out-degree in the middle of the order) — as Tarjan numbers them
    /// (every arc descends) and with their ids reversed (Kahn's
    /// algorithm orders them).
    #[test]
    fn kernel_matches_the_definition_on_world_condensations() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x50_1DAC);
        let wc = ProbGraph::weighted_cascade(gen::barabasi_albert(1500, 5, true, &mut rng));
        let dense = ProbGraph::fixed(gen::gnm(1500, 7500, &mut rng), 0.3).unwrap();
        for (name, pg) in [("wc", &wc), ("supercritical", &dense)] {
            let mut removed = 0;
            for world in 0..4 {
                let dag = world_condensation(pg, &mut rng);
                let want = reduction_by_definition(&dag);
                removed += dag.num_edges() - want.num_edges();
                let reversed = |g: &DiGraph| {
                    let last = g.num_nodes() as NodeId - 1;
                    let arcs: Vec<_> = g.edges().map(|(u, v)| (last - u, last - v)).collect();
                    DiGraph::from_edges(g.num_nodes(), &arcs).unwrap()
                };
                // Bit 0: the order by descending ids; bit 1: Kahn's.
                for (g, want, branch) in [
                    (dag.clone(), want.clone(), 1),
                    (reversed(&dag), reversed(&want), 2),
                ] {
                    BRANCHES.with(|b| b.set(0));
                    assert_eq!(
                        transitive_reduction(&g).unwrap(),
                        want,
                        "{name} world {world}, branch {branch}"
                    );
                    assert_eq!(BRANCHES.with(|b| b.get()), branch, "{name} world {world}");
                }
            }
            assert!(removed > 0, "{name}: no world had a redundant arc");
        }
    }

    /// Out-degree-1 chains have no candidate arc and come back verbatim,
    /// also when they hang off and feed into a node that has some.
    #[test]
    fn chains_are_copied() {
        let chain = gen::path(50);
        assert_eq!(transitive_reduction(&chain).unwrap(), chain);
        // 0 -> 1 -> ... -> 9 and 0 -> 10 -> ... -> 19 -> 9, plus 0 -> 9.
        let mut arcs: Vec<(NodeId, NodeId)> = (0..9).map(|i| (i, i + 1)).collect();
        arcs.push((0, 10));
        arcs.extend((10..19).map(|i| (i, i + 1)));
        arcs.extend([(19, 9), (0, 9)]);
        let g = DiGraph::from_edges(20, &arcs).unwrap();
        let r = transitive_reduction(&g).unwrap();
        assert_eq!(r, reduction_by_definition(&g));
        assert_eq!(r.num_edges(), g.num_edges() - 1);
        assert!(!r.has_edge(0, 9));
    }
}
