//! Exact influence spread via binary decision diagrams over live-edge
//! worlds.
//!
//! Under the independent-cascade live-edge view, the spread of a seed
//! set `S` is `σ(S) = Σ_v Pr[v is reachable from S]`, where each edge
//! `e` is independently live with probability `p_e`. For each target
//! node `t` this module builds a reduced, ordered decision diagram over
//! the edge variables (in the graph's CSR edge order — the same
//! enumeration [`soi_sampling::spread::exact_spread_bruteforce`] walks) whose
//! paths to the `1` terminal are exactly the edge subsets in which `t`
//! is reachable from `S`. `Pr[t reachable]` then falls out of one
//! weighted bottom-up traversal, and node merging keeps the diagram
//! exponentially smaller than the `2^m` world enumeration: graphs of
//! ~25 edges are exact in microseconds where brute force stops at 20.
//!
//! Construction recurses on the state `(i, reached, pending)`:
//!
//! * `i` — the next edge variable to decide;
//! * `reached` — the closure of `S` under the live decided edges;
//! * `pending` — decided-live edges whose source is not yet reached
//!   (they fire retroactively if a later edge reaches their source).
//!
//! The state is closed (pending edges whose source became reachable are
//! folded into `reached`, edges whose target is already reached are
//! dropped) before memoization, so equivalent prefixes share one
//! diagram node. The unique table on `(var, lo, hi)` plus `lo == hi`
//! elision gives the usual reduced-BDD invariants, and because elided
//! variables provably do not affect the function, the probability
//! recurrence `P(node) = (1 - p_var)·P(lo) + p_var·P(hi)` needs no
//! level-skip correction.

use soi_graph::{NodeId, ProbGraph};
use soi_util::SoiError;
use std::collections::HashMap;

/// Largest edge count the oracle accepts (pending sets are `u32` edge
/// masks; beyond this the diagrams stop being "tiny" anyway).
pub const MAX_EDGES: usize = 25;

/// Largest node count the oracle accepts (`u64` reachability bitsets).
pub const MAX_NODES: usize = 64;

/// Terminal id of the constant-false diagram node.
const TERM0: u32 = 0;
/// Terminal id of the constant-true diagram node.
const TERM1: u32 = 1;

/// Size accounting for one [`exact_spread_bdd_stats`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BddStats {
    /// Internal nodes of the largest per-target diagram.
    pub max_nodes: usize,
    /// Internal nodes summed over every per-target diagram.
    pub total_nodes: usize,
}

/// One per-target diagram under construction.
struct Builder<'a> {
    /// Edges in CSR order, as `(source, target)` pairs.
    edges: &'a [(NodeId, NodeId)],
    /// Bit of the node whose reachability this diagram decides.
    target_bit: u64,
    /// `(i, reached, pending) -> node id` — closed states only.
    states: HashMap<(u32, u64, u32), u32>,
    /// `(var, lo, hi) -> node id` reduction table.
    unique: HashMap<(u32, u32, u32), u32>,
    /// Internal nodes as `(var, lo, hi)`; ids offset by the terminals.
    nodes: Vec<(u32, u32, u32)>,
}

impl<'a> Builder<'a> {
    fn new(edges: &'a [(NodeId, NodeId)], target: NodeId) -> Self {
        Builder {
            edges,
            target_bit: 1u64 << target,
            states: HashMap::new(),
            unique: HashMap::new(),
            nodes: Vec::new(),
        }
    }

    /// Folds `pending` live edges into `reached` to a fixpoint and drops
    /// pending edges that can no longer contribute.
    fn close(&self, mut reached: u64, mut pending: u32) -> (u64, u32) {
        loop {
            let mut grew = false;
            let mut keep = 0u32;
            let mut bits = pending;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (u, v) = self.edges[j];
                if reached & (1u64 << v) != 0 {
                    continue; // target already reached: edge is spent
                }
                if reached & (1u64 << u) != 0 {
                    reached |= 1u64 << v;
                    grew = true;
                } else {
                    keep |= 1u32 << j;
                }
            }
            pending = keep;
            if !grew {
                return (reached, pending);
            }
        }
    }

    /// Builds the sub-diagram for a closed state, returning its node id.
    fn build(&mut self, i: u32, reached: u64, pending: u32) -> u32 {
        if reached & self.target_bit != 0 {
            return TERM1;
        }
        if i as usize == self.edges.len() {
            return TERM0;
        }
        if let Some(&id) = self.states.get(&(i, reached, pending)) {
            return id;
        }
        let lo = self.build(i + 1, reached, pending);
        let (u, v) = self.edges[i as usize];
        let hi = {
            let (mut r, mut p) = (reached, pending);
            if r & (1u64 << v) == 0 {
                if r & (1u64 << u) != 0 {
                    r |= 1u64 << v;
                    let closed = self.close(r, p);
                    r = closed.0;
                    p = closed.1;
                } else {
                    p |= 1u32 << i;
                }
            }
            self.build(i + 1, r, p)
        };
        let id = if lo == hi {
            lo
        } else {
            match self.unique.get(&(i, lo, hi)) {
                Some(&id) => id,
                None => {
                    self.nodes.push((i, lo, hi));
                    let id = (self.nodes.len() - 1) as u32 + 2;
                    self.unique.insert((i, lo, hi), id);
                    id
                }
            }
        };
        self.states.insert((i, reached, pending), id);
        id
    }

    /// `Pr[diagram = 1]` by one bottom-up weighted pass. Children are
    /// always created before their parents, so ascending-id evaluation
    /// needs no recursion.
    fn probability(&self, root: u32, probs: &[f64]) -> f64 {
        if root == TERM0 {
            return 0.0;
        }
        if root == TERM1 {
            return 1.0;
        }
        let mut value = vec![0.0f64; self.nodes.len() + 2];
        value[TERM1 as usize] = 1.0;
        for (idx, &(var, lo, hi)) in self.nodes.iter().enumerate() {
            let p = probs[var as usize];
            value[idx + 2] = (1.0 - p) * value[lo as usize] + p * value[hi as usize];
        }
        value[root as usize]
    }
}

/// Checks the oracle's size caps and seed validity, returning the CSR
/// edge list.
fn oracle_edges(pg: &ProbGraph, seeds: &[NodeId]) -> Result<Vec<(NodeId, NodeId)>, SoiError> {
    let n = pg.num_nodes();
    let m = pg.num_edges();
    if n > MAX_NODES {
        return Err(SoiError::invalid(format!(
            "BDD oracle limited to {MAX_NODES} nodes (graph has {n})"
        )));
    }
    if m > MAX_EDGES {
        return Err(SoiError::invalid(format!(
            "BDD oracle limited to {MAX_EDGES} edges (graph has {m})"
        )));
    }
    if let Some(&bad) = seeds.iter().find(|&&s| (s as usize) >= n) {
        return Err(SoiError::invalid(format!(
            "seed {bad} out of range (graph has {n} nodes)"
        )));
    }
    let g = pg.graph();
    let mut edges = Vec::with_capacity(m);
    for u in g.nodes() {
        for &v in g.out_neighbors(u) {
            edges.push((u, v));
        }
    }
    Ok(edges)
}

/// Exact influence spread `σ(seeds)` of `pg` under the independent
/// live-edge model, computed by per-target decision diagrams. Errors on
/// graphs past the [`MAX_EDGES`]/[`MAX_NODES`] caps or seeds out of
/// range; duplicate seeds are fine (the seed set is a set).
pub fn exact_spread_bdd(pg: &ProbGraph, seeds: &[NodeId]) -> Result<f64, SoiError> {
    exact_spread_bdd_stats(pg, seeds).map(|(spread, _)| spread)
}

/// [`exact_spread_bdd`] additionally reporting diagram sizes.
pub fn exact_spread_bdd_stats(
    pg: &ProbGraph,
    seeds: &[NodeId],
) -> Result<(f64, BddStats), SoiError> {
    let edges = oracle_edges(pg, seeds)?;
    let probs = pg.probs();
    let mut seed_mask = 0u64;
    for &s in seeds {
        seed_mask |= 1u64 << s;
    }
    let mut total = 0.0f64;
    let mut stats = BddStats::default();
    for t in 0..pg.num_nodes() as NodeId {
        if seed_mask & (1u64 << t) != 0 {
            total += 1.0; // seeds reach themselves with probability 1
            continue;
        }
        if seed_mask == 0 {
            break; // no seeds: nothing is ever reached
        }
        let mut builder = Builder::new(&edges, t);
        let (reached, pending) = builder.close(seed_mask, 0);
        let root = builder.build(0, reached, pending);
        total += builder.probability(root, probs);
        stats.max_nodes = stats.max_nodes.max(builder.nodes.len());
        stats.total_nodes += builder.nodes.len();
    }
    Ok((total, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::gen;
    use soi_sampling::spread::exact_spread_bruteforce;
    use soi_util::rng::Xoshiro256pp;

    /// Dyadic edge probabilities keep both the brute-force sum and the
    /// BDD recurrence exact in f64, so `==` is the right assertion.
    fn dyadic(pg: &ProbGraph, seeds: &[NodeId]) {
        let exact = exact_spread_bruteforce(pg, seeds);
        let bdd = exact_spread_bdd(pg, seeds).expect("bdd");
        assert_eq!(bdd, exact, "seeds {seeds:?}");
    }

    #[test]
    fn agrees_exactly_with_bruteforce_on_fixtures() {
        for p in [0.25, 0.5, 0.75, 1.0] {
            for g in [gen::path(6), gen::cycle(6), gen::star(6), gen::complete(4)] {
                let pg = ProbGraph::fixed(g, p).expect("graph");
                dyadic(&pg, &[0]);
                dyadic(&pg, &[0, 2]);
                dyadic(&pg, &[1, 3, 5 % pg.num_nodes() as NodeId]);
            }
        }
    }

    #[test]
    fn agrees_exactly_on_random_dyadic_graphs() {
        for trial in 0..8u64 {
            let mut rng = Xoshiro256pp::seed_from_u64(100 + trial);
            use soi_util::rng::Rng;
            let n = rng.random_range(3usize..9);
            let m = rng.random_range(2usize..19.min(n * (n - 1) + 1));
            let g = gen::gnm(n, m, &mut rng);
            let p = [0.25, 0.5, 0.75][trial as usize % 3];
            let pg = ProbGraph::fixed(g, p).expect("graph");
            let seeds: Vec<NodeId> = (0..n as NodeId)
                .filter(|s| s % 2 == trial as u32 % 2)
                .collect();
            dyadic(&pg, &seeds);
        }
    }

    #[test]
    fn agrees_within_float_noise_on_weighted_cascade() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let g = gen::gnm(8, 18, &mut rng);
        let pg = ProbGraph::weighted_cascade(g);
        for seeds in [vec![0], vec![0, 3], vec![1, 4, 6]] {
            let exact = exact_spread_bruteforce(&pg, &seeds);
            let bdd = exact_spread_bdd(&pg, &seeds).expect("bdd");
            assert!(
                (bdd - exact).abs() <= 1e-9 * exact.max(1.0),
                "seeds {seeds:?}: bdd {bdd} vs brute {exact}"
            );
        }
    }

    #[test]
    fn handles_graphs_past_the_bruteforce_cap() {
        // 24 edges: brute force would need 2^24 worlds and asserts at 20;
        // the diagrams stay tiny. Sanity-bound the answer instead.
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let g = gen::gnm(10, 24, &mut rng);
        let pg = ProbGraph::fixed(g, 0.5).expect("graph");
        let (spread, stats) = exact_spread_bdd_stats(&pg, &[0, 1]).expect("bdd");
        assert!((2.0..=10.0).contains(&spread), "{spread}");
        assert!(stats.total_nodes > 0);
        assert!(stats.max_nodes <= 4096, "diagrams stay small: {stats:?}");
    }

    #[test]
    fn empty_seed_set_and_closed_forms() {
        let pg = ProbGraph::fixed(gen::path(4), 0.5).expect("graph");
        assert_eq!(exact_spread_bdd(&pg, &[]).expect("empty"), 0.0);
        // Path 0→1→2→3 at p = 1/2: σ({0}) = 1 + 1/2 + 1/4 + 1/8.
        assert_eq!(exact_spread_bdd(&pg, &[0]).expect("path"), 1.875);
        // Full seed set: every node is its own seed.
        assert_eq!(exact_spread_bdd(&pg, &[0, 1, 2, 3]).expect("all"), 4.0);
    }

    #[test]
    fn caps_and_bad_seeds_are_typed_errors() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let big = ProbGraph::fixed(gen::gnm(12, MAX_EDGES + 1, &mut rng), 0.5).expect("graph");
        assert!(exact_spread_bdd(&big, &[0]).is_err());
        let pg = ProbGraph::fixed(gen::path(3), 0.5).expect("graph");
        assert!(exact_spread_bdd(&pg, &[7]).is_err());
    }
}
