//! The Linear Threshold (LT) propagation model.
//!
//! The second propagation model of Kempe et al. (the paper's §1 notes IC
//! is "the most studied"; LT is its companion). Each arc `(u, v)` carries
//! a weight `b(u, v) ≥ 0` with `Σ_u b(u, v) ≤ 1`; node `v` activates once
//! the weight of its active in-neighbors exceeds a uniform random
//! threshold `θ_v ∈ [0, 1]`.
//!
//! Kempe et al.'s live-edge equivalence: sampling, for every node, **at
//! most one** incoming arc — arc `(u, v)` with probability `b(u, v)`, no
//! arc with probability `1 − Σ_u b(u, v)` — yields a random subgraph whose
//! reachability sets are distributed exactly like LT cascades. That means
//! the whole typical-cascade pipeline (cascade index, Jaccard medians,
//! `InfMax_TC`) applies to LT unchanged: build worlds with
//! [`LtWorldSampler`] and feed them to
//! `soi_index::CascadeIndex::build_from_worlds`.

use soi_graph::{DiGraph, GraphBuilder, GraphError, NodeId};
use soi_util::rng::Rng;

/// An LT-weighted directed graph: per-arc weights with in-weight sums
/// `≤ 1` per node.
#[derive(Clone, Debug)]
pub struct LtGraph {
    /// Reverse topology: `in_arcs` of `v` are the arcs that can activate
    /// it. Stored reverse because live-edge sampling draws per *target*.
    reverse: DiGraph,
    /// `weights[e]` aligned with `reverse`'s CSR arcs: the weight of the
    /// original arc `(target_of_e, v)`.
    weights: Vec<f64>,
    /// Forward topology, for traversal and display.
    forward: DiGraph,
}

impl LtGraph {
    /// Builds an LT graph from weighted arcs `(u, v, b)`.
    ///
    /// Fails if any weight is not in `(0, 1]` or an in-weight sum exceeds
    /// 1 (beyond f64 slack).
    pub fn new(num_nodes: usize, arcs: &[(NodeId, NodeId, f64)]) -> Result<Self, GraphError> {
        let mut fwd = GraphBuilder::new(num_nodes);
        let mut rev = GraphBuilder::new(num_nodes);
        for &(u, v, w) in arcs {
            fwd.add_weighted_edge(u, v, w);
            rev.add_weighted_edge(v, u, w);
        }
        let forward = fwd.build_prob()?; // validates weights in (0, 1]
        let reverse = rev.build_prob()?;
        // Validate in-weight sums.
        for v in reverse.graph().nodes() {
            let sum: f64 = reverse.out_arcs(v).map(|(_, w)| w).sum();
            if sum > 1.0 + 1e-9 {
                return Err(GraphError::InvalidProbability {
                    edge_index: v as usize,
                    value: sum,
                });
            }
        }
        Ok(LtGraph {
            weights: reverse.probs().to_vec(),
            reverse: reverse.graph().clone(),
            forward: forward.graph().clone(),
        })
    }

    /// The standard *uniform* LT weighting on a topology:
    /// `b(u, v) = 1 / inDeg(v)` (in-weights sum to exactly 1).
    pub fn uniform(graph: &DiGraph) -> Self {
        let in_deg = graph.in_degrees();
        let arcs: Vec<(NodeId, NodeId, f64)> = graph
            .edges()
            .map(|(u, v)| (u, v, 1.0 / in_deg[v as usize] as f64))
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "weights 1/inDeg(v) are in (0, 1] and sum to exactly 1 per node"
        )]
        LtGraph::new(graph.num_nodes(), &arcs).expect("uniform weights are valid")
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.forward.num_nodes()
    }

    /// The forward topology.
    pub fn graph(&self) -> &DiGraph {
        &self.forward
    }

    /// Weight of arc `(u, v)`, if present.
    pub fn weight_between(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let r = self.reverse.edge_range(v);
        self.reverse
            .out_neighbors(v)
            .binary_search(&u)
            .ok()
            .map(|i| self.weights[r.start + i])
    }
}

/// Samples LT live-edge worlds: for every node, at most one incoming arc.
#[derive(Clone, Debug, Default)]
pub struct LtWorldSampler {
    edges: Vec<(NodeId, NodeId)>,
}

impl LtWorldSampler {
    /// Creates a sampler.
    pub fn new() -> Self {
        LtWorldSampler::default()
    }

    /// Draws one live-edge world of the LT process.
    pub fn sample<R: Rng>(&mut self, lt: &LtGraph, rng: &mut R) -> DiGraph {
        let n = lt.num_nodes();
        self.edges.clear();
        for v in 0..n as NodeId {
            // Pick at most one in-arc with probability = its weight.
            let x: f64 = rng.random();
            let mut acc = 0.0;
            let range = lt.reverse.edge_range(v);
            for (i, &u) in lt.reverse.out_neighbors(v).iter().enumerate() {
                acc += lt.weights[range.start + i];
                if x < acc {
                    self.edges.push((u, v));
                    break;
                }
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "sampled arcs are a subset of lt's arcs, so ids are below n"
        )]
        DiGraph::from_edges(n, &self.edges).expect("ids in range")
    }
}

/// Direct LT simulation (thresholds + frontier), for validating the
/// live-edge sampler. Returns the eventually-active set, sorted.
pub fn simulate_lt<R: Rng>(lt: &LtGraph, seeds: &[NodeId], rng: &mut R) -> Vec<NodeId> {
    let n = lt.num_nodes();
    let thresholds: Vec<f64> = (0..n).map(|_| rng.random()).collect();
    let mut active = vec![false; n];
    let mut weight_in = vec![0.0f64; n];
    let mut frontier: Vec<NodeId> = Vec::new();
    for &s in seeds {
        if !active[s as usize] {
            active[s as usize] = true;
            frontier.push(s);
        }
    }
    while let Some(u) = frontier.pop() {
        #[expect(
            clippy::expect_used,
            reason = "`v` is a forward out-neighbor of `u`, so the reverse lookup always finds the arc"
        )]
        for &v in lt.forward.out_neighbors(u) {
            if active[v as usize] {
                continue;
            }
            weight_in[v as usize] += lt.weight_between(u, v).expect("forward arc");
            if weight_in[v as usize] >= thresholds[v as usize] {
                active[v as usize] = true;
                frontier.push(v);
            }
        }
    }
    let mut out: Vec<NodeId> = (0..n as NodeId).filter(|&v| active[v as usize]).collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::{gen, Reachability};
    use soi_util::rng::Xoshiro256pp;

    #[test]
    fn validation() {
        // In-weights of node 1 sum to 1.2: rejected.
        assert!(LtGraph::new(3, &[(0, 1, 0.7), (2, 1, 0.5)]).is_err());
        assert!(LtGraph::new(3, &[(0, 1, 0.7), (2, 1, 0.3)]).is_ok());
        assert!(LtGraph::new(2, &[(0, 1, 1.5)]).is_err());
    }

    #[test]
    fn uniform_weights_sum_to_one() {
        let g = gen::complete(5);
        let lt = LtGraph::uniform(&g);
        for v in 0..5u32 {
            let sum: f64 = (0..5u32).filter_map(|u| lt.weight_between(u, v)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "node {v}: {sum}");
        }
    }

    #[test]
    fn live_edge_worlds_have_in_degree_at_most_one() {
        let lt = LtGraph::uniform(&gen::complete(10));
        let mut s = LtWorldSampler::new();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..50 {
            let w = s.sample(&lt, &mut rng);
            for (v, &d) in w.in_degrees().iter().enumerate() {
                assert!(d <= 1, "node {v} has in-degree {d}");
            }
        }
    }

    #[test]
    fn arc_selection_frequency_matches_weight() {
        // Node 2 with in-arcs (0,2,w=0.3) and (1,2,w=0.5); no-arc w.p. 0.2.
        let lt = LtGraph::new(3, &[(0, 2, 0.3), (1, 2, 0.5)]).unwrap();
        let mut s = LtWorldSampler::new();
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut from0 = 0;
        let mut from1 = 0;
        let mut none = 0;
        let rounds = 100_000;
        for _ in 0..rounds {
            let w = s.sample(&lt, &mut rng);
            match (w.has_edge(0, 2), w.has_edge(1, 2)) {
                (true, false) => from0 += 1,
                (false, true) => from1 += 1,
                (false, false) => none += 1,
                (true, true) => panic!("two in-arcs"),
            }
        }
        assert!((from0 as f64 / rounds as f64 - 0.3).abs() < 0.01);
        assert!((from1 as f64 / rounds as f64 - 0.5).abs() < 0.01);
        assert!((none as f64 / rounds as f64 - 0.2).abs() < 0.01);
    }

    #[test]
    fn live_edge_spread_matches_direct_lt_simulation() {
        // Kempe et al.'s equivalence: E|reachable from S in live-edge
        // world| = E|LT cascade from S|.
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let topo = gen::gnm(30, 120, &mut rng);
        let lt = LtGraph::uniform(&topo);
        let seeds = [0u32, 1, 2];
        let rounds = 30_000;

        let mut live_mean = 0.0;
        let mut sampler = LtWorldSampler::new();
        let mut reach = Reachability::new(30);
        let mut out = Vec::new();
        let mut rng_a = Xoshiro256pp::seed_from_u64(4);
        for _ in 0..rounds {
            let w = sampler.sample(&lt, &mut rng_a);
            reach.multi_source(&w, &seeds, &mut out);
            live_mean += out.len() as f64;
        }
        live_mean /= rounds as f64;

        let mut direct_mean = 0.0;
        let mut rng_b = Xoshiro256pp::seed_from_u64(5);
        for _ in 0..rounds {
            direct_mean += simulate_lt(&lt, &seeds, &mut rng_b).len() as f64;
        }
        direct_mean /= rounds as f64;

        assert!(
            (live_mean - direct_mean).abs() < 0.03 * direct_mean.max(1.0),
            "live-edge {live_mean} vs direct {direct_mean}"
        );
    }

    // The integration of LT live-edge worlds with the cascade index
    // (`CascadeIndex::build_from_worlds`) is exercised in the workspace
    // integration tests (`tests/lt_model.rs`) — `soi-index` depends on
    // this crate, so the test cannot live here.
}
