//! The discrete-time Independent Cascade process.
//!
//! §1 of the paper: at time 0 the seeds are active; when a node first
//! becomes active at time `t` it gets one chance to activate each inactive
//! out-neighbor `v` with probability `p(u, v)`; successes activate at
//! `t + 1`. The set of eventually-active nodes has the same distribution
//! as live-edge reachability, but the *timestamps* matter for the
//! influence-probability learners (`soi-problog`), whose action logs
//! record when each user acted.

use soi_graph::{NodeId, ProbGraph};
use soi_util::rng::Rng;

/// One activation event of a simulated IC cascade.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Activation {
    /// The activated node.
    pub node: NodeId,
    /// Discrete activation time (seeds are at 0).
    pub time: u32,
}

/// Runs one IC simulation from `seeds`, returning activations in
/// chronological order (seeds first, ties broken by node id within a step).
pub fn simulate_ic<R: Rng>(pg: &ProbGraph, seeds: &[NodeId], rng: &mut R) -> Vec<Activation> {
    let g = pg.graph();
    let probs = pg.probs();
    let mut active = vec![false; g.num_nodes()];
    let mut events = Vec::new();
    let mut frontier: Vec<NodeId> = Vec::new();
    for &s in seeds {
        if !active[s as usize] {
            active[s as usize] = true;
            frontier.push(s);
            events.push(Activation { node: s, time: 0 });
        }
    }
    let mut time = 0u32;
    let mut next: Vec<NodeId> = Vec::new();
    while !frontier.is_empty() {
        time += 1;
        next.clear();
        for &u in &frontier {
            for e in g.edge_range(u) {
                let v = g.edge_target(e);
                if !active[v as usize] && rng.random::<f64>() < probs[e] {
                    active[v as usize] = true;
                    next.push(v);
                }
            }
        }
        next.sort_unstable();
        for &v in &next {
            events.push(Activation { node: v, time });
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::{gen, GraphBuilder};

    #[test]
    fn deterministic_path_has_linear_times() {
        let pg = ProbGraph::fixed(gen::path(5), 1.0).unwrap();
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(1);
        let events = simulate_ic(&pg, &[0], &mut rng);
        assert_eq!(
            events,
            (0..5)
                .map(|i| Activation {
                    node: i as NodeId,
                    time: i as u32
                })
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn seeds_are_time_zero_and_unique() {
        let pg = ProbGraph::fixed(gen::complete(6), 0.5).unwrap();
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(2);
        let events = simulate_ic(&pg, &[3, 1, 3], &mut rng);
        let zeroes: Vec<_> = events
            .iter()
            .filter(|e| e.time == 0)
            .map(|e| e.node)
            .collect();
        assert_eq!(zeroes, vec![3, 1], "dup seed dropped, insertion order kept");
    }

    #[test]
    fn each_node_activates_at_most_once() {
        let pg = ProbGraph::fixed(gen::complete(20), 0.3).unwrap();
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(3);
        for _ in 0..50 {
            let events = simulate_ic(&pg, &[0, 1], &mut rng);
            let mut nodes: Vec<_> = events.iter().map(|e| e.node).collect();
            nodes.sort_unstable();
            let before = nodes.len();
            nodes.dedup();
            assert_eq!(nodes.len(), before);
        }
    }

    #[test]
    fn times_are_bfs_layers() {
        // Every non-seed activation must have an in-neighbor activated at
        // exactly time - 1.
        let pg = ProbGraph::fixed(
            gen::gnm(30, 120, &mut soi_util::rng::Xoshiro256pp::seed_from_u64(9)),
            0.6,
        )
        .unwrap();
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(4);
        let events = simulate_ic(&pg, &[0], &mut rng);
        let time_of: std::collections::BTreeMap<NodeId, u32> =
            events.iter().map(|e| (e.node, e.time)).collect();
        for e in &events {
            if e.time == 0 {
                continue;
            }
            let has_parent = pg
                .graph()
                .nodes()
                .filter(|&u| pg.graph().has_edge(u, e.node))
                .any(|u| time_of.get(&u) == Some(&(e.time - 1)));
            assert!(
                has_parent,
                "node {} at t={} has no parent at t-1",
                e.node, e.time
            );
        }
    }

    #[test]
    fn final_set_distribution_matches_lazy_cascade() {
        // IC eventual actives ≍ live-edge reachability (Kempe et al.).
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 0.5);
        b.add_weighted_edge(1, 2, 0.5);
        b.add_weighted_edge(0, 3, 0.2);
        let pg = b.build_prob().unwrap();
        let runs = 100_000;
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(5);
        let mut size_sum_ic = 0usize;
        for _ in 0..runs {
            size_sum_ic += simulate_ic(&pg, &[0], &mut rng).len();
        }
        // E|C| = 1 + 0.5 + 0.25 + 0.2 = 1.95.
        let mean = size_sum_ic as f64 / runs as f64;
        assert!((mean - 1.95).abs() < 0.02, "mean {mean}");
    }
}
