//! Synthetic graph generators.
//!
//! The paper evaluates on crawled social networks (Digg, Flixster, Twitter)
//! and SNAP graphs (NetHEPT, Epinions, Slashdot). Those datasets cannot be
//! redistributed here, so `soi-datasets` assembles structural stand-ins
//! from the generators below — heavy-tailed preferential attachment for
//! the social graphs and the sparse citation network, and a power-law
//! configuration model for the trust network (see DESIGN.md §2).
//!
//! All generators are deterministic given the RNG state and never emit
//! self-loops or duplicate arcs.

use crate::{DiGraph, GraphBuilder, NodeId};
use soi_util::rng::Rng;

/// Finalizes a builder whose arcs were generated with ids `< n`.
fn build_generated(b: GraphBuilder) -> DiGraph {
    #[expect(
        clippy::expect_used,
        reason = "every generator draws ids below its own node count, so id out of range cannot occur; \
                  too many arcs needs a size `soi generate` refuses before it calls a generator"
    )]
    b.build().expect("generated ids in range")
}

/// Builds from an edge list whose endpoints were generated with ids `< n`.
fn from_generated_edges(n: usize, edges: &[(NodeId, NodeId)]) -> DiGraph {
    #[expect(
        clippy::expect_used,
        reason = "same infallibility argument as `build_generated`, for generators that emit plain edge lists"
    )]
    DiGraph::from_edges(n, edges).expect("generated ids in range")
}

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct arcs chosen uniformly
/// (directed; rejection-sampled, so keep `m` well below `n(n-1)`).
pub fn gnm<R: Rng>(n: usize, m: usize, rng: &mut R) -> DiGraph {
    assert!(n >= 2 || m == 0, "need at least two nodes for any arc");
    let max_arcs = n.saturating_mul(n.saturating_sub(1));
    assert!(m <= max_arcs, "m = {m} exceeds max {max_arcs}");
    #[expect(
        clippy::disallowed_types,
        reason = "membership tests only; the arcs come out in draw order, never in the set's order"
    )]
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.random_range(0..n as NodeId);
        let v = rng.random_range(0..n as NodeId);
        if u != v && seen.insert((u, v)) {
            edges.push((u, v));
        }
    }
    from_generated_edges(n, &edges)
}

/// Barabási–Albert preferential attachment: nodes arrive one at a time and
/// attach `m` arcs to existing nodes chosen proportional to current degree.
///
/// `directed`: new nodes point at their chosen targets only (heavy-tailed
/// *in*-degree, like a fan/follower network). Otherwise both directions are
/// added (the paper's undirected convention).
pub fn barabasi_albert<R: Rng>(n: usize, m: usize, directed: bool, rng: &mut R) -> DiGraph {
    assert!(m >= 1, "attachment degree must be >= 1");
    assert!(n > m, "need more nodes than the attachment degree");
    let mut b = GraphBuilder::new(n).with_edge_capacity(n * m * 2);
    // `targets`: multiset of endpoints, one entry per degree unit — sampling
    // uniformly from it implements preferential attachment.
    let mut pool: Vec<NodeId> = Vec::with_capacity(2 * n * m);
    // Seed clique over the first m+1 nodes so early picks are meaningful.
    for u in 0..(m + 1) as NodeId {
        for v in 0..u {
            if directed {
                b.add_edge(u, v);
            } else {
                b.add_undirected_edge(u, v, 1.0);
            }
            pool.push(u);
            pool.push(v);
        }
    }
    for u in (m + 1) as NodeId..n as NodeId {
        let mut chosen: Vec<NodeId> = Vec::with_capacity(m);
        let mut guard = 0usize;
        while chosen.len() < m {
            let t = pool[rng.random_range(0..pool.len())];
            if t != u && !chosen.contains(&t) {
                chosen.push(t);
            }
            guard += 1;
            if guard > 50 * m {
                // Degenerate pool (tiny graphs): fall back to uniform picks.
                let t = rng.random_range(0..u);
                if !chosen.contains(&t) {
                    chosen.push(t);
                }
            }
        }
        for &t in &chosen {
            if directed {
                b.add_edge(u, t);
            } else {
                b.add_undirected_edge(u, t, 1.0);
            }
            pool.push(u);
            pool.push(t);
        }
    }
    build_generated(b)
}

/// Watts–Strogatz small world: a ring lattice where each node connects to
/// its `k` nearest neighbors (k even), each arc rewired with probability
/// `beta`. Always built undirected (symmetric arcs), matching NetHEPT's
/// role in the paper.
pub fn watts_strogatz<R: Rng>(n: usize, k: usize, beta: f64, rng: &mut R) -> DiGraph {
    assert!(k.is_multiple_of(2) && k >= 2, "k must be even and >= 2");
    assert!(n > k, "need n > k");
    assert!((0.0..=1.0).contains(&beta));
    let mut b = GraphBuilder::new(n).with_edge_capacity(n * k);
    for u in 0..n {
        for j in 1..=(k / 2) {
            let v = (u + j) % n;
            let (u, mut v) = (u as NodeId, v as NodeId);
            if rng.random_bool(beta) {
                // Rewire to a uniform non-self target.
                let mut guard = 0;
                loop {
                    let w = rng.random_range(0..n as NodeId);
                    if w != u {
                        v = w;
                        break;
                    }
                    guard += 1;
                    if guard > 64 {
                        break;
                    }
                }
            }
            b.add_undirected_edge(u, v, 1.0);
        }
    }
    build_generated(b)
}

/// Directed power-law configuration model: each node draws a target
/// out-degree from a discrete power law `P(d) ∝ d^(-gamma)` truncated to
/// `[1, max_degree]`, then arcs go to uniform random distinct targets.
/// In-degree inherits heavy tails through popular targets being drawn by
/// preferential weighting.
pub fn powerlaw_configuration<R: Rng>(
    n: usize,
    gamma: f64,
    max_degree: usize,
    rng: &mut R,
) -> DiGraph {
    assert!(n >= 2);
    assert!(gamma > 1.0, "gamma must exceed 1");
    let max_degree = max_degree.min(n - 1).max(1);
    // Precompute the truncated power-law CDF over 1..=max_degree.
    let weights: Vec<f64> = (1..=max_degree).map(|d| (d as f64).powf(-gamma)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(max_degree);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let draw_degree = |rng: &mut R| -> usize {
        let x: f64 = rng.random();
        cdf.partition_point(|&c| c < x) + 1
    };
    // Preferential in-degree: maintain a pool like BA so targets are
    // heavy-tailed too.
    let mut pool: Vec<NodeId> = (0..n as NodeId).collect();
    let mut b = GraphBuilder::new(n);
    for u in 0..n as NodeId {
        let d = draw_degree(rng);
        let mut chosen: Vec<NodeId> = Vec::with_capacity(d);
        let mut guard = 0usize;
        while chosen.len() < d && guard < 50 * d + 100 {
            let t = pool[rng.random_range(0..pool.len())];
            if t != u && !chosen.contains(&t) {
                chosen.push(t);
                pool.push(t); // rich get richer
            }
            guard += 1;
        }
        for &t in &chosen {
            b.add_edge(u, t);
        }
    }
    build_generated(b)
}

/// A simple directed path `0 -> 1 -> ... -> n-1`.
pub fn path(n: usize) -> DiGraph {
    let edges: Vec<_> = (0..n.saturating_sub(1))
        .map(|i| (i as NodeId, (i + 1) as NodeId))
        .collect();
    from_generated_edges(n, &edges)
}

/// A directed cycle `0 -> 1 -> ... -> n-1 -> 0`.
pub fn cycle(n: usize) -> DiGraph {
    assert!(n >= 1);
    let edges: Vec<_> = (0..n)
        .map(|i| (i as NodeId, ((i + 1) % n) as NodeId))
        .collect();
    from_generated_edges(n, &edges)
}

/// A star: node 0 points at every other node.
pub fn star(n: usize) -> DiGraph {
    let edges: Vec<_> = (1..n).map(|i| (0 as NodeId, i as NodeId)).collect();
    from_generated_edges(n, &edges)
}

/// The complete directed graph on `n` nodes (every ordered pair).
pub fn complete(n: usize) -> DiGraph {
    let mut edges = Vec::with_capacity(n * n.saturating_sub(1));
    for u in 0..n as NodeId {
        for v in 0..n as NodeId {
            if u != v {
                edges.push((u, v));
            }
        }
    }
    from_generated_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_util::rng::Xoshiro256pp;

    #[test]
    fn gnm_exact_count_no_dups() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let g = gnm(50, 200, &mut rng);
        assert_eq!(g.num_edges(), 200);
        let mut es: Vec<_> = g.edges().collect();
        es.sort_unstable();
        es.dedup();
        assert_eq!(es.len(), 200, "no duplicate arcs");
        assert!(es.iter().all(|&(u, v)| u != v), "no self-loops");
    }

    #[test]
    fn ba_degree_heavy_tail() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let g = barabasi_albert(500, 3, true, &mut rng);
        assert_eq!(g.num_nodes(), 500);
        // Each new node adds ~m arcs plus the seed clique.
        assert!(g.num_edges() >= 3 * (500 - 4));
        // Heavy tail: max in-degree far above mean.
        let deg = g.in_degrees();
        let max = *deg.iter().max().unwrap();
        let mean = deg.iter().sum::<usize>() as f64 / deg.len() as f64;
        assert!(max as f64 > 5.0 * mean, "max {max} vs mean {mean}");
    }

    #[test]
    fn ba_undirected_is_symmetric() {
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let g = barabasi_albert(100, 2, false, &mut rng);
        for (u, v) in g.edges() {
            assert!(g.has_edge(v, u), "missing back arc {v}->{u}");
        }
    }

    #[test]
    fn ws_is_symmetric_and_roughly_k_regular() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let g = watts_strogatz(200, 4, 0.1, &mut rng);
        for (u, v) in g.edges() {
            assert!(g.has_edge(v, u));
        }
        // Arc count can dip slightly below n*k due to rewire collisions.
        assert!(g.num_edges() as f64 >= 200.0 * 4.0 * 0.9);
        assert!(g.num_edges() <= 200 * 4);
    }

    #[test]
    fn powerlaw_degrees_bounded_and_tailed() {
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let g = powerlaw_configuration(400, 2.2, 60, &mut rng);
        assert!(g.nodes().all(|v| g.out_degree(v) <= 60));
        let max_out = g.nodes().map(|v| g.out_degree(v)).max().unwrap();
        assert!(max_out >= 8, "tail too light: {max_out}");
        assert!(g.edges().all(|(u, v)| u != v));
    }

    #[test]
    fn fixtures() {
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(star(5).num_edges(), 4);
        assert_eq!(complete(4).num_edges(), 12);
        assert_eq!(path(1).num_edges(), 0);
        assert_eq!(path(0).num_nodes(), 0);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let g1 = barabasi_albert(100, 2, true, &mut Xoshiro256pp::seed_from_u64(5));
        let g2 = barabasi_albert(100, 2, true, &mut Xoshiro256pp::seed_from_u64(5));
        let g3 = barabasi_albert(100, 2, true, &mut Xoshiro256pp::seed_from_u64(6));
        assert_eq!(g1, g2);
        assert_ne!(g1, g3);
    }
}
