//! Cheap seeding heuristics — the standard comparison points of the
//! influence-maximization literature (Kempe et al. compare greedy against
//! exactly these: highest degree, "central" nodes, random).

use soi_graph::{DiGraph, NodeId};
use soi_util::rng::Rng;

/// The `k` nodes of largest out-degree (ties toward smaller id).
pub fn high_degree_seeds(g: &DiGraph, k: usize) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = g.nodes().collect();
    nodes.sort_by(|&a, &b| g.out_degree(b).cmp(&g.out_degree(a)).then(a.cmp(&b)));
    nodes.truncate(k);
    nodes
}

/// The `k` nodes of largest PageRank (ties toward smaller id).
pub fn pagerank_seeds(g: &DiGraph, k: usize) -> Vec<NodeId> {
    let pr = soi_graph::pagerank::pagerank(g);
    let mut nodes: Vec<NodeId> = g.nodes().collect();
    nodes.sort_by(|&a, &b| pr[b as usize].total_cmp(&pr[a as usize]).then(a.cmp(&b)));
    nodes.truncate(k);
    nodes
}

/// The uniform arc probability [`degree_discount_seeds`] discounts for.
const DEGREE_DISCOUNT_P: f64 = 0.1;

/// DegreeDiscount (Chen, Wang & Yang, KDD 2009): degree-based seeding
/// that discounts a node's degree for neighbors already selected —
/// designed for the uniform-probability IC model with probability `p`
/// (here 0.1).
///
/// `dd(v) = d(v) − 2·t(v) − (d(v) − t(v))·t(v)·p` where `t(v)` counts
/// already-selected in-neighbors of `v`. Near-greedy quality at a tiny
/// fraction of the cost on uniform-IC benchmarks.
pub fn degree_discount_seeds(g: &DiGraph, k: usize) -> Vec<NodeId> {
    let n = g.num_nodes();
    let k = k.min(n);
    let mut selected = vec![false; n];
    let mut t = vec![0usize; n];
    let mut dd: Vec<f64> = g.nodes().map(|v| g.out_degree(v) as f64).collect();
    let mut seeds = Vec::with_capacity(k);
    for _ in 0..k {
        let best = g
            .nodes()
            .filter(|&v| !selected[v as usize])
            .max_by(|&a, &b| dd[a as usize].total_cmp(&dd[b as usize]).then(b.cmp(&a)));
        let Some(u) = best else { break };
        selected[u as usize] = true;
        seeds.push(u);
        for &v in g.out_neighbors(u) {
            if selected[v as usize] {
                continue;
            }
            t[v as usize] += 1;
            let d = g.out_degree(v) as f64;
            let tv = t[v as usize] as f64;
            dd[v as usize] = d - 2.0 * tv - (d - tv) * tv * DEGREE_DISCOUNT_P;
        }
    }
    seeds
}

/// `k` distinct uniform random nodes.
pub fn random_seeds<R: Rng>(g: &DiGraph, k: usize, rng: &mut R) -> Vec<NodeId> {
    let n = g.num_nodes();
    let k = k.min(n);
    let mut chosen: Vec<NodeId> = Vec::with_capacity(k);
    while chosen.len() < k {
        let v = rng.random_range(0..n as NodeId);
        if !chosen.contains(&v) {
            chosen.push(v);
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::gen;
    use soi_util::rng::Xoshiro256pp;

    #[test]
    fn high_degree_finds_the_hub() {
        let g = gen::star(10);
        assert_eq!(high_degree_seeds(&g, 1), vec![0]);
        let seeds = high_degree_seeds(&g, 3);
        assert_eq!(seeds, vec![0, 1, 2], "ties break toward small ids");
    }

    #[test]
    fn pagerank_seeds_prefer_central_nodes() {
        // All leaves point to 0; 0 points to 1.
        let mut edges: Vec<(u32, u32)> = (2..12).map(|i| (i, 0)).collect();
        edges.push((0, 1));
        let g = DiGraph::from_edges(12, &edges).unwrap();
        let seeds = pagerank_seeds(&g, 2);
        assert!(seeds.contains(&0) && seeds.contains(&1));
    }

    #[test]
    fn random_seeds_are_distinct_and_deterministic() {
        let g = gen::complete(20);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let a = random_seeds(&g, 8, &mut rng);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        assert_eq!(a, random_seeds(&g, 8, &mut rng));
        // k > n clamps.
        assert_eq!(random_seeds(&g, 100, &mut rng).len(), 20);
    }

    #[test]
    fn degree_discount_spreads_selections() {
        // Dense hub cluster: after picking hub 0, its neighbors are
        // discounted, so the second pick jumps to the other cluster.
        let mut edges = Vec::new();
        for v in 1..5u32 {
            edges.push((0, v));
            edges.push((v, 0));
        }
        for v in 6..10u32 {
            edges.push((5, v));
            edges.push((v, 5));
        }
        // Tie-break: make cluster 0 slightly denser.
        edges.push((0, 5));
        let g = DiGraph::from_edges(10, &edges).unwrap();
        let seeds = degree_discount_seeds(&g, 2);
        assert_eq!(seeds[0], 0);
        assert_eq!(seeds[1], 5, "discount sends the second pick across");
        // k > n clamps, no duplicates.
        let all = degree_discount_seeds(&g, 50);
        assert_eq!(all.len(), 10);
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    #[test]
    fn degree_discount_near_greedy_on_uniform_ic() {
        use soi_graph::ProbGraph;
        use soi_index::{CascadeIndex, IndexConfig};
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        // Symmetrized BA: heavy-tailed degree in both directions — the
        // setting DegreeDiscount was designed for (directed BA has
        // near-uniform out-degree, leaving the heuristic no signal).
        let topo = gen::barabasi_albert(150, 3, false, &mut rng);
        let pg = ProbGraph::fixed(topo, 0.1).unwrap();
        let index = CascadeIndex::build(
            &pg,
            IndexConfig {
                num_worlds: 200,
                seed: 6,
                ..IndexConfig::default()
            },
        );
        let greedy = crate::infmax_std(&index, 8, 0);
        let dd = degree_discount_seeds(pg.graph(), 8);
        let sigma = |s: &[NodeId]| soi_sampling::estimate_spread(&pg, s, 4000, 7);
        let g_spread = sigma(&greedy.seeds);
        let d_spread = sigma(&dd);
        // DegreeDiscount was designed for undirected uniform-IC graphs;
        // on a directed BA network it lands within a modest factor of
        // greedy while random seeds fall far below it.
        assert!(
            d_spread > 0.7 * g_spread,
            "degree-discount {d_spread} vs greedy {g_spread}"
        );
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let r_spread = sigma(&random_seeds(pg.graph(), 8, &mut rng));
        assert!(d_spread > r_spread, "dd {d_spread} vs random {r_spread}");
    }

    #[test]
    fn greedy_beats_heuristics_on_weighted_cascade() {
        use soi_graph::ProbGraph;
        use soi_index::{CascadeIndex, IndexConfig};
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let pg = ProbGraph::weighted_cascade(gen::barabasi_albert(200, 3, true, &mut rng));
        let index = CascadeIndex::build(
            &pg,
            IndexConfig {
                num_worlds: 128,
                seed: 3,
                ..IndexConfig::default()
            },
        );
        let greedy = crate::infmax_std(&index, 10, 0);
        let sigma = |seeds: &[NodeId]| soi_sampling::estimate_spread(&pg, seeds, 3000, 4);
        let g_spread = sigma(&greedy.seeds);
        let deg = sigma(&high_degree_seeds(pg.graph(), 10));
        let rnd = sigma(&random_seeds(pg.graph(), 10, &mut rng));
        assert!(g_spread >= deg * 0.98, "greedy {g_spread} vs degree {deg}");
        assert!(g_spread > rnd, "greedy {g_spread} vs random {rnd}");
    }
}
