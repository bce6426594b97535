//! PageRank by power iteration.
//!
//! Used by the influence-maximization baseline suite (`soi-influence`):
//! degree and PageRank seeding are the standard cheap heuristics the
//! influence-maximization literature compares greedy methods against.

use crate::DiGraph;

/// Damping factor (probability of following a link).
const DAMPING: f64 = 0.85;
/// Maximum power iterations.
const MAX_ITERS: usize = 100;
/// L1 convergence tolerance.
const TOLERANCE: f64 = 1e-9;

/// PageRank scores, summing to 1. Dangling nodes (out-degree 0)
/// redistribute uniformly. Empty graphs return an empty vector.
pub fn pagerank(g: &DiGraph) -> Vec<f64> {
    let n = g.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..MAX_ITERS {
        let mut dangling_mass = 0.0;
        next.fill(0.0);
        for (u, &r) in rank.iter().enumerate() {
            let d = g.out_degree(u as u32);
            if d == 0 {
                dangling_mass += r;
            } else {
                let share = r / d as f64;
                for &v in g.out_neighbors(u as u32) {
                    next[v as usize] += share;
                }
            }
        }
        let teleport = (1.0 - DAMPING) * uniform;
        let dangling_share = DAMPING * dangling_mass * uniform;
        let mut delta = 0.0;
        for v in 0..n {
            let new = teleport + dangling_share + DAMPING * next[v];
            delta += (new - rank[v]).abs();
            rank[v] = new;
        }
        if delta < TOLERANCE {
            break;
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn ranks_sum_to_one_and_are_positive() {
        let mut rng = { soi_util::rng::Xoshiro256pp::seed_from_u64(1) };
        let g = gen::gnm(50, 200, &mut rng);
        let pr = pagerank(&g);
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        assert!(pr.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let pr = pagerank(&gen::cycle(10));
        for &x in &pr {
            assert!((x - 0.1).abs() < 1e-9, "{x}");
        }
    }

    #[test]
    fn star_center_collects_rank() {
        // Reverse star: all leaves point to node 0.
        let edges: Vec<(u32, u32)> = (1..10).map(|i| (i, 0)).collect();
        let g = DiGraph::from_edges(10, &edges).unwrap();
        let pr = pagerank(&g);
        assert!(pr[0] > 5.0 * pr[1], "hub {} vs leaf {}", pr[0], pr[1]);
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "dangling hub handled: {sum}");
    }

    #[test]
    fn empty_and_singleton() {
        assert!(pagerank(&DiGraph::empty(0)).is_empty());
        let pr = pagerank(&DiGraph::empty(1));
        assert!((pr[0] - 1.0).abs() < 1e-9);
    }
}
