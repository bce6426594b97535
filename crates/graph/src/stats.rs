//! Structural graph statistics.
//!
//! Used by the dataset registry's Table 1 reporting and by EXPERIMENTS.md
//! to characterize the synthetic stand-ins (degree distributions decide
//! whether the fixed-probability model is supercritical — the scale
//! caveat documented there).

use crate::{DiGraph, NodeId};

/// Degree-distribution summary of a directed graph.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    /// Mean out-degree (= mean in-degree = |E| / |V|).
    pub mean: f64,
    /// Maximum out-degree.
    pub max_out: usize,
    /// Maximum in-degree.
    pub max_in: usize,
    /// Second moment of the out-degree distribution, `E[d²]`.
    pub second_moment_out: f64,
    /// The epidemic-threshold ratio `E[d²]/E[d] − 1` (mean excess
    /// degree): the fixed-`p` IC model is supercritical roughly when
    /// `p · ratio > 1`.
    pub excess_ratio: f64,
}

/// Computes degree statistics. Returns zeros for empty graphs.
pub fn degree_stats(g: &DiGraph) -> DegreeStats {
    let n = g.num_nodes();
    if n == 0 {
        return DegreeStats {
            mean: 0.0,
            max_out: 0,
            max_in: 0,
            second_moment_out: 0.0,
            excess_ratio: 0.0,
        };
    }
    let mut max_out = 0usize;
    let mut sum = 0usize;
    let mut sum_sq = 0.0f64;
    for v in g.nodes() {
        let d = g.out_degree(v);
        max_out = max_out.max(d);
        sum += d;
        sum_sq += (d * d) as f64;
    }
    let max_in = g.in_degrees().into_iter().max().unwrap_or(0);
    let mean = sum as f64 / n as f64;
    let second = sum_sq / n as f64;
    DegreeStats {
        mean,
        max_out,
        max_in,
        second_moment_out: second,
        excess_ratio: if mean > 0.0 { second / mean - 1.0 } else { 0.0 },
    }
}

/// Weakly connected components: ignores arc direction. Returns
/// `(component id per node, number of components)`.
pub fn weakly_connected_components(g: &DiGraph) -> (Vec<u32>, usize) {
    let n = g.num_nodes();
    let rev = g.reverse();
    let mut comp = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut stack: Vec<NodeId> = Vec::new();
    for root in 0..n as NodeId {
        if comp[root as usize] != u32::MAX {
            continue;
        }
        comp[root as usize] = next;
        stack.push(root);
        while let Some(v) = stack.pop() {
            for &w in g.out_neighbors(v).iter().chain(rev.out_neighbors(v)) {
                if comp[w as usize] == u32::MAX {
                    comp[w as usize] = next;
                    stack.push(w);
                }
            }
        }
        next += 1;
    }
    (comp, next as usize)
}

/// Size of the largest weakly connected component.
pub fn largest_wcc_size(g: &DiGraph) -> usize {
    let (comp, k) = weakly_connected_components(g);
    let mut sizes = vec![0usize; k];
    for c in comp {
        sizes[c as usize] += 1;
    }
    sizes.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn degree_stats_of_star() {
        let s = degree_stats(&gen::star(10));
        assert_eq!(s.max_out, 9);
        assert_eq!(s.max_in, 1);
        assert!((s.mean - 0.9).abs() < 1e-12);
        // E[d²] = 81/10; ratio = 8.1/0.9 - 1 = 8.
        assert!((s.excess_ratio - 8.0).abs() < 1e-9);
    }

    #[test]
    fn degree_stats_heavy_tail_raises_excess_ratio() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(1);
        let regular = degree_stats(&gen::cycle(500));
        let heavy = degree_stats(&gen::barabasi_albert(500, 2, true, &mut rng).reverse());
        assert!(
            (regular.excess_ratio - 0.0).abs() < 1e-9,
            "cycle has no excess"
        );
        assert!(
            heavy.excess_ratio > 3.0,
            "BA in-degrees are heavy: {}",
            heavy.excess_ratio
        );
    }

    #[test]
    fn empty_graph_stats() {
        let s = degree_stats(&DiGraph::empty(0));
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.excess_ratio, 0.0);
    }

    #[test]
    fn wcc_ignores_direction() {
        // 0 -> 1, 2 -> 1 are one weak component; 3 isolated.
        let g = DiGraph::from_edges(4, &[(0, 1), (2, 1)]).unwrap();
        let (comp, k) = weakly_connected_components(&g);
        assert_eq!(k, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[3], comp[0]);
        assert_eq!(largest_wcc_size(&g), 3);
    }
}
