//! `InfMax_TC` (Algorithm 3): influence maximization as max-cover over
//! spheres of influence.
//!
//! §5 of the paper: with the typical cascade `C_v` of every node
//! precomputed, pick the `k` nodes whose spheres jointly cover the most
//! nodes — a classic maximum-coverage instance solved greedily. Coverage
//! is monotone submodular, so lazy (CELF-style) evaluation is exact and
//! the greedy is a `(1 − 1/e)` approximation *to the coverage objective*
//! (the influence-maximization quality claim is empirical, §6.4).
//! RIS seed selection ([`crate::ris`]) runs this same cover over its
//! node → RR-set index.
//!
//! Also here: the §8 future-work extensions — market segments with
//! different *values* (weighted max-cover) and nodes with different
//! seeding *costs* (budgeted max-cover via the greedy ratio rule).

use soi_graph::NodeId;
use soi_util::{BitSet, LazyGreedy};

/// Output of an `InfMax_TC` run.
#[derive(Clone, Debug)]
pub struct TcResult {
    /// Selected seeds in selection order.
    pub seeds: Vec<NodeId>,
    /// Objective value after each selection (covered node count, or
    /// covered value for the weighted variant).
    pub coverage_curve: Vec<f64>,
    /// For runs with `capture_top > 0`: per-iteration top marginal gains,
    /// sorted descending (Figure 7's saturation analysis for the TC
    /// method).
    pub gain_rankings: Vec<Vec<f64>>,
}

/// Greedy max-cover over typical cascades. `cascades[v]` is the sphere of
/// influence of node `v` (canonical sorted set over `0..n`).
///
/// `capture_top > 0` records each round's top-`capture_top` gains (needed
/// by the saturation study). Unit-value gains are integer sums, so a stale
/// gain bounds the fresh one bit for bit and the lazy heap's ranking is
/// exact.
///
/// ```
/// use soi_influence::infmax_tc;
/// // Node 0 covers {0,1,2}; node 1 covers {3,4}; node 2 covers {1,2}.
/// let spheres = vec![vec![0, 1, 2], vec![3, 4], vec![1, 2]];
/// let run = infmax_tc(&spheres, 2, 0);
/// assert_eq!(run.seeds, vec![0, 1]);           // greedy coverage order
/// assert_eq!(run.coverage_curve, vec![3.0, 5.0]);
/// ```
pub fn infmax_tc(cascades: &[Vec<NodeId>], k: usize, capture_top: usize) -> TcResult {
    let values = vec![1.0; universe_size(cascades)];
    weighted_inner(cascades, &values, k, capture_top)
}

/// Weighted max-cover: node `w` covered is worth `values[w]` (market
/// segments with different campaign value, §8).
pub fn infmax_tc_weighted(cascades: &[Vec<NodeId>], values: &[f64], k: usize) -> TcResult {
    assert!(
        values.len() >= universe_size(cascades),
        "values must cover every node appearing in a cascade"
    );
    weighted_inner(cascades, values, k, 0)
}

fn universe_size(cascades: &[Vec<NodeId>]) -> usize {
    cascades
        .iter()
        .flat_map(|c| c.iter())
        .map(|&v| v as usize + 1)
        .max()
        .unwrap_or(0)
        .max(cascades.len())
}

pub(crate) fn gain_of(cascade: &[NodeId], covered: &BitSet, values: &[f64]) -> f64 {
    soi_obs::counter_add!("influence.tc_gain_evals", 1);
    cascade
        .iter()
        .filter(|&&w| !covered.contains(w as usize))
        .map(|&w| values[w as usize])
        .sum()
}

fn weighted_inner(
    cascades: &[Vec<NodeId>],
    values: &[f64],
    k: usize,
    capture_top: usize,
) -> TcResult {
    let _span = soi_obs::span("influence.tc_cover");
    soi_obs::counter_add!("influence.tc_runs", 1);
    let n = cascades.len();
    let k = k.min(n);
    let universe = universe_size(cascades).max(values.len());
    let mut covered = BitSet::new(universe);
    let mut seeds = Vec::with_capacity(k);
    let mut curve = Vec::with_capacity(k);
    let mut rankings = Vec::new();
    let mut total = 0.0;

    let mut lazy = LazyGreedy::with_capacity(n);
    for v in 0..n as NodeId {
        lazy.push(v, gain_of(&cascades[v as usize], &covered, values));
    }
    for _ in 0..k {
        let mut ranking = Vec::with_capacity(capture_top);
        let rescore = |v: NodeId| {
            soi_obs::counter_add!("influence.tc_reevals", 1);
            Some(gain_of(&cascades[v as usize], &covered, values))
        };
        let best = lazy.pop_ranked(capture_top, rescore, |g| ranking.push(g));
        let Some((node, gain)) = best else { break };
        if capture_top > 0 {
            rankings.push(ranking);
        }
        for &w in &cascades[node as usize] {
            covered.insert(w as usize);
        }
        total += gain;
        seeds.push(node);
        curve.push(total);
    }

    TcResult {
        seeds,
        coverage_curve: curve,
        gain_rankings: rankings,
    }
}

/// Budgeted max-cover (§8: nodes with different seeding costs): greedily
/// picks the best gain-per-cost node that still fits the remaining
/// budget. Returns when nothing affordable remains.
///
/// The plain ratio rule has an unbounded worst case; the standard fix of
/// comparing against the best single affordable set is applied, giving
/// the classic `(1 − 1/√e)`-style guarantee for the coverage objective.
pub fn infmax_tc_budgeted(cascades: &[Vec<NodeId>], costs: &[f64], budget: f64) -> TcResult {
    assert_eq!(cascades.len(), costs.len(), "one cost per node");
    assert!(costs.iter().all(|&c| c > 0.0), "costs must be positive");
    let n = cascades.len();
    let universe = universe_size(cascades);
    let values = vec![1.0; universe];

    // Ratio-greedy pass.
    let mut covered = BitSet::new(universe);
    let mut seeds = Vec::new();
    let mut curve = Vec::new();
    let mut spent = 0.0;
    let mut total = 0.0;
    let mut in_solution = vec![false; n];
    loop {
        let mut best: Option<(f64, f64, NodeId)> = None; // (ratio, gain, node)
        for v in 0..n as NodeId {
            if in_solution[v as usize] || spent + costs[v as usize] > budget {
                continue;
            }
            let gain = gain_of(&cascades[v as usize], &covered, &values);
            let ratio = gain / costs[v as usize];
            let candidate = (ratio, gain, v);
            best = match best {
                None => Some(candidate),
                Some(b) if ratio > b.0 + 1e-15 || (ratio >= b.0 - 1e-15 && v < b.2) => {
                    Some(candidate)
                }
                keep => keep,
            };
        }
        let Some((_, gain, v)) = best else { break };
        if gain <= 0.0 {
            break;
        }
        in_solution[v as usize] = true;
        for &w in &cascades[v as usize] {
            covered.insert(w as usize);
        }
        spent += costs[v as usize];
        total += gain;
        seeds.push(v);
        curve.push(total);
    }

    // Compare with the best single affordable node (guards the ratio
    // rule's pathological cases).
    let best_single = (0..n).filter(|&v| costs[v] <= budget).max_by(|&a, &b| {
        (cascades[a].len() as f64)
            .total_cmp(&(cascades[b].len() as f64))
            .then(b.cmp(&a))
    });
    if let Some(v) = best_single {
        if (cascades[v].len() as f64) > total {
            return TcResult {
                seeds: vec![v as NodeId],
                coverage_curve: vec![cascades[v].len() as f64],
                gain_rankings: Vec::new(),
            };
        }
    }

    TcResult {
        seeds,
        coverage_curve: curve,
        gain_rankings: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_cascades() -> Vec<Vec<NodeId>> {
        // Universe 0..6. Node 0 covers {0,1,2}; node 1 covers {3,4};
        // node 2 covers {1,2}; node 3 covers {5}; others themselves.
        vec![
            vec![0, 1, 2],
            vec![1, 3, 4],
            vec![1, 2],
            vec![3, 5],
            vec![4],
            vec![5],
        ]
    }

    #[test]
    fn greedy_cover_order() {
        let r = infmax_tc(&toy_cascades(), 3, 0);
        // Gains: node 0 → 3, node 1 → 3 (tie, smaller id wins) → pick 0.
        assert_eq!(r.seeds[0], 0);
        // Then node 1 adds {3,4} = 2; node 3 adds {3,5} = 2 → tie, pick 1.
        assert_eq!(r.seeds[1], 1);
        // Then node 3 adds {5}; node 5 adds {5} → pick 3.
        assert_eq!(r.seeds[2], 3);
        assert_eq!(r.coverage_curve, vec![3.0, 5.0, 6.0]);
    }

    #[test]
    fn coverage_curve_monotone_and_bounded() {
        let r = infmax_tc(&toy_cascades(), 6, 0);
        assert!(r.coverage_curve.windows(2).all(|w| w[1] >= w[0]));
        assert!(*r.coverage_curve.last().unwrap() <= 6.0);
    }

    #[test]
    fn weighted_prefers_valuable_segments() {
        // Node 5 (covering node 5) is worth 100; everything else 1.
        let mut values = vec![1.0; 6];
        values[5] = 100.0;
        let r = infmax_tc_weighted(&toy_cascades(), &values, 1);
        // Node 3 covers {3,5} = 101, the best first pick.
        assert_eq!(r.seeds, vec![3]);
        assert_eq!(r.coverage_curve, vec![101.0]);
    }

    #[test]
    fn budgeted_respects_budget() {
        let costs = vec![3.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let r = infmax_tc_budgeted(&toy_cascades(), &costs, 2.0);
        let spent: f64 = r.seeds.iter().map(|&v| costs[v as usize]).sum();
        assert!(spent <= 2.0);
        assert!(!r.seeds.contains(&0), "node 0 unaffordable");
        assert!(!r.seeds.is_empty());
    }

    #[test]
    fn budgeted_single_set_guard() {
        // One expensive node covers everything; cheap ones cover almost
        // nothing. Ratio rule would burn budget on cheap crumbs first and
        // then be unable to afford the big set.
        let cascades: Vec<Vec<NodeId>> = vec![
            (0..10).collect(), // node 0: everything, cost 10
            vec![1],           // node 1: itself, cost 1
            vec![2],
        ];
        let costs = vec![10.0, 1.0, 1.0];
        let r = infmax_tc_budgeted(&cascades, &costs, 10.0);
        assert_eq!(r.seeds, vec![0], "guard picks the single big set");
        assert_eq!(r.coverage_curve, vec![10.0]);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let r = infmax_tc(&[], 5, 0);
        assert!(r.seeds.is_empty());
        let r = infmax_tc(&[vec![0]], 5, 0);
        assert_eq!(r.seeds, vec![0]);
        assert_eq!(r.coverage_curve, vec![1.0]);
    }
}
