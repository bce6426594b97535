//! Reverse-reachable-set (RIS) influence maximization.
//!
//! The near-linear-time approach of Borgs et al. (SODA 2014), made
//! practical as TIM by Tang et al. (SIGMOD 2014) — the modern baseline the
//! paper's related work (§7) discusses. Included as an extension
//! comparator for the benchmark suite.
//!
//! Idea: sample a uniform random target `t` and the set of nodes that
//! reach `t` in a random possible world (one lazy reverse cascade). A seed
//! set's spread is proportional to the fraction of such RR sets it hits;
//! greedy max-cover over the RR sets maximizes that fraction.

use soi_graph::{GraphBuilder, NodeId, ProbGraph};
use soi_util::rng::derive_seed;
use soi_util::rng::Rng;
use soi_util::runtime::{Deadline, Outcome};

/// Result of an RIS run.
#[derive(Clone, Debug)]
pub struct RisResult {
    /// Selected seeds in selection order.
    pub seeds: Vec<NodeId>,
    /// Spread estimate after each selection:
    /// `n · (covered RR sets / total RR sets)`.
    pub spread_curve: Vec<f64>,
}

/// The probabilistic *transpose* of `pg`: arc `(v, u)` with the
/// probability of the original `(u, v)`. A reverse cascade from `t` on the
/// transpose samples exactly the nodes that reach `t` in a forward world.
fn transpose(pg: &ProbGraph) -> ProbGraph {
    let mut b = GraphBuilder::new(pg.num_nodes());
    for u in pg.graph().nodes() {
        for (v, p) in pg.out_arcs(u) {
            b.add_weighted_edge(v, u, p);
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "arcs and probabilities are copied verbatim from a ProbGraph that already passed validation"
    )]
    b.build_prob().expect("transpose preserves validity")
}

/// Samples `num_rr` reverse-reachable sets, one tick per RR set. On expiry returns
/// the sets sampled so far — set `i` depends only on `(seed, i)`, so a
/// partial result is exactly the prefix an uninterrupted run produces.
pub fn sample_rr_sets_budgeted(
    pg: &ProbGraph,
    num_rr: usize,
    seed: u64,
    deadline: &Deadline,
) -> Outcome<Vec<Vec<NodeId>>> {
    let tp = transpose(pg);
    let n = pg.num_nodes();
    let mut sampler = soi_sampling::CascadeSampler::new(n);
    let mut out = Vec::new();
    let mut sets = Vec::with_capacity(num_rr);
    for i in 0..num_rr {
        if !deadline.tick(1) {
            break;
        }
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(derive_seed(seed, i as u64));
        let target = rng.random_range(0..n as NodeId);
        sampler.sample(&tp, target, &mut rng, &mut out);
        let mut set = out.clone();
        set.sort_unstable();
        sets.push(set);
    }
    let done = sets.len() as u64;
    deadline.outcome(sets, done, num_rr as u64)
}

/// RIS influence maximization: `num_rr` RR sets, then greedy max-cover.
/// Deterministic in `seed`.
pub fn infmax_ris(pg: &ProbGraph, k: usize, num_rr: usize, seed: u64) -> RisResult {
    infmax_ris_budgeted(pg, k, num_rr, seed, &Deadline::unlimited()).value()
}

/// Budgeted [`infmax_ris`]: the RR-sampling phase ticks the deadline once
/// per set; on expiry max-cover runs over the sets sampled so far, so the
/// partial result is a valid (coarser) RIS solution whose spread estimate
/// simply carries more sampling noise.
pub fn infmax_ris_budgeted(
    pg: &ProbGraph,
    k: usize,
    num_rr: usize,
    seed: u64,
    deadline: &Deadline,
) -> Outcome<RisResult> {
    assert!(num_rr > 0, "need RR sets");
    let _span = soi_obs::span("influence.ris");
    let n = pg.num_nodes();
    sample_rr_sets_budgeted(pg, num_rr, seed, deadline).map(|rr| {
        if rr.is_empty() {
            RisResult {
                seeds: Vec::new(),
                spread_curve: Vec::new(),
            }
        } else {
            greedy_max_cover(n, k, &rr)
        }
    })
}

/// Greedy max-cover over sampled RR sets: `InfMax_TC`'s cover
/// ([`crate::infmax_tc`]) over the inverted index node → ids of the RR
/// sets containing it. A node's coverage counts the RR sets it hits, so
/// the spread estimate is that count scaled by `n / |RR sets|`.
fn greedy_max_cover(n: usize, k: usize, rr: &[Vec<NodeId>]) -> RisResult {
    let mut containing: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (i, set) in rr.iter().enumerate() {
        for &v in set {
            containing[v as usize].push(i as NodeId);
        }
    }
    let cover = crate::infmax_tc(&containing, k, 0);
    let scale = n as f64 / rr.len() as f64;
    RisResult {
        seeds: cover.seeds,
        spread_curve: cover.coverage_curve.iter().map(|&c| c * scale).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::gen;

    #[test]
    fn rr_sets_contain_their_target_and_only_reachers() {
        // Path 0 -> 1 -> 2 deterministic: RR(2) = {0,1,2}, RR(0) = {0}.
        let pg = ProbGraph::fixed(gen::path(3), 1.0).unwrap();
        let sets = sample_rr_sets_budgeted(&pg, 50, 1, &Deadline::unlimited()).value();
        for s in &sets {
            assert!(!s.is_empty());
            // Every RR set of a path is a suffix-prefix 0..=t.
            let t = *s.last().unwrap();
            let expect: Vec<NodeId> = (0..=t).collect();
            assert_eq!(*s, expect);
        }
    }

    #[test]
    fn hub_wins_on_a_star() {
        let mut b = soi_graph::GraphBuilder::new(10);
        for leaf in 1..10 {
            b.add_weighted_edge(0, leaf, 0.9);
        }
        let pg = b.build_prob().unwrap();
        let r = infmax_ris(&pg, 2, 2000, 2);
        assert_eq!(r.seeds[0], 0);
        // Spread estimate of the hub should be near 1 + 9 * 0.9 = 9.1.
        assert!(
            (r.spread_curve[0] - 9.1).abs() < 0.8,
            "{}",
            r.spread_curve[0]
        );
    }

    #[test]
    fn ris_agrees_with_mc_greedy_on_spread() {
        use soi_util::rng::Xoshiro256pp;
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let pg = ProbGraph::fixed(gen::barabasi_albert(80, 2, true, &mut rng), 0.2).unwrap();
        let r = infmax_ris(&pg, 5, 5000, 4);
        // Evaluate the RIS seeds with the forward MC estimator; RIS's own
        // estimate should be in the same ballpark.
        let forward = soi_sampling::estimate_spread(&pg, &r.seeds, 4000, 5);
        let ris_est = *r.spread_curve.last().unwrap();
        assert!(
            (forward - ris_est).abs() < 0.25 * forward.max(1.0),
            "forward {forward} vs ris {ris_est}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let pg = ProbGraph::fixed(gen::cycle(20), 0.3).unwrap();
        let a = infmax_ris(&pg, 3, 500, 7);
        let b = infmax_ris(&pg, 3, 500, 7);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.spread_curve, b.spread_curve);
    }

    #[test]
    fn budgeted_ris_degrades_to_fewer_rr_sets() {
        use soi_util::runtime::Deadline;
        let pg = ProbGraph::fixed(gen::cycle(20), 0.3).unwrap();
        let full = infmax_ris(&pg, 3, 500, 7);

        let complete = infmax_ris_budgeted(&pg, 3, 500, 7, &Deadline::unlimited());
        assert!(complete.is_complete());
        assert_eq!(complete.value_ref().seeds, full.seeds);

        // Budget for 200 sets: identical to a 200-set run from scratch.
        let d = Deadline::ticks(200);
        let partial = infmax_ris_budgeted(&pg, 3, 500, 7, &d);
        assert!(!partial.is_complete());
        assert_eq!(partial.progress().unwrap().done, 200);
        let small = infmax_ris(&pg, 3, 200, 7);
        let partial = partial.value();
        assert_eq!(partial.seeds, small.seeds);
        assert_eq!(partial.spread_curve, small.spread_curve);

        // Zero budget: empty but well-formed.
        let none = infmax_ris_budgeted(&pg, 3, 500, 7, &Deadline::ticks(0));
        assert!(!none.is_complete());
        assert!(none.value_ref().seeds.is_empty());
    }

    #[test]
    fn curve_monotone_no_duplicate_seeds() {
        let pg = ProbGraph::fixed(gen::star(15), 0.5).unwrap();
        let r = infmax_ris(&pg, 10, 1000, 8);
        assert!(r.spread_curve.windows(2).all(|w| w[1] >= w[0]));
        let mut s = r.seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), r.seeds.len());
    }

    /// Seeds and spread-curve bits on one weighted-cascade and two
    /// uniform fixtures (one with `k` past `n`), pinned to hashes recorded
    /// at commit d03aa32, when RIS ran its own lazy cover loop.
    #[test]
    fn ris_selection_is_pinned() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(43);
        let wc = ProbGraph::weighted_cascade(gen::barabasi_albert(300, 3, true, &mut rng));
        let dense = ProbGraph::fixed(gen::gnm(200, 800, &mut rng), 0.2).unwrap();
        let sparse = ProbGraph::fixed(gen::gnm(120, 240, &mut rng), 0.05).unwrap();
        let runs = [(&wc, 10, 2000), (&dense, 1, 1500), (&sparse, 125, 800)];
        let got = runs.map(|(pg, k, num_rr)| {
            let r = infmax_ris(pg, k, num_rr, 47);
            let mut bytes = Vec::new();
            for &s in &r.seeds {
                bytes.extend_from_slice(&s.to_le_bytes());
            }
            for &x in &r.spread_curve {
                bytes.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            soi_util::hash::hash_bytes(&bytes)
        });
        assert_eq!(
            got,
            [
                0xf9fc_e3e1_0033_c192,
                0x2843_4a27_5462_4fd9,
                0x6182_5319_4e08_4931
            ],
            "got {got:#x?}"
        );
    }
}
