//! SKIM-style greedy seed selection over combined reachability sketches.
//!
//! The lazy-greedy loop of `soi-influence` (CELF / `InfMax_TC`
//! max-cover) applied to sketch-estimated **residual** spreads:
//!
//! * a candidate's priority is its estimated marginal spread given the
//!   pairs already covered — for a saturated sketch the conditional
//!   bottom-k estimator `#uncovered sketch entries below τ / τ / ℓ`, for
//!   an unsaturated one the exact uncovered count over its full pair set;
//! * residuals only shrink as coverage grows, so stale heap entries are
//!   safely re-scored lazily (pop, re-estimate, re-push) exactly like the
//!   RIS max-cover loop;
//! * when a seed is **selected**, its true marginal coverage is computed
//!   exactly: a forward BFS per world marks newly covered nodes, the SKIM
//!   discipline that keeps estimation error from compounding across
//!   rounds. The ℓ worlds are drawn before the first round, from
//!   `world_rng(seed, i)` as [`WorldMasks`] over `pg`'s arcs, 64 worlds
//!   to a column — the worlds the build sampled, bit for bit
//!   ([`world_masks`]) — and every round's BFS walks `pg.graph()`
//!   filtered by world `i`'s bits. [`select_seeds`] draws them per call;
//!   a caller that keeps them (the daemon's sketch cache entry) passes
//!   them to [`select_seeds_with`]. The memory contract is `O(k · n)` for
//!   the heap and covered sets plus `ℓ · m` bits for the masks.
//!
//! One deadline tick per selection round; on expiry the partial result is
//! the seed prefix an uninterrupted run would have selected.

use crate::{rank_unit, ReachSketches};
use soi_graph::{NodeId, ProbGraph};
use soi_sampling::world::{draw_column, WorldMasks};
use soi_util::runtime::{Deadline, Outcome};
use soi_util::{BitSet, LazyGreedy};

/// Result of a sketch-based seed selection.
#[derive(Clone, Debug)]
pub struct SelectResult {
    /// Selected seeds in selection order.
    pub seeds: Vec<NodeId>,
    /// Exact (over the ℓ sampled worlds) expected spread of the seed
    /// prefix after each selection: `covered pairs / ℓ`.
    pub coverage: Vec<f64>,
}

/// Estimated marginal spread of `u` given the per-world covered sets.
pub(crate) fn residual_gain(sk: &ReachSketches, u: NodeId, covered: &[BitSet]) -> f64 {
    let s = sk.sketch_of(u);
    let ell = sk.num_worlds() as f64;
    let uncovered = |entries: &[crate::Entry]| {
        entries
            .iter()
            .filter(|e| !covered[e.world as usize].contains(e.node as usize))
            .count() as f64
    };
    if !sk.is_saturated(u) {
        // Exhaustive sketch: the residual is exact.
        uncovered(s) / ell
    } else {
        // Conditional bottom-k estimator: the k−1 entries below the
        // threshold τ are a uniform rank-sample of u's pair set.
        let k = s.len();
        let tau = rank_unit(s[k - 1].rank);
        uncovered(&s[..k - 1]) / tau / ell
    }
}

/// The live-arc masks of the ℓ worlds `sk` was built from: world `i`
/// drawn from `world_rng(seed, i)` over `pg`'s arcs, 64 worlds to a
/// column, by the build's thread count. `pg` must be the graph the
/// sketches were built over.
pub fn world_masks(pg: &ProbGraph, sk: &ReachSketches) -> WorldMasks {
    let (seed, threads, ell) = (sk.config().seed, sk.config().threads, sk.num_worlds());
    WorldMasks::from_columns(ell, threads, |c| draw_column(pg, seed, c, ell))
}

/// Greedy seed selection: lazy residual-sketch estimates drive the heap,
/// exact forward-BFS coverage updates follow each selection. Deterministic
/// in the sketch build seed; one deadline tick per round (the first round
/// always runs). `pg` must be the graph the sketches were built over;
/// its [`ProbGraph::fingerprint`] is checked against the sketches'.
/// Draws the worlds' masks for this call ([`world_masks`]).
pub fn select_seeds(
    pg: &ProbGraph,
    sk: &ReachSketches,
    k_seeds: usize,
    deadline: &Deadline,
) -> Outcome<SelectResult> {
    let _span = soi_obs::span("sketch.select");
    let masks = world_masks(pg, sk);
    select(pg, pg.fingerprint(), sk, &masks, k_seeds, deadline)
}

/// [`select_seeds`] over masks the caller drew with [`world_masks`] and
/// kept: the same answer, without redrawing ℓ · m coins. `fingerprint`
/// is `pg`'s [`ProbGraph::fingerprint`], which the caller already holds,
/// so the check against the sketches costs no pass over the graph.
pub fn select_seeds_with(
    pg: &ProbGraph,
    fingerprint: u64,
    sk: &ReachSketches,
    masks: &WorldMasks,
    k_seeds: usize,
    deadline: &Deadline,
) -> Outcome<SelectResult> {
    let _span = soi_obs::span("sketch.select");
    select(pg, fingerprint, sk, masks, k_seeds, deadline)
}

/// The one selection body behind both entry points.
fn select(
    pg: &ProbGraph,
    fingerprint: u64,
    sk: &ReachSketches,
    masks: &WorldMasks,
    k_seeds: usize,
    deadline: &Deadline,
) -> Outcome<SelectResult> {
    assert_eq!(
        fingerprint,
        sk.graph_fingerprint(),
        "sketches were built over a different graph"
    );
    let n = sk.num_nodes();
    let ell = sk.num_worlds();
    assert_eq!(masks.num_worlds(), ell, "masks of a different world count");
    let k_seeds = k_seeds.min(n);

    let mut covered: Vec<BitSet> = (0..ell).map(|_| BitSet::new(n)).collect();
    let mut covered_pairs = 0u64;
    // Ties go to the lower node id, so selection is deterministic even
    // under heavy gain collisions.
    let mut lazy = LazyGreedy::with_capacity(n);
    for v in 0..n as NodeId {
        lazy.push(v, residual_gain(sk, v, &covered));
    }

    let g = pg.graph();
    let mut queue: Vec<NodeId> = Vec::new();
    let mut seeds = Vec::with_capacity(k_seeds);
    let mut coverage = Vec::with_capacity(k_seeds);
    for round in 1..=k_seeds {
        let proceed = deadline.tick(1);
        if round > 1 && !proceed {
            break;
        }
        let Some((node, _)) = lazy.pop_best(|v| Some(residual_gain(sk, v, &covered))) else {
            break;
        };
        // Exact marginal coverage: forward BFS per world over its live
        // arcs and still-uncovered nodes.
        for (i, cov) in covered.iter_mut().enumerate() {
            if cov.contains(node as usize) {
                continue;
            }
            cov.insert(node as usize);
            covered_pairs += 1;
            queue.clear();
            queue.push(node);
            while let Some(u) = queue.pop() {
                for e in g.edge_range(u) {
                    let w = g.edge_target(e);
                    if masks.is_live(i, e) && cov.insert(w as usize) {
                        covered_pairs += 1;
                        queue.push(w);
                    }
                }
            }
        }
        seeds.push(node);
        coverage.push(covered_pairs as f64 / ell as f64);
    }
    let done = seeds.len() as u64;
    deadline.outcome(SelectResult { seeds, coverage }, done, k_seeds as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SketchConfig;
    use soi_graph::gen;
    use soi_util::rng::Xoshiro256pp;

    fn ba_graph(n: usize, seed: u64) -> ProbGraph {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        ProbGraph::fixed(gen::barabasi_albert(n, 2, true, &mut rng), 0.2).unwrap()
    }

    fn build(pg: &ProbGraph, worlds: usize, k: usize, seed: u64) -> ReachSketches {
        ReachSketches::build(
            pg,
            SketchConfig {
                num_worlds: worlds,
                k,
                seed,
                threads: 1,
            },
        )
    }

    #[test]
    fn hub_wins_on_a_star() {
        let mut b = soi_graph::GraphBuilder::new(10);
        for leaf in 1..10 {
            b.add_weighted_edge(0, leaf, 0.9);
        }
        let pg = b.build_prob().unwrap();
        let sk = build(&pg, 128, 32, 2);
        let r = select_seeds(&pg, &sk, 2, &Deadline::unlimited()).value();
        assert_eq!(r.seeds[0], 0);
        // Coverage after the hub ≈ 1 + 9 · 0.9 over the sampled worlds.
        assert!((r.coverage[0] - 9.1).abs() < 1.0, "{}", r.coverage[0]);
    }

    #[test]
    fn selection_is_deterministic_and_duplicate_free() {
        let pg = ba_graph(80, 3);
        let sk = build(&pg, 48, 24, 7);
        let a = select_seeds(&pg, &sk, 8, &Deadline::unlimited()).value();
        let b = select_seeds(&pg, &sk, 8, &Deadline::unlimited()).value();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.coverage, b.coverage);
        let mut s = a.seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), a.seeds.len());
        assert!(a.coverage.windows(2).all(|w| w[1] >= w[0] - 1e-12));
    }

    #[test]
    fn budgeted_selection_yields_a_seed_prefix() {
        let pg = ba_graph(60, 4);
        let sk = build(&pg, 32, 16, 9);
        let full = select_seeds(&pg, &sk, 6, &Deadline::unlimited()).value();

        let partial = select_seeds(&pg, &sk, 6, &Deadline::ticks(3));
        assert!(!partial.is_complete());
        assert_eq!(partial.progress().unwrap().done, 3);
        let partial = partial.value();
        assert_eq!(partial.seeds, full.seeds[..3].to_vec());
        assert_eq!(partial.coverage, full.coverage[..3].to_vec());

        // Zero budget still selects the first seed (first round is free).
        let one = select_seeds(&pg, &sk, 6, &Deadline::ticks(0)).value();
        assert_eq!(one.seeds, full.seeds[..1].to_vec());
    }

    #[test]
    fn selection_beats_random_seeds_on_spread() {
        let pg = ba_graph(100, 5);
        let sk = build(&pg, 64, 32, 11);
        let picked = select_seeds(&pg, &sk, 5, &Deadline::unlimited()).value();
        let sketch_spread = soi_sampling::estimate_spread(&pg, &picked.seeds, 3000, 99);
        let random: Vec<NodeId> = vec![1, 21, 41, 61, 81];
        let random_spread = soi_sampling::estimate_spread(&pg, &random, 3000, 99);
        assert!(
            sketch_spread >= random_spread,
            "sketch {sketch_spread} < random {random_spread}"
        );
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn wrong_graph_is_rejected() {
        let pg = ba_graph(30, 6);
        let other = ba_graph(30, 7);
        let sk = build(&pg, 8, 8, 1);
        let _ = select_seeds(&other, &sk, 2, &Deadline::unlimited());
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn a_held_fingerprint_of_another_graph_is_rejected() {
        let pg = ba_graph(30, 6);
        let sk = build(&pg, 8, 8, 1);
        let masks = world_masks(&pg, &sk);
        let other = ba_graph(30, 7).fingerprint();
        let _ = select_seeds_with(&pg, other, &sk, &masks, 2, &Deadline::unlimited());
    }
}
