//! Possible-world materialization.
//!
//! A possible world keeps each arc of the probabilistic graph
//! independently with its probability (Eq. 1 of the paper). The sampler
//! emits the surviving subgraph directly in CSR order — per-node target
//! slices of the input are already sorted, and filtering preserves order —
//! so no re-sort is needed. [`WorldMasks`] stores ℓ worlds as one bit per
//! world and arc of the input graph instead, 64 worlds to a column.

use soi_graph::{DiGraph, NodeId, ProbGraph};
use soi_util::rng::Rng;
use std::ops::Range;

/// The one coin loop behind every world: one `rng.random::<f64>() <
/// probs[e]` draw per arc of `arcs`, in order, calling `live(e)` for each
/// arc that survives. Drawing `0..m` at once or node range by node range
/// consumes the same stream, so a CSR world and a [`draw_column`] bit from
/// equal RNGs are the same world.
#[inline]
fn flip_coins<R: Rng>(probs: &[f64], arcs: Range<usize>, rng: &mut R, mut live: impl FnMut(usize)) {
    for e in arcs {
        if rng.random::<f64>() < probs[e] {
            live(e);
        }
    }
}

/// Samples possible worlds from a [`ProbGraph`] as CSR graphs. Nothing
/// is reused across calls: each [`sample`](Self::sample) hands its
/// offsets and targets to the [`DiGraph`] it returns, and the next world
/// starts from empty buffers.
#[derive(Clone, Debug, Default)]
pub struct WorldSampler {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

impl WorldSampler {
    /// Creates a sampler.
    pub fn new() -> Self {
        WorldSampler::default()
    }

    /// Draws one possible world `G ⊑ 𝒢`.
    ///
    /// Each arc survives independently with its probability. The returned
    /// graph has the same node set; only arcs differ.
    pub fn sample<R: Rng>(&mut self, pg: &ProbGraph, rng: &mut R) -> DiGraph {
        soi_obs::counter_add!("sampling.worlds_sampled", 1);
        let g = pg.graph();
        let n = g.num_nodes();
        self.offsets.clear();
        self.offsets.reserve(n + 1);
        self.targets.clear();
        self.offsets.push(0);
        for v in 0..n as NodeId {
            flip_coins(pg.probs(), g.edge_range(v), rng, |e| {
                self.targets.push(g.edge_target(e))
            });
            // At most `pg`'s arcs, whose count fits a `u32` offset.
            self.offsets.push(self.targets.len() as u32);
        }
        DiGraph::from_csr_parts(
            std::mem::take(&mut self.offsets),
            std::mem::take(&mut self.targets),
        )
    }
}

/// ℓ possible worlds of one graph as live-arc bits, 64 worlds to a
/// column: world `i` keeps CSR arc `e` when bit `i % 64` of word `e` of
/// column `i / 64` is set. A column is one word per arc, so ℓ worlds over
/// `m` arcs take `⌈ℓ/64⌉·m` words, `ℓ·m/8` bytes when 64 divides ℓ; the
/// last column of any other ℓ uses only its low `ℓ % 64` bits.
#[derive(Clone, Debug)]
pub struct WorldMasks {
    num_worlds: usize,
    columns: Vec<Vec<u64>>,
}

impl WorldMasks {
    /// The masks of worlds `0..num_worlds`, column `c` from `column(c)`,
    /// drawn one column per task by `threads` workers
    /// (`soi_util::pool`, 0 = all cores). A column depends only on its
    /// index, so the worker partition does not affect the result.
    pub fn from_columns(
        num_worlds: usize,
        threads: usize,
        column: impl Fn(usize) -> Vec<u64> + Sync,
    ) -> Self {
        let mut columns = vec![Vec::new(); num_worlds.div_ceil(64)];
        soi_util::pool::for_each_indexed(&mut columns, threads, |c, slot| *slot = column(c));
        WorldMasks {
            num_worlds,
            columns,
        }
    }

    /// The number of worlds ℓ.
    pub fn num_worlds(&self) -> usize {
        self.num_worlds
    }

    /// Column `c`: bit `j` of word `e` is arc `e` of world `64·c + j`.
    #[inline]
    pub fn column(&self, c: usize) -> &[u64] {
        &self.columns[c]
    }

    /// Whether world `i` keeps CSR arc `e`.
    #[inline]
    pub fn is_live(&self, i: usize, e: usize) -> bool {
        self.columns[i / 64][e] >> (i % 64) & 1 == 1
    }

    /// Heap footprint of the masks in bytes.
    pub fn memory_bytes(&self) -> usize {
        let words: usize = self.columns.iter().map(Vec::len).sum();
        words * std::mem::size_of::<u64>()
    }
}

/// Column `column` of the [`WorldMasks`] of worlds `0..num_worlds` of
/// `pg`, world `i` drawn from [`world_rng`]`(seed, i)`: the column's RNGs
/// run in lockstep, each making for every arc, in CSR order, the draw
/// [`WorldSampler::sample`] makes, so bit `(e, i)` is arc `e` of the CSR
/// world that `world_rng(seed, i)` gives.
pub fn draw_column(pg: &ProbGraph, seed: u64, column: usize, num_worlds: usize) -> Vec<u64> {
    let worlds = column * 64..num_worlds.min(column * 64 + 64);
    soi_obs::counter_add!("sampling.worlds_sampled", worlds.len());
    let mut rngs: Vec<_> = worlds.map(|i| world_rng(seed, i)).collect();
    let coins = |&p: &f64| {
        let bits = rngs.iter_mut().enumerate();
        bits.fold(0, |word, (j, rng)| {
            word | u64::from(rng.random::<f64>() < p) << j
        })
    };
    pg.probs().iter().map(coins).collect()
}

/// The RNG that generates world `i` of a run seeded with `seed`.
///
/// Exposed so tests and the cascade index can re-materialize a specific
/// world deterministically.
pub fn world_rng(seed: u64, world: usize) -> soi_util::rng::Xoshiro256pp {
    soi_util::rng::Xoshiro256pp::seed_from_u64(soi_util::rng::derive_seed(seed, world as u64))
}

/// Every possible world of `pg` with its probability, in mask order.
/// World `mask` keeps arc `e` (CSR order) iff bit `e` of `mask` is set;
/// its probability is the product, in arc order, of `p_e` for a kept arc
/// and `1 − p_e` for a dropped one. `O(2^E)`, so at most 20 arcs: the
/// exact references that anchor the estimator tests are folds over it.
pub fn enumerate_worlds(pg: &ProbGraph, mut visit: impl FnMut(&DiGraph, f64)) {
    let m = pg.num_edges();
    assert!(m <= 20, "brute force limited to 20 edges");
    let g = pg.graph();
    for mask in 0u32..(1 << m) {
        let mut edges = Vec::new();
        let mut prob = 1.0;
        let mut e = 0usize;
        for u in g.nodes() {
            for &v in g.out_neighbors(u) {
                if mask & (1 << e) != 0 {
                    edges.push((u, v));
                    prob *= pg.edge_prob(e);
                } else {
                    prob *= 1.0 - pg.edge_prob(e);
                }
                e += 1;
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "world edges are a subset of pg's arcs, so ids are in range"
        )]
        let world = DiGraph::from_edges(pg.num_nodes(), &edges).expect("subset of pg");
        visit(&world, prob);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::{gen, GraphBuilder};

    #[test]
    fn world_is_subgraph_with_same_nodes() {
        let pg = ProbGraph::fixed(gen::complete(20), 0.3).unwrap();
        let mut s = WorldSampler::new();
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(1);
        for _ in 0..10 {
            let w = s.sample(&pg, &mut rng);
            assert_eq!(w.num_nodes(), 20);
            assert!(w.num_edges() <= pg.num_edges());
            for (u, v) in w.edges() {
                assert!(pg.graph().has_edge(u, v), "phantom arc {u}->{v}");
            }
        }
    }

    #[test]
    fn extreme_probabilities() {
        let g = gen::path(10);
        let pg = ProbGraph::fixed(g.clone(), 1.0).unwrap();
        let mut s = WorldSampler::new();
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(2);
        let w = s.sample(&pg, &mut rng);
        assert_eq!(w, g, "p = 1 keeps everything");

        let mut b = GraphBuilder::new(10);
        for i in 0..9 {
            b.add_weighted_edge(i, i + 1, 1e-12);
        }
        let pg = b.build_prob().unwrap();
        let w = s.sample(&pg, &mut rng);
        assert_eq!(w.num_edges(), 0, "p ≈ 0 keeps (almost surely) nothing");
    }

    #[test]
    fn survival_rate_matches_probability() {
        let pg = ProbGraph::fixed(gen::complete(30), 0.25).unwrap();
        let mut s = WorldSampler::new();
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(3);
        let mut total = 0usize;
        let rounds = 200;
        for _ in 0..rounds {
            total += s.sample(&pg, &mut rng).num_edges();
        }
        let rate = total as f64 / (rounds * pg.num_edges()) as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn per_world_determinism() {
        let pg = ProbGraph::fixed(gen::complete(10), 0.5).unwrap();
        let mut shared = WorldSampler::new();
        let worlds_a: Vec<DiGraph> = (0..5)
            .map(|i| shared.sample(&pg, &mut world_rng(99, i)))
            .collect();
        // Re-derive world 3 in isolation.
        let mut s = WorldSampler::new();
        let w3 = s.sample(&pg, &mut world_rng(99, 3));
        assert_eq!(w3, worlds_a[3]);
        // Different worlds differ (w.h.p. for 45 coin flips).
        assert_ne!(worlds_a[0], worlds_a[1]);
    }

    /// Bit `(e, i)` of the column draw is arc `e` of `WorldSampler`'s
    /// world `i` from the same `world_rng`, for ℓ with a ragged last
    /// column and arc counts that include 0.
    #[test]
    fn a_column_holds_the_csr_worlds_of_its_streams() {
        for (seed, &arcs) in (0..16u64).zip([0, 1, 63, 64, 65, 127, 128, 300].iter().cycle()) {
            let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(seed);
            let g = gen::gnm(30, arcs, &mut rng);
            let probs = (0..arcs).map(|_| rng.random::<f64>()).collect();
            let pg = ProbGraph::new(g, probs).unwrap();
            for ell in [1, 63, 64, 65, 130] {
                let masks = WorldMasks::from_columns(ell, 2, |c| draw_column(&pg, seed, c, ell));
                assert_eq!(masks.memory_bytes(), ell.div_ceil(64) * arcs * 8);
                for i in 0..ell {
                    let world = WorldSampler::new().sample(&pg, &mut world_rng(seed, i));
                    let live: Vec<(NodeId, NodeId)> = (pg.graph().edges().enumerate())
                        .filter(|&(e, _)| masks.is_live(i, e))
                        .map(|(_, arc)| arc)
                        .collect();
                    let want: Vec<_> = world.edges().collect();
                    assert_eq!(live, want, "seed {seed}, ℓ = {ell}, world {i}");
                }
                let last = masks.column((ell - 1) / 64);
                let high = if ell % 64 == 0 {
                    0
                } else {
                    !0u64 << (ell % 64)
                };
                assert!(last.iter().all(|w| w & high == 0), "seed {seed}, ℓ = {ell}");
            }
        }
    }

    #[test]
    fn sampler_buffer_reuse_is_clean() {
        let pg1 = ProbGraph::fixed(gen::complete(8), 0.9).unwrap();
        let pg2 = ProbGraph::fixed(gen::path(3), 1.0).unwrap();
        let mut s = WorldSampler::new();
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(4);
        let _big = s.sample(&pg1, &mut rng);
        let small = s.sample(&pg2, &mut rng);
        assert_eq!(small.num_nodes(), 3);
        assert_eq!(small.num_edges(), 2);
    }
}
