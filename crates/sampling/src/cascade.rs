//! Direct cascade sampling.
//!
//! The cascade from `s` in a random possible world is `R_s(G)` — the
//! reachability set of `s`. Materializing the whole world is wasteful when
//! only one source matters: by the principle of deferred decisions, we can
//! flip each arc's coin the first (and only) time the traversal considers
//! it. Every arc is examined at most once because each node is expanded at
//! most once, so the resulting set has exactly the distribution of
//! `R_s(G ~ 𝒢)`.

use soi_graph::{NodeId, ProbGraph};
use soi_util::rng::Rng;
use soi_util::runtime::Deadline;

/// Power-of-two buckets for the `sampling.cascade_size` histogram
/// (cascade sizes are counts, so bucket totals stay deterministic).
const SIZE_BUCKETS: &[f64] = &[
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0, 16384.0,
];

/// Reusable scratch for lazy cascade sampling (visited stamps + stack).
#[derive(Clone, Debug)]
pub struct CascadeSampler {
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
}

impl CascadeSampler {
    /// Creates scratch for graphs of up to `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        CascadeSampler {
            stamp: vec![0; num_nodes],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.stack.clear();
    }

    #[inline]
    fn visit(&mut self, v: NodeId) -> bool {
        let s = &mut self.stamp[v as usize];
        if *s == self.epoch {
            false
        } else {
            *s = self.epoch;
            true
        }
    }

    /// Samples one cascade from `source`, writing the activated nodes
    /// (including the source) into `out` in activation order.
    pub fn sample<R: Rng>(
        &mut self,
        pg: &ProbGraph,
        source: NodeId,
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) {
        self.sample_multi(pg, std::slice::from_ref(&source), rng, out)
    }

    /// Samples one cascade from a seed set (all seeds active at time 0),
    /// writing activated nodes into `out`. Duplicate seeds are fine.
    pub fn sample_multi<R: Rng>(
        &mut self,
        pg: &ProbGraph,
        seeds: &[NodeId],
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) {
        self.begin();
        out.clear();
        for &s in seeds {
            if self.visit(s) {
                out.push(s);
                self.stack.push(s);
            }
        }
        let g = pg.graph();
        let probs = pg.probs();
        soi_obs::counter_add!("sampling.cascades_sampled", 1);
        while let Some(v) = self.stack.pop() {
            for e in g.edge_range(v) {
                let w = g.edge_target(e);
                // Flip the coin even for already-active targets: the arc's
                // coin is consumed either way, and skipping the draw would
                // correlate this arc with traversal order. (For sampling a
                // *single* cascade the skipped flip is harmless, but the
                // uniform rule keeps the sampler's RNG stream identical to
                // the world-sampler's per-arc consumption, which the
                // equivalence tests rely on.)
                let success = rng.random::<f64>() < probs[e];
                if success && self.visit(w) {
                    out.push(w);
                    self.stack.push(w);
                }
            }
        }
        soi_obs::counter_add!("sampling.cascade_nodes", out.len());
        soi_obs::hist_observe!("sampling.cascade_size", SIZE_BUCKETS, out.len());
    }

    /// The one seeded cascade loop behind every Monte-Carlo estimator in
    /// the workspace: draws cascade `i` of `seeds` from
    /// `world_rng(seed, i)` on one reused sampler, ticks `deadline` once
    /// per cascade, and hands each cascade (activation order, no
    /// duplicates) to `fold`. Returns how many cascades were drawn —
    /// `count` unless the deadline expired first, in which case the fold
    /// saw exactly the prefix an uninterrupted run would have drawn
    /// first, because cascade `i` depends only on `(seed, i)`.
    pub fn for_each_cascade(
        pg: &ProbGraph,
        seeds: &[NodeId],
        count: usize,
        seed: u64,
        deadline: &Deadline,
        mut fold: impl FnMut(&mut [NodeId]),
    ) -> usize {
        let mut sampler = CascadeSampler::new(pg.num_nodes());
        let mut out = Vec::new();
        for i in 0..count {
            if !deadline.tick(1) {
                return i;
            }
            let mut rng = crate::world::world_rng(seed, i);
            sampler.sample_multi(pg, seeds, &mut rng, &mut out);
            fold(&mut out);
        }
        count
    }

    /// Samples `count` independent cascades from `seeds`, returning them
    /// as sorted node-id vectors (the canonical set representation used by
    /// the Jaccard machinery). Cascade `i` depends only on `(seed, i)`.
    pub fn sample_many(
        pg: &ProbGraph,
        seeds: &[NodeId],
        count: usize,
        seed: u64,
    ) -> Vec<Vec<NodeId>> {
        let mut sets = Vec::with_capacity(count);
        let unlimited = Deadline::unlimited();
        Self::for_each_cascade(pg, seeds, count, seed, &unlimited, |cascade| {
            cascade.sort_unstable();
            sets.push(cascade.to_vec());
        });
        sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::{gen, GraphBuilder, Reachability};

    fn example1_graph() -> ProbGraph {
        // Figure 1 / Example 1 of the paper. Ids: v1=0, v2=1, v3=2, v4=3, v5=4.
        let mut b = GraphBuilder::new(5);
        b.add_weighted_edge(4, 0, 0.7); // v5->v1
        b.add_weighted_edge(4, 1, 0.4); // v5->v2
        b.add_weighted_edge(4, 3, 0.3); // v5->v4
        b.add_weighted_edge(0, 1, 0.1); // v1->v2
        b.add_weighted_edge(3, 1, 0.6); // v4->v2
        b.add_weighted_edge(1, 2, 0.4); // v2->v3
        b.add_weighted_edge(1, 0, 0.1); // v2->v1 (the 0.1 arc into v1)
        b.build_prob().unwrap()
    }

    #[test]
    fn cascade_always_contains_source() {
        let pg = ProbGraph::fixed(gen::complete(10), 0.1).unwrap();
        let mut s = CascadeSampler::new(10);
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(1);
        let mut out = Vec::new();
        for _ in 0..100 {
            s.sample(&pg, 4, &mut rng, &mut out);
            assert!(out.contains(&4));
        }
    }

    #[test]
    fn deterministic_graph_gives_full_reachability() {
        let g = gen::path(6);
        let pg = ProbGraph::fixed(g.clone(), 1.0).unwrap();
        let mut s = CascadeSampler::new(6);
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(2);
        let mut out = Vec::new();
        s.sample(&pg, 2, &mut rng, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![2, 3, 4, 5]);
    }

    #[test]
    fn example1_singleton_cascade_probability() {
        // P(cascade of v5 = {v5, v1}) = 0.7 * 0.6 * 0.7 * 0.9 = 0.2646.
        let pg = example1_graph();
        let mut s = CascadeSampler::new(5);
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(3);
        let mut out = Vec::new();
        let trials = 200_000;
        let mut hits = 0usize;
        for _ in 0..trials {
            s.sample(&pg, 4, &mut rng, &mut out);
            out.sort_unstable();
            if out == vec![0, 4] {
                hits += 1;
            }
        }
        let p = hits as f64 / trials as f64;
        assert!((p - 0.2646).abs() < 0.006, "got {p}, want ~0.2646");
    }

    #[test]
    fn example1_impossible_cascade_never_appears() {
        // {v1, v3, v4} (+source) has probability 0: v3 is only reachable
        // via v2.
        let pg = example1_graph();
        let mut s = CascadeSampler::new(5);
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(4);
        let mut out = Vec::new();
        for _ in 0..50_000 {
            s.sample(&pg, 4, &mut rng, &mut out);
            out.sort_unstable();
            assert_ne!(out, vec![0, 2, 3, 4], "v3 without v2 is impossible");
        }
    }

    #[test]
    fn lazy_matches_world_based_distribution() {
        // Mean cascade size from the lazy sampler must match reachability
        // in materialized worlds (same seeds → same coin stream → identical
        // sets, since both consume one draw per arc in CSR order...
        // traversal order differs, so compare distributions statistically).
        let pg = ProbGraph::fixed(
            gen::gnm(40, 160, &mut soi_util::rng::Xoshiro256pp::seed_from_u64(7)),
            0.3,
        )
        .unwrap();
        let src: NodeId = 0;
        let runs = 4000;

        let mut lazy_mean = 0f64;
        let mut s = CascadeSampler::new(40);
        let mut out = Vec::new();
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(5);
        for _ in 0..runs {
            s.sample(&pg, src, &mut rng, &mut out);
            lazy_mean += out.len() as f64;
        }
        lazy_mean /= runs as f64;

        let mut world_mean = 0f64;
        let mut ws = crate::WorldSampler::new();
        let mut reach = Reachability::new(40);
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(6);
        for _ in 0..runs {
            let w = ws.sample(&pg, &mut rng);
            world_mean += reach.count_reachable(&w, src) as f64;
        }
        world_mean /= runs as f64;

        assert!(
            (lazy_mean - world_mean).abs() < 0.05 * world_mean.max(1.0),
            "lazy {lazy_mean} vs world {world_mean}"
        );
    }

    #[test]
    fn multi_seed_union_semantics() {
        // Two disconnected deterministic paths; seeding both heads
        // activates both paths.
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (3, 4), (4, 5)] {
            b.add_weighted_edge(u, v, 1.0);
        }
        let pg = b.build_prob().unwrap();
        let mut s = CascadeSampler::new(6);
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(8);
        let mut out = Vec::new();
        s.sample_multi(&pg, &[0, 3], &mut rng, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        // Duplicates don't double-activate.
        s.sample_multi(&pg, &[0, 0], &mut rng, &mut out);
        assert_eq!(out.iter().filter(|&&v| v == 0).count(), 1);
    }

    #[test]
    fn sample_many_returns_sorted_canonical_sets() {
        let pg = ProbGraph::fixed(gen::complete(8), 0.4).unwrap();
        let sets = CascadeSampler::sample_many(&pg, &[0], 20, 11);
        assert_eq!(sets.len(), 20);
        for s in &sets {
            assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            assert!(s.contains(&0));
        }
        // Determinism.
        let again = CascadeSampler::sample_many(&pg, &[0], 20, 11);
        assert_eq!(sets, again);
    }
}
