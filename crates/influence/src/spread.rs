//! Index-backed expected-spread estimation with greedy bookkeeping.
//!
//! `InfMax_std` needs two things from its spread estimator: `σ(S)` for a
//! candidate set, and — inside the greedy loop — *marginal gains*
//! `σ(S ∪ {v}) − σ(S)` against the running solution. Both are computed
//! over the ℓ live-edge worlds of a [`CascadeIndex`] (the standard Kempe
//! et al. estimator, sharing one world pool across the whole greedy run as
//! the CELF implementation the paper uses does), each from one walk of all
//! ℓ worlds at once ([`CascadeIndex::walk`]). The oracle keeps one
//! covered world set per node, so a marginal gain is just "new (node,
//! world) pairs this walk would add".

use soi_graph::NodeId;
use soi_index::{CascadeIndex, IndexQuery};
use soi_util::bitset::ones;

/// Monte-Carlo spread oracle over an index's world pool.
pub struct SpreadOracle<'a> {
    index: &'a CascadeIndex,
    /// Per node, `⌈ℓ/64⌉` words: the worlds in which the committed seed
    /// set activates it.
    covered: Vec<u64>,
    /// The number of (node, world) pairs `covered` holds.
    covered_pairs: usize,
    committed: Vec<NodeId>,
    query: IndexQuery,
    /// The worlds a walk starts in.
    start: Vec<u64>,
}

impl<'a> SpreadOracle<'a> {
    /// Creates an oracle with an empty committed seed set.
    pub fn new(index: &'a CascadeIndex) -> Self {
        let words = index.all_worlds().len();
        SpreadOracle {
            index,
            covered: vec![0; index.num_nodes() * words],
            covered_pairs: 0,
            committed: Vec::new(),
            query: index.query(),
            start: vec![0; words],
        }
    }

    /// The underlying index.
    pub fn index(&self) -> &CascadeIndex {
        self.index
    }

    /// The committed seed set (in commit order).
    pub fn committed(&self) -> &[NodeId] {
        &self.committed
    }

    /// One-shot estimate of `σ(seeds)`, independent of the committed state.
    pub fn spread_of(&mut self, seeds: &[NodeId]) -> f64 {
        let index = self.index;
        let walked = index.walk(seeds, index.all_worlds(), &mut self.query);
        let walked_pairs: usize = walked.sets().map(|(_, set)| count(set)).sum();
        let closures: usize = ones(walked.hits()).map(|i| index.closure(i).len()).sum();
        (walked_pairs + closures) as f64 / index.num_worlds() as f64
    }

    /// Expected spread of the committed seed set.
    pub fn current_spread(&self) -> f64 {
        self.covered_pairs as f64 / self.index.num_worlds() as f64
    }

    /// Marginal gain `σ(S ∪ {v}) − σ(S)` against the committed state.
    pub fn marginal_gain(&mut self, v: NodeId) -> f64 {
        self.uncovered_pairs(v, false) as f64 / self.index.num_worlds() as f64
    }

    /// Commits `v` into the seed set, updating covered state. Returns the
    /// realized marginal gain.
    pub fn commit(&mut self, v: NodeId) -> f64 {
        let gain = self.uncovered_pairs(v, true);
        self.covered_pairs += gain;
        self.committed.push(v);
        gain as f64 / self.index.num_worlds() as f64
    }

    /// The (node, world) pairs of `v`'s cascades that are not covered,
    /// covered too when `commit` is set. The walk starts in the worlds
    /// where `v` is not covered: in the others its whole cascade is, since
    /// covered sets are closed under reachability within a world.
    fn uncovered_pairs(&mut self, v: NodeId, commit: bool) -> usize {
        let SpreadOracle {
            index,
            covered,
            query,
            start,
            ..
        } = self;
        let words = start.len();
        let row = |u: NodeId| u as usize * words..(u as usize + 1) * words;
        let worlds = start.iter_mut().zip(index.all_worlds());
        for ((s, all), c) in worlds.zip(&covered[row(v)]) {
            *s = all & !c;
        }
        let walked = index.walk(&[v], start, query);
        let mut gain = 0;
        let mut add = |u: NodeId, worlds: &mut dyn Iterator<Item = u64>| {
            for (c, w) in covered[row(u)].iter_mut().zip(worlds) {
                gain += (w & !*c).count_ones() as usize;
                if commit {
                    *c |= w;
                }
            }
        };
        for (u, set) in walked.sets() {
            add(u, &mut set.iter().copied());
        }
        let hits = walked.hits();
        if hits.iter().any(|&h| h != 0) {
            let (nodes, rows) = index.closure_rows();
            for (&u, row) in nodes.iter().zip(rows.chunks_exact(words)) {
                add(u, &mut row.iter().zip(hits).map(|(r, h)| r & h));
            }
        }
        gain
    }

    /// Clears the committed state.
    pub fn reset(&mut self) {
        self.covered.fill(0);
        self.covered_pairs = 0;
        self.committed.clear();
    }
}

/// The number of worlds in a world set.
fn count(set: &[u64]) -> usize {
    set.iter().map(|w| w.count_ones() as usize).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::{gen, ProbGraph};
    use soi_index::IndexConfig;

    fn build(seed: u64, worlds: usize) -> (ProbGraph, CascadeIndex) {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(seed);
        let pg = ProbGraph::fixed(gen::gnm(50, 250, &mut rng), 0.25).unwrap();
        let index = CascadeIndex::build(
            &pg,
            IndexConfig {
                num_worlds: worlds,
                seed: seed ^ 0xABCD,
                ..IndexConfig::default()
            },
        );
        (pg, index)
    }

    #[test]
    fn spread_of_matches_reference_estimator() {
        let (pg, index) = build(1, 3000);
        let mut oracle = SpreadOracle::new(&index);
        for seeds in [vec![0u32], vec![0, 1, 2], vec![10, 20, 30, 40]] {
            let via_index = oracle.spread_of(&seeds);
            let reference = soi_sampling::estimate_spread(&pg, &seeds, 20_000, 99);
            assert!(
                (via_index - reference).abs() < 0.1 * reference.max(1.0),
                "seeds {seeds:?}: index {via_index} vs reference {reference}"
            );
        }
    }

    #[test]
    fn commit_accumulates_and_matches_spread_of() {
        let (_pg, index) = build(2, 64);
        let mut oracle = SpreadOracle::new(&index);
        let mut committed = Vec::new();
        for v in [5u32, 17, 33] {
            let gain = oracle.marginal_gain(v);
            let realized = oracle.commit(v);
            assert!((gain - realized).abs() < 1e-12, "gain consistency for {v}");
            committed.push(v);
            let direct = oracle.spread_of(&committed);
            assert!(
                (oracle.current_spread() - direct).abs() < 1e-9,
                "incremental vs direct after {committed:?}"
            );
        }
        assert_eq!(oracle.committed(), &[5, 17, 33]);
    }

    #[test]
    fn marginal_gain_of_covered_node_is_zero() {
        let pg = ProbGraph::fixed(gen::path(4), 1.0).unwrap();
        let index = CascadeIndex::build(
            &pg,
            IndexConfig {
                num_worlds: 8,
                seed: 3,
                ..IndexConfig::default()
            },
        );
        let mut oracle = SpreadOracle::new(&index);
        oracle.commit(0); // covers everything downstream deterministically
        assert_eq!(oracle.marginal_gain(2), 0.0);
        assert_eq!(oracle.current_spread(), 4.0);
    }

    #[test]
    fn gains_are_submodular_along_a_run() {
        // For a fixed v, the marginal gain can only shrink as seeds commit.
        let (_pg, index) = build(4, 64);
        let mut oracle = SpreadOracle::new(&index);
        let probe = 42u32;
        let mut last = oracle.marginal_gain(probe);
        for v in [1u32, 9, 25, 33] {
            oracle.commit(v);
            let now = oracle.marginal_gain(probe);
            assert!(now <= last + 1e-12, "gain grew after committing {v}");
            last = now;
        }
    }

    #[test]
    fn reset_restores_empty_state() {
        let (_pg, index) = build(5, 16);
        let mut oracle = SpreadOracle::new(&index);
        oracle.commit(1);
        oracle.commit(2);
        oracle.reset();
        assert_eq!(oracle.current_spread(), 0.0);
        assert!(oracle.committed().is_empty());
        // Gains are fresh again.
        let g1 = oracle.marginal_gain(1);
        assert!(g1 >= 1.0, "node counts itself after reset: {g1}");
    }

    /// Every `marginal_gain` and `commit` along a greedy run, and the
    /// spreads after each commit, against covered sets kept per world over
    /// worlds re-sampled from the index's seeds and walked one at a time:
    /// the same integer counts, so the same floats. On a subcritical graph
    /// and a supercritical one whose walks hit hub closures, at ℓ = 1, 65
    /// and 130.
    #[test]
    fn gains_match_per_world_walks_along_a_greedy_run() {
        use soi_graph::{DiGraph, Reachability};
        use soi_sampling::world::world_rng;
        use soi_sampling::WorldSampler;
        use soi_util::BitSet;
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(8);
        let g = gen::gnm(60, 300, &mut rng);
        for p in [0.1, 0.3] {
            let pg = ProbGraph::fixed(g.clone(), p).unwrap();
            for ell in [1, 65, 130] {
                let config = IndexConfig {
                    num_worlds: ell,
                    seed: 17,
                    ..IndexConfig::default()
                };
                let index = CascadeIndex::build(&pg, config);
                let worlds: Vec<DiGraph> = (0..ell)
                    .map(|i| WorldSampler::new().sample(&pg, &mut world_rng(17, i)))
                    .collect();
                let mut reach = Reachability::new(60);
                let mut covered: Vec<BitSet> = (0..ell).map(|_| BitSet::new(60)).collect();
                let mut gain_of = |v: NodeId, covered: &mut [BitSet], commit: bool| {
                    let mut gain = 0;
                    let mut cascade = Vec::new();
                    for (world, cov) in worlds.iter().zip(covered) {
                        reach.reachable_from(world, v, &mut cascade);
                        for &u in &cascade {
                            gain += usize::from(!cov.contains(u as usize));
                            if commit {
                                cov.insert(u as usize);
                            }
                        }
                    }
                    gain as f64 / ell as f64
                };
                let mut oracle = SpreadOracle::new(&index);
                let mut hits = 0;
                for round in 0..5 {
                    let mut best = (f64::MIN, 0);
                    for v in 0..60 {
                        let gain = oracle.marginal_gain(v);
                        assert_eq!(
                            gain,
                            gain_of(v, &mut covered, false),
                            "round {round}, node {v}"
                        );
                        if gain > best.0 {
                            best = (gain, v);
                        }
                    }
                    let want = gain_of(best.1, &mut covered, true);
                    assert_eq!(oracle.commit(best.1), want, "round {round}");
                    let pairs: usize = covered.iter().map(BitSet::len).sum();
                    assert_eq!(oracle.current_spread(), pairs as f64 / ell as f64);
                    let committed = oracle.committed().to_vec();
                    assert_eq!(oracle.spread_of(&committed), oracle.current_spread());
                    let mut q = index.query();
                    let walked = index.walk(&committed, index.all_worlds(), &mut q);
                    hits += walked.hits().iter().map(|h| h.count_ones()).sum::<u32>();
                }
                assert!(hits > 0 || p < 0.2, "ℓ = {ell}: no walk hit a hub closure");
            }
        }
    }
}
