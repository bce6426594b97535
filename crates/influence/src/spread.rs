//! Index-backed expected-spread estimation with greedy bookkeeping.
//!
//! `InfMax_std` needs two things from its spread estimator: `σ(S)` for a
//! candidate set, and — inside the greedy loop — *marginal gains*
//! `σ(S ∪ {v}) − σ(S)` against the running solution. Both are computed
//! over the ℓ live-edge worlds of a [`CascadeIndex`] (the standard Kempe
//! et al. estimator, sharing one world pool across the whole greedy run as
//! the CELF implementation the paper uses does). The oracle keeps one
//! covered-bitset per world so a marginal gain is just "new nodes this
//! cascade would add".

use soi_graph::NodeId;
use soi_index::{CascadeIndex, IndexQuery};
use soi_util::BitSet;

/// Monte-Carlo spread oracle over an index's world pool.
pub struct SpreadOracle<'a> {
    index: &'a CascadeIndex,
    /// Per-world activated-node sets for the committed seed set.
    covered: Vec<BitSet>,
    /// Per-world activated counts (popcount cache).
    covered_counts: Vec<usize>,
    committed: Vec<NodeId>,
    query: IndexQuery,
    scratch: Vec<NodeId>,
}

impl<'a> SpreadOracle<'a> {
    /// Creates an oracle with an empty committed seed set.
    pub fn new(index: &'a CascadeIndex) -> Self {
        let n = index.num_nodes();
        let ell = index.num_worlds();
        SpreadOracle {
            index,
            covered: (0..ell).map(|_| BitSet::new(n)).collect(),
            covered_counts: vec![0; ell],
            committed: Vec::new(),
            query: index.query(),
            scratch: Vec::new(),
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
        let ell = self.index.num_worlds();
        let mut total = 0usize;
        for i in 0..ell {
            self.index
                .multi_cascade(seeds, i, &mut self.query, &mut self.scratch);
            total += self.scratch.len();
        }
        total as f64 / ell as f64
    }

    /// Expected spread of the committed seed set.
    pub fn current_spread(&self) -> f64 {
        if self.covered_counts.is_empty() {
            return 0.0;
        }
        self.covered_counts.iter().sum::<usize>() as f64 / self.covered_counts.len() as f64
    }

    /// Marginal gain `σ(S ∪ {v}) − σ(S)` against the committed state.
    pub fn marginal_gain(&mut self, v: NodeId) -> f64 {
        let ell = self.index.num_worlds();
        let mut gain = 0usize;
        for i in 0..ell {
            // Fast path: if v is already covered in world i, its whole
            // cascade is covered too (covered sets are closed under
            // reachability within a world).
            if self.covered[i].contains(v as usize) {
                continue;
            }
            self.index.cascade(v, i, &mut self.query, &mut self.scratch);
            gain += self
                .scratch
                .iter()
                .filter(|&&w| !self.covered[i].contains(w as usize))
                .count();
        }
        gain as f64 / ell as f64
    }

    /// Commits `v` into the seed set, updating covered state. Returns the
    /// realized marginal gain.
    pub fn commit(&mut self, v: NodeId) -> f64 {
        let ell = self.index.num_worlds();
        let mut gain = 0usize;
        for i in 0..ell {
            if self.covered[i].contains(v as usize) {
                continue;
            }
            self.index.cascade(v, i, &mut self.query, &mut self.scratch);
            for &w in &self.scratch {
                if self.covered[i].insert(w as usize) {
                    gain += 1;
                    self.covered_counts[i] += 1;
                }
            }
        }
        self.committed.push(v);
        gain as f64 / ell as f64
    }

    /// Clears the committed state.
    pub fn reset(&mut self) {
        for b in &mut self.covered {
            b.clear();
        }
        self.covered_counts.fill(0);
        self.committed.clear();
    }
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
}
