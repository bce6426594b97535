//! Empirical expected cost `ρ̂(C)` of a candidate median.
//!
//! §3 of the paper: since the true cost `ρ(C) = E[d_J(R_s(G), C)]` is
//! `#P`-hard (Theorem 1), it is estimated as the mean Jaccard distance of
//! `C` to ℓ sampled cascades. The [`IncrementalCost`] evaluator supports
//! the median sweep: it maintains `|C ∩ S_i|` per sample under single-
//! element insertions/removals of `C`, so evaluating a whole family of
//! nested candidates costs `O(Σ|S_i| + n·ℓ)` instead of `O(n · Σ|S_i|)`.
//! It runs on local ids `0..U` (the sorted distinct sample elements) with
//! CSR postings, so scoring a whole candidate set `s` from its elements'
//! postings costs `Σ_{e∈s} freq(e) + ℓ` instead of ℓ sorted merges. A
//! local-search toggle costs `O(ℓ)` additions and no division: every
//! sample's cost change under a toggle depends only on the direction and
//! on whether the sample holds the element, so those per-sample terms are
//! cached once per candidate.

use crate::distance::jaccard_distance;

/// Mean Jaccard distance from `candidate` to every set in `samples`
/// (the unbiased estimator `ρ̂` of the paper). Returns 0 for no samples.
pub fn empirical_cost(candidate: &[u32], samples: &[Vec<u32>]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let total: f64 = samples.iter().map(|s| jaccard_distance(candidate, s)).sum();
    total / samples.len() as f64
}

/// `1 − inter/union` (0 for an empty union), the one expression all costs use.
fn distance(inter: f64, union: f64) -> f64 {
    if union == 0.0 {
        return 0.0;
    }
    1.0 - inter / union
}

/// Incremental cost evaluator over a fixed collection of sample sets.
///
/// Maintains the candidate `C` implicitly through per-sample intersection
/// counters; `insert`/`remove` cost `O(log U + #samples containing the
/// element)` and [`IncrementalCost::cost`] is `O(ℓ)`. Reusable: a worker
/// fitting median after median reloads one evaluator in place
/// ([`IncrementalCost::load`]) and allocates nothing proportional to the
/// largest element id per fit.
#[derive(Default)]
pub struct IncrementalCost {
    /// The sorted distinct sample elements: `elems[u]` has local id `u`.
    elems: Vec<u32>,
    /// CSR postings: the samples holding `elems[u]`, ascending, are
    /// `postings[offsets[u]..offsets[u + 1]]`.
    offsets: Vec<usize>,
    postings: Vec<u32>,
    /// `|S_i|` and `|C ∩ S_i|` for each sample, and `|C|`.
    sizes: Vec<u32>,
    inter: Vec<u32>,
    candidate_len: usize,
    /// Candidate membership by local id, and the sorted candidate members
    /// outside the sample universe.
    member: Vec<bool>,
    outside: Vec<u32>,
    /// Element → count, then local id, inside `load` (all zero between
    /// calls), and `cost_of_set`'s per-sample intersection counts.
    ids: Vec<u32>,
    scratch: Vec<u32>,
    /// `toggle_delta`'s per-sample cost changes against the current
    /// candidate, for an insertion (`[0]`) and a removal (`[1]`); a row
    /// pair is filled on the first toggle in its direction and emptied
    /// whenever the candidate changes.
    toggles: [ToggleTerms; 2],
    /// The toggle being scored: its `miss` row with its postings overwritten.
    terms: Vec<f64>,
}

/// One direction's terms: each sample's distance after the toggle minus
/// before it, for a toggled element the sample misses and one it holds.
#[derive(Default)]
struct ToggleTerms {
    miss: Vec<f64>,
    hold: Vec<f64>,
}

impl IncrementalCost {
    /// Builds the evaluator with `C = ∅`.
    pub fn new(samples: &[Vec<u32>]) -> Self {
        let mut inc = IncrementalCost::default();
        inc.reset(samples);
        inc
    }

    /// Reloads the evaluator with the canonical sets `samples` and `C = ∅`:
    /// [`load`](Self::load) with each sample as one chunk.
    pub(crate) fn reset(&mut self, samples: &[Vec<u32>]) {
        debug_assert!(samples.iter().all(|s| s.windows(2).all(|w| w[0] < w[1])));
        let chunks = samples.iter().enumerate();
        self.load(samples.len(), chunks.map(|(i, s)| (i as u32, s.as_slice())));
    }

    /// Reloads the evaluator with `num_samples` samples and `C = ∅`, in
    /// `O(Σ|S_i| + U log U)`. Sample `i` is the union of the members of
    /// its chunks `(i, members)`. Chunks come in ascending sample order,
    /// and the chunks of one sample hold distinct elements between them; a
    /// sample with no chunk is empty. Only the U distinct elements are
    /// sorted, and each element's postings come out ascending without a
    /// sort. The element map keeps its size across calls, and only the
    /// entries this collection touches are set and cleared again.
    pub fn load<'a, I>(&mut self, num_samples: usize, chunks: I)
    where
        I: IntoIterator<Item = (u32, &'a [u32])> + Clone,
    {
        // Count pass: each element's frequency, and the distinct elements.
        self.elems.clear();
        for (_, members) in chunks.clone() {
            for &e in members {
                let e = e as usize;
                if e >= self.ids.len() {
                    self.ids.resize(e + 1, 0);
                }
                if self.ids[e] == 0 {
                    self.elems.push(e as u32);
                }
                self.ids[e] += 1;
            }
        }
        self.elems.sort_unstable();
        // Element u's postings start at offsets[u + 1], which the fill
        // advances to their end — u + 1's start.
        self.offsets.clear();
        self.offsets.push(0);
        let mut start = 0;
        for (u, &e) in self.elems.iter().enumerate() {
            self.offsets.push(start);
            start += std::mem::replace(&mut self.ids[e as usize], u as u32) as usize;
        }
        self.postings.clear();
        self.postings.resize(start, 0);
        self.sizes.clear();
        self.sizes.resize(num_samples, 0);
        let mut last = 0;
        for (i, members) in chunks {
            debug_assert!(i >= last, "chunks out of sample order");
            last = i;
            self.sizes[i as usize] += members.len() as u32;
            for &e in members {
                let at = &mut self.offsets[self.ids[e as usize] as usize + 1];
                self.postings[*at] = i;
                *at += 1;
            }
        }
        for &e in &self.elems {
            self.ids[e as usize] = 0;
        }
        self.inter.clear();
        self.inter.resize(num_samples, 0);
        self.member.clear();
        self.member.resize(self.elems.len(), false);
        self.outside.clear();
        self.candidate_len = 0;
        self.forget_toggles();
    }

    /// Empties the toggle-term cache: the candidate changed.
    fn forget_toggles(&mut self) {
        for rows in &mut self.toggles {
            rows.miss.clear();
        }
    }

    /// The number of samples ℓ.
    pub fn num_samples(&self) -> usize {
        self.sizes.len()
    }

    /// The loaded collection: distinct elements, CSR offsets and
    /// postings, and sample sizes.
    #[cfg(test)]
    pub(crate) fn loaded(&self) -> (&[u32], &[usize], &[u32], &[u32]) {
        (&self.elems, &self.offsets, &self.postings, &self.sizes)
    }

    /// Where the postings of local id `u` sit in `postings`.
    fn span(&self, u: usize) -> std::ops::Range<usize> {
        self.offsets[u]..self.offsets[u + 1]
    }

    /// Current candidate size.
    pub fn candidate_len(&self) -> usize {
        self.candidate_len
    }

    /// How many samples contain `element`.
    pub fn frequency(&self, element: u32) -> usize {
        let found = self.elems.binary_search(&element);
        found.map_or(0, |u| self.span(u).len())
    }

    /// All distinct elements appearing in any sample, ascending.
    pub fn universe(&self) -> impl Iterator<Item = u32> + '_ {
        self.elems.iter().copied()
    }

    /// Whether `element` is in the current candidate, in `O(log U)`.
    pub fn contains(&self, element: u32) -> bool {
        match self.elems.binary_search(&element) {
            Ok(u) => self.member[u],
            Err(_) => self.outside.binary_search(&element).is_ok(),
        }
    }

    /// Adds `element` to the candidate. No-op if already present.
    pub fn insert(&mut self, element: u32) {
        self.set(element, true)
    }

    /// Removes `element` from the candidate. No-op if absent.
    pub fn remove(&mut self, element: u32) {
        self.set(element, false)
    }

    fn set(&mut self, element: u32, on: bool) {
        let step = if on { 1 } else { -1 };
        match self.elems.binary_search(&element) {
            Ok(u) if self.member[u] != on => {
                self.member[u] = on;
                for &i in &self.postings[self.span(u)] {
                    self.inter[i as usize] = self.inter[i as usize].wrapping_add_signed(step);
                }
            }
            Err(_) => match (self.outside.binary_search(&element), on) {
                (Err(at), true) => self.outside.insert(at, element),
                (Ok(at), false) => drop(self.outside.remove(at)),
                _ => return,
            },
            Ok(_) => return,
        }
        self.candidate_len = self.candidate_len.wrapping_add_signed(step as isize);
        self.forget_toggles();
    }

    /// The empirical cost `ρ̂(C)` of the current candidate (0 for no
    /// samples, as in every cost below).
    pub fn cost(&self) -> f64 {
        let k = self.candidate_len as f64;
        let mut total = 0.0;
        for (&sz, &inter) in self.sizes.iter().zip(&self.inter) {
            total += distance(inter as f64, k + sz as f64 - inter as f64);
        }
        total / self.sizes.len().max(1) as f64
    }

    /// Cost change if `element` were toggled (inserted when absent,
    /// removed when present), without mutating the candidate: returns
    /// `cost_after - cost_before`, in `O(ℓ)` additions with no division.
    /// A toggle moves `|C|` for every sample but `|C ∩ S_i|` only for the
    /// samples holding the element, so each sample's term depends only on
    /// the direction and on whether it holds the element. The first toggle
    /// in a direction against a candidate caches both terms of every
    /// sample (hence `&mut`); each toggle then takes the `miss` terms, the
    /// `hold` terms at the element's postings, and sums them in sample
    /// order — the expressions and order of a direct evaluation.
    pub fn toggle_delta(&mut self, element: u32) -> f64 {
        let (local, present) = match self.elems.binary_search(&element) {
            Ok(u) => (Some(u), self.member[u]),
            Err(_) => (None, self.outside.binary_search(&element).is_ok()),
        };
        let rows = &mut self.toggles[present as usize];
        if rows.miss.len() != self.sizes.len() {
            let step = if present { -1.0 } else { 1.0 };
            let k = self.candidate_len as f64;
            rows.hold.clear();
            for (&sz, &i) in self.sizes.iter().zip(&self.inter) {
                let (sz, inter) = (sz as f64, i as f64);
                let before = distance(inter, k + sz - inter);
                rows.miss
                    .push(distance(inter, k + step + sz - inter) - before);
                let held = inter + step;
                rows.hold
                    .push(distance(held, k + step + sz - held) - before);
            }
        }
        let rows = &self.toggles[present as usize];
        self.terms.clear();
        self.terms.extend_from_slice(&rows.miss);
        if let Some(u) = local {
            for &i in &self.postings[self.span(u)] {
                self.terms[i as usize] = rows.hold[i as usize];
            }
        }
        let delta = self.terms.iter().fold(0.0, |sum, &t| sum + t);
        delta / self.sizes.len().max(1) as f64
    }

    /// `ρ̂(s)` of any set `s` without duplicates, in any order,
    /// bit-identical to [`empirical_cost`]`(s, samples)` (same integer
    /// union, same expression, same summation order), from the postings of
    /// `s`'s elements. The current candidate is untouched.
    pub fn cost_of_set(&mut self, s: &[u32]) -> f64 {
        self.scratch.clear();
        self.scratch.resize(self.sizes.len(), 0);
        for &e in s {
            if let Ok(u) = self.elems.binary_search(&e) {
                for &i in &self.postings[self.span(u)] {
                    self.scratch[i as usize] += 1;
                }
            }
        }
        let mut total = 0.0;
        for (&sz, &inter) in self.sizes.iter().zip(&self.scratch) {
            let union = s.len() + sz as usize - inter as usize;
            total += distance(inter as f64, union as f64);
        }
        total / self.sizes.len().max(1) as f64
    }

    /// The current candidate as a canonical sorted vector.
    pub fn candidate(&self) -> Vec<u32> {
        let (elems, member) = (&self.elems, &self.member);
        let mut v = self.outside.clone();
        v.extend(elems.iter().zip(member).filter(|p| *p.1).map(|p| *p.0));
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_cost_basics() {
        let samples = vec![vec![1, 2], vec![2, 3]];
        // d({2}, {1,2}) = 0.5; d({2}, {2,3}) = 0.5.
        assert!((empirical_cost(&[2], &samples) - 0.5).abs() < 1e-12);
        assert_eq!(empirical_cost(&[], &[]), 0.0);
        assert_eq!(empirical_cost(&[1, 2], &samples[..1]), 0.0);
    }

    #[test]
    fn incremental_tracks_direct() {
        let samples = vec![vec![1, 2, 3], vec![2, 3, 4], vec![3]];
        let mut inc = IncrementalCost::new(&samples);
        assert!((inc.cost() - empirical_cost(&[], &samples)).abs() < 1e-12);
        for (insert, e) in [(true, 3u32), (true, 2), (true, 9), (false, 2), (false, 9)] {
            if insert {
                inc.insert(e);
            } else {
                inc.remove(e);
            }
            let direct = empirical_cost(&inc.candidate(), &samples);
            assert!(
                (inc.cost() - direct).abs() < 1e-12,
                "after {:?}{}: {} vs {}",
                insert,
                e,
                inc.cost(),
                direct
            );
        }
    }

    #[test]
    fn double_insert_remove_are_noops() {
        let samples = vec![vec![1, 2]];
        let mut inc = IncrementalCost::new(&samples);
        inc.insert(1);
        inc.insert(1);
        assert_eq!(inc.candidate_len(), 1);
        inc.remove(1);
        inc.remove(1);
        assert_eq!(inc.candidate_len(), 0);
        inc.remove(42);
        assert_eq!(inc.cost(), 1.0, "d(∅, {{1,2}}) = 1");
    }

    #[test]
    fn toggle_delta_matches_actual_toggle() {
        let samples = vec![vec![1, 2, 3], vec![2, 4], vec![5]];
        let mut inc = IncrementalCost::new(&samples);
        inc.insert(2);
        inc.insert(5);
        for e in [1u32, 2, 5, 7] {
            let predicted = inc.toggle_delta(e);
            let before = inc.cost();
            let present = inc.candidate().contains(&e);
            if present {
                inc.remove(e);
            } else {
                inc.insert(e);
            }
            let actual = inc.cost() - before;
            assert!(
                (predicted - actual).abs() < 1e-12,
                "element {e}: predicted {predicted}, actual {actual}"
            );
            // Restore.
            if present {
                inc.insert(e);
            } else {
                inc.remove(e);
            }
        }
    }

    #[test]
    fn frequency_and_universe() {
        let samples = vec![vec![1, 2], vec![2], vec![2, 3]];
        let inc = IncrementalCost::new(&samples);
        assert_eq!(inc.frequency(2), 3);
        assert_eq!(inc.frequency(1), 1);
        assert_eq!(inc.frequency(99), 0);
        let mut u: Vec<u32> = inc.universe().collect();
        u.sort_unstable();
        assert_eq!(u, vec![1, 2, 3]);
    }

    /// Incremental cost tracking agrees with the direct computation along
    /// random insert/remove walks. 64 seeded random cases.
    #[test]
    fn incremental_equals_direct_on_random_walks() {
        use soi_util::rng::{Rng, Xoshiro256pp};
        use std::collections::BTreeSet;
        for case in 0..64u64 {
            let mut rng = Xoshiro256pp::from_stream(0xC057, case);
            let samples: Vec<Vec<u32>> = (0..rng.random_range(1usize..8))
                .map(|_| {
                    let len = rng.random_range(0usize..10);
                    let set: BTreeSet<u32> = (0..len).map(|_| rng.random_range(0u32..30)).collect();
                    set.into_iter().collect()
                })
                .collect();
            let mut inc = IncrementalCost::new(&samples);
            for _ in 0..rng.random_range(0usize..40) {
                let insert: bool = rng.random();
                let e = rng.random_range(0u32..35);
                if insert {
                    inc.insert(e)
                } else {
                    inc.remove(e)
                }
                let direct = empirical_cost(&inc.candidate(), &samples);
                assert!((inc.cost() - direct).abs() < 1e-9, "case {case}");
            }
        }
    }
}
