//! Empirical expected cost `ρ̂(C)` of a candidate median.
//!
//! §3 of the paper: since the true cost `ρ(C) = E[d_J(R_s(G), C)]` is
//! `#P`-hard (Theorem 1), it is estimated as the mean Jaccard distance of
//! `C` to ℓ sampled cascades. The [`IncrementalCost`] evaluator supports
//! the median sweep: it maintains `|C ∩ S_i|` per sample under single-
//! element insertions/removals of `C`, so evaluating a whole family of
//! nested candidates costs `O(Σ|S_i| + n·ℓ)` instead of `O(n · Σ|S_i|)`.
//! It runs on local ids `0..U` (the sorted distinct sample elements) with
//! CSR postings and an `O(1)` element → local id map. A whole candidate
//! set `s` is scored from its elements' postings (`Σ_{e∈s} freq(e)`) or
//! from per-sample bitset rows (`ℓ·⌈U/64⌉` words), whichever is less.
//! Every cost also comes as an estimate with a margin (`crate::bound`);
//! a local-search toggle's estimate costs `O(freq(e))` from per-sample
//! terms cached once per candidate.

use crate::bound::{decide, gamma, Bounded, Site, U};
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

/// `ρ̂` of a candidate of size `k` from each sample's size and
/// intersection with it: the terms summed in sample order.
fn mean_distance(k: usize, sizes: &[f64], inter: &[f64]) -> f64 {
    let k = k as f64;
    let mut total = 0.0;
    for (&sz, &i) in sizes.iter().zip(inter) {
        total += distance(i, k + sz - i);
    }
    total / sizes.len().max(1) as f64
}

/// [`mean_distance`]'s terms summed in eight independent lanes, a loop
/// LLVM vectorises. The terms lie in `[0, 1]`, so the two sums differ by
/// at most `2γ_ℓ·ℓ`.
fn mean_distance_bounded(k: usize, sizes: &[f64], inter: &[f64]) -> Bounded {
    let (sizes8, sizes_rest) = sizes.as_chunks::<8>();
    let (inter8, inter_rest) = inter[..sizes.len()].as_chunks::<8>();
    let k = k as f64;
    let mut lanes = [0.0; 8];
    for (sz, i) in sizes8.iter().zip(inter8) {
        for j in 0..8 {
            lanes[j] += distance(i[j], k + sz[j] - i[j]);
        }
    }
    for (lane, (&sz, &i)) in lanes.iter_mut().zip(sizes_rest.iter().zip(inter_rest)) {
        *lane += distance(i, k + sz - i);
    }
    let ell = sizes.len();
    Bounded::mean(lanes.iter().sum(), ell, 2.0 * gamma(ell))
}

/// Incremental cost evaluator over a fixed collection of sample sets.
///
/// Maintains the candidate `C` implicitly through per-sample intersection
/// counters; `insert`/`remove` cost `O(1 + #samples containing the
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
    /// `|S_i|` and `|C ∩ S_i|` for each sample (integers held as `f64`,
    /// the type every cost computes in), and `|C|`.
    sizes: Vec<f64>,
    inter: Vec<f64>,
    candidate_len: usize,
    /// Candidate membership by local id, and the sorted candidate members
    /// outside the sample universe.
    member: Vec<bool>,
    outside: Vec<u32>,
    /// Element → local id + 1 of the loaded elements, 0 for others
    /// (element → count inside `load`, which clears the previous entries).
    ids: Vec<u32>,
    /// A scored set's per-sample intersection counts, and its local ids
    /// as a bitset.
    scratch: Vec<f64>,
    mask: Vec<u64>,
    /// Each sample's elements as a bitset over local ids, `⌈U/64⌉` words
    /// per sample, built by the first set scored from them.
    rows: Vec<u64>,
    /// Toggle terms against the current candidate, for an insertion
    /// (`[0]`) and a removal (`[1]`): filled on a direction's first
    /// toggle, emptied whenever the candidate changes.
    toggles: [ToggleTerms; 2],
}

/// Each sample's [`IncrementalCost::toggle_term`] for an element it
/// misses, `hold − miss` for one it holds, and `Σ miss`.
#[derive(Default)]
struct ToggleTerms {
    miss: Vec<f64>,
    diff: Vec<f64>,
    miss_sum: f64,
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
    /// entries this and the previous collection use are set or cleared.
    pub fn load<'a, I>(&mut self, num_samples: usize, chunks: I)
    where
        I: IntoIterator<Item = (u32, &'a [u32])> + Clone,
    {
        for &e in &self.elems {
            self.ids[e as usize] = 0;
        }
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
            start += std::mem::replace(&mut self.ids[e as usize], u as u32 + 1) as usize;
        }
        self.postings.clear();
        self.postings.resize(start, 0);
        self.sizes.clear();
        self.sizes.resize(num_samples, 0.0);
        let mut last = 0;
        for (i, members) in chunks {
            debug_assert!(i >= last, "chunks out of sample order");
            last = i;
            self.sizes[i as usize] += members.len() as f64;
            for &e in members {
                let at = &mut self.offsets[self.ids[e as usize] as usize];
                self.postings[*at] = i;
                *at += 1;
            }
        }
        self.inter.clear();
        self.inter.resize(num_samples, 0.0);
        self.member.clear();
        self.member.resize(self.elems.len(), false);
        self.outside.clear();
        self.rows.clear();
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
    pub(crate) fn loaded(&self) -> (&[u32], &[usize], &[u32], Vec<u32>) {
        let sizes = self.sizes.iter().map(|&sz| sz as u32).collect();
        (&self.elems, &self.offsets, &self.postings, sizes)
    }

    /// `element`'s local id, if some sample holds it.
    fn local(&self, element: u32) -> Option<usize> {
        let id = *self.ids.get(element as usize)?;
        (id as usize).checked_sub(1)
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
        self.local(element).map_or(0, |u| self.span(u).len())
    }

    /// All distinct elements appearing in any sample, ascending.
    pub fn universe(&self) -> impl Iterator<Item = u32> + '_ {
        self.elems.iter().copied()
    }

    /// Whether `element` is in the current candidate: `O(1)` inside the
    /// sample universe, `O(log |C|)` outside it.
    pub fn contains(&self, element: u32) -> bool {
        self.locate(element).1
    }

    /// `element`'s local id, and whether it is in the candidate.
    fn locate(&self, element: u32) -> (Option<usize>, bool) {
        match self.local(element) {
            Some(u) => (Some(u), self.member[u]),
            None => (None, self.outside.binary_search(&element).is_ok()),
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
        match self.local(element) {
            Some(u) if self.member[u] != on => {
                self.member[u] = on;
                for &i in &self.postings[self.span(u)] {
                    self.inter[i as usize] += step as f64;
                }
            }
            None => match (self.outside.binary_search(&element), on) {
                (Err(at), true) => self.outside.insert(at, element),
                (Ok(at), false) => drop(self.outside.remove(at)),
                _ => return,
            },
            Some(_) => return,
        }
        self.candidate_len = self.candidate_len.wrapping_add_signed(step as isize);
        self.forget_toggles();
    }

    /// The empirical cost `ρ̂(C)` of the current candidate (0 for no
    /// samples, as in every cost below).
    pub fn cost(&self) -> f64 {
        mean_distance(self.candidate_len, &self.sizes, &self.inter)
    }

    /// [`cost`](Self::cost) as a vectorised estimate with its margin.
    pub(crate) fn cost_bounded(&self) -> Bounded {
        mean_distance_bounded(self.candidate_len, &self.sizes, &self.inter)
    }

    /// Sample `i`'s distance after toggling an element it holds or misses
    /// (`step` is the change in `|C|`) minus its distance before.
    fn toggle_term(&self, i: usize, step: f64, holds: bool) -> f64 {
        let (k, sz, inter) = (self.candidate_len as f64, self.sizes[i], self.inter[i]);
        let before = distance(inter, k + sz - inter);
        let after = if holds { inter + step } else { inter };
        distance(after, k + step + sz - after) - before
    }

    /// Fills `toggles[present]` against the current candidate, unless a
    /// toggle in that direction already did.
    fn fill_toggles(&mut self, present: bool) {
        let mut rows = std::mem::take(&mut self.toggles[present as usize]);
        if rows.miss.len() != self.sizes.len() {
            let step = if present { -1.0 } else { 1.0 };
            rows.diff.clear();
            for i in 0..self.sizes.len() {
                let miss = self.toggle_term(i, step, false);
                rows.miss.push(miss);
                rows.diff.push(self.toggle_term(i, step, true) - miss);
            }
            rows.miss_sum = rows.miss.iter().sum();
        }
        self.toggles[present as usize] = rows;
    }

    /// Cost change if `element` were toggled (inserted when absent,
    /// removed when present), without mutating the candidate: returns
    /// `cost_after - cost_before`, every sample's
    /// `toggle_term` summed in sample order. A toggle
    /// moves `|C ∩ S_i|` only for the samples holding the element, so the
    /// others' terms are cached per direction (hence `&mut`).
    pub fn toggle_delta(&mut self, element: u32) -> f64 {
        let (local, present) = self.locate(element);
        self.fill_toggles(present);
        let step = if present { -1.0 } else { 1.0 };
        let mut held = local.map_or(&[][..], |u| &self.postings[self.span(u)]);
        let mut delta = 0.0;
        for (i, &miss) in self.toggles[present as usize].miss.iter().enumerate() {
            delta += match held.split_first() {
                Some((&h, rest)) if h as usize == i => {
                    held = rest;
                    self.toggle_term(i, step, true)
                }
                _ => miss,
            };
        }
        delta / self.sizes.len().max(1) as f64
    }

    /// [`toggle_delta`](Self::toggle_delta) in `O(freq(element))`: `Σ miss`
    /// plus `hold − miss` at the element's postings, in four lanes. That
    /// sums at most 2ℓ terms of magnitude sum at most 3ℓ, each difference
    /// rounds by at most `2u`, and the in-order sum of ℓ terms in `[−1, 1]`
    /// is within `γ_ℓ·ℓ`: the sums differ by at most `(4γ_{2ℓ} + 2u)·ℓ`.
    pub(crate) fn toggle_delta_bounded(&mut self, element: u32) -> Bounded {
        let (local, present) = self.locate(element);
        self.fill_toggles(present);
        let rows = &self.toggles[present as usize];
        let mut lanes = [rows.miss_sum, 0.0, 0.0, 0.0];
        if let Some(u) = local {
            let (held4, held_rest) = self.postings[self.span(u)].as_chunks::<4>();
            for held in held4.iter().map(|h| &h[..]).chain([held_rest]) {
                for (lane, &i) in lanes.iter_mut().zip(held) {
                    *lane += rows.diff[i as usize];
                }
            }
        }
        let ell = self.sizes.len();
        Bounded::mean(lanes.iter().sum(), ell, 4.0 * gamma(2 * ell) + 2.0 * U)
    }

    /// Fills `scratch` with every `|s ∩ S_i|`, from the postings of `s`'s
    /// elements or from the bitset rows, whichever costs fewer operations.
    /// Rows are built only once they win, so they take less than twice the
    /// postings' bytes.
    fn intersect(&mut self, s: &[u32]) {
        let words = self.elems.len().div_ceil(64);
        self.mask.clear();
        self.mask.resize(words, 0);
        let mut increments = 0;
        for &e in s {
            if let Some(u) = self.local(e) {
                self.mask[u / 64] |= 1 << (u % 64);
                increments += self.span(u).len();
            }
        }
        self.scratch.clear();
        if increments <= self.sizes.len() * words {
            self.scratch.resize(self.sizes.len(), 0.0);
            for &e in s {
                if let Some(u) = self.local(e) {
                    for &i in &self.postings[self.span(u)] {
                        self.scratch[i as usize] += 1.0;
                    }
                }
            }
            return;
        }
        if self.rows.is_empty() {
            self.rows.resize(self.sizes.len() * words, 0);
            for u in 0..self.elems.len() {
                for &i in &self.postings[self.span(u)] {
                    self.rows[i as usize * words + u / 64] |= 1 << (u % 64);
                }
            }
        }
        let mask = &self.mask;
        let inter = self.rows.chunks_exact(words).map(|row| {
            let words = row.iter().zip(mask);
            words.map(|(r, m)| (r & m).count_ones()).sum::<u32>() as f64
        });
        self.scratch.extend(inter);
    }

    /// `ρ̂(s)` of any set `s` without duplicates, in any order,
    /// bit-identical to [`empirical_cost`]`(s, samples)` (same integer
    /// union, same expression, same summation order), from the postings or
    /// bitset rows of `s`'s elements. The current candidate is untouched.
    pub fn cost_of_set(&mut self, s: &[u32]) -> f64 {
        self.intersect(s);
        mean_distance(s.len(), &self.sizes, &self.scratch)
    }

    /// [`cost_of_set`](Self::cost_of_set)`(s)` when it is below `t`: the
    /// comparison is decided from the set's estimate ([`crate::bound`]),
    /// and the cost is summed in order only to settle a straddle or to
    /// report a winner.
    pub(crate) fn cost_of_set_below(&mut self, s: &[u32], t: f64) -> Option<f64> {
        self.intersect(s);
        let estimate = mean_distance_bounded(s.len(), &self.sizes, &self.scratch);
        let exact = || mean_distance(s.len(), &self.sizes, &self.scratch);
        decide(Site::InputSet, estimate, Bounded::exact(t), || exact() < t).then(exact)
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
