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
//! The cascade index's samples load from one world set per element
//! ([`IncrementalCost::load_sets`]), and their shared hub closures from
//! one bit row per closure element, not one read per closure member.
//! Every cost also comes as an estimate with a margin (`crate::bound`);
//! a local-search toggle's estimate costs `O(freq(e))` from per-sample
//! terms cached once per candidate.

use crate::bound::{decide, gamma, Bounded, Site, U};
use crate::distance::jaccard_distance;
use soi_util::bitset::ones;

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
    /// Each element's samples as a bitset, `⌈ℓ/64⌉` words per local id,
    /// when [`load_sets`](Self::load_sets) read closure rows, else empty:
    /// `rows` is then their transposition.
    bits: Vec<u64>,
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
        self.clear_ids();
        self.count(chunks.clone());
        let total = self.number();
        self.postings.clear();
        self.postings.resize(total, 0);
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
        self.bits.clear();
        self.empty_candidate(num_samples);
    }

    /// Reloads the evaluator with `num_samples` samples given element by
    /// element, and `C = ∅`. Each `(element, set)` of `sets` holds a
    /// distinct element and its world set (`⌈ℓ/64⌉` words, bit `i % 64` of
    /// word `i / 64` for sample `i`). Sample `i` also holds its closure
    /// when bit `i` of `closures.hits` is set, and its sets then hold no
    /// element of that closure. An element's sample bitset is its set,
    /// plus for a closure element its row masked by the hits, and its
    /// postings are written from it in ascending order. The hit closures
    /// are read from their member lists when those hold fewer entries than
    /// the rows hold words (a few hits), else from the rows; both give the
    /// same bits. The state is exactly [`load`](Self::load)'s over the same
    /// samples. Needs `num_samples ≥ 1`.
    pub fn load_sets<'a, I, F>(&mut self, num_samples: usize, sets: I, closures: &Closures<F>)
    where
        I: Iterator<Item = (u32, &'a [u64])> + Clone,
        F: Fn(usize) -> &'a [u32],
    {
        let Closures {
            hits,
            elems,
            rows,
            ref members,
        } = *closures;
        let words = num_samples.div_ceil(64);
        debug_assert!(words > 0 && hits.len() == words && rows.len() == elems.len() * words);
        let entries: usize = ones(hits).map(|i| members(i).len()).sum();
        let (by_members, by_rows) = if entries <= rows.len() {
            (hits, &[][..])
        } else {
            (&[][..], hits)
        };
        let hit_rows = || {
            let rows = elems.iter().zip(rows.chunks_exact(words));
            rows.filter(move |_| !by_rows.is_empty())
        };
        // Count pass: an element's count is the popcount of its set, plus
        // its hit closures. The rows come in element order, so they go
        // first: the elements stay nearly sorted for `number`.
        self.clear_ids();
        for (&e, row) in hit_rows() {
            let masked = row.iter().zip(by_rows).map(|(r, h)| (r & h).count_ones());
            self.add_count(e, masked.sum());
        }
        for i in ones(by_members) {
            members(i).iter().for_each(|&e| self.add_count(e, 1));
        }
        for (e, set) in sets.clone() {
            let count = set.iter().map(|w| w.count_ones()).sum();
            self.add_count(e, count);
        }
        let total = self.number();
        // Each element's sample bitset, then its postings, ascending.
        self.bits.clear();
        self.bits.resize(self.elems.len() * words, 0);
        for (e, set) in sets.clone() {
            if let Some(u) = self.local(e) {
                self.bits[u * words..(u + 1) * words].copy_from_slice(set);
            }
        }
        for i in ones(by_members) {
            for &e in members(i) {
                self.bits[(self.ids[e as usize] as usize - 1) * words + i / 64] |= 1 << (i % 64);
            }
        }
        for (&e, row) in hit_rows() {
            if let Some(u) = self.local(e) {
                let bits = &mut self.bits[u * words..(u + 1) * words];
                for (b, (r, h)) in bits.iter_mut().zip(row.iter().zip(by_rows)) {
                    *b |= r & h;
                }
            }
        }
        self.postings.clear();
        self.postings.resize(total, 0);
        for (u, bits) in self.bits.chunks_exact(words).enumerate() {
            let start = self.offsets[u + 1];
            let postings = self.postings[start..].iter_mut().zip(ones(bits));
            let written = postings.map(|(slot, i)| *slot = i as u32).count();
            self.offsets[u + 1] = start + written;
        }
        // Sample sizes: one pass over the postings, unless they hold the
        // rows' many closure entries; then the closures' lengths plus the
        // sets' bits.
        self.sizes.clear();
        self.sizes.resize(num_samples, 0.0);
        if by_rows.is_empty() {
            for &i in &self.postings {
                self.sizes[i as usize] += 1.0;
            }
        } else {
            for i in ones(hits) {
                self.sizes[i] += members(i).len() as f64;
            }
            for (_, set) in sets {
                ones(set).for_each(|i| self.sizes[i] += 1.0);
            }
        }
        debug_assert_eq!(
            self.offsets.last(),
            Some(&total),
            "a set holds a hit closure's element"
        );
        // Bitsets that hold closure rows are dense enough that transposing
        // them beats scattering the postings; sparser ones are not.
        if by_rows.is_empty() {
            self.bits.clear();
        }
        self.empty_candidate(num_samples);
    }

    /// Zeroes the element map's entries of the loaded elements.
    fn clear_ids(&mut self) {
        for &e in &self.elems {
            self.ids[e as usize] = 0;
        }
        self.elems.clear();
    }

    /// The count pass: adds each chunk element's frequency to its `ids`
    /// entry, and pushes the elements not yet counted to `elems`.
    fn count<'a>(&mut self, chunks: impl IntoIterator<Item = (u32, &'a [u32])>) {
        for (_, members) in chunks {
            members.iter().for_each(|&e| self.add_count(e, 1));
        }
    }

    /// Adds `count` to element `e`'s `ids` entry, pushing `e` to `elems`
    /// when it was not counted yet. A zero count adds nothing.
    #[inline]
    fn add_count(&mut self, e: u32, count: u32) {
        if count == 0 {
            return;
        }
        let e = e as usize;
        if e >= self.ids.len() {
            self.ids.resize(e + 1, 0);
        }
        if self.ids[e] == 0 {
            self.elems.push(e as u32);
        }
        self.ids[e] += count;
    }

    /// Sorts the counted elements, and replaces each one's count with its
    /// local id + 1. Element u's postings start at `offsets[u + 1]`, which
    /// a fill advances to their end — u + 1's start. Returns the number of
    /// postings.
    fn number(&mut self) -> usize {
        self.elems.sort_unstable();
        self.offsets.clear();
        self.offsets.push(0);
        let mut start = 0;
        for (u, &e) in self.elems.iter().enumerate() {
            self.offsets.push(start);
            start += std::mem::replace(&mut self.ids[e as usize], u as u32 + 1) as usize;
        }
        start
    }

    /// Sets `C = ∅` over freshly loaded samples.
    fn empty_candidate(&mut self, num_samples: usize) {
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
            self.build_rows();
        }
        let mask = &self.mask;
        let inter = self.rows.chunks_exact(words).map(|row| {
            let words = row.iter().zip(mask);
            words.map(|(r, m)| (r & m).count_ones()).sum::<u32>() as f64
        });
        self.scratch.extend(inter);
    }

    /// Fills `rows`: by transposing the element bitsets in 64×64 blocks
    /// when the loader kept them, else one bit per posting.
    fn build_rows(&mut self) {
        let (ell, num_elems) = (self.sizes.len(), self.elems.len());
        let words = num_elems.div_ceil(64);
        self.rows.resize(ell * words, 0);
        if self.bits.is_empty() {
            for u in 0..num_elems {
                for &i in &self.postings[self.span(u)] {
                    self.rows[i as usize * words + u / 64] |= 1 << (u % 64);
                }
            }
            return;
        }
        let sample_words = ell.div_ceil(64);
        let mut block = [0u64; 64];
        for ub in 0..words {
            for sb in 0..sample_words {
                for (r, b) in block.iter_mut().enumerate() {
                    let u = ub * 64 + r;
                    *b = if u < num_elems {
                        self.bits[u * sample_words + sb]
                    } else {
                        0
                    };
                }
                transpose64(&mut block);
                for (c, &b) in block.iter().enumerate().take(ell - sb * 64) {
                    self.rows[(sb * 64 + c) * words + ub] = b;
                }
            }
        }
    }

    /// The per-sample bitset rows, built first if no set has built them.
    #[cfg(test)]
    pub(crate) fn rows(&mut self) -> &[u64] {
        if self.rows.is_empty() {
            self.build_rows();
        }
        &self.rows
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

/// The hub closures [`IncrementalCost::load_sets`]'s samples share,
/// stored once for all samples.
pub struct Closures<'c, F> {
    /// The samples that hold their closure: bit `i % 64` of word `i / 64`,
    /// `⌈ℓ/64⌉` words.
    pub hits: &'c [u64],
    /// The elements of any sample's closure, ascending.
    pub elems: &'c [u32],
    /// Per element, `⌈ℓ/64⌉` words: the samples whose closure holds it,
    /// hit or not.
    pub rows: &'c [u64],
    /// Sample `i`'s closure, in any order.
    pub members: F,
}

/// Transposes a 64×64 bit matrix in place: bit `c` of `a[r]` moves to bit
/// `r` of `a[c]`. Swaps the off-diagonal blocks of halves, then of
/// quarters, down to single bits (Hacker's Delight, §7–3).
fn transpose64(a: &mut [u64; 64]) {
    let mut width = 32;
    let mut low: u64 = 0x0000_0000_ffff_ffff;
    while width != 0 {
        let mut r = 0;
        while r < 64 {
            let t = ((a[r] >> width) ^ a[r + width]) & low;
            a[r] ^= t << width;
            a[r + width] ^= t;
            r = (r + width + 1) & !width;
        }
        width >>= 1;
        low ^= low << width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose64_moves_every_bit() {
        use soi_util::rng::{Rng, Xoshiro256pp};
        let mut rng = Xoshiro256pp::from_stream(0x7a05, 0);
        for _ in 0..8 {
            let a: [u64; 64] = std::array::from_fn(|_| rng.random());
            let mut t = a;
            transpose64(&mut t);
            for (r, c) in (0..64).flat_map(|r| (0..64).map(move |c| (r, c))) {
                assert_eq!(t[c] >> r & 1, a[r] >> c & 1, "bit ({r}, {c})");
            }
        }
    }

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
