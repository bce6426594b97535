//! Empirical expected cost `ρ̂(C)` of a candidate median.
//!
//! §3 of the paper: since the true cost `ρ(C) = E[d_J(R_s(G), C)]` is
//! `#P`-hard (Theorem 1), it is estimated as the mean Jaccard distance of
//! `C` to ℓ sampled cascades. The samples are a multiset, so the
//! [`IncrementalCost`] evaluator folds equal samples into one **class**
//! weighted by its sample count: C classes, numbered by their first
//! sample. It supports the median sweep: it maintains `|C ∩ S_c|` per
//! class under single-element insertions/removals of `C`, so evaluating a
//! whole family of nested candidates costs `O(Σ_c|S_c| + n·C)` instead of
//! `O(n · Σ|S_i|)`. It runs on local ids `0..U` (the sorted distinct
//! sample elements) with CSR postings over the classes and an `O(1)`
//! element → local id map. Both loaders set each element's sample bitset
//! — from an explicit sample list ([`IncrementalCost::load`]), or from the
//! cascade index's world sets ([`IncrementalCost::load_sets`], whose shared
//! hub closures come from one bit row per closure element; its count pass
//! alone, [`IncrementalCost::count_sets`], gives the sphere bound its
//! element frequencies) — and share the rest: the bitsets, transposed in
//! 64×64 blocks, are one row per sample over the local ids, which a hash
//! table groups into the classes, a match confirmed word for word; each
//! element's postings then come out ascending from its bitset. A whole
//! candidate set `s` is scored from its elements' postings or from the
//! class rows (`C·⌈U/64⌉` words), whichever is less; a sample is scored
//! with its class row as the set's mask, so the fit's input-set
//! candidates need no copy of the samples. Every cost also comes as an
//! estimate with a margin (`crate::bound`), summed as one product
//! `w_c·d_c` per class; a local-search toggle's estimate costs
//! `O(#classes holding e)` from per-class terms cached once per
//! candidate. The values the fit reports or settles a straddle with are
//! summed in sample order over the ℓ expanded samples, each sample taking
//! its class's term, so they are the sums an evaluator with one lane per
//! sample computes.

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

/// `ρ̂` of a candidate of size `k` from each class's size and
/// intersection with it: every sample's term is its class's, summed in
/// sample order.
fn mean_distance(k: usize, sizes: &[f64], inter: &[f64], class_of: &[u32]) -> f64 {
    let k = k as f64;
    let mut total = 0.0;
    for &c in class_of {
        let (sz, i) = (sizes[c as usize], inter[c as usize]);
        total += distance(i, k + sz - i);
    }
    total / class_of.len().max(1) as f64
}

/// [`mean_distance`] over `ell` samples as one product `w_c·d_c` per
/// class, summed in eight independent lanes, a loop LLVM vectorises.
/// Class c's distance `d_c ∈ [0, 1]` is the very float each of its `w_c`
/// samples adds in order, and `Σ w_c = ℓ`. The in-order sum lies within
/// `γ_{ℓ−1}·ℓ` of the real `Σ w_c·d_c`. Each product rounds by at most
/// `u·w_c`, and any association of the C products (magnitudes summing to
/// at most `(1 + u)·ℓ`) lies within `γ_{C−1}·(1 + u)·ℓ` of their real sum;
/// as `(1 + u)(1 + γ_{C−1}) ≤ 1 + γ_C`, the lanes lie within `γ_C·ℓ` of
/// the real sum. With `C ≤ ℓ` the two sums differ by at most `2γ_ℓ·ℓ`, the
/// margin of one lane per sample.
fn mean_distance_bounded(
    k: usize,
    sizes: &[f64],
    inter: &[f64],
    weights: &[f64],
    ell: usize,
) -> Bounded {
    let (sizes8, sizes_rest) = sizes.as_chunks::<8>();
    let (inter8, inter_rest) = inter[..sizes.len()].as_chunks::<8>();
    let (weights8, weights_rest) = weights[..sizes.len()].as_chunks::<8>();
    let k = k as f64;
    let mut lanes = [0.0; 8];
    for ((sz, i), w) in sizes8.iter().zip(inter8).zip(weights8) {
        for j in 0..8 {
            lanes[j] += w[j] * distance(i[j], k + sz[j] - i[j]);
        }
    }
    let rest = sizes_rest.iter().zip(inter_rest).zip(weights_rest);
    for (lane, ((&sz, &i), &w)) in lanes.iter_mut().zip(rest) {
        *lane += w * distance(i, k + sz - i);
    }
    Bounded::mean(lanes.iter().sum(), ell, 2.0 * gamma(ell))
}

/// Incremental cost evaluator over a fixed collection of sample sets,
/// folded into classes of equal samples.
///
/// Maintains the candidate `C` implicitly through per-class intersection
/// counters; `insert`/`remove` cost `O(1 + #classes containing the
/// element)` and [`IncrementalCost::cost`] is `O(ℓ)`. Each class keeps its
/// row, a bitset over the local ids, which is the one copy of its samples
/// the fit reads: an input-set candidate is scored with its row as the
/// mask, and a winner is read back out of it. Reusable: a worker
/// fitting median after median reloads one evaluator in place
/// ([`IncrementalCost::load`]) and allocates nothing proportional to the
/// largest element id per fit.
#[derive(Default)]
pub struct IncrementalCost {
    /// The sorted distinct sample elements: `elems[u]` has local id `u`,
    /// held by `freq[u]` samples.
    elems: Vec<u32>,
    freq: Vec<u32>,
    /// CSR postings: the classes holding `elems[u]`, ascending, are
    /// `postings[offsets[u]..offsets[u + 1]]`.
    offsets: Vec<usize>,
    postings: Vec<u32>,
    /// Each sample's class, and each class's first sample.
    class_of: Vec<u32>,
    firsts: Vec<u32>,
    /// Per class: its number of samples, `|S_c|` and `|C ∩ S_c|`
    /// (integers held as `f64`, the type every cost computes in); and
    /// `|C|`.
    weights: Vec<f64>,
    sizes: Vec<f64>,
    inter: Vec<f64>,
    candidate_len: usize,
    /// Candidate membership by local id, and the sorted candidate members
    /// outside the sample universe.
    member: Vec<bool>,
    outside: Vec<u32>,
    /// Element → local id + 1 of the loaded elements, 0 for others
    /// (element → count inside a load, which clears the previous entries).
    ids: Vec<u32>,
    /// Per-class scratch: a scored set's intersection counts, or an
    /// in-order toggle's terms.
    scratch: Vec<f64>,
    /// A scored set's local ids as a bitset; inside a load, the classes'
    /// first samples.
    mask: Vec<u64>,
    /// Each class's elements as a bitset over local ids, `⌈U/64⌉` words
    /// per class (inside a load, one row per sample).
    rows: Vec<u64>,
    /// Inside a load: each element's samples as a bitset, `⌈ℓ/64⌉` words
    /// per local id.
    bits: Vec<u64>,
    /// The open-addressing table that finds the classes: class + 1 per
    /// slot, 0 for a free one.
    table: Vec<u32>,
    /// Toggle terms against the current candidate, for an insertion
    /// (`[0]`) and a removal (`[1]`): filled on a direction's first
    /// toggle, emptied whenever the candidate changes.
    toggles: [ToggleTerms; 2],
}

/// Per class, `w_c·(hold − miss)` of its [`IncrementalCost::toggle_term`]s
/// for an element it holds and one it misses, and `Σ w_c·miss`.
#[derive(Default)]
struct ToggleTerms {
    diff: Vec<f64>,
    miss_sum: f64,
}

/// Where the table of [`IncrementalCost::fold`] starts looking for a
/// row's class: its top bits. Each word of the row is multiplied by an
/// odd constant of its own. The key only picks a slot: a row joins a class
/// when it equals the class's first row word for word.
fn row_key(row: &[u64]) -> u64 {
    #[cfg(test)]
    if FLAT_KEYS.get() {
        return 0;
    }
    let mut key = 0u64;
    for (j, &w) in (0..).zip(row) {
        key = key.wrapping_add(w.wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ (j << 1)));
    }
    key
}

#[cfg(test)]
thread_local! {
    /// Makes every row's key the same, so a test can check that the
    /// classes never rest on the keys.
    pub(crate) static FLAT_KEYS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
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
    /// `O(Σ|S_i| + U log U + U·⌈ℓ/64⌉)`. Sample `i` is the union of the
    /// members of its chunks `(i, members)`, which come in any order; the
    /// chunks of one sample hold distinct elements between them, and a
    /// sample with no chunk is empty. Only the U distinct elements are
    /// sorted; each element's sample bitset is set from the chunks, and
    /// the samples are folded into classes from those bitsets. The element
    /// map keeps its size across calls, and only the entries this and the
    /// previous collection use are set or cleared.
    pub fn load<'a, I>(&mut self, num_samples: usize, chunks: I)
    where
        I: IntoIterator<Item = (u32, &'a [u32])> + Clone,
    {
        self.clear_ids();
        self.count(chunks.clone());
        let total = self.number();
        let words = num_samples.div_ceil(64);
        self.bits.clear();
        self.bits.resize(self.elems.len() * words, 0);
        for (i, members) in chunks {
            for &e in members {
                let u = self.ids[e as usize] as usize - 1;
                self.bits[u * words + i as usize / 64] |= 1 << (i % 64);
            }
        }
        self.finish(num_samples, total);
    }

    /// Reloads the evaluator with `num_samples` samples given element by
    /// element, and `C = ∅`. Each `(element, set)` of `sets` holds a
    /// distinct element and its world set (`⌈ℓ/64⌉` words, bit `i % 64` of
    /// word `i / 64` for sample `i`). Sample `i` also holds its closure
    /// when bit `i` of `closures.hits` is set, and its sets then hold no
    /// element of that closure. An element's sample bitset is its set,
    /// plus for a closure element its row masked by the hits. The hit
    /// closures are read from their member lists when those hold fewer
    /// entries than the rows hold words (a few hits), else from the rows;
    /// both give the same bits. The count pass is
    /// [`count_sets`](Self::count_sets)'s. The state is exactly
    /// [`load`](Self::load)'s over the same samples. Needs `num_samples ≥
    /// 1`.
    pub fn load_sets<'a, I, F>(&mut self, num_samples: usize, sets: I, closures: &Closures<'a, F>)
    where
        I: Iterator<Item = (u32, &'a [u64])> + Clone,
        F: Fn(usize) -> &'a [u32],
    {
        let words = num_samples.div_ceil(64);
        debug_assert_eq!(closures.hits.len(), words);
        let (by_members, by_rows) = self.count_world_sets(sets.clone(), closures);
        let total = self.number();
        // Each element's sample bitset.
        self.bits.clear();
        self.bits.resize(self.elems.len() * words, 0);
        for (e, set) in sets {
            if let Some(u) = self.local(e) {
                self.bits[u * words..(u + 1) * words].copy_from_slice(set);
            }
        }
        for i in ones(by_members) {
            for &e in (closures.members)(i) {
                self.bits[(self.ids[e as usize] as usize - 1) * words + i / 64] |= 1 << (i % 64);
            }
        }
        for (&e, row) in closures.rows_under(by_rows) {
            if let Some(u) = self.local(e) {
                let bits = &mut self.bits[u * words..(u + 1) * words];
                for (b, (r, h)) in bits.iter_mut().zip(row.iter().zip(by_rows)) {
                    *b |= r & h;
                }
            }
        }
        debug_assert_eq!(
            self.bits
                .iter()
                .map(|b| b.count_ones() as usize)
                .sum::<usize>(),
            total,
            "a set holds a hit closure's element"
        );
        self.finish(num_samples, total);
    }

    /// The count pass of [`load_sets`](Self::load_sets) over the same
    /// `sets` and `closures`, alone: replaces `out` with each element's
    /// count of samples, for every element some sample holds, in no
    /// particular order. Leaves the evaluator with no samples. Needs ℓ ≥
    /// 1 (`closures.hits` not empty).
    pub fn count_sets<'a, I, F>(&mut self, sets: I, closures: &Closures<'a, F>, out: &mut Vec<u32>)
    where
        I: Iterator<Item = (u32, &'a [u64])>,
        F: Fn(usize) -> &'a [u32],
    {
        self.count_world_sets(sets, closures);
        out.clear();
        out.extend(self.elems.iter().map(|&e| self.ids[e as usize]));
        self.clear_ids();
        self.finish(0, 0);
    }

    /// The count pass of a set load: adds to each element's `ids` entry
    /// the popcount of its set plus its hit closures, read from their
    /// members or their rows as [`load_sets`](Self::load_sets) says.
    /// Returns the hit words read each way, by members and by rows: one of
    /// the two is empty.
    fn count_world_sets<'a, I, F>(
        &mut self,
        sets: I,
        closures: &Closures<'a, F>,
    ) -> (&'a [u64], &'a [u64])
    where
        I: Iterator<Item = (u32, &'a [u64])>,
        F: Fn(usize) -> &'a [u32],
    {
        let Closures {
            hits,
            elems,
            rows,
            ref members,
        } = *closures;
        debug_assert!(!hits.is_empty() && rows.len() == elems.len() * hits.len());
        let entries: usize = ones(hits).map(|i| members(i).len()).sum();
        let (by_members, by_rows) = if entries <= rows.len() {
            (hits, &[][..])
        } else {
            (&[][..], hits)
        };
        // The rows come in element order, so they go first: the elements
        // stay nearly sorted for `number`.
        self.clear_ids();
        for (&e, row) in closures.rows_under(by_rows) {
            let masked = row.iter().zip(by_rows).map(|(r, h)| (r & h).count_ones());
            self.add_count(e, masked.sum());
        }
        for i in ones(by_members) {
            members(i).iter().for_each(|&e| self.add_count(e, 1));
        }
        for (e, set) in sets {
            let count = set.iter().map(|w| w.count_ones()).sum();
            self.add_count(e, count);
        }
        (by_members, by_rows)
    }

    /// The end of a load, once `bits` holds each element's samples
    /// (`total` bits in all): the bitsets, transposed in 64×64 blocks, are
    /// the samples' rows, which [`fold`](Self::fold) groups into classes;
    /// then each element's postings are written ascending from its bitset
    /// masked by the classes' first samples, and `C = ∅`. Finding the
    /// classes reads the bitsets once more, to transpose them, and each
    /// row once.
    fn finish(&mut self, num_samples: usize, total: usize) {
        self.transpose_bits(num_samples);
        self.fold(num_samples);
        let words = num_samples.div_ceil(64);
        self.mask.clear();
        self.mask.resize(words, 0);
        for &i in &self.firsts {
            self.mask[i as usize / 64] |= 1 << (i % 64);
        }
        self.postings.clear();
        self.postings.resize(total, 0);
        self.offsets.clear();
        self.offsets.push(0);
        let (postings, class_of) = (&mut self.postings, &self.class_of);
        let mut written = 0;
        for u in 0..self.elems.len() {
            let bits = &self.bits[u * words..(u + 1) * words];
            for (at, (&b, &m)) in bits.iter().zip(&self.mask).enumerate() {
                let mut word = b & m;
                while word != 0 {
                    postings[written] = class_of[at * 64 + word.trailing_zeros() as usize];
                    written += 1;
                    word &= word - 1;
                }
            }
            self.offsets.push(written);
        }
        self.postings.truncate(written);
        self.empty_candidate();
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

    /// Sorts the counted elements, moves each one's count to `freq`, and
    /// replaces it with its local id + 1. Returns the sum of the counts.
    fn number(&mut self) -> usize {
        self.elems.sort_unstable();
        self.freq.clear();
        for (u, &e) in self.elems.iter().enumerate() {
            self.freq
                .push(std::mem::replace(&mut self.ids[e as usize], u as u32 + 1));
        }
        self.freq.iter().map(|&f| f as usize).sum()
    }

    /// Fills `rows` with each sample's row by transposing the element
    /// bitsets `bits` in 64×64 blocks.
    fn transpose_bits(&mut self, num_samples: usize) {
        let num_elems = self.elems.len();
        let (words, sample_words) = (num_elems.div_ceil(64), num_samples.div_ceil(64));
        self.rows.clear();
        self.rows.resize(num_samples * words, 0);
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
                for (c, &b) in block.iter().enumerate().take(num_samples - sb * 64) {
                    self.rows[(sb * 64 + c) * words + ub] = b;
                }
            }
        }
    }

    /// Folds the `num_samples` sample rows of `rows` into classes of equal
    /// rows, numbered by their first sample: sets `class_of`, `firsts`,
    /// the weights, and each class's size from its row, and keeps one row
    /// per class. A sample looks for its class from its row's key, and
    /// joins one only when its row equals the class's first row.
    fn fold(&mut self, num_samples: usize) {
        let words = self.elems.len().div_ceil(64);
        let slots = (2 * num_samples).next_power_of_two().max(2);
        let shift = 64 - slots.trailing_zeros();
        let IncrementalCost {
            rows,
            table,
            class_of,
            firsts,
            weights,
            sizes,
            ..
        } = self;
        table.clear();
        table.resize(slots, 0);
        class_of.clear();
        firsts.clear();
        weights.clear();
        let row = |i: usize| &rows[i * words..(i + 1) * words];
        let equal = |a: usize, b: usize| row(a).iter().zip(row(b)).all(|(x, y)| x == y);
        for i in 0..num_samples {
            let mut slot = (row_key(row(i)) >> shift) as usize;
            let class = loop {
                slot &= slots - 1;
                match table[slot] {
                    0 => {
                        firsts.push(i as u32);
                        weights.push(0.0);
                        table[slot] = firsts.len() as u32;
                        break firsts.len() - 1;
                    }
                    t if equal(firsts[t as usize - 1] as usize, i) => break t as usize - 1,
                    _ => slot += 1,
                }
            };
            class_of.push(class as u32);
            weights[class] += 1.0;
        }
        for (c, &first) in firsts.iter().enumerate() {
            let first = first as usize;
            rows.copy_within(first * words..(first + 1) * words, c * words);
        }
        rows.truncate(firsts.len() * words);
        sizes.clear();
        let size = |c: usize| {
            rows[c * words..(c + 1) * words]
                .iter()
                .map(|w| w.count_ones())
        };
        sizes.extend((0..firsts.len()).map(|c| size(c).sum::<u32>() as f64));
    }

    /// Sets `C = ∅` over freshly loaded samples.
    fn empty_candidate(&mut self) {
        self.inter.clear();
        self.inter.resize(self.weights.len(), 0.0);
        self.member.clear();
        self.member.resize(self.elems.len(), false);
        self.outside.clear();
        self.candidate_len = 0;
        self.forget_toggles();
    }

    /// Empties the toggle-term cache: the candidate changed.
    fn forget_toggles(&mut self) {
        for terms in &mut self.toggles {
            terms.diff.clear();
        }
    }

    /// The number of samples ℓ.
    pub fn num_samples(&self) -> usize {
        self.class_of.len()
    }

    /// The number of classes of equal samples C.
    pub fn num_classes(&self) -> usize {
        self.weights.len()
    }

    /// Sample `i`'s class: classes are numbered by their first sample, so
    /// two samples share one exactly when their sets are equal.
    pub fn class_of(&self, i: usize) -> usize {
        self.class_of[i] as usize
    }

    /// The loaded collection, expanded to one lane per sample: distinct
    /// elements, CSR offsets and postings over the samples, and sample
    /// sizes.
    #[cfg(test)]
    pub(crate) fn loaded(&self) -> (&[u32], Vec<usize>, Vec<u32>, Vec<u32>) {
        let mut offsets = vec![0];
        let mut postings = Vec::new();
        for u in 0..self.elems.len() {
            let held = &self.postings[self.span(u)];
            let samples = 0..self.class_of.len() as u32;
            postings.extend(samples.filter(|&i| held.contains(&self.class_of[i as usize])));
            offsets.push(postings.len());
        }
        let sizes = self.class_of.iter().map(|&c| self.sizes[c as usize] as u32);
        (&self.elems, offsets, postings, sizes.collect())
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
        self.local(element).map_or(0, |u| self.freq[u] as usize)
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
                for &c in &self.postings[self.span(u)] {
                    self.inter[c as usize] += step as f64;
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
        mean_distance(self.candidate_len, &self.sizes, &self.inter, &self.class_of)
    }

    /// [`cost`](Self::cost) as a vectorised estimate with its margin.
    pub(crate) fn cost_bounded(&self) -> Bounded {
        let (k, ell) = (self.candidate_len, self.num_samples());
        mean_distance_bounded(k, &self.sizes, &self.inter, &self.weights, ell)
    }

    /// Class `c`'s distance after toggling an element it holds or misses
    /// (`step` is the change in `|C|`) minus its distance before.
    fn toggle_term(&self, c: usize, step: f64, holds: bool) -> f64 {
        let (k, sz, inter) = (self.candidate_len as f64, self.sizes[c], self.inter[c]);
        let before = distance(inter, k + sz - inter);
        let after = if holds { inter + step } else { inter };
        distance(after, k + step + sz - after) - before
    }

    /// Fills `toggles[present]` against the current candidate, unless a
    /// toggle in that direction already did.
    fn fill_toggles(&mut self, present: bool) {
        let mut terms = std::mem::take(&mut self.toggles[present as usize]);
        if terms.diff.len() != self.weights.len() {
            let step = if present { -1.0 } else { 1.0 };
            terms.miss_sum = 0.0;
            for (c, &w) in self.weights.iter().enumerate() {
                let miss = self.toggle_term(c, step, false);
                terms.miss_sum += w * miss;
                terms
                    .diff
                    .push(w * (self.toggle_term(c, step, true) - miss));
            }
        }
        self.toggles[present as usize] = terms;
    }

    /// Cost change if `element` were toggled (inserted when absent,
    /// removed when present), without mutating the candidate: returns
    /// `cost_after - cost_before`, every sample's `toggle_term` — its
    /// class's — summed in sample order.
    pub fn toggle_delta(&mut self, element: u32) -> f64 {
        let (local, present) = self.locate(element);
        let step = if present { -1.0 } else { 1.0 };
        let mut terms = std::mem::take(&mut self.scratch);
        terms.clear();
        terms.extend((0..self.num_classes()).map(|c| self.toggle_term(c, step, false)));
        for &c in local.map_or(&[][..], |u| &self.postings[self.span(u)]) {
            terms[c as usize] = self.toggle_term(c as usize, step, true);
        }
        let mut delta = 0.0;
        for &c in &self.class_of {
            delta += terms[c as usize];
        }
        self.scratch = terms;
        delta / self.num_samples().max(1) as f64
    }

    /// [`toggle_delta`](Self::toggle_delta) in `O(#classes holding
    /// element)`: `Σ w·miss` plus `w·(hold − miss)` at the element's
    /// postings, in four lanes. Every sample's in-order term `t_i` lies in
    /// `[−1, 1]`, so the in-order sum lies within `γ_{ℓ−1}·ℓ` of the real
    /// `Σ t_i = Σ_c w_c·miss_c + Σ_{c ∋ e} w_c·(hold_c − miss_c)`. Against
    /// that, each product `w·miss` rounds by at most `u·w`, each difference
    /// by at most `2u` and its product by at most `2u(1 + u)·w`: `(5u +
    /// 2u²)·ℓ` in all, as `Σ w = ℓ`. The at most 2C summed terms have
    /// magnitudes summing to at most `3(1 + u)²·ℓ`, so any association lies
    /// within `3(1 + u)²·γ_{2C}·ℓ` of their real sum. With `C ≤ ℓ` the sums
    /// differ by at most `(4γ_{2ℓ} + 6u)·ℓ`: the `u²` and `u·γ` terms fit
    /// in the last `u` whenever `γ_{2ℓ} ≤ 1/7`.
    pub(crate) fn toggle_delta_bounded(&mut self, element: u32) -> Bounded {
        let (local, present) = self.locate(element);
        self.fill_toggles(present);
        let terms = &self.toggles[present as usize];
        let mut lanes = [terms.miss_sum, 0.0, 0.0, 0.0];
        if let Some(u) = local {
            let (held4, held_rest) = self.postings[self.span(u)].as_chunks::<4>();
            for held in held4.iter().map(|h| &h[..]).chain([held_rest]) {
                for (lane, &c) in lanes.iter_mut().zip(held) {
                    *lane += terms.diff[c as usize];
                }
            }
        }
        let ell = self.num_samples();
        Bounded::mean(lanes.iter().sum(), ell, 4.0 * gamma(2 * ell) + 6.0 * U)
    }

    /// Fills `scratch` with every `|s ∩ S_c|` ([`intersect_mask`](Self::intersect_mask)).
    fn intersect(&mut self, s: &[u32]) {
        self.mask.clear();
        self.mask.resize(self.elems.len().div_ceil(64), 0);
        for &e in s {
            if let Some(u) = self.local(e) {
                self.mask[u / 64] |= 1 << (u % 64);
            }
        }
        self.intersect_mask();
    }

    /// Fills `scratch` with each class's count of the local ids `mask`
    /// holds, from those ids' postings or from the class rows, whichever
    /// costs fewer operations.
    fn intersect_mask(&mut self) {
        let words = self.mask.len();
        let increments: usize = ones(&self.mask).map(|u| self.span(u).len()).sum();
        self.scratch.clear();
        if increments <= self.num_classes() * words {
            self.scratch.resize(self.num_classes(), 0.0);
            for u in ones(&self.mask) {
                for &c in &self.postings[self.offsets[u]..self.offsets[u + 1]] {
                    self.scratch[c as usize] += 1.0;
                }
            }
            return;
        }
        let mask = &self.mask;
        let inter = self.rows.chunks_exact(words).map(|row| {
            let words = row.iter().zip(mask);
            words.map(|(r, m)| (r & m).count_ones()).sum::<u32>() as f64
        });
        self.scratch.extend(inter);
    }

    /// The class rows.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> &[u64] {
        &self.rows
    }

    /// `ρ̂(s)` of any set `s` without duplicates, in any order,
    /// bit-identical to [`empirical_cost`]`(s, samples)` (same integer
    /// union, same expression, same summation order), from the postings or
    /// class rows of `s`'s elements. The current candidate is untouched.
    pub fn cost_of_set(&mut self, s: &[u32]) -> f64 {
        self.intersect(s);
        mean_distance(s.len(), &self.sizes, &self.scratch, &self.class_of)
    }

    /// [`cost_of_set`](Self::cost_of_set)`(s)` as an estimate with its
    /// margin.
    #[cfg(test)]
    pub(crate) fn cost_of_set_bounded(&mut self, s: &[u32]) -> Bounded {
        self.intersect(s);
        let (sizes, inter, ell) = (&self.sizes, &self.scratch, self.num_samples());
        mean_distance_bounded(s.len(), sizes, inter, &self.weights, ell)
    }

    /// Sample `i`'s set, ascending: the elements of its class row.
    pub(crate) fn sample(&self, i: usize) -> Vec<u32> {
        let (c, words) = (self.class_of(i), self.elems.len().div_ceil(64));
        let row = &self.rows[c * words..(c + 1) * words];
        ones(row).map(|u| self.elems[u]).collect()
    }

    /// [`cost_of_set`](Self::cost_of_set) of [`sample`](Self::sample)`(i)`
    /// when it is below `t`, scored with the sample's class row as the
    /// mask: the comparison is decided from the estimate
    /// ([`crate::bound`]), and the cost is summed in order only to settle a
    /// straddle or to report a winner.
    pub(crate) fn sample_cost_below(&mut self, i: usize, t: f64) -> Option<f64> {
        let (c, words) = (self.class_of(i), self.elems.len().div_ceil(64));
        self.mask.clear();
        self.mask
            .extend_from_slice(&self.rows[c * words..(c + 1) * words]);
        self.intersect_mask();
        let (k, ell) = (self.sizes[c] as usize, self.num_samples());
        let (sizes, inter) = (&self.sizes, &self.scratch);
        let estimate = mean_distance_bounded(k, sizes, inter, &self.weights, ell);
        let exact = || mean_distance(k, sizes, inter, &self.class_of);
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

impl<'c, F> Closures<'c, F> {
    /// Each closure element with its row, when `hits` (the hit words read
    /// from the rows) is not empty; nothing otherwise.
    fn rows_under(&self, hits: &[u64]) -> impl Iterator<Item = (&'c u32, &'c [u64])> {
        let rows = if hits.is_empty() { &[][..] } else { self.rows };
        self.elems.iter().zip(rows.chunks_exact(self.hits.len()))
    }
}

/// Transposes a 64×64 bit matrix in place: bit `c` of `a[r]` moves to bit
/// `r` of `a[c]`. Swaps the off-diagonal blocks of halves, then of
/// quarters, down to single bits (Hacker's Delight, §7–3), each level as
/// runs of adjacent row pairs, which LLVM vectorises.
fn transpose64(a: &mut [u64; 64]) {
    let mut width = 32;
    let mut low: u64 = 0x0000_0000_ffff_ffff;
    while width != 0 {
        for pair in a.chunks_exact_mut(2 * width) {
            let (top, bottom) = pair.split_at_mut(width);
            for (x, y) in top.iter_mut().zip(bottom) {
                let t = ((*x >> width) ^ *y) & low;
                *x ^= t << width;
                *y ^= t;
            }
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
