//! The differential oracle for the median evaluator: the evaluator and
//! pipeline of commit a89153b, renamed and stripped of comments, debug
//! asserts and log events, otherwise verbatim — a `HashMap`
//! inverted index, an ℓ-vector allocated per `toggle_delta`, and every
//! input-set candidate scored by ℓ sorted merges (`empirical_cost`) —
//! plus one line that counts the distinct samples (`median.sample_classes`).
//! The local-id [`IncrementalCost`], which runs one lane per class of
//! equal samples, [`IncrementalCost::cost_of_set`] and the median pipeline
//! built on them must reproduce it bit for bit: medians, cost bits,
//! `Outcome` progress and `median.*` counters — whether the evaluator is
//! loaded from whole sets, from chunks ([`IncrementalCost::load`]) or from
//! the world sets the cascade index hands over
//! ([`IncrementalCost::load_sets`]), and on collections whose samples are
//! duplicated and permuted. At the pipeline's ℓ, on cascades with built
//! exact ties, the same holds on both branches of every bound-decided
//! comparison ([`crate::bound`]).

#![expect(
    clippy::disallowed_types,
    reason = "the oracle keeps the old evaluator's hash containers verbatim; every iteration of them is sorted before it is read"
)]

use crate::bound::{DECISIONS, WIDEN};
use crate::cost::{empirical_cost, Closures, IncrementalCost, FLAT_KEYS};
use crate::median::{
    frequency_sweep, jaccard_median_budgeted, jaccard_median_loaded, local_search, MedianConfig,
    MedianResult,
};
use soi_graph::{gen, GraphError, ProbGraph};
use soi_sampling::CascadeSampler;
use soi_util::rng::{Rng, Xoshiro256pp};
use soi_util::runtime::{Deadline, Outcome};
use std::collections::{BTreeSet, HashMap, HashSet};

struct HashCost {
    inverted: HashMap<u32, Vec<u32>>,
    sizes: Vec<u32>,
    inter: Vec<u32>,
    candidate_len: usize,
    in_candidate: HashSet<u32>,
}

impl HashCost {
    fn new(samples: &[Vec<u32>]) -> Self {
        let mut inverted: HashMap<u32, Vec<u32>> = HashMap::new();
        for (i, s) in samples.iter().enumerate() {
            for &e in s {
                inverted.entry(e).or_default().push(i as u32);
            }
        }
        HashCost {
            inverted,
            sizes: samples.iter().map(|s| s.len() as u32).collect(),
            inter: vec![0; samples.len()],
            candidate_len: 0,
            in_candidate: HashSet::new(),
        }
    }

    fn frequency(&self, element: u32) -> usize {
        self.inverted.get(&element).map_or(0, |v| v.len())
    }

    fn universe(&self) -> impl Iterator<Item = u32> + '_ {
        self.inverted.keys().copied()
    }

    fn insert(&mut self, element: u32) {
        if !self.in_candidate.insert(element) {
            return;
        }
        self.candidate_len += 1;
        if let Some(ids) = self.inverted.get(&element) {
            for &i in ids {
                self.inter[i as usize] += 1;
            }
        }
    }

    fn remove(&mut self, element: u32) {
        if !self.in_candidate.remove(&element) {
            return;
        }
        self.candidate_len -= 1;
        if let Some(ids) = self.inverted.get(&element) {
            for &i in ids {
                self.inter[i as usize] -= 1;
            }
        }
    }

    fn cost(&self) -> f64 {
        if self.sizes.is_empty() {
            return 0.0;
        }
        let k = self.candidate_len as f64;
        let mut total = 0.0;
        for (i, &sz) in self.sizes.iter().enumerate() {
            let inter = self.inter[i] as f64;
            let union = k + sz as f64 - inter;
            total += if union == 0.0 {
                0.0
            } else {
                1.0 - inter / union
            };
        }
        total / self.sizes.len() as f64
    }

    fn toggle_delta(&self, element: u32) -> f64 {
        let ell = self.sizes.len() as f64;
        if ell == 0.0 {
            return 0.0;
        }
        let present = self.in_candidate.contains(&element);
        let k = self.candidate_len as f64;
        let k_after = if present { k - 1.0 } else { k + 1.0 };
        let empty: Vec<u32> = Vec::new();
        let containing = self.inverted.get(&element).unwrap_or(&empty);
        let mut is_member = vec![false; self.sizes.len()];
        for &i in containing {
            is_member[i as usize] = true;
        }
        let mut delta = 0.0;
        for (i, &sz) in self.sizes.iter().enumerate() {
            let inter = self.inter[i] as f64;
            let union = k + sz as f64 - inter;
            let before = if union == 0.0 {
                0.0
            } else {
                1.0 - inter / union
            };
            let inter_after = if is_member[i] {
                if present {
                    inter - 1.0
                } else {
                    inter + 1.0
                }
            } else {
                inter
            };
            let union_after = k_after + sz as f64 - inter_after;
            let after = if union_after == 0.0 {
                0.0
            } else {
                1.0 - inter_after / union_after
            };
            delta += after - before;
        }
        delta / ell
    }

    fn candidate(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.in_candidate.iter().copied().collect();
        v.sort_unstable();
        v
    }
}

fn median_budgeted(
    samples: &[Vec<u32>],
    config: &MedianConfig,
    deadline: &Deadline,
) -> Outcome<MedianResult> {
    if samples.is_empty() {
        return Outcome::Completed(MedianResult {
            median: Vec::new(),
            cost: 0.0,
        });
    }
    soi_obs::counter_add!("median.calls", 1);
    let distinct: HashSet<&Vec<u32>> = samples.iter().collect();
    soi_obs::counter_add!("median.sample_classes", distinct.len());
    let mut done = 0u64;
    let (mut inc, mut best, universe_size) = sweep_budgeted(samples, deadline, &mut done);
    let stride = samples.len().div_ceil(24).max(1);
    let input_evals = samples.len().div_ceil(stride) as u64;
    let total = universe_size as u64
        + input_evals
        + config.local_search_rounds as u64 * universe_size as u64;
    for s in samples.iter().step_by(stride) {
        if !deadline.tick(1) {
            return deadline.outcome(best, done, total);
        }
        done += 1;
        soi_obs::counter_add!("median.input_set_evals", 1);
        let cost = empirical_cost(s, samples);
        if cost < best.cost - 1e-15 {
            best = MedianResult {
                median: s.clone(),
                cost,
            };
        }
    }
    if config.local_search_rounds > 0 {
        let current = inc.candidate();
        for &e in &current {
            if !best.median.contains(&e) {
                inc.remove(e);
            }
        }
        for &e in &best.median {
            inc.insert(e);
        }
        best = local_search_inner(
            &mut inc,
            best,
            config.local_search_rounds,
            deadline,
            &mut done,
        );
    }
    deadline.outcome(best, done, total)
}

fn sweep_budgeted(
    samples: &[Vec<u32>],
    deadline: &Deadline,
    done: &mut u64,
) -> (HashCost, MedianResult, usize) {
    let mut inc = HashCost::new(samples);
    let mut order: Vec<(u32, u32)> = inc
        .universe()
        .map(|e| (e, inc.frequency(e) as u32))
        .collect();
    order.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    soi_obs::counter_add!("median.prefix_evals", order.len());
    let mut best_cost = inc.cost();
    let mut best_len = 0usize;
    let mut inserted = 0usize;
    for &(e, _) in order.iter() {
        if !deadline.tick(1) {
            break;
        }
        inc.insert(e);
        inserted += 1;
        *done += 1;
        let c = inc.cost();
        if c < best_cost - 1e-15 {
            best_cost = c;
            best_len = inserted;
        }
    }
    for &(e, _) in order[best_len..inserted].iter().rev() {
        inc.remove(e);
    }
    let median = inc.candidate();
    let best = MedianResult {
        median,
        cost: best_cost,
    };
    (inc, best, order.len())
}

fn oracle_local_search(initial: &[u32], samples: &[Vec<u32>], rounds: usize) -> MedianResult {
    let mut inc = HashCost::new(samples);
    for &e in initial {
        inc.insert(e);
    }
    let start = MedianResult {
        median: inc.candidate(),
        cost: inc.cost(),
    };
    let mut done = 0u64;
    local_search_inner(&mut inc, start, rounds, &Deadline::unlimited(), &mut done)
}

fn local_search_inner(
    inc: &mut HashCost,
    mut best: MedianResult,
    rounds: usize,
    deadline: &Deadline,
    done: &mut u64,
) -> MedianResult {
    let mut pool: Vec<u32> = inc.universe().chain(best.median.iter().copied()).collect();
    pool.sort_unstable();
    pool.dedup();
    'rounds: for _ in 0..rounds {
        soi_obs::counter_add!("median.local_search_rounds", 1);
        let mut improved = false;
        for &e in &pool {
            if !deadline.tick(1) {
                break 'rounds;
            }
            *done += 1;
            if inc.toggle_delta(e) < -1e-12 {
                soi_obs::counter_add!("median.local_search_toggles", 1);
                if inc.candidate().contains(&e) {
                    inc.remove(e);
                } else {
                    inc.insert(e);
                }
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    let cost = inc.cost();
    if cost < best.cost - 1e-15 {
        best = MedianResult {
            median: inc.candidate(),
            cost,
        };
    }
    best
}

/// Seeded collection `case` of the differential gate. Every shape the
/// evaluator special-cases appears across the cases: ℓ = 1, empty
/// samples, duplicate samples, clustered collections (where an input set
/// beats every frequency prefix), and element ids spread up to ~4000 so a
/// reused evaluator's id map grows and is cleared between collections.
fn collection(case: u64) -> Vec<Vec<u32>> {
    let mut rng = Xoshiro256pp::from_stream(0x0AC1E, case);
    let ell = if case.is_multiple_of(10) {
        1
    } else {
        rng.random_range(2usize..40)
    };
    let base = rng.random_range(0u32..4000);
    let width = rng.random_range(4u32..60);
    let random_set = |rng: &mut Xoshiro256pp| -> Vec<u32> {
        let len = rng.random_range(0usize..(width as usize).min(24));
        let set: BTreeSet<u32> = (0..len)
            .map(|_| base + rng.random_range(0..width))
            .collect();
        set.into_iter().collect()
    };
    let centres = [random_set(&mut rng), random_set(&mut rng)];
    let mut samples: Vec<Vec<u32>> = Vec::with_capacity(ell);
    for _ in 0..ell {
        let s = match rng.random_range(0u32..10) {
            0 => Vec::new(),
            1 | 2 if !samples.is_empty() => {
                let j = rng.random_range(0..samples.len());
                samples[j].clone()
            }
            3..=5 => {
                // Near a cluster centre: drop a few, add a few.
                let mut set: BTreeSet<u32> = centres[rng.random_range(0usize..2)]
                    .iter()
                    .copied()
                    .filter(|_| rng.random_range(0u32..10) != 0)
                    .collect();
                set.insert(base + rng.random_range(0..width));
                set.into_iter().collect()
            }
            _ => random_set(&mut rng),
        };
        samples.push(s);
    }
    samples
}

const CONFIGS: [MedianConfig; 3] = [
    MedianConfig {
        local_search_rounds: 2,
    },
    MedianConfig {
        local_search_rounds: 0,
    },
    MedianConfig {
        local_search_rounds: 5,
    },
];

/// Tick budgets every fit is checked at; `None` is unlimited.
const BUDGETS: [Option<u64>; 5] = [Some(0), Some(1), Some(7), Some(50), None];

type Bits = Outcome<(Vec<u32>, u64)>;

fn bits(outcome: Outcome<MedianResult>) -> Bits {
    outcome.map(|r| (r.median, r.cost.to_bits()))
}

#[test]
fn cost_of_set_is_bit_identical_to_empirical_cost() {
    let mut inc = IncrementalCost::default();
    for case in 0..240u64 {
        let samples = collection(case);
        inc.reset(&samples);
        let mut rng = Xoshiro256pp::from_stream(0xC0575E7, case);
        let mut union: Vec<u32> = samples.iter().flatten().copied().collect();
        union.sort_unstable();
        union.dedup();
        // Elements outside the universe count towards |s| only.
        let stray: BTreeSet<u32> = (0..rng.random_range(0usize..12))
            .map(|_| rng.random_range(0..UNIVERSE))
            .collect();
        let stray: Vec<u32> = stray.into_iter().collect();
        let empty = Vec::new();
        let candidates = samples.iter().chain([&union, &stray, &empty]);
        for s in candidates {
            assert_eq!(
                inc.cost_of_set(s).to_bits(),
                empirical_cost(s, &samples).to_bits(),
                "case {case}, set {s:?}"
            );
        }
        // Scoring a set leaves the loaded candidate alone.
        assert_eq!(inc.candidate_len(), 0, "case {case}");
        assert_eq!(
            inc.cost().to_bits(),
            HashCost::new(&samples).cost().to_bits()
        );
    }
}

/// Walks alternate inserts and removes, and between two changes score
/// several toggles in both directions: the first toggle per direction
/// fills that direction's cached terms, the rest read them, and the next
/// change must invalidate them.
#[test]
fn evaluator_walks_match_the_hashmap_evaluator() {
    let mut inc = IncrementalCost::default();
    for case in 0..240u64 {
        let samples = collection(case);
        let mut oracle = HashCost::new(&samples);
        inc.reset(&samples);
        let mut rng = Xoshiro256pp::from_stream(0x3A1C, case);
        let lo = samples.iter().flatten().min().copied().unwrap_or(0);
        // Half the time a candidate member, else mostly universe
        // elements, sometimes ones no sample holds.
        let pick = |rng: &mut Xoshiro256pp, candidate: &[u32]| {
            if !candidate.is_empty() && rng.random_range(0u32..2) == 0 {
                candidate[rng.random_range(0..candidate.len())]
            } else {
                lo.saturating_sub(3) + rng.random_range(0u32..70)
            }
        };
        for step in 0..rng.random_range(0usize..60) {
            for _ in 0..3 {
                let e = pick(&mut rng, &oracle.candidate());
                assert_eq!(inc.frequency(e), oracle.frequency(e), "case {case}");
                assert_eq!(
                    inc.toggle_delta(e).to_bits(),
                    oracle.toggle_delta(e).to_bits(),
                    "case {case}, element {e}"
                );
            }
            let e = pick(&mut rng, &oracle.candidate());
            if step % 2 == 0 {
                inc.insert(e);
                oracle.insert(e);
            } else {
                inc.remove(e);
                oracle.remove(e);
            }
            assert_eq!(inc.contains(e), oracle.in_candidate.contains(&e));
            assert_eq!(inc.candidate(), oracle.candidate(), "case {case}");
            assert_eq!(inc.candidate_len(), oracle.candidate_len);
            assert_eq!(inc.cost().to_bits(), oracle.cost().to_bits(), "case {case}");
        }
        let mut universe: Vec<u32> = oracle.universe().collect();
        universe.sort_unstable();
        assert_eq!(inc.universe().collect::<Vec<_>>(), universe, "case {case}");
    }
}

/// Medians, cost bits and `Outcome` progress equal the oracle's at every
/// tick budget, for the one-shot entry point and for one evaluator reused
/// across all collections (the `solve_blocks` shape).
#[test]
fn median_pipeline_is_bit_identical_to_the_oracle() {
    let _fits = crate::fits_medians();
    let mut reused = IncrementalCost::default();
    let mut input_set_wins = 0;
    for case in 0..240u64 {
        let samples = collection(case);
        for config in &CONFIGS {
            for budget in [Some(0), Some(1), Some(7), Some(50), None] {
                let deadline = || budget.map_or_else(Deadline::unlimited, Deadline::ticks);
                let want = bits(median_budgeted(&samples, config, &deadline()));
                let one_shot = bits(jaccard_median_budgeted(&samples, config, &deadline()));
                assert_eq!(one_shot, want, "case {case}, {config:?}, budget {budget:?}");
                reused.reset(&samples);
                let in_place = bits(jaccard_median_loaded(&mut reused, config, &deadline()));
                assert_eq!(in_place, want, "case {case}, {config:?}, budget {budget:?}");
            }
        }
        let sweep = frequency_sweep(&samples);
        let stride = samples.len().div_ceil(24).max(1);
        let inputs = samples.iter().step_by(stride);
        if inputs
            .map(|s| empirical_cost(s, &samples))
            .any(|c| c < sweep.cost - 1e-15)
        {
            input_set_wins += 1;
        }
    }
    assert!(
        input_set_wins >= 10,
        "only {input_set_wins} collections where an input set wins"
    );
}

/// [`collection`] elements and the stray elements drawn beside them lie
/// below this bound; the chunk gate also loads an element at the bound
/// minus one.
const UNIVERSE: u32 = 4100;

/// `samples` handed over the way the index hands over a node's
/// cascades: each sample's elements shuffled and cut into random
/// disjoint chunks, in sample order. Some chunks are empty, and an empty
/// sample may have no chunk at all.
fn chunked(samples: &[Vec<u32>], rng: &mut Xoshiro256pp) -> Vec<(u32, Vec<u32>)> {
    let mut chunks = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        let mut s = s.clone();
        for j in (1..s.len()).rev() {
            s.swap(j, rng.random_range(0..j + 1));
        }
        let mut rest = s.as_slice();
        while !rest.is_empty() || rng.random_range(0u32..4) == 0 {
            let take = rng.random_range(0..rest.len() + 1);
            chunks.push((i as u32, rest[..take].to_vec()));
            rest = &rest[take..];
        }
    }
    chunks
}

/// The chunk loader builds what `reset` builds from whole sets — the
/// elements, CSR offsets, postings and sizes, which also match the
/// oracle's inverted index — both score every sample from its class row
/// as [`assert_rows_give_the_samples`] says, and a fit on the chunk load
/// equals the oracle's at every tick budget.
#[test]
fn chunk_loads_match_reset_and_the_oracle() {
    let _fits = crate::fits_medians();
    let (mut from_chunks, mut from_sets) = (IncrementalCost::default(), IncrementalCost::default());
    let (mut multi_chunk, mut singletons) = (0, 0);
    for case in 0..240u64 {
        let mut samples = collection(case);
        if case.is_multiple_of(5) {
            samples.last_mut().unwrap().push(UNIVERSE - 1);
        }
        let mut rng = Xoshiro256pp::from_stream(0xC4A2C, case);
        let chunks = chunked(&samples, &mut rng);
        let load = |inc: &mut IncrementalCost| {
            inc.load(
                samples.len(),
                chunks.iter().map(|(i, c)| (*i, c.as_slice())),
            );
        };
        let nonempty = |i| {
            chunks
                .iter()
                .filter(|c| c.0 == i && !c.1.is_empty())
                .count()
        };
        multi_chunk += (0..samples.len() as u32)
            .filter(|&i| nonempty(i) > 1)
            .count();
        singletons += samples.iter().filter(|s| s.len() == 1).count();

        load(&mut from_chunks);
        from_sets.reset(&samples);
        assert_eq!(from_chunks.loaded(), from_sets.loaded(), "case {case}");
        let oracle = HashCost::new(&samples);
        let (elems, offsets, postings, sizes) = from_sets.loaded();
        assert_eq!(sizes, oracle.sizes, "case {case}");
        assert_eq!(elems.len(), oracle.inverted.len(), "case {case}");
        assert_eq!(offsets.len(), elems.len() + 1, "case {case}");
        for (u, e) in elems.iter().enumerate() {
            let want = &oracle.inverted[e];
            assert_eq!(&postings[offsets[u]..offsets[u + 1]], want, "case {case}");
        }
        let at = format!("case {case}");
        assert_rows_give_the_samples(&mut from_chunks, &samples, &format!("{at}, chunks"));
        assert_rows_give_the_samples(&mut from_sets, &samples, &format!("{at}, sets"));

        for config in &CONFIGS {
            for budget in [Some(0), Some(1), Some(7), Some(50), None] {
                let deadline = || budget.map_or_else(Deadline::unlimited, Deadline::ticks);
                let want = bits(median_budgeted(&samples, config, &deadline()));
                load(&mut from_chunks);
                let got = bits(jaccard_median_loaded(&mut from_chunks, config, &deadline()));
                assert_eq!(got, want, "case {case}, {config:?}, budget {budget:?}");
            }
        }
    }
    assert!(
        multi_chunk >= 1000 && singletons >= 100,
        "{multi_chunk} multi-chunk and {singletons} singleton samples"
    );
}

/// A node's ℓ samples as the cascade index hands them over with its
/// closure rows (the chunks stand for the world sets): seed `case`'s closure per world (some empty), drawn
/// `dense`ly or sparsely from a shared core, each hit as `hit` says
/// (`None`: none, `Some(1.0)`: every world with a closure), and per sample
/// other chunks drawn from the core and beyond it, disjoint from the
/// sample's closure when hit. One element, [`ONLY_UNHIT`], lies only in
/// the closure of a world with no hit, whenever the hits leave one.
struct ClosureCase {
    closures: Vec<Vec<u32>>,
    hits: Vec<u64>,
    elems: Vec<u32>,
    rows: Vec<u64>,
    chunks: Vec<(u32, Vec<u32>)>,
}

/// The element [`ClosureCase`] puts only in an unhit world's closure:
/// above its core, below its other elements.
const ONLY_UNHIT: u32 = 3000;

fn closure_case(ell: usize, case: u64, dense: bool, hit: Option<f64>) -> ClosureCase {
    let mut rng = Xoshiro256pp::from_stream(0xC105E, case);
    let core = rng.random_range(1u32..120);
    let keep = if dense { 0.9 } else { 0.15 };
    let mut closures: Vec<Vec<u32>> = (0..ell)
        .map(|_| match rng.random_range(0u32..5) {
            0 => Vec::new(),
            _ => (0..core).filter(|_| rng.random::<f64>() < keep).collect(),
        })
        .collect();
    let words = ell.div_ceil(64);
    let mut hits = vec![0u64; words];
    for (i, c) in closures.iter().enumerate() {
        if !c.is_empty() && hit.is_some_and(|p| rng.random::<f64>() < p) {
            hits[i / 64] |= 1 << (i % 64);
        }
    }
    let is_hit = |i: usize| hits[i / 64] >> (i % 64) & 1 == 1;
    if let Some(i) = (0..ell).find(|&i| !is_hit(i)) {
        closures[i].push(ONLY_UNHIT);
    }
    let mut elems: Vec<u32> = closures.iter().flatten().copied().collect();
    elems.sort_unstable();
    elems.dedup();
    let mut rows = vec![0u64; elems.len() * words];
    for (at, e) in elems.iter().enumerate() {
        for (i, c) in closures.iter().enumerate() {
            if c.binary_search(e).is_ok() {
                rows[at * words + i / 64] |= 1 << (i % 64);
            }
        }
    }
    let others: Vec<Vec<u32>> = (0..ell)
        .map(|i| {
            let len = rng.random_range(0usize..12);
            let set: BTreeSet<u32> = (0..len)
                .map(|_| rng.random_range(0..core + 40))
                .map(|e| if e >= core { e + ONLY_UNHIT } else { e })
                .filter(|e| !is_hit(i) || closures[i].binary_search(e).is_err())
                .collect();
            set.into_iter().collect()
        })
        .collect();
    let chunks = chunked(&others, &mut rng);
    ClosureCase {
        closures,
        hits,
        elems,
        rows,
        chunks,
    }
}

/// Each element of `chunks` with its world set over `ell` samples
/// (`⌈ℓ/64⌉` words), and the elements in first-seen order.
fn world_sets(ell: usize, chunks: &[(u32, Vec<u32>)]) -> (Vec<u32>, HashMap<u32, Vec<u64>>) {
    let mut order: Vec<u32> = Vec::new();
    let mut sets: HashMap<u32, Vec<u64>> = HashMap::new();
    for (i, chunk) in chunks {
        for &e in chunk {
            let set = sets.entry(e).or_insert_with(|| {
                order.push(e);
                vec![0; ell.div_ceil(64)]
            });
            set[*i as usize / 64] |= 1 << (i % 64);
        }
    }
    (order, sets)
}

/// The world-set loader builds what [`IncrementalCost::load`] builds
/// over the materialised chunks — each hit world's closure one more chunk
/// — from each chunk element's world set, given in first-seen order, and
/// the closures, whether it reads the hit closures from their members or
/// from the rows: the elements, CSR offsets, postings and sizes, and then
/// the class rows, from which both score every sample as
/// [`assert_rows_give_the_samples`] says. Its count pass alone
/// ([`IncrementalCost::count_sets`]) gives the same frequencies. A plain
/// `load` after a set load or a count keeps none of its element bitsets.
#[test]
fn set_loads_match_chunk_loads() {
    let (mut from_sets, mut from_chunks) = (IncrementalCost::default(), IncrementalCost::default());
    let (mut unhit_only, mut closure_and_chunk) = (0, 0);
    let mut by_rows = [0; 2];
    let mut case = 0;
    for ell in [1, 63, 64, 65, 256, 1000] {
        for hit in [None, Some(1.0), Some(0.5), Some(0.05), Some(0.01)] {
            for dense in [true, false, true, false] {
                case += 1;
                let c = closure_case(ell, case, dense, hit);
                let is_hit = |i: usize| c.hits[i / 64] >> (i % 64) & 1 == 1;
                let mut materialised: Vec<(u32, &[u32])> = Vec::new();
                for i in 0..ell {
                    if is_hit(i) {
                        materialised.push((i as u32, &c.closures[i]));
                    }
                    let others = c.chunks.iter().filter(|ch| ch.0 as usize == i);
                    materialised.extend(others.map(|(i, ch)| (*i, ch.as_slice())));
                }
                from_chunks.load(ell, materialised.iter().copied());
                let rows = from_chunks.rows().to_vec();
                let at = format!("ℓ = {ell}, case {case}");
                // `from_sets` last read the world sets of another case.
                from_sets.load(ell, materialised.iter().copied());
                assert_eq!(from_sets.rows(), rows, "{at}: a load kept stale bitsets");
                let (order, sets) = world_sets(ell, &c.chunks);
                let closures = Closures {
                    hits: &c.hits,
                    elems: &c.elems,
                    rows: &c.rows,
                    members: |i: usize| c.closures[i].as_slice(),
                };
                let hit_entries: usize = (0..ell)
                    .filter(|&i| is_hit(i))
                    .map(|i| c.closures[i].len())
                    .sum();
                if hit_entries > 0 {
                    by_rows[usize::from(hit_entries > c.rows.len())] += 1;
                }
                let sets_in_order = order.iter().map(|e| (*e, sets[e].as_slice()));
                from_sets.load_sets(ell, sets_in_order, &closures);
                assert_eq!(from_sets.loaded(), from_chunks.loaded(), "{at}");
                let unhit = |i: usize| !is_hit(i) && c.closures[i].contains(&ONLY_UNHIT);
                if hit.is_some() && (0..ell).any(unhit) {
                    assert_eq!(from_sets.frequency(ONLY_UNHIT), 0, "{at}");
                    unhit_only += 1;
                }
                assert_eq!(from_sets.rows(), rows, "{at}");
                let mut samples = vec![Vec::new(); ell];
                for (i, members) in &materialised {
                    samples[*i as usize].extend_from_slice(members);
                }
                samples.iter_mut().for_each(|s| s.sort_unstable());
                assert_rows_give_the_samples(&mut from_sets, &samples, &format!("{at}, sets"));
                assert_rows_give_the_samples(&mut from_chunks, &samples, &format!("{at}, chunks"));
                // The count pass alone gives the loaded frequencies, and
                // leaves no samples behind for the next case's load.
                let mut want: Vec<u32> = from_chunks
                    .universe()
                    .map(|e| from_chunks.frequency(e) as u32)
                    .collect();
                let mut counts = Vec::new();
                let sets_in_order = order.iter().map(|e| (*e, sets[e].as_slice()));
                from_sets.count_sets(sets_in_order, &closures, &mut counts);
                want.sort_unstable();
                counts.sort_unstable();
                assert_eq!(counts, want, "{at}");
                assert_eq!(from_sets.num_samples(), 0, "{at}");

                let in_chunk = |e: &u32| c.chunks.iter().any(|ch| ch.1.contains(e));
                let hit_closure = (0..ell).filter(|&i| is_hit(i)).flat_map(|i| &c.closures[i]);
                closure_and_chunk += hit_closure.filter(|e| in_chunk(e)).count();
            }
        }
    }
    // Of the cases with a hit: [closures read from members, from rows].
    assert!(by_rows[0] >= 20 && by_rows[1] >= 20, "{by_rows:?}");
    assert!(unhit_only >= 50 && closure_and_chunk >= 1000);
}

/// Every sample `i` of `inc`, loaded with the sorted `samples`, comes out
/// of its class row as `samples[i]`, and its row-scored cost is
/// [`IncrementalCost::cost_of_set`]'s bit for bit.
fn assert_rows_give_the_samples(inc: &mut IncrementalCost, samples: &[Vec<u32>], at: &str) {
    for (i, s) in samples.iter().enumerate() {
        assert_eq!(&inc.sample(i), s, "{at}, sample {i}");
        let by_row = inc.sample_cost_below(i, f64::INFINITY).map(f64::to_bits);
        assert_eq!(
            by_row,
            Some(inc.cost_of_set(s).to_bits()),
            "{at}, sample {i}"
        );
    }
}

#[test]
fn local_search_from_outside_the_universe_matches_the_oracle() {
    let _fits = crate::fits_medians();
    for case in 0..240u64 {
        let samples = collection(case);
        let mut rng = Xoshiro256pp::from_stream(0x0575, case);
        let start: BTreeSet<u32> = (0..rng.random_range(0usize..10))
            .map(|_| rng.random_range(0..UNIVERSE))
            .chain(samples.iter().flatten().copied().take(3))
            .collect();
        let start: Vec<u32> = start.into_iter().collect();
        for rounds in [0, 1, 3] {
            let ours = local_search(&start, &samples, rounds);
            let want = oracle_local_search(&start, &samples, rounds);
            assert_eq!(ours.median, want.median, "case {case}");
            assert_eq!(ours.cost.to_bits(), want.cost.to_bits(), "case {case}");
        }
    }
}

/// One fit moves the `median.*` counters exactly as the oracle's fit does.
/// The counters are process-wide: the exclusive hold on
/// [`crate::MEDIAN_COUNTERS`] keeps every other median-fitting test out.
#[test]
fn median_counter_deltas_match_the_oracle() {
    let _alone = crate::MEDIAN_COUNTERS
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let samples = collection(7);
    let config = MedianConfig::default();
    let (_, ours) = counted(|| jaccard_median_budgeted(&samples, &config, &Deadline::unlimited()));
    let (_, want) = counted(|| median_budgeted(&samples, &config, &Deadline::unlimited()));
    assert!(want.iter().any(|(k, _)| k == "median.local_search_rounds"));
    assert_eq!(ours, want);
}

/// `f`'s value, and the `median.*` counters it moved with their deltas.
/// The counters are process-wide, so only a test that holds
/// [`crate::MEDIAN_COUNTERS`] exclusively may call this.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Vec<(String, u64)>) {
    let snapshot = || -> Vec<(String, u64)> {
        let all = soi_obs::metrics::registry().counter_values();
        all.into_iter()
            .filter(|(k, _)| k.starts_with("median."))
            .collect()
    };
    let before = snapshot();
    let value = f();
    let old = |k: &str| before.iter().find(|(n, _)| n == k).map_or(0, |(_, v)| *v);
    let moved = snapshot().into_iter().map(|(k, v)| {
        let delta = v - old(&k);
        (k, delta)
    });
    (value, moved.filter(|(_, d)| *d > 0).collect())
}

/// `samples` with each sample repeated one to four times, then shuffled:
/// a collection whose classes weigh more than one sample each.
fn duplicated(samples: &[Vec<u32>], rng: &mut Xoshiro256pp) -> Vec<Vec<u32>> {
    let mut dup = Vec::new();
    for s in samples {
        let times = rng.random_range(1usize..5);
        dup.extend(std::iter::repeat_n(s, times).cloned());
    }
    for j in (1..dup.len()).rev() {
        dup.swap(j, rng.random_range(0..j + 1));
    }
    dup
}

/// A fit of `samples` on `inc` loaded from whole sets, or from their
/// world sets with no closure.
fn fit_loaded(
    inc: &mut IncrementalCost,
    samples: &[Vec<u32>],
    by_sets: bool,
    config: &MedianConfig,
    deadline: &Deadline,
) -> Bits {
    let ell = samples.len();
    if by_sets {
        let chunks: Vec<(u32, Vec<u32>)> = (0..).zip(samples.iter().cloned()).collect();
        let (order, sets) = world_sets(ell, &chunks);
        let hits = vec![0; ell.div_ceil(64)];
        let closures = Closures {
            hits: &hits,
            elems: &[],
            rows: &[],
            members: |_: usize| &[][..],
        };
        inc.load_sets(
            ell,
            order.iter().map(|e| (*e, sets[e].as_slice())),
            &closures,
        );
    } else {
        inc.reset(samples);
    }
    bits(jaccard_median_loaded(inc, config, deadline))
}

/// Each collection again with its samples duplicated and permuted, loaded
/// from whole sets and from world sets: medians, cost bits, `Outcome`
/// progress and `median.*` deltas equal the oracle's, which runs one lane
/// per sample, at every tick budget. Again with widened margins, where
/// every site settles each comparison from the in-order values.
#[test]
fn duplicated_collections_match_the_oracle() {
    let _alone = crate::MEDIAN_COUNTERS
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut inc = IncrementalCost::default();
    let mut folded = 0;
    for (widen, cases, budgets) in [(1.0, 0..120u64, &BUDGETS[..]), (1e15, 0..40, &[None][..])] {
        WIDEN.set(widen);
        DECISIONS.set([[0; 2]; 3]);
        for case in cases {
            let mut rng = Xoshiro256pp::from_stream(0xD0B1E, case);
            let samples = duplicated(&collection(case), &mut rng);
            for config in &CONFIGS {
                for &budget in budgets {
                    let deadline = || budget.map_or_else(Deadline::unlimited, Deadline::ticks);
                    let want = counted(|| bits(median_budgeted(&samples, config, &deadline())));
                    for by_sets in [false, true] {
                        let got = counted(|| {
                            fit_loaded(&mut inc, &samples, by_sets, config, &deadline())
                        });
                        let at = format!("case {case}, {config:?}, budget {budget:?}");
                        assert_eq!(got, want, "{at}, by sets: {by_sets}, widen {widen}");
                    }
                }
            }
            folded += samples.len() - inc.num_classes();
        }
        // Per site, [settled, fell back]: sweep, input set, toggle.
        let sites = DECISIONS.get();
        assert!(sites.iter().all(|s| s[0] + s[1] > 0), "{sites:?}");
        if widen > 1.0 {
            assert!(sites.iter().all(|s| s[1] > 0), "{sites:?}");
        }
    }
    WIDEN.set(1.0);
    assert!(
        folded >= 1000,
        "{folded} samples folded into an earlier one"
    );
}

/// Each sample's class by brute force: the place of its set's first
/// occurrence among the distinct sets.
fn brute_force_classes(samples: &[Vec<u32>]) -> Vec<usize> {
    let mut firsts: Vec<&Vec<u32>> = Vec::new();
    let mut class = |s| {
        firsts.iter().position(|&f| f == s).unwrap_or_else(|| {
            firsts.push(s);
            firsts.len() - 1
        })
    };
    samples.iter().map(&mut class).collect()
}

/// ℓ worlds for [`IncrementalCost::load_sets`], each drawn from a palette
/// of a few patterns so that most repeat: a closure (empty or not), hit or
/// not, and other elements, disjoint from a hit closure. Some patterns
/// have empty samples, some only the source `0`, and some pairs have
/// equal samples from different closures, or one from a hit closure and
/// one from no hit at all.
fn palette_case(ell: usize, case: u64) -> (ClosureCase, Vec<Vec<u32>>) {
    let mut rng = Xoshiro256pp::from_stream(0xC1A55, case);
    let set = |rng: &mut Xoshiro256pp, lo: u32, len: usize| -> Vec<u32> {
        let set: BTreeSet<u32> = (0..len).map(|_| lo + rng.random_range(0..40)).collect();
        set.into_iter().collect()
    };
    // (closure, hit, others)
    let mut patterns: Vec<(Vec<u32>, bool, Vec<u32>)> = vec![
        (Vec::new(), false, Vec::new()),
        (Vec::new(), false, vec![0]),
        (set(&mut rng, 1, 6), false, vec![0]),
    ];
    for _ in 0..rng.random_range(1usize..8) {
        let len = rng.random_range(0usize..10);
        let closure = set(&mut rng, 1, len);
        let hit = !closure.is_empty() && rng.random_range(0u32..3) != 0;
        let len = rng.random_range(0usize..6);
        let others = set(&mut rng, 1, len);
        let others = others
            .into_iter()
            .filter(|e| !hit || closure.binary_search(e).is_err());
        patterns.push((closure.clone(), hit, others.collect()));
        if hit && closure.len() > 1 {
            // The same sample from a smaller closure, and from no hit.
            let (small, rest) = closure.split_at(closure.len() / 2);
            let mut with_rest: Vec<u32> = patterns[patterns.len() - 1].2.clone();
            with_rest.extend_from_slice(rest);
            with_rest.sort_unstable();
            patterns.push((small.to_vec(), true, with_rest.clone()));
            with_rest.extend_from_slice(small);
            with_rest.sort_unstable();
            patterns.push((closure.clone(), false, with_rest));
        }
    }
    let picks: Vec<usize> = (0..ell)
        .map(|_| rng.random_range(0..patterns.len()))
        .collect();
    let closures: Vec<Vec<u32>> = picks.iter().map(|&p| patterns[p].0.clone()).collect();
    let words = ell.div_ceil(64);
    let mut hits = vec![0u64; words];
    for (i, &p) in picks.iter().enumerate() {
        if patterns[p].1 {
            hits[i / 64] |= 1 << (i % 64);
        }
    }
    let mut elems: Vec<u32> = closures.iter().flatten().copied().collect();
    elems.sort_unstable();
    elems.dedup();
    let mut rows = vec![0u64; elems.len() * words];
    for (at, e) in elems.iter().enumerate() {
        for (i, c) in closures.iter().enumerate() {
            if c.binary_search(e).is_ok() {
                rows[at * words + i / 64] |= 1 << (i % 64);
            }
        }
    }
    let chunks = (0..).zip(picks.iter().map(|&p| patterns[p].2.clone()));
    let samples = picks.iter().map(|&p| {
        let (closure, hit, others) = &patterns[p];
        let mut s = others.clone();
        if *hit {
            s.extend_from_slice(closure);
        }
        s.sort_unstable();
        s
    });
    let samples = samples.collect();
    let case = ClosureCase {
        closures,
        hits,
        elems,
        rows,
        chunks: chunks.collect(),
    };
    (case, samples)
}

/// The classes of a load are the groups of equal samples, numbered by
/// their first sample — from whole sets, and from world sets with hit
/// closures (read from their members or from the rows), unhit ones and
/// none — whether the fold's keys spread the samples over its table or
/// all collide.
#[test]
fn classes_are_the_groups_of_equal_samples() {
    let mut inc = IncrementalCost::default();
    let (mut from_closures, mut distinct_closures) = (0, 0);
    for flat in [false, true] {
        FLAT_KEYS.set(flat);
        let mut case = 0;
        for ell in [1, 63, 64, 65, 130, 256] {
            for _ in 0..8 {
                case += 1;
                let (c, samples) = palette_case(ell, case);
                let want = brute_force_classes(&samples);
                let classes = |inc: &IncrementalCost| -> Vec<usize> {
                    (0..ell).map(|i| inc.class_of(i)).collect()
                };
                inc.reset(&samples);
                assert_eq!(classes(&inc), want, "ℓ = {ell}, case {case}, from sets");
                let (order, sets) = world_sets(ell, &c.chunks);
                let closures = Closures {
                    hits: &c.hits,
                    elems: &c.elems,
                    rows: &c.rows,
                    members: |i: usize| c.closures[i].as_slice(),
                };
                inc.load_sets(
                    ell,
                    order.iter().map(|e| (*e, sets[e].as_slice())),
                    &closures,
                );
                assert_eq!(
                    classes(&inc),
                    want,
                    "ℓ = {ell}, case {case}, from world sets"
                );
                let is_hit = |i: usize| c.hits[i / 64] >> (i % 64) & 1 == 1;
                for (i, &class) in want.iter().enumerate() {
                    let first = want.iter().position(|&k| k == class).unwrap();
                    from_closures += usize::from(is_hit(i) || is_hit(first));
                    distinct_closures += usize::from(c.closures[i] != c.closures[first]);
                }
            }
        }
    }
    FLAT_KEYS.set(false);
    assert!(from_closures >= 500 && distinct_closures >= 500);
}

/// The element [`scale_collection`] adds as a twin: above every node id of
/// its graph.
const TWIN: u32 = 300;

/// ℓ cascades of node 0 on a supercritical G(300, 1500) at p = 0.3, drawn
/// as `bench_median` draws them.
fn cascades(ell: usize) -> Result<Vec<Vec<u32>>, GraphError> {
    let mut rng = Xoshiro256pp::seed_from_u64(ell as u64);
    let pg = ProbGraph::fixed(gen::gnm(TWIN as usize, 5 * TWIN as usize, &mut rng), 0.3)?;
    Ok(CascadeSampler::sample_many(&pg, &[0], ell, ell as u64))
}

/// [`cascades`] with exact ties built in: every seventh sample repeats an
/// earlier one, [`TWIN`] joins exactly the samples holding the last element
/// of the sweep's winner (two elements with identical postings), and
/// sample 0 — an input-set candidate in every fit — is the sweep's winner.
fn scale_collection(ell: usize) -> Result<Vec<Vec<u32>>, GraphError> {
    let mut samples = cascades(ell)?;
    for i in (7..ell).step_by(7) {
        samples[i] = samples[i / 2].clone();
    }
    let inc = IncrementalCost::new(&samples);
    let mut order: Vec<u32> = inc.universe().collect();
    order.sort_by_key(|&e| std::cmp::Reverse(inc.frequency(e)));
    let twin_of = order[frequency_sweep(&samples).median.len().max(1) - 1];
    for s in &mut samples {
        if s.binary_search(&twin_of).is_ok() {
            s.push(TWIN);
        }
    }
    for _ in 0..4 {
        samples[0] = frequency_sweep(&samples).median;
    }
    assert_eq!(samples[0], frequency_sweep(&samples).median, "ℓ = {ell}");
    Ok(samples)
}

/// ℓ copies of the largest of [`cascades`]`(ℓ)`, `T`, half of them (drawn
/// at random) with [`TWIN`] added: the sweep's prefixes `T` and
/// `T + TWIN` cost exactly the same, as do both input sets.
fn tied_collection(ell: usize) -> Result<Vec<Vec<u32>>, GraphError> {
    let core = cascades(ell)?.into_iter().max_by_key(Vec::len);
    let core = core.unwrap_or_default();
    let mut holds: Vec<bool> = (0..ell).map(|i| i < ell / 2).collect();
    let mut rng = Xoshiro256pp::seed_from_u64(0x71ED);
    for j in (1..ell).rev() {
        holds.swap(j, rng.random_range(0..j + 1));
    }
    let with_twin = |&held: &bool| {
        let mut s = core.clone();
        s.extend(held.then_some(TWIN));
        s
    };
    Ok(holds.iter().map(with_twin).collect())
}

/// At the pipeline's ℓ, with built exact ties, medians, cost bits and
/// `Outcome` progress equal the oracle's at every tick budget, and every
/// site of the decision rule both settles comparisons from its bounds and
/// falls back to the in-order values. The local-search fallback shows only
/// with widened margins: no toggle's cost change lands within its margin
/// (under 10⁻¹² at ℓ ≤ 1000) of the −10⁻¹² tolerance.
#[test]
fn scale_collections_match_the_oracle_on_both_branches() {
    let _fits = crate::fits_medians();
    let mut collections = Vec::new();
    for ell in [64, 256, 1000] {
        collections.push(scale_collection(ell).unwrap());
        collections.push(tied_collection(ell).unwrap());
    }
    for (widen, budgets) in [(1.0, &BUDGETS[..]), (1e9, &[None][..])] {
        WIDEN.set(widen);
        DECISIONS.set([[0; 2]; 3]);
        for samples in &collections {
            for config in &CONFIGS[..2] {
                for &budget in budgets {
                    let deadline = || budget.map_or_else(Deadline::unlimited, Deadline::ticks);
                    let want = bits(median_budgeted(samples, config, &deadline()));
                    let got = bits(jaccard_median_budgeted(samples, config, &deadline()));
                    let ell = samples.len();
                    assert_eq!(got, want, "ℓ = {ell}, {config:?}, budget {budget:?}");
                }
            }
        }
        // Per site, [settled, fell back]: sweep, input set, toggle.
        let [sweep, input_set, toggle] = DECISIONS.get();
        let ran = |[settled, fell_back]: [u64; 2]| settled > 0 && fell_back > 0;
        assert!(
            ran(sweep) && ran(input_set),
            "widen {widen}: {sweep:?} {input_set:?}"
        );
        assert!(toggle[0] > 0, "widen {widen}: {toggle:?}");
        assert!(toggle[1] > 0 || widen == 1.0, "widen {widen}: {toggle:?}");
    }
    WIDEN.set(1.0);
}

/// Every estimate the fit decides from lies within its margin of the
/// in-order value — a cost, a set's cost and a toggle's cost change,
/// along random walks over [`scale_collection`]s, whose every seventh
/// sample repeats, over the same duplicated and permuted (classes of up to
/// a dozen samples), and over [`tied_collection`]s (two classes of ℓ/2) —
/// and some differ from it, so the margins are load-bearing.
#[test]
fn estimates_stay_within_their_margins() {
    let _fits = crate::fits_medians(); // `scale_collection` runs sweeps
    let mut inc = IncrementalCost::default();
    let (mut differ, mut weighted) = (0, 0);
    for ell in [64, 256, 1000] {
        let mut rng = Xoshiro256pp::from_stream(0xE57, ell as u64);
        let scale = scale_collection(ell).unwrap();
        let twice = duplicated(&duplicated(&scale, &mut rng), &mut rng);
        for samples in [scale, twice, tied_collection(ell).unwrap()] {
            inc.reset(&samples);
            let ell = samples.len();
            weighted += ell - inc.num_classes();
            let universe: Vec<u32> = inc.universe().collect();
            for _ in 0..200 {
                let mut pick = || universe[rng.random_range(0..universe.len())];
                let (e, toggled) = (pick(), pick());
                if inc.contains(e) {
                    inc.remove(e);
                } else {
                    inc.insert(e);
                }
                let set: BTreeSet<u32> = (0..rng.random_range(0..universe.len()))
                    .map(|_| universe[rng.random_range(0..universe.len())])
                    .collect();
                let set: Vec<u32> = set.into_iter().collect();
                let set_estimate = inc.cost_of_set_bounded(&set);
                let pairs = [
                    (inc.cost(), inc.cost_bounded()),
                    (inc.toggle_delta(toggled), inc.toggle_delta_bounded(toggled)),
                    (inc.cost_of_set(&set), set_estimate),
                ];
                for (x, estimate) in pairs {
                    assert!((x - estimate.value).abs() <= estimate.margin, "ℓ = {ell}");
                    differ += usize::from(x != estimate.value);
                }
            }
        }
    }
    assert!(differ > 0 && weighted > 1000, "{differ}, {weighted}");
}
