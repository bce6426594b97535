//! The differential oracle for the median evaluator: the evaluator and
//! pipeline of commit a89153b, renamed and stripped of comments, debug
//! asserts and log events, otherwise verbatim — a `HashMap`
//! inverted index, an ℓ-vector allocated per `toggle_delta`, and every
//! input-set candidate scored by ℓ sorted merges (`empirical_cost`). The
//! local-id [`IncrementalCost`], [`IncrementalCost::cost_of_set`] and the
//! median pipeline built on them must reproduce it bit for bit: medians,
//! cost bits, `Outcome` progress and `median.*` counters — whether the
//! evaluator is loaded from whole sets or from the chunks the cascade
//! index hands over ([`IncrementalCost::load`]). At the pipeline's ℓ,
//! on cascades with built exact ties, the same holds on both branches of
//! every bound-decided comparison ([`crate::bound`]).

use crate::bound::{DECISIONS, WIDEN};
use crate::cost::{empirical_cost, IncrementalCost};
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
    let mut done = 0u64;
    let (mut inc, mut best, order_len, universe_size) =
        sweep_budgeted(samples, config, deadline, &mut done);
    let stride = samples.len().div_ceil(24).max(1);
    let input_evals = samples.len().div_ceil(stride) as u64;
    let total =
        order_len as u64 + input_evals + config.local_search_rounds as u64 * universe_size as u64;
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
    config: &MedianConfig,
    deadline: &Deadline,
    done: &mut u64,
) -> (HashCost, MedianResult, usize, usize) {
    let mut inc = HashCost::new(samples);
    let min_count = ((config.min_frequency * samples.len() as f64).ceil() as usize).max(1);
    let universe_size = inc.universe().count();
    let mut order: Vec<(u32, u32)> = inc
        .universe()
        .map(|e| (e, inc.frequency(e) as u32))
        .filter(|&(_, f)| f as usize >= min_count)
        .collect();
    order.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    soi_obs::counter_add!("median.prefix_evals", order.len());
    soi_obs::counter_add!("median.pruned_elements", universe_size - order.len());
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
    (inc, best, order.len(), universe_size)
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

const CONFIGS: [MedianConfig; 4] = [
    MedianConfig {
        local_search_rounds: 2,
        min_frequency: 0.0,
    },
    MedianConfig {
        local_search_rounds: 0,
        min_frequency: 0.0,
    },
    MedianConfig {
        local_search_rounds: 2,
        min_frequency: 0.4,
    },
    MedianConfig {
        local_search_rounds: 5,
        min_frequency: 0.9,
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
                let in_place = bits(jaccard_median_loaded(
                    &mut reused,
                    config,
                    &deadline(),
                    |i, out| out.extend_from_slice(&samples[i]),
                ));
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
/// oracle's inverted index — and a fit on it, whose input-set candidates
/// arrive unsorted, equals the oracle's at every tick budget.
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

        for config in &CONFIGS {
            for budget in [Some(0), Some(1), Some(7), Some(50), None] {
                let deadline = || budget.map_or_else(Deadline::unlimited, Deadline::ticks);
                let want = bits(median_budgeted(&samples, config, &deadline()));
                load(&mut from_chunks);
                let got = bits(jaccard_median_loaded(
                    &mut from_chunks,
                    config,
                    &deadline(),
                    |i, out| {
                        for (_, c) in chunks.iter().filter(|c| c.0 as usize == i) {
                            out.extend_from_slice(c);
                        }
                    },
                ));
                assert_eq!(got, want, "case {case}, {config:?}, budget {budget:?}");
            }
        }
    }
    assert!(
        multi_chunk >= 1000 && singletons >= 100,
        "{multi_chunk} multi-chunk and {singletons} singleton samples"
    );
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
    let snapshot = || -> Vec<(String, u64)> {
        let all = soi_obs::metrics::registry().counter_values();
        all.into_iter()
            .filter(|(k, _)| k.starts_with("median."))
            .collect()
    };
    let delta = |before: &[(String, u64)], after: &[(String, u64)]| -> Vec<(String, u64)> {
        let old = |k: &str| before.iter().find(|(n, _)| n == k).map_or(0, |(_, v)| *v);
        after
            .iter()
            .map(|(k, v)| (k.clone(), v - old(k)))
            .filter(|(_, d)| *d > 0)
            .collect()
    };
    let s0 = snapshot();
    jaccard_median_budgeted(&samples, &config, &Deadline::unlimited());
    let s1 = snapshot();
    median_budgeted(&samples, &config, &Deadline::unlimited());
    let s2 = snapshot();
    let (ours, want) = (delta(&s0, &s1), delta(&s1, &s2));
    assert!(want.iter().any(|(k, _)| k == "median.local_search_rounds"));
    assert_eq!(ours, want);
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
/// in-order value — a cost (a set's cost sums the same way) and a toggle's
/// cost change, along random walks over [`scale_collection`]s — and some
/// differ from it, so the margins are load-bearing.
#[test]
fn estimates_stay_within_their_margins() {
    let mut inc = IncrementalCost::default();
    let mut differ = 0;
    for ell in [64, 256, 1000] {
        let samples = scale_collection(ell).unwrap();
        inc.reset(&samples);
        let universe: Vec<u32> = inc.universe().collect();
        let mut rng = Xoshiro256pp::from_stream(0xE57, ell as u64);
        for _ in 0..200 {
            let mut pick = || universe[rng.random_range(0..universe.len())];
            let (e, toggled) = (pick(), pick());
            if inc.contains(e) {
                inc.remove(e);
            } else {
                inc.insert(e);
            }
            let pairs = [
                (inc.cost(), inc.cost_bounded()),
                (inc.toggle_delta(toggled), inc.toggle_delta_bounded(toggled)),
            ];
            for (x, estimate) in pairs {
                assert!((x - estimate.value).abs() <= estimate.margin, "ℓ = {ell}");
                differ += usize::from(x != estimate.value);
            }
        }
    }
    assert!(differ > 0);
}
