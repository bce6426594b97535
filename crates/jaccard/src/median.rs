//! Jaccard-median algorithms (Problem 2 of the paper).
//!
//! Given sampled cascades `S_1, …, S_ℓ`, find a set minimizing the mean
//! Jaccard distance. The problem is NP-hard (Chierichetti et al., SODA
//! 2010); the paper uses the practical `1 + O(ε)` algorithm from §3.2 of
//! that work. Our pipeline:
//!
//! 1. **Frequency-prefix sweep** — order elements by sample frequency
//!    (descending) and evaluate *every* prefix of that order with the
//!    incremental cost evaluator. The majority set (elements present in
//!    ≥ ½ the samples, cost at most `ε + O(ε^{3/2})`) is one of these
//!    prefixes, so the sweep can only improve on it.
//! 2. **Local search** — bounded single-element toggles, accepting strict
//!    improvements, to polish the sweep result.
//!
//! Each comparison — a prefix against the best so far, an input set
//! against the sweep's winner, a toggle's cost change against its
//! tolerance — is decided from an estimate with a proven margin (the same
//! terms summed in vectorisable lanes: `2γ_ℓ + 3u` for a cost,
//! `4γ_{2ℓ} + 5u` for a toggle, `crate::bound`), and from the in-order
//! values only when the margin straddles the threshold. So every median,
//! cost bit and tick equals an in-order evaluation's.
//!
//! An exact exponential solver over tiny universes anchors the tests.

use crate::bound::{decide, Bounded, Site};
use crate::cost::{empirical_cost, IncrementalCost};
use soi_util::runtime::{Deadline, Outcome};

/// Tuning for [`jaccard_median`].
#[derive(Clone, Copy, Debug)]
pub struct MedianConfig {
    /// Maximum local-search passes over the candidate pool (0 disables
    /// polishing; the sweep result is returned as-is).
    pub local_search_rounds: usize,
    /// Elements with sample frequency strictly below this are never
    /// considered (they can still only help when ε is large; pruning them
    /// bounds the sweep on heavy-tailed cascade collections). Expressed as
    /// a fraction of ℓ in `[0, 1)`.
    pub min_frequency: f64,
}

impl Default for MedianConfig {
    fn default() -> Self {
        MedianConfig {
            local_search_rounds: 2,
            min_frequency: 0.0,
        }
    }
}

/// A median candidate with its empirical cost.
#[derive(Clone, Debug, PartialEq)]
pub struct MedianResult {
    /// The median set, canonical (sorted ascending, deduplicated).
    pub median: Vec<u32>,
    /// Its empirical expected cost `ρ̂(median)` on the input samples.
    pub cost: f64,
}

/// Computes an approximate Jaccard median with default configuration
/// (frequency sweep + 2 local-search rounds).
///
/// ```
/// use soi_jaccard::jaccard_median;
/// let samples = vec![vec![1, 2], vec![2, 3], vec![2]];
/// let r = jaccard_median(&samples);
/// assert_eq!(r.median, vec![2]);          // the stable core
/// assert!((r.cost - 1.0 / 3.0).abs() < 1e-12);
/// ```
pub fn jaccard_median(samples: &[Vec<u32>]) -> MedianResult {
    jaccard_median_with(samples, &MedianConfig::default())
}

/// Computes an approximate Jaccard median with explicit configuration.
///
/// Candidates considered: every prefix of the frequency order (includes
/// the majority set), plus a spread of the input sets themselves (the
/// best input set is a classic 2-approximation for medians in any metric
/// space, and rescues clustered instances where no frequency prefix is
/// good); the best candidate is then polished by local search.
pub fn jaccard_median_with(samples: &[Vec<u32>], config: &MedianConfig) -> MedianResult {
    jaccard_median_budgeted(samples, config, &Deadline::unlimited()).value()
}

/// Budgeted [`jaccard_median_with`]: one tick per candidate evaluation
/// (frequency prefix, input-set candidate, or local-search toggle). On
/// expiry returns the best candidate found so far — always a valid
/// median candidate with a verifiable cost, just possibly less polished.
pub fn jaccard_median_budgeted(
    samples: &[Vec<u32>],
    config: &MedianConfig,
    deadline: &Deadline,
) -> Outcome<MedianResult> {
    let mut inc = IncrementalCost::new(samples);
    jaccard_median_loaded(&mut inc, config, deadline, |i, out| {
        out.extend_from_slice(&samples[i])
    })
}

/// [`jaccard_median_budgeted`] on an evaluator already loaded with the ℓ
/// samples (with `C = ∅`), so a caller can load it from wherever its
/// samples live. `input_set(i, out)` appends the elements of sample `i`
/// to the empty `out`, in any order; the fit asks only for the
/// ⌈ℓ/stride⌉ input-set candidates.
pub fn jaccard_median_loaded(
    inc: &mut IncrementalCost,
    config: &MedianConfig,
    deadline: &Deadline,
    mut input_set: impl FnMut(usize, &mut Vec<u32>),
) -> Outcome<MedianResult> {
    let ell = inc.num_samples();
    if ell == 0 {
        return Outcome::Completed(MedianResult {
            median: Vec::new(),
            cost: 0.0,
        });
    }
    soi_obs::counter_add!("median.calls", 1);
    soi_obs::event!(soi_obs::Level::Debug, "median fit over {ell} sample sets");
    let mut done = 0u64;
    let sweep = frequency_sweep_budgeted(inc, config, deadline, &mut done);
    let mut best = sweep.best;
    let stride = ell.div_ceil(24).max(1);
    let input_evals = ell.div_ceil(stride) as u64;
    // Planned candidate evaluations; local search may converge early, so
    // its contribution is an upper bound (the toggle pool is a subset of
    // the sample universe).
    let total = sweep.order_len as u64
        + input_evals
        + config.local_search_rounds as u64 * sweep.universe_size as u64;

    // Evaluate up to 24 evenly-spaced input sets as candidates; only a
    // winner is sorted into a canonical median.
    let mut s = Vec::new();
    for i in (0..ell).step_by(stride) {
        if !deadline.tick(1) {
            return deadline.outcome(best, done, total);
        }
        done += 1;
        soi_obs::counter_add!("median.input_set_evals", 1);
        s.clear();
        input_set(i, &mut s);
        if let Some(cost) = inc.cost_of_set_below(&s, best.cost - 1e-15) {
            let mut median = s.clone();
            median.sort_unstable();
            best = MedianResult { median, cost };
        }
    }

    if config.local_search_rounds > 0 {
        // An input set won: load it into the evaluator before polishing.
        if inc.candidate() != best.median {
            for e in inc.candidate() {
                inc.remove(e);
            }
            for &e in &best.median {
                inc.insert(e);
            }
        }
        best = local_search_inner(inc, best, config.local_search_rounds, deadline, &mut done);
    }
    deadline.outcome(best, done, total)
}

/// The majority median: every element present in at least half of the
/// samples (`≥ ⌈ℓ/2⌉`). Chierichetti et al. show its cost is at most
/// `ε + O(ε^{3/2})` where `ε` is the optimum.
pub fn majority_median(samples: &[Vec<u32>]) -> Vec<u32> {
    let inc = IncrementalCost::new(samples);
    let threshold = samples.len().div_ceil(2);
    let majority = inc.universe().filter(|&e| inc.frequency(e) >= threshold);
    majority.collect()
}

/// The frequency-prefix sweep alone (no local search), returning the best
/// prefix of the frequency-descending element order.
pub fn frequency_sweep(samples: &[Vec<u32>]) -> MedianResult {
    if samples.is_empty() {
        return MedianResult {
            median: Vec::new(),
            cost: 0.0,
        };
    }
    let mut done = 0u64;
    frequency_sweep_budgeted(
        &mut IncrementalCost::new(samples),
        &MedianConfig::default(),
        &Deadline::unlimited(),
        &mut done,
    )
    .best
}

/// Sweep result handed back to the full pipeline (which keeps the
/// evaluator, loaded with the best prefix): the best prefix and the unit
/// counts the budgeted caller folds into its progress accounting.
struct SweepState {
    best: MedianResult,
    order_len: usize,
    universe_size: usize,
}

/// The sweep on a freshly loaded evaluator (`C = ∅`).
fn frequency_sweep_budgeted(
    inc: &mut IncrementalCost,
    config: &MedianConfig,
    deadline: &Deadline,
    done: &mut u64,
) -> SweepState {
    // Elements ordered by descending frequency; ties by ascending id for
    // determinism.
    let min_count = ((config.min_frequency * inc.num_samples() as f64).ceil() as usize).max(1);
    let universe_size = inc.universe().count();
    let mut order: Vec<(u32, u32)> = inc
        .universe()
        .map(|e| (e, inc.frequency(e) as u32))
        .filter(|&(_, f)| f as usize >= min_count)
        .collect();
    order.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    soi_obs::counter_add!("median.prefix_evals", order.len());
    soi_obs::counter_add!("median.pruned_elements", universe_size - order.len());

    // Evaluate every prefix, starting with the empty set. The best cost is
    // carried as a bound; a straddled comparison takes both sides exactly,
    // the best's from its prefix as a set.
    let mut best = Bounded::exact(inc.cost());
    let mut best_len = 0usize;
    let mut inserted = 0usize;
    for &(e, _) in order.iter() {
        if !deadline.tick(1) {
            break;
        }
        inc.insert(e);
        inserted += 1;
        *done += 1;
        let mut c = inc.cost_bounded();
        if decide(Site::Sweep, c, best.minus(1e-15), || {
            if best.margin > 0.0 {
                let prefix: Vec<u32> = order[..best_len].iter().map(|p| p.0).collect();
                best = Bounded::exact(inc.cost_of_set(&prefix));
            }
            c = Bounded::exact(inc.cost());
            c.value < best.value - 1e-15
        }) {
            best = c;
            best_len = inserted;
        }
    }
    // Rewind to the best prefix, and take its cost in order.
    for &(e, _) in order[best_len..inserted].iter().rev() {
        inc.remove(e);
    }
    let median = inc.candidate();
    let cost = inc.cost();
    debug_assert_eq!(inc.cost_of_set(&median).to_bits(), cost.to_bits());
    SweepState {
        best: MedianResult { median, cost },
        order_len: order.len(),
        universe_size,
    }
}

/// Local search from an explicit starting candidate: repeatedly applies
/// the single-element toggle with the largest strict improvement, for at
/// most `rounds` full passes over the candidate pool.
pub fn local_search(initial: &[u32], samples: &[Vec<u32>], rounds: usize) -> MedianResult {
    let mut inc = IncrementalCost::new(samples);
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
    inc: &mut IncrementalCost,
    mut best: MedianResult,
    rounds: usize,
    deadline: &Deadline,
    done: &mut u64,
) -> MedianResult {
    // Pool: every element of every sample, plus whatever the starting
    // candidate already contains — elements outside the sample universe
    // can never help (they grow unions without growing intersections) but
    // must stay toggleable so a bad starting candidate can shed them.
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
            let estimate = inc.toggle_delta_bounded(e);
            if decide(Site::Toggle, estimate, Bounded::exact(-1e-12), || {
                inc.toggle_delta(e) < -1e-12
            }) {
                soi_obs::counter_add!("median.local_search_toggles", 1);
                // Apply the improving toggle immediately (first-improvement
                // strategy — cheaper than best-improvement and converges to
                // the same local optima class).
                if inc.contains(e) {
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

/// Exact Jaccard median by exhaustive search over all subsets of the
/// universe (union of samples). Only for universes of ≤ 22 elements.
pub fn exact_median_bruteforce(samples: &[Vec<u32>]) -> MedianResult {
    let mut universe: Vec<u32> = samples.iter().flatten().copied().collect();
    universe.sort_unstable();
    universe.dedup();
    assert!(universe.len() <= 22, "brute force limited to 22 elements");
    let mut best = MedianResult {
        median: Vec::new(),
        cost: empirical_cost(&[], samples),
    };
    for mask in 1u32..(1 << universe.len()) {
        let candidate: Vec<u32> = universe
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, &e)| e)
            .collect();
        let c = empirical_cost(&candidate, samples);
        if c < best.cost - 1e-15 {
            best = MedianResult {
                median: candidate,
                cost: c,
            };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_yield_that_set() {
        let _fits = crate::fits_medians();
        let samples = vec![vec![1, 2, 3]; 5];
        let r = jaccard_median(&samples);
        assert_eq!(r.median, vec![1, 2, 3]);
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn empty_inputs() {
        let _fits = crate::fits_medians();
        let r = jaccard_median(&[]);
        assert!(r.median.is_empty());
        assert_eq!(r.cost, 0.0);
        // All-empty samples: ∅ is optimal with cost 0.
        let r = jaccard_median(&[vec![], vec![]]);
        assert!(r.median.is_empty());
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn majority_threshold() {
        // Element 1 in 3/4 samples, element 2 in 2/4, element 3 in 1/4.
        let samples = vec![vec![1, 2], vec![1, 2], vec![1, 3], vec![4]];
        assert_eq!(majority_median(&samples), vec![1, 2]);
        // Odd ℓ: threshold is ⌈ℓ/2⌉ = 2 of 3.
        let samples = vec![vec![1], vec![1, 2], vec![2]];
        assert_eq!(majority_median(&samples), vec![1, 2]);
    }

    #[test]
    fn sweep_beats_or_matches_majority() {
        let _fits = crate::fits_medians();
        let samples = vec![
            vec![1, 2, 3, 4],
            vec![1, 2, 3],
            vec![1, 2],
            vec![1, 5],
            vec![6, 7],
        ];
        let maj = majority_median(&samples);
        let sweep = frequency_sweep(&samples);
        assert!(sweep.cost <= empirical_cost(&maj, &samples) + 1e-12);
    }

    #[test]
    fn known_small_instance() {
        let _fits = crate::fits_medians();
        // Samples {1,2},{2,3},{2}: the singleton {2} is optimal:
        // costs 0.5, 0.5, 0 → mean 1/3.
        let samples = vec![vec![1, 2], vec![2, 3], vec![2]];
        let exact = exact_median_bruteforce(&samples);
        assert_eq!(exact.median, vec![2]);
        assert!((exact.cost - 1.0 / 3.0).abs() < 1e-12);
        let ours = jaccard_median(&samples);
        assert_eq!(ours.median, vec![2]);
    }

    #[test]
    fn local_search_only_improves() {
        let _fits = crate::fits_medians();
        let samples = vec![vec![1, 2, 3], vec![2, 3, 4], vec![3, 4, 5]];
        let bad_start = vec![9, 10, 11];
        let polished = local_search(&bad_start, &samples, 5);
        assert!(polished.cost <= empirical_cost(&bad_start, &samples) + 1e-12);
        assert!(
            polished.cost <= 0.5,
            "should find something near {{3}}/{{2,3,4}}"
        );
    }

    #[test]
    fn min_frequency_pruning() {
        let _fits = crate::fits_medians();
        let samples = vec![vec![1, 2], vec![1, 3], vec![1, 4], vec![1, 5]];
        let config = MedianConfig {
            local_search_rounds: 0,
            min_frequency: 0.9,
        };
        let r = jaccard_median_with(&samples, &config);
        // Only element 1 survives the pruning.
        assert_eq!(r.median, vec![1]);
    }

    #[test]
    fn deterministic_output() {
        let _fits = crate::fits_medians();
        let samples = vec![vec![5, 6], vec![6, 7], vec![5, 7], vec![5, 6, 7]];
        let a = jaccard_median(&samples);
        let b = jaccard_median(&samples);
        assert_eq!(a, b);
    }

    /// Random sample collection for the property tests below: 1–6 sets
    /// over a 12-element universe, drawn from a per-case derived stream.
    fn sample_collection(case: u64) -> Vec<Vec<u32>> {
        use soi_util::rng::{Rng, Xoshiro256pp};
        use std::collections::BTreeSet;
        let mut rng = Xoshiro256pp::from_stream(0x3ED1A0, case);
        (0..rng.random_range(1usize..7))
            .map(|_| {
                let len = rng.random_range(0usize..7);
                let set: BTreeSet<u32> = (0..len).map(|_| rng.random_range(0u32..12)).collect();
                set.into_iter().collect()
            })
            .collect()
    }

    /// The pipeline's cost is never worse than majority's and within a
    /// modest factor of the true optimum on small instances. 64 seeded
    /// random cases.
    #[test]
    fn near_optimality_on_small_instances() {
        let _fits = crate::fits_medians();
        for case in 0..64u64 {
            let samples = sample_collection(case);
            let exact = exact_median_bruteforce(&samples);
            let ours = jaccard_median(&samples);
            let maj = empirical_cost(&majority_median(&samples), &samples);
            assert!(
                ours.cost <= maj + 1e-12,
                "worse than majority (case {case})"
            );
            // The guarantee is multiplicative with an ε-dependent factor:
            // 1 + O(ε). Use the theory-shaped bound (1 + 2ε*) — tight at
            // small ε, permissive on clustered high-ε instances where the
            // optimum itself is poor.
            assert!(
                ours.cost <= exact.cost * (1.0 + 2.0 * exact.cost) + 1e-9,
                "ours {} vs optimal {} (case {case})",
                ours.cost,
                exact.cost
            );
        }
    }

    #[test]
    fn budgeted_with_unlimited_deadline_matches_plain() {
        let _fits = crate::fits_medians();
        for case in 0..16u64 {
            let samples = sample_collection(case);
            let plain = jaccard_median(&samples);
            let budgeted =
                jaccard_median_budgeted(&samples, &MedianConfig::default(), &Deadline::unlimited());
            assert!(budgeted.is_complete());
            assert_eq!(budgeted.value(), plain, "case {case}");
        }
    }

    #[test]
    fn budgeted_partial_result_is_still_valid() {
        let _fits = crate::fits_medians();
        let samples = vec![vec![1, 2, 3], vec![2, 3, 4], vec![2, 3], vec![3, 4, 5]];
        // One tick: only the first prefix evaluation happens.
        let d = Deadline::ticks(1);
        let out = jaccard_median_budgeted(&samples, &MedianConfig::default(), &d);
        assert!(!out.is_complete());
        let progress = out.progress().unwrap();
        assert!(progress.done <= progress.total);
        assert!(progress.fraction() < 1.0);
        // The carried candidate still reports a verifiable cost.
        let r = out.value();
        assert!((r.cost - empirical_cost(&r.median, &samples)).abs() < 1e-9);
        // Zero budget: the empty-prefix candidate comes back.
        let out = jaccard_median_budgeted(&samples, &MedianConfig::default(), &Deadline::ticks(0));
        assert!(!out.is_complete());
    }

    /// Reported cost always matches a direct recomputation.
    #[test]
    fn reported_cost_is_verifiable() {
        let _fits = crate::fits_medians();
        for case in 64..128u64 {
            let samples = sample_collection(case);
            let r = jaccard_median(&samples);
            let direct = empirical_cost(&r.median, &samples);
            assert!((r.cost - direct).abs() < 1e-9, "case {case}");
        }
    }
}
