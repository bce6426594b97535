//! The lazy-greedy (CELF) candidate heap.
//!
//! Greedy maximization of a monotone submodular objective commits, each
//! round, the candidate with the largest marginal gain. Gains only shrink
//! as the solution grows, so a gain from an earlier round is an upper
//! bound: a candidate re-scored *this* round that still tops the heap
//! beats every stale bound below it and is the true argmax (Leskovec et
//! al.). [`LazyGreedy`] owns the heap, the tie-break and the staleness
//! stamps; the objective stays with the caller as a re-scoring closure, so
//! ticks, counters, commits and checkpoints live at the call site.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Entry {
    gain: f64,
    node: u32,
    /// Round in which `gain` was computed.
    round: usize,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    /// Gain descending, then node id ascending: `BinaryHeap` is a
    /// max-heap, so the node comparison is inverted.
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then(other.node.cmp(&self.node))
    }
}

/// A pull-style lazy-greedy heap over candidate nodes. Every
/// [`pop_best`](Self::pop_best) or [`pop_ranked`](Self::pop_ranked) call
/// is one selection round; gains pushed or re-scored in earlier rounds are
/// stale and are re-scored before they can win.
#[derive(Debug)]
pub struct LazyGreedy {
    heap: BinaryHeap<Entry>,
    round: usize,
}

impl LazyGreedy {
    /// An empty heap with room for `n` candidates.
    pub fn with_capacity(n: usize) -> Self {
        LazyGreedy {
            heap: BinaryHeap::with_capacity(n),
            round: 0,
        }
    }

    /// Adds candidate `node` (at most once per node) with its marginal
    /// gain against the caller's current solution.
    pub fn push(&mut self, node: u32, gain: f64) {
        let round = self.round;
        self.heap.push(Entry { gain, node, round });
    }

    /// Runs one round: re-scores stale tops with `rescore` until a
    /// candidate scored this round surfaces, then removes and returns it
    /// with its gain. `None` once the heap is drained, or as soon as
    /// `rescore` returns `None` (the caller's budget ran out) — the
    /// candidate it declined to score stays in the heap.
    pub fn pop_best(&mut self, rescore: impl FnMut(u32) -> Option<f64>) -> Option<(u32, f64)> {
        self.pop_ranked(0, rescore, |_| {})
    }

    /// [`pop_best`](Self::pop_best) that also ranks the round: it goes on
    /// re-scoring stale tops until `m` candidates scored this round have
    /// surfaced (or the heap is drained), hands their gains to `rank` best
    /// first, removes the winner and keeps the `m − 1` runners-up. `m = 0`
    /// ranks nothing and is `pop_best`.
    ///
    /// The ranking is the exact top `m` of the round, ties in ascending
    /// node order, when every stale gain is bit-for-bit at least its fresh
    /// value — an integer count over one constant divisor is. If `rescore`
    /// declines, every candidate popped this round goes back into the heap
    /// and `rank` is not called.
    pub fn pop_ranked(
        &mut self,
        m: usize,
        mut rescore: impl FnMut(u32) -> Option<f64>,
        mut rank: impl FnMut(f64),
    ) -> Option<(u32, f64)> {
        self.round += 1;
        let round = self.round;
        let mut best: Option<Entry> = None;
        let mut runners_up = Vec::new();
        while best.is_none() || runners_up.len() + 1 < m {
            let Some(top) = self.heap.pop() else { break };
            if top.round == round {
                if best.is_none() {
                    best = Some(top);
                } else {
                    runners_up.push(top);
                }
                continue;
            }
            let node = top.node;
            let Some(gain) = rescore(node) else {
                self.heap.push(top);
                self.heap.extend(best);
                self.heap.extend(runners_up);
                return None;
            };
            self.heap.push(Entry { gain, node, round });
        }
        let best = best?;
        if m > 0 {
            rank(best.gain);
        }
        for e in runners_up {
            rank(e.gain);
            self.heap.push(e);
        }
        Some((best.node, best.gain))
    }

    /// Makes the next [`pop_ranked`](Self::pop_ranked) continue the round
    /// a declined `rescore` stopped, so the gains that round re-scored stay
    /// fresh. Only for a caller whose objective has not changed since: one
    /// that declined to fetch what it needed, fetched it and retries.
    pub fn reopen_round(&mut self) {
        self.round -= 1;
    }

    /// The first `m` nodes in heap order (gain descending, node ascending)
    /// that `want` accepts, among the candidates whose gain is at least
    /// `floor`. The heap is unchanged. `O(p log n)` for the `p` candidates
    /// passed over.
    pub fn top_nodes(
        &mut self,
        m: usize,
        floor: f64,
        mut want: impl FnMut(u32) -> bool,
    ) -> Vec<u32> {
        let (mut nodes, mut passed) = (Vec::new(), Vec::new());
        while nodes.len() < m {
            let Some(top) = self.heap.pop() else { break };
            if top.gain < floor {
                self.heap.push(top);
                break;
            }
            if want(top.node) {
                nodes.push(top.node);
            }
            passed.push(top);
        }
        self.heap.extend(passed);
        nodes
    }

    /// Removes and returns the best candidate already re-scored in the
    /// current round, wherever it sits — for a caller whose `rescore` cap
    /// stopped [`pop_best`](Self::pop_best) but whose round must still
    /// commit something. `O(n)`.
    pub fn pop_fresh(&mut self) -> Option<(u32, f64)> {
        let best = self.heap.iter().filter(|e| e.round == self.round).max()?;
        let (node, gain) = (best.node, best.gain);
        self.heap.retain(|e| e.node != node);
        Some((node, gain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Xoshiro256pp};

    fn heap_of(gains: &[f64]) -> LazyGreedy {
        let mut lazy = LazyGreedy::with_capacity(gains.len());
        for (v, &g) in gains.iter().enumerate() {
            lazy.push(v as u32, g);
        }
        lazy
    }

    /// Drains `lazy` with a fixed score per node, returning the pop order.
    fn drain(lazy: &mut LazyGreedy, score: impl Fn(u32) -> f64) -> Vec<u32> {
        std::iter::from_fn(|| lazy.pop_best(|v| Some(score(v))))
            .map(|(v, _)| v)
            .collect()
    }

    #[test]
    fn lazy_selection_equals_exhaustive_argmax_on_random_coverage() {
        for seed in 0..20 {
            // 40 random subsets of a 64-element universe, as bit masks.
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let (n, k) = (40usize, 12);
            let sets: Vec<u64> = (0..n).map(|_| rng.next_u64() & rng.next_u64()).collect();
            let gain = |v: usize, covered: u64| f64::from((sets[v] & !covered).count_ones());

            let mut covered = 0u64;
            let mut lazy = heap_of(&(0..n).map(|v| gain(v, 0)).collect::<Vec<_>>());
            let mut lazy_picks = Vec::new();
            for _ in 0..k {
                let pick = lazy.pop_best(|v| Some(gain(v as usize, covered))).unwrap();
                covered |= sets[pick.0 as usize];
                lazy_picks.push(pick);
            }

            let (mut covered, mut taken) = (0u64, vec![false; n]);
            let mut exhaustive_picks = Vec::new();
            for _ in 0..k {
                let (g, v) = (0..n)
                    .filter(|&v| !taken[v])
                    .map(|v| (gain(v, covered), v))
                    .max_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)))
                    .unwrap();
                taken[v] = true;
                covered |= sets[v];
                exhaustive_picks.push((v as u32, g));
            }
            assert_eq!(lazy_picks, exhaustive_picks, "instance {seed}");
        }
    }

    #[test]
    fn equal_gains_resolve_in_ascending_node_order() {
        let mut lazy = LazyGreedy::with_capacity(5);
        for v in [5u32, 2, 9, 0, 7] {
            lazy.push(v, 1.5);
        }
        assert_eq!(drain(&mut lazy, |_| 1.5), vec![0, 2, 5, 7, 9]);
    }

    #[test]
    fn more_rounds_than_candidates_drains_cleanly() {
        let mut lazy = heap_of(&[0.0, 1.0, 2.0]);
        assert_eq!(drain(&mut lazy, f64::from), vec![2, 1, 0]);
        assert_eq!(lazy.pop_best(|_| Some(0.0)), None);
        assert_eq!(lazy.pop_fresh(), None);
    }

    #[test]
    fn integer_gains_order_identically_as_f64() {
        // RIS counts covered RR sets as integers, all far below 2^53.
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let counts: Vec<usize> = (0..200)
            .map(|i| {
                if i % 3 == 0 {
                    1 << 40
                } else {
                    rng.random_range(0..50)
                }
            })
            .collect();
        let mut lazy = heap_of(&counts.iter().map(|&c| c as f64).collect::<Vec<_>>());
        let mut by_integer_key: Vec<u32> = (0..counts.len() as u32).collect();
        by_integer_key.sort_by_key(|&v| (std::cmp::Reverse(counts[v as usize]), v));
        assert_eq!(
            drain(&mut lazy, |v| counts[v as usize] as f64),
            by_integer_key
        );
    }

    #[test]
    fn declined_rescore_keeps_the_candidate_and_pop_fresh_takes_the_best_scored() {
        let mut lazy = heap_of(&[9.0, 8.0, 7.0, 6.0]);
        // A noisy oracle capped at two evaluations: 0 re-scores to 1.0, 1
        // to 2.0, and the cap stops the round before 2 is looked at.
        let mut evals = 0;
        let capped = lazy.pop_best(|v| {
            evals += 1;
            (evals <= 2).then(|| f64::from(v) + 1.0)
        });
        assert_eq!(capped, None);
        assert_eq!(lazy.pop_fresh(), Some((1, 2.0)));
        // Nothing was lost: the three survivors still come out in order.
        assert_eq!(drain(&mut lazy, f64::from), vec![3, 2, 0]);
    }

    #[test]
    fn ranked_rounds_return_the_exhaustive_top_m_on_random_coverage() {
        for seed in 0..20 {
            let mut rng = Xoshiro256pp::seed_from_u64(100 + seed);
            let (n, m) = (30usize, 1 + seed as usize % 7);
            let sets: Vec<u64> = (0..n).map(|_| rng.next_u64() & rng.next_u64()).collect();
            let gain = |v: usize, covered: u64| f64::from((sets[v] & !covered).count_ones());

            let mut lazy = heap_of(&(0..n).map(|v| gain(v, 0)).collect::<Vec<_>>());
            let (mut covered, mut taken) = (0u64, vec![false; n]);
            for round in 0..n + 2 {
                let mut exhaustive: Vec<(f64, usize)> = (0..n)
                    .filter(|&v| !taken[v])
                    .map(|v| (gain(v, covered), v))
                    .collect();
                exhaustive.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                let mut ranking = Vec::new();
                let pick =
                    lazy.pop_ranked(m, |v| Some(gain(v as usize, covered)), |g| ranking.push(g));
                let want: Vec<f64> = exhaustive.iter().take(m).map(|e| e.0).collect();
                assert_eq!(ranking, want, "instance {seed}, round {round}");
                let Some((v, g)) = pick else {
                    assert!(exhaustive.is_empty());
                    continue;
                };
                assert_eq!((v as usize, g), (exhaustive[0].1, exhaustive[0].0));
                taken[v as usize] = true;
                covered |= sets[v as usize];
            }
        }
    }

    /// A round declined for a fetch and reopened keeps the gains it had
    /// re-scored: the retry re-scores only what it had not reached, and
    /// picks what one undeclined round picks.
    #[test]
    fn reopened_rounds_keep_their_fresh_gains() {
        let mut lazy = heap_of(&[9.0, 8.0, 7.0, 6.0]);
        let fetched = std::cell::Cell::new(false);
        let mut scored = Vec::new();
        let mut score = |v: u32| {
            scored.push(v);
            // Node 1 needs a fetch before it can be scored.
            (v != 1 || fetched.get()).then(|| 5.0 - f64::from(v))
        };
        assert_eq!(lazy.pop_best(&mut score), None);
        assert_eq!(lazy.top_nodes(8, 7.0, |v| v != 0), vec![1, 2]);
        assert_eq!(lazy.top_nodes(1, f64::NEG_INFINITY, |v| v == 3), vec![3]);
        fetched.set(true);
        lazy.reopen_round();
        assert_eq!(lazy.pop_best(&mut score), Some((0, 5.0)));
        assert_eq!(scored, vec![0, 1, 1, 2, 3]);
    }

    #[test]
    fn declined_rescore_mid_ranking_keeps_every_popped_candidate() {
        let mut lazy = heap_of(&[9.0, 8.0, 7.0, 6.0, 5.0]);
        // The budget covers three re-scores: 0, 1 and 2 surface fresh, and
        // the round is declined while the fourth is still wanted.
        let mut evals = 0;
        let mut ranking = Vec::new();
        let declined = lazy.pop_ranked(
            4,
            |v| {
                evals += 1;
                (evals <= 3).then(|| 10.0 - f64::from(v))
            },
            |g| ranking.push(g),
        );
        assert_eq!(declined, None);
        assert!(ranking.is_empty());
        // All five are still there and come out in order.
        assert_eq!(
            drain(&mut lazy, |v| 10.0 - f64::from(v)),
            vec![0, 1, 2, 3, 4]
        );
    }
}
