//! The exhaustive greedy, kept as the test oracle for the lazy one.
//!
//! Every round scores every remaining candidate, sorts by gain descending
//! then node id ascending, records the top gains and commits the first —
//! the `O(k · n)` "standard greedy algorithm with no optimization at all"
//! of §6.4. Both ranked greedies ([`crate::infmax_std`] and
//! [`crate::infmax_tc`]) must reproduce its seeds, curves and rankings bit
//! for bit.

use crate::tc_cover::gain_of;
use crate::{infmax_std, infmax_tc, SpreadOracle};
use soi_graph::{gen, NodeId, ProbGraph};
use soi_index::{CascadeIndex, IndexConfig};
use soi_util::rng::{Rng, Xoshiro256pp};
use soi_util::BitSet;

/// A greedy run as `(seeds, objective after each commit, rankings)`.
type Run = (Vec<NodeId>, Vec<f64>, Vec<Vec<f64>>);

/// Runs the exhaustive greedy over candidates `0..n` for `k` rounds (at
/// most `n`). `gain` scores a candidate against `state`; `commit` adds it
/// and returns the objective after the commit.
fn exhaustive_greedy<S>(
    state: &mut S,
    n: usize,
    k: usize,
    capture_top: usize,
    gain: impl Fn(&mut S, NodeId) -> f64,
    commit: impl Fn(&mut S, NodeId, f64) -> f64,
) -> Run {
    let (mut seeds, mut curve, mut rankings) = (Vec::new(), Vec::new(), Vec::new());
    let mut taken = vec![false; n];
    for _ in 0..k.min(n) {
        let mut gains: Vec<(f64, NodeId)> = (0..n as NodeId)
            .filter(|&v| !taken[v as usize])
            .map(|v| (gain(state, v), v))
            .collect();
        gains.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        if capture_top > 0 {
            rankings.push(gains.iter().take(capture_top).map(|g| g.0).collect());
        }
        let (g, best) = gains[0];
        taken[best as usize] = true;
        seeds.push(best);
        curve.push(commit(state, best, g));
    }
    (seeds, curve, rankings)
}

fn bits(run: &Run) -> (Vec<NodeId>, Vec<u64>, Vec<Vec<u64>>) {
    let to_bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let rankings = run.2.iter().map(|r| to_bits(r)).collect();
    (run.0.clone(), to_bits(&run.1), rankings)
}

/// Seeded fixture sizes: `n` small enough that ties are common, `k` up to
/// `n + 2`, and `capture_top` up to 14 (often above what is left).
fn fixture(rng: &mut Xoshiro256pp, max_n: u64) -> (usize, usize, usize) {
    let n = 1 + rng.random_range(0..max_n) as usize;
    let k = rng.random_range(0..n as u64 + 3) as usize;
    let capture_top = rng.random_range(0..15u64) as usize;
    (n, k, capture_top)
}

#[test]
fn pool_greedy_ranks_exactly_like_the_exhaustive_greedy() {
    for case in 0..200u64 {
        let mut rng = Xoshiro256pp::seed_from_u64(case);
        let (n, k, capture_top) = fixture(&mut rng, 40);
        // Sparse graphs with a coarse probability and few worlds: many
        // equal gains, and isolated or covered nodes with gain 0.
        let m = rng.random_range(0..2 * n as u64 + 1) as usize;
        let p = [0.1, 0.5, 1.0][case as usize % 3];
        let pg = ProbGraph::fixed(gen::gnm(n, m.min(n * (n - 1)), &mut rng), p).unwrap();
        let index = CascadeIndex::build(
            &pg,
            IndexConfig {
                num_worlds: 1 + rng.random_range(0..16u64) as usize,
                seed: case,
                threads: 1,
                ..IndexConfig::default()
            },
        );
        let lazy = infmax_std(&index, k, capture_top);
        let want = exhaustive_greedy(
            &mut SpreadOracle::new(&index),
            n,
            k,
            capture_top,
            |o, v| o.marginal_gain(v),
            |o, v, _| {
                o.commit(v);
                o.current_spread()
            },
        );
        let got = (lazy.seeds, lazy.spread_curve, lazy.gain_rankings);
        assert_eq!(
            bits(&got),
            bits(&want),
            "case {case}: n={n} k={k} top={capture_top}"
        );
    }
}

#[test]
fn tc_cover_ranks_exactly_like_the_exhaustive_greedy() {
    for case in 0..300u64 {
        let mut rng = Xoshiro256pp::seed_from_u64(1000 + case);
        let (n, k, capture_top) = fixture(&mut rng, 60);
        // Small random spheres over a universe of n nodes; some empty.
        let cascades: Vec<Vec<NodeId>> = (0..n)
            .map(|_| {
                let len = rng.random_range(0..5u64) as usize;
                let mut c: Vec<NodeId> = (0..len)
                    .map(|_| rng.random_range(0..n as u64) as NodeId)
                    .collect();
                c.sort_unstable();
                c.dedup();
                c
            })
            .collect();
        let lazy = infmax_tc(&cascades, k, capture_top);
        let values = vec![1.0; n];
        let mut state = (BitSet::new(n), 0.0);
        let want = exhaustive_greedy(
            &mut state,
            n,
            k,
            capture_top,
            |(covered, _), v| gain_of(&cascades[v as usize], covered, &values),
            |(covered, total), v, gain| {
                for &w in &cascades[v as usize] {
                    covered.insert(w as usize);
                }
                *total += gain;
                *total
            },
        );
        let got = (lazy.seeds, lazy.coverage_curve, lazy.gain_rankings);
        assert_eq!(
            bits(&got),
            bits(&want),
            "case {case}: n={n} k={k} top={capture_top}"
        );
    }
}
