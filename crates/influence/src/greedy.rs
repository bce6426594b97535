//! `InfMax_std`: greedy influence maximization (Kempe et al.).
//!
//! The objective `σ(S)` is monotone and submodular, so greedy selection of
//! the largest marginal gain achieves `(1 − 1/e)` of the optimum. Selection
//! is lazy (CELF: Leskovec et al.; Goyal et al.'s implementation of it is
//! what the paper runs): stale gains are upper bounds by submodularity, so
//! most re-evaluations are skipped. Ties break toward the smaller node id.
//!
//! The pool oracle's gains are integer counts over one constant divisor,
//! so a stale gain bounds the fresh one bit for bit and
//! [`LazyGreedy::pop_ranked`] yields each round's exact top gains — what
//! the Figure 7 saturation study needs, without the exhaustive greedy the
//! paper runs for it ("the standard greedy algorithm with no optimization
//! at all").

use crate::spread::SpreadOracle;
use soi_graph::NodeId;
use soi_index::CascadeIndex;
use soi_util::ckpt::{ByteReader, Checkpoint, KIND_GREEDY};
use soi_util::runtime::{Deadline, Outcome, Run};
use soi_util::{LazyGreedy, SoiError};
use std::convert::Infallible;

/// Output of a greedy run.
#[derive(Clone, Debug, PartialEq)]
pub struct GreedyResult {
    /// Selected seeds in selection order.
    pub seeds: Vec<NodeId>,
    /// Estimated `σ(S_j)` after each of the `j = 1..=k` selections
    /// (on the oracle's world pool).
    pub spread_curve: Vec<f64>,
    /// For `capture_top > 0`: per iteration, the top marginal gains over
    /// the remaining candidates, sorted descending (length ≤
    /// `capture_top`). Empty otherwise.
    pub gain_rankings: Vec<Vec<f64>>,
}

/// Runs `InfMax_std` for `k` seeds over the index's sampled worlds,
/// recording each round's top-`capture_top` marginal gains (0 records
/// nothing). It is [`infmax_celf_resumable`] under a deadline that never
/// expires and with no checkpoint file.
pub fn infmax_std(index: &CascadeIndex, k: usize, capture_top: usize) -> GreedyResult {
    // No deadline, no file: no hook that could fail.
    let nothing = || Ok::<(), Infallible>(());
    let start = (Vec::new(), Vec::new());
    let unlimited = &Deadline::unlimited();
    let Ok(outcome) = celf(index, k, capture_top, unlimited, start, nothing, |_, _| {
        Ok(())
    });
    outcome.value()
}

/// Fingerprint pinning a greedy checkpoint to its run configuration.
fn greedy_config_fingerprint(k: usize) -> u64 {
    let mut h = soi_util::hash::Mix64Hasher::new();
    h.update_u64(u64::from(KIND_GREEDY));
    h.update_u64(k as u64);
    h.finish()
}

fn encode_greedy_payload(seeds: &[NodeId], curve: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + seeds.len() * 12);
    out.extend_from_slice(&(seeds.len() as u32).to_le_bytes());
    for (&s, &sigma) in seeds.iter().zip(curve) {
        out.extend_from_slice(&s.to_le_bytes());
        out.extend_from_slice(&sigma.to_bits().to_le_bytes());
    }
    out
}

fn decode_greedy_payload(
    c: &Checkpoint,
    num_nodes: usize,
) -> Result<(Vec<NodeId>, Vec<f64>), SoiError> {
    let mut r = ByteReader::new(&c.payload);
    let count = r.u32("seed count")? as usize;
    if count as u64 != c.done_units {
        return Err(SoiError::invalid(format!(
            "greedy checkpoint: payload holds {count} seeds but header claims {}",
            c.done_units
        )));
    }
    let mut seeds = Vec::with_capacity(count);
    let mut curve = Vec::with_capacity(count);
    for _ in 0..count {
        let s = r.u32("seed")?;
        if s as usize >= num_nodes {
            return Err(SoiError::invalid(format!(
                "greedy checkpoint: seed {s} out of range for {num_nodes} nodes"
            )));
        }
        seeds.push(s);
        curve.push(r.f64("spread")?);
    }
    r.expect_end("greedy checkpoint payload")?;
    Ok((seeds, curve))
}

/// CELF with deadlines and checkpoint/resume — the fault-tolerant form of
/// [`infmax_std`] (without ranking capture).
///
/// Seed selection is checkpointed after every `run.every` commits and
/// after the last (kind-2 checkpoint files pinned to the index
/// fingerprint and `k`). Resuming restarts CELF from the committed
/// prefix: gains are re-evaluated against that prefix, and since ties
/// break identically (gain descending, node id ascending), the resumed
/// run commits exactly the seeds an uninterrupted run would — outputs are
/// byte-identical.
///
/// The deadline is ticked once per oracle evaluation; on expiry the
/// committed prefix comes back as [`Outcome::Partial`] with
/// `done = seeds committed`, `total = k`. A corrupt or mismatched
/// checkpoint is a hard error (never silently ignored).
pub fn infmax_celf_resumable(
    index: &CascadeIndex,
    k: usize,
    run: &Run,
) -> Result<Outcome<GreedyResult>, SoiError> {
    let n = index.num_nodes();
    let k = k.min(n);
    let mut slot = run.slot(
        KIND_GREEDY,
        || index.fingerprint(),
        greedy_config_fingerprint(k),
        k,
    );
    let mut start = (Vec::new(), Vec::new());
    if let Some(c) = slot.load()? {
        start = decode_greedy_payload(&c, n)?;
        if start.0.len() > k {
            return Err(SoiError::invalid(format!(
                "greedy checkpoint holds {} seeds for a k={k} run",
                start.0.len()
            )));
        }
        soi_obs::event!(
            soi_obs::Level::Info,
            "resumed greedy selection: {} of {k} seeds from checkpoint",
            start.0.len()
        );
    }
    celf(
        index,
        k,
        0,
        &run.deadline,
        start,
        || {
            // A crash site only where a crash leaves something to resume from.
            if run.checkpoint.is_some() {
                soi_util::failpoint!("greedy.round");
            }
            Ok(())
        },
        |seeds, curve| slot.save(seeds.len(), || encode_greedy_payload(seeds, curve)),
    )
}

/// The one CELF body behind both entry points: continues from the
/// committed `(seeds, spread curve)` prefix, calling `before_round` at the
/// top of each round and `committed` after each commit, and recording each
/// committed round's top-`capture_top` gains. It can fail only through
/// those hooks.
fn celf<E>(
    index: &CascadeIndex,
    k: usize,
    capture_top: usize,
    deadline: &Deadline,
    (mut seeds, mut curve): (Vec<NodeId>, Vec<f64>),
    mut before_round: impl FnMut() -> Result<(), E>,
    mut committed: impl FnMut(&[NodeId], &[f64]) -> Result<(), E>,
) -> Result<Outcome<GreedyResult>, E> {
    let _span = soi_obs::span("influence.greedy");
    let n = index.num_nodes();
    let k = k.min(n);

    let mut oracle = SpreadOracle::new(index);
    let mut in_solution = vec![false; n];
    for &s in &seeds {
        oracle.commit(s);
        in_solution[s as usize] = true;
    }

    let mut rankings = Vec::new();
    let result = |seeds, spread_curve, gain_rankings| GreedyResult {
        seeds,
        spread_curve,
        gain_rankings,
    };

    // Initial heap: gains w.r.t. the committed prefix, stale from the
    // first round on (the same shape a from-scratch CELF starts with), so
    // the round loop re-verifies the top exactly like an uninterrupted run.
    let base = seeds.len();
    let mut lazy = LazyGreedy::with_capacity(n - base);
    for v in 0..n as NodeId {
        if in_solution[v as usize] {
            continue;
        }
        if !deadline.tick(1) {
            return Ok(deadline.outcome(result(seeds, curve, rankings), base as u64, k as u64));
        }
        lazy.push(v, oracle.marginal_gain(v));
    }

    for _ in base..k {
        before_round()?;
        let mut ranking = Vec::with_capacity(capture_top);
        let rescore = |v| {
            if !deadline.tick(1) {
                return None;
            }
            Some(oracle.marginal_gain(v))
        };
        let best = lazy.pop_ranked(capture_top, rescore, |g| ranking.push(g));
        let Some((node, _)) = best else {
            break;
        };
        if capture_top > 0 {
            rankings.push(ranking);
        }
        oracle.commit(node);
        seeds.push(node);
        curve.push(oracle.current_spread());
        committed(&seeds, &curve)?;
    }
    let done = seeds.len() as u64;
    Ok(deadline.outcome(result(seeds, curve, rankings), done, k as u64))
}

/// CELF re-evaluation budget per round of [`infmax_std_mc`]. In the
/// saturation regime the noisy heap churns; after this many fresh
/// evaluations the best fresh-evaluated candidate is committed (the
/// standard practical cap — selection among statistically
/// indistinguishable candidates is effectively arbitrary either way,
/// which is exactly the phenomenon §6.4 studies).
const MC_REEVALS_PER_ROUND: usize = 30;

/// `InfMax_std` exactly as the paper runs it: CELF over *fresh
/// Monte-Carlo estimates* of the expected spread (Kempe et al.'s
/// estimator inside Goyal et al.'s lazy greedy).
///
/// Unlike [`infmax_std`], which shares one live-edge world pool across
/// the whole run (zero in-pool evaluation noise — a stronger, more modern
/// baseline), every evaluation here re-simulates with an independent
/// seed. The per-evaluation noise is what makes the standard method
/// saturate at large `k` (§6.4 / Figure 7): once true marginal-gain
/// differences fall below the noise floor, its selections are effectively
/// random among the top candidates.
///
/// Every spread evaluation draws `samples` simulations (the paper uses
/// 1000) from a fresh sub-seed of `seed`.
pub fn infmax_std_mc(
    pg: &soi_graph::ProbGraph,
    k: usize,
    samples: usize,
    seed: u64,
) -> GreedyResult {
    use soi_sampling::estimate_spread;
    use soi_util::rng::derive_seed;
    let _span = soi_obs::span("influence.mc_greedy");
    let n = pg.num_nodes();
    let k = k.min(n);
    // Evaluation `i` of the run is seeded `derive_seed(seed, i)`. The
    // parallel initial pass takes i = v, the serial re-evaluations count
    // on from n, so no draw depends on the schedule.
    let mut next_eval = n as u64;

    // Initial pass: sigma({v}) for every node, parallel.
    let mut initial: Vec<f64> = vec![0.0; n];
    soi_util::pool::for_each_indexed(&mut initial, 0, |v, slot| {
        *slot = estimate_spread(pg, &[v as NodeId], samples, derive_seed(seed, v as u64));
    });

    let mut lazy = LazyGreedy::with_capacity(n);
    for (v, gain) in initial.into_iter().enumerate() {
        lazy.push(v as NodeId, gain);
    }

    let mut seeds: Vec<NodeId> = Vec::with_capacity(k);
    let mut curve = Vec::with_capacity(k);
    let mut sigma_s = 0.0f64;
    for _ in 0..k {
        let mut reevals = 0usize;
        let best = lazy.pop_best(|v| {
            if reevals >= MC_REEVALS_PER_ROUND {
                return None;
            }
            // Fresh evaluation of the marginal gain.
            let mut with_v: Vec<NodeId> = seeds.clone();
            with_v.push(v);
            reevals += 1;
            let eval_seed = derive_seed(seed, next_eval);
            next_eval += 1;
            Some((estimate_spread(pg, &with_v, samples, eval_seed) - sigma_s).max(0.0))
        });
        // Budget exhausted: commit the best candidate evaluated this
        // round (at least one exists since the cap is positive). O(n) scan
        // + rebuild, once per capped round.
        let Some((node, gain)) = best.or_else(|| lazy.pop_fresh()) else {
            break;
        };
        sigma_s += gain;
        seeds.push(node);
        curve.push(sigma_s);
    }
    GreedyResult {
        seeds,
        spread_curve: curve,
        gain_rankings: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::{gen, GraphBuilder, ProbGraph};
    use soi_index::IndexConfig;

    fn index_for(pg: &ProbGraph, worlds: usize, seed: u64) -> CascadeIndex {
        CascadeIndex::build(
            pg,
            IndexConfig {
                num_worlds: worlds,
                seed,
                ..IndexConfig::default()
            },
        )
    }

    #[test]
    fn picks_the_obvious_hub_first() {
        // Star with strong arcs: node 0 is the only sensible first seed.
        let mut b = GraphBuilder::new(8);
        for leaf in 1..8 {
            b.add_weighted_edge(0, leaf, 0.9);
        }
        let pg = b.build_prob().unwrap();
        let index = index_for(&pg, 64, 1);
        let r = infmax_std(&index, 3, 0);
        assert_eq!(r.seeds[0], 0);
        assert_eq!(r.seeds.len(), 3);
    }

    #[test]
    fn spread_curve_is_monotone() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(8);
        let pg = ProbGraph::fixed(gen::gnm(50, 300, &mut rng), 0.15).unwrap();
        let index = index_for(&pg, 64, 3);
        let r = infmax_std(&index, 10, 0);
        assert!(r.spread_curve.windows(2).all(|w| w[1] >= w[0] - 1e-12));
        assert!(r.spread_curve[0] >= 1.0, "a seed spreads at least itself");
    }

    #[test]
    fn rankings_are_captured_and_sorted() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(9);
        let pg = ProbGraph::fixed(gen::gnm(30, 120, &mut rng), 0.2).unwrap();
        let index = index_for(&pg, 32, 4);
        let r = infmax_std(&index, 5, 10);
        assert_eq!(r.gain_rankings.len(), 5);
        for ranking in &r.gain_rankings {
            assert_eq!(ranking.len(), 10);
            assert!(ranking.windows(2).all(|w| w[0] >= w[1]), "sorted desc");
        }
        // First iteration's best gain matches the realized first spread.
        assert!((r.gain_rankings[0][0] - r.spread_curve[0]).abs() < 1e-9);
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let pg = ProbGraph::fixed(gen::path(4), 0.5).unwrap();
        let index = index_for(&pg, 16, 5);
        let r = infmax_std(&index, 100, 0);
        assert_eq!(r.seeds.len(), 4);
        let mut s = r.seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 4, "no duplicate seeds");
    }

    #[test]
    fn mc_greedy_picks_the_hub_and_is_deterministic() {
        let mut b = GraphBuilder::new(8);
        for leaf in 1..8 {
            b.add_weighted_edge(0, leaf, 0.9);
        }
        let pg = b.build_prob().unwrap();
        let a = infmax_std_mc(&pg, 3, 300, 5);
        assert_eq!(a.seeds[0], 0, "hub first");
        assert_eq!(a.seeds.len(), 3);
        assert!(a.spread_curve.windows(2).all(|w| w[1] >= w[0] - 1e-12));
        let b2 = infmax_std_mc(&pg, 3, 300, 5);
        assert_eq!(a.seeds, b2.seeds);
        assert_eq!(a.spread_curve, b2.spread_curve);
    }

    #[test]
    fn mc_greedy_tracks_pool_greedy_on_clear_signal() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(11);
        let pg = ProbGraph::fixed(gen::barabasi_albert(100, 2, true, &mut rng), 0.3).unwrap();
        let index = index_for(&pg, 256, 12);
        let pool = infmax_std(&index, 5, 0);
        let mc = infmax_std_mc(&pg, 5, 2000, 13);
        // With low noise both variants find seed sets of equivalent
        // quality (not necessarily identical nodes).
        let sigma_pool = soi_sampling::estimate_spread(&pg, &pool.seeds, 5000, 14);
        let sigma_mc = soi_sampling::estimate_spread(&pg, &mc.seeds, 5000, 14);
        assert!(
            (sigma_pool - sigma_mc).abs() < 0.1 * sigma_pool,
            "pool {sigma_pool} vs mc {sigma_mc}"
        );
    }

    #[test]
    fn mc_greedy_clamps_k_without_duplicates() {
        let pg = ProbGraph::fixed(gen::path(4), 0.5).unwrap();
        let r = infmax_std_mc(&pg, 10, 50, 1);
        assert_eq!(r.seeds.len(), 4);
        let mut s = r.seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 4, "no duplicate seeds");
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("soi-greedy-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn resumable_matches_infmax_std_without_interruption() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(21);
        let pg = ProbGraph::fixed(gen::gnm(40, 200, &mut rng), 0.2).unwrap();
        let index = index_for(&pg, 64, 21);
        let std = infmax_std(&index, 6, 0);
        let out = infmax_celf_resumable(&index, 6, &Run::unlimited()).unwrap();
        assert!(out.is_complete());
        let r = out.value();
        assert_eq!(r.seeds, std.seeds);
        assert_eq!(r.spread_curve, std.spread_curve);
    }

    #[test]
    fn deadline_yields_a_partial_seed_prefix() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(22);
        let pg = ProbGraph::fixed(gen::gnm(40, 200, &mut rng), 0.2).unwrap();
        let index = index_for(&pg, 64, 22);
        let full = infmax_std(&index, 6, 0);
        // Enough budget for the initial pass plus a couple of rounds.
        let d = Deadline::ticks(index.num_nodes() as u64 + 4);
        let out = infmax_celf_resumable(&index, 6, &Run::new(d, None, 1, false)).unwrap();
        assert!(!out.is_complete());
        let progress = out.progress().unwrap();
        assert_eq!(progress.total, 6);
        assert!(progress.done < 6);
        assert!(progress.fraction() < 1.0);
        let r = out.value();
        assert_eq!(
            r.seeds[..],
            full.seeds[..r.seeds.len()],
            "prefix of full run"
        );
    }

    #[cfg(debug_assertions)] // arms a failpoint; the sites compile out in release
    #[test]
    fn interrupted_run_resumes_to_identical_output() {
        let _g = soi_util::failpoint::test_guard();
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(23);
        let pg = ProbGraph::fixed(gen::gnm(40, 200, &mut rng), 0.2).unwrap();
        let index = index_for(&pg, 64, 23);
        let full = infmax_std(&index, 6, 0);
        let dir = tmp_dir("resume");
        let ckpt_path = dir.join("greedy.ckpt");

        // Inject a fault on the 4th round: rounds 1-3 commit (and
        // checkpoint), then the run dies.
        soi_util::failpoint::install("greedy.round=error@4").unwrap();
        let opts = |resume| Run::new(Deadline::unlimited(), Some(ckpt_path.clone()), 1, resume);
        let err = infmax_celf_resumable(&index, 6, &opts(false)).unwrap_err();
        assert!(matches!(err, SoiError::Fault { .. }), "{err:?}");
        soi_util::failpoint::clear();

        // Resume: identical seeds and spread curve to an uninterrupted run.
        let resumed = infmax_celf_resumable(&index, 6, &opts(true)).unwrap();
        assert!(resumed.is_complete());
        let r = resumed.value();
        assert_eq!(r.seeds, full.seeds);
        assert_eq!(r.spread_curve, full.spread_curve);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_mismatches_are_rejected() {
        let _g = soi_util::failpoint::test_guard();
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(24);
        let pg = ProbGraph::fixed(gen::gnm(30, 150, &mut rng), 0.2).unwrap();
        let index = index_for(&pg, 32, 24);
        let dir = tmp_dir("mismatch");
        let ckpt_path = dir.join("greedy.ckpt");
        let opts = |resume| Run::new(Deadline::unlimited(), Some(ckpt_path.clone()), 1, resume);
        let run = |k, resume| infmax_celf_resumable(&index, k, &opts(resume));
        run(4, false).unwrap();
        // Different k: the config fingerprint no longer matches.
        assert!(matches!(
            run(5, true).unwrap_err(),
            SoiError::CkptMismatch {
                field: "config_fingerprint",
                ..
            }
        ));
        // Different index: the graph fingerprint no longer matches.
        let other = index_for(&pg, 32, 99);
        assert!(matches!(
            infmax_celf_resumable(&other, 4, &opts(true)).unwrap_err(),
            SoiError::CkptMismatch {
                field: "graph_fingerprint",
                ..
            }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn greedy_beats_random_seeds() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(10);
        let pg = ProbGraph::fixed(gen::barabasi_albert(120, 2, true, &mut rng), 0.3).unwrap();
        let index = index_for(&pg, 64, 6);
        let r = infmax_std(&index, 5, 0);
        let mut oracle = SpreadOracle::new(&index);
        let greedy_spread = *r.spread_curve.last().unwrap();
        let random_spread = oracle.spread_of(&[111, 112, 113, 114, 115]);
        assert!(
            greedy_spread > random_spread,
            "greedy {greedy_spread} vs random {random_spread}"
        );
    }
}
