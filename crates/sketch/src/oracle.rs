//! The differential oracle for seed selection: `select_seeds` of commit
//! 351724d, renamed and stripped of comments, its span, its counter and
//! its graph check, otherwise verbatim — every selected seed's coverage
//! update re-samples all ℓ worlds from `world_rng(seed, i)` as CSR
//! graphs. Selection over live-arc masks drawn once must reproduce it bit
//! for bit: seeds, coverage bits and `Outcome` progress.

use crate::select::{residual_gain, select_seeds, SelectResult};
use crate::{ReachSketches, SketchConfig};
use soi_graph::{gen, GraphBuilder, GraphError, NodeId, ProbGraph};
use soi_sampling::world::world_rng;
use soi_sampling::WorldSampler;
use soi_util::rng::{Rng, Xoshiro256pp};
use soi_util::runtime::{Deadline, Outcome};
use soi_util::{BitSet, LazyGreedy};

fn resampling_select_seeds(
    pg: &ProbGraph,
    sk: &ReachSketches,
    k_seeds: usize,
    deadline: &Deadline,
) -> Outcome<SelectResult> {
    let n = sk.num_nodes();
    let ell = sk.num_worlds();
    let k_seeds = k_seeds.min(n);

    let mut covered: Vec<BitSet> = (0..ell).map(|_| BitSet::new(n)).collect();
    let mut covered_pairs = 0u64;
    let mut lazy = LazyGreedy::with_capacity(n);
    for v in 0..n as NodeId {
        lazy.push(v, residual_gain(sk, v, &covered));
    }

    let mut sampler = WorldSampler::new();
    let mut queue: Vec<NodeId> = Vec::new();
    let mut seeds = Vec::with_capacity(k_seeds);
    let mut coverage = Vec::with_capacity(k_seeds);
    for round in 1..=k_seeds {
        let proceed = deadline.tick(1);
        if round > 1 && !proceed {
            break;
        }
        let Some((node, _)) = lazy.pop_best(|v| Some(residual_gain(sk, v, &covered))) else {
            break;
        };
        for (i, cov) in covered.iter_mut().enumerate() {
            let world = sampler.sample(pg, &mut world_rng(sk.config().seed, i));
            if cov.contains(node as usize) {
                continue;
            }
            cov.insert(node as usize);
            covered_pairs += 1;
            queue.clear();
            queue.push(node);
            while let Some(u) = queue.pop() {
                for &w in world.out_neighbors(u) {
                    if cov.insert(w as usize) {
                        covered_pairs += 1;
                        queue.push(w);
                    }
                }
            }
        }
        seeds.push(node);
        coverage.push(covered_pairs as f64 / ell as f64);
    }
    let done = seeds.len() as u64;
    deadline.outcome(SelectResult { seeds, coverage }, done, k_seeds as u64)
}

/// Graph `i` of the gate: six families in rotation — G(n, m) at a fixed
/// p, at p = 1 and at p ≈ 0, BA under weighted cascade, a star, and
/// sparse G(n, m) with isolated nodes (every second one of those n = 1).
fn graph(i: u64, rng: &mut Xoshiro256pp) -> Result<ProbGraph, GraphError> {
    let n = rng.random_range(2..48usize);
    let gnm = |rng: &mut Xoshiro256pp, arcs: usize| gen::gnm(n, arcs.min(n * (n - 1)), rng);
    let (topology, p) = match i % 6 {
        0 => (
            gnm(rng, 3 * n),
            [0.05, 0.2, 0.45, 0.8][rng.random_range(0..4usize)],
        ),
        1 => (gnm(rng, 2 * n), 1.0),
        2 => (gnm(rng, 4 * n), 1e-12),
        3 => {
            let m = rng.random_range(1..4usize).min(n - 1);
            let directed = rng.random_bool(0.5);
            let topology = gen::barabasi_albert(n, m, directed, rng);
            return Ok(ProbGraph::weighted_cascade(topology));
        }
        4 => {
            let mut b = GraphBuilder::new(n);
            for leaf in 1..n as NodeId {
                b.add_weighted_edge(0, leaf, 0.05 + 0.95 * rng.random::<f64>());
            }
            return b.build_prob();
        }
        _ if i % 12 == 5 => (gen::path(1), 0.5),
        _ => (gnm(rng, n / 4), 0.6),
    };
    ProbGraph::fixed(topology, p)
}

/// Seeds and coverage bits, with the completion status and progress.
fn bits(outcome: Outcome<SelectResult>) -> Outcome<(Vec<NodeId>, Vec<u64>)> {
    outcome.map(|r| (r.seeds, r.coverage.iter().map(|c| c.to_bits()).collect()))
}

#[test]
fn selection_over_masks_matches_the_resampling_oracle_bit_for_bit() {
    for i in 0..108u64 {
        let mut rng = Xoshiro256pp::seed_from_u64(i);
        let pg = graph(i, &mut rng).unwrap();
        let n = pg.num_nodes();
        let config = SketchConfig {
            num_worlds: [1, 7, 24][rng.random_range(0..3usize)],
            k: [2, 8, 32][rng.random_range(0..3usize)],
            seed: i,
            threads: 1,
        };
        let sk = ReachSketches::build(&pg, config);
        for k in [1, 5, n] {
            for budget in [Some(0), Some(1), Some(3), None] {
                let deadline = || budget.map_or_else(Deadline::unlimited, Deadline::ticks);
                assert_eq!(
                    bits(select_seeds(&pg, &sk, k, &deadline())),
                    bits(resampling_select_seeds(&pg, &sk, k, &deadline())),
                    "graph {i} (n {n}, {config:?}), k {k}, budget {budget:?}"
                );
            }
        }
    }
}
