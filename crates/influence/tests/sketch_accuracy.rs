//! Accuracy harness for the bottom-k sketch backend (satellite of the
//! `soi-sketch` tentpole; see `docs/SERVING.md` §Backends).
//!
//! Two obligations, each checked against an independent ground truth:
//!
//! 1. **Spread estimates vs the exact oracle.** On graphs small enough
//!    for `exact_spread_bruteforce` (≤ 20 edges, all 2^m worlds
//!    enumerated), the sketch estimate must land within a *declared*
//!    relative ε of the exact influence spread. Two regimes:
//!    * exhaustive sketches (k ≥ ℓ·n pairs): the only error is world
//!      sampling, ε = 0.05 at ℓ = 2048;
//!    * saturated sketches (k ≪ pair count): bottom-k estimation error
//!      ~ 1/√(k−2) stacks on top, ε = 2/√(k−2) (two sigma).
//! 2. **Seed quality vs CELF.** On a 100-node fixture the SKIM-style
//!    sketch selection must pick seed sets whose Monte-Carlo spread is
//!    ≥ 90% of CELF's (rank agreement, not seed-identity — distinct
//!    estimators break ties differently).

use soi_graph::{gen, GraphBuilder, NodeId, ProbGraph};
use soi_index::{CascadeIndex, IndexConfig};
use soi_influence::infmax_std;
use soi_sampling::spread::exact_spread_bruteforce;
use soi_sketch::{select_seeds, ReachSketches, SketchConfig};
use soi_util::rng::Xoshiro256pp;
use soi_util::Deadline;

fn build(pg: &ProbGraph, worlds: usize, k: usize, seed: u64) -> ReachSketches {
    ReachSketches::build(
        pg,
        SketchConfig {
            num_worlds: worlds,
            k,
            seed,
            threads: 1,
        },
    )
}

/// Tiny graphs within the brute-force budget (≤ 20 edges), spanning
/// chains, fans, and a random digraph.
fn tiny_fixtures() -> Vec<(&'static str, ProbGraph)> {
    let mut rng = Xoshiro256pp::seed_from_u64(41);
    vec![
        ("path-6", ProbGraph::fixed(gen::path(6), 0.6).unwrap()),
        ("star-8", ProbGraph::fixed(gen::star(8), 0.4).unwrap()),
        (
            "gnm-8-18",
            ProbGraph::fixed(gen::gnm(8, 18, &mut rng), 0.5).unwrap(),
        ),
        ("cycle-5", {
            let mut b = GraphBuilder::new(5);
            for v in 0..5u32 {
                b.add_edge(v, (v + 1) % 5);
            }
            ProbGraph::fixed(b.build().unwrap(), 0.7).unwrap()
        }),
    ]
}

/// Seed sets probed per fixture: singletons plus a pair and a triple.
fn seed_sets(n: usize) -> Vec<Vec<NodeId>> {
    let mut sets: Vec<Vec<NodeId>> = (0..n as NodeId).map(|v| vec![v]).collect();
    sets.push(vec![0, (n / 2) as NodeId]);
    sets.push(vec![0, 1, (n - 1) as NodeId]);
    sets
}

#[test]
fn exhaustive_sketches_match_the_exact_oracle_within_declared_epsilon() {
    // k = 4096 exceeds ℓ·n for every fixture, so sketches are exact per
    // sampled world and the declared ε covers world sampling alone.
    const WORLDS: usize = 2048;
    const EPS: f64 = 0.05;
    for (name, pg) in tiny_fixtures() {
        let sk = build(&pg, WORLDS, 4096, 9);
        for seeds in seed_sets(pg.num_nodes()) {
            let exact = exact_spread_bruteforce(&pg, &seeds);
            let est = sk.set_spread(&seeds);
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= EPS,
                "{name} seeds {seeds:?}: sketch {est:.4} vs exact {exact:.4} \
                 (rel {rel:.4} > ε {EPS})"
            );
        }
    }
}

#[test]
fn saturated_sketches_stay_within_the_bottom_k_error_bound() {
    // Small k forces the (k−1)/τ estimator on the larger fixtures;
    // declared ε = 2/√(k−2) on top of the world-sampling slack.
    const WORLDS: usize = 2048;
    const K: usize = 64;
    let eps = 2.0 / ((K as f64) - 2.0).sqrt() + 0.05;
    for (name, pg) in tiny_fixtures() {
        let sk = build(&pg, WORLDS, K, 9);
        for seeds in seed_sets(pg.num_nodes()) {
            let exact = exact_spread_bruteforce(&pg, &seeds);
            let est = sk.set_spread(&seeds);
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= eps,
                "{name} seeds {seeds:?}: sketch {est:.4} vs exact {exact:.4} \
                 (rel {rel:.4} > ε {eps:.4})"
            );
        }
    }
}

#[test]
fn sketch_selection_agrees_with_celf_on_a_100_node_fixture() {
    const K_SEEDS: usize = 8;
    const WORLDS: usize = 256;
    const MC_SAMPLES: usize = 2000;
    let mut rng = Xoshiro256pp::seed_from_u64(17);
    let pg = ProbGraph::fixed(gen::barabasi_albert(100, 2, true, &mut rng), 0.15).unwrap();

    let index = CascadeIndex::build(
        &pg,
        IndexConfig {
            num_worlds: WORLDS,
            seed: 5,
            transitive_reduction: true,
            threads: 1,
        },
    );
    let celf = infmax_std(&index, K_SEEDS, 0);

    let sk = build(&pg, WORLDS, 64, 5);
    let picked = select_seeds(&pg, &sk, K_SEEDS, &Deadline::unlimited()).value();
    assert_eq!(picked.seeds.len(), K_SEEDS);

    // Rank agreement: judged on an independent Monte-Carlo estimator so
    // neither backend grades its own homework.
    let celf_spread = soi_sampling::estimate_spread(&pg, &celf.seeds, MC_SAMPLES, 99);
    let sketch_spread = soi_sampling::estimate_spread(&pg, &picked.seeds, MC_SAMPLES, 99);
    assert!(
        sketch_spread >= 0.9 * celf_spread,
        "sketch seeds {:?} (σ≈{sketch_spread:.2}) fall below 90% of CELF \
         seeds {:?} (σ≈{celf_spread:.2})",
        picked.seeds,
        celf.seeds
    );

    // Rank agreement at position 1: the sketch's opening pick must be
    // as influential (on the independent estimator) as CELF's. Literal
    // seed identity is NOT required — after the first pick, equally good
    // submodular selections diverge freely.
    let celf_first = soi_sampling::estimate_spread(&pg, &celf.seeds[..1], MC_SAMPLES, 99);
    let sketch_first = soi_sampling::estimate_spread(&pg, &picked.seeds[..1], MC_SAMPLES, 99);
    assert!(
        sketch_first >= 0.9 * celf_first,
        "sketch first seed {} (σ≈{sketch_first:.2}) far weaker than CELF's {} \
         (σ≈{celf_first:.2})",
        picked.seeds[0],
        celf.seeds[0]
    );
}
