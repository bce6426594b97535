//! Cross-crate integration tests: the full pipeline from probabilistic
//! graph to spheres of influence to influence maximization, plus exact
//! reproductions of the paper's worked examples.

use spheres_of_influence::core::all_typical_cascades;
use spheres_of_influence::core::stability::exact_expected_cost_bruteforce;
use spheres_of_influence::jaccard::median::MedianConfig;
use spheres_of_influence::prelude::*;

/// The probabilistic graph of Figure 1 / Example 1.
/// Ids: v1=0, v2=1, v3=2, v4=3, v5=4.
fn example1() -> ProbGraph {
    let mut b = GraphBuilder::new(5);
    b.add_weighted_edge(4, 0, 0.7); // v5 -> v1
    b.add_weighted_edge(4, 1, 0.4); // v5 -> v2
    b.add_weighted_edge(4, 3, 0.3); // v5 -> v4
    b.add_weighted_edge(0, 1, 0.1); // v1 -> v2
    b.add_weighted_edge(3, 1, 0.6); // v4 -> v2
    b.add_weighted_edge(1, 2, 0.4); // v2 -> v3
    b.add_weighted_edge(1, 0, 0.1); // v2 -> v1
    b.build_prob().unwrap()
}

#[test]
fn example1_typical_cascade_is_the_exact_optimum() {
    let pg = example1();
    // Exact optimum over all 2^5 candidate sets by brute force.
    let mut best = (f64::INFINITY, Vec::new());
    for mask in 0u32..32 {
        let candidate: Vec<NodeId> = (0..5).filter(|&v| mask & (1 << v) != 0).collect();
        let cost = exact_expected_cost_bruteforce(&pg, 4, &candidate);
        if cost < best.0 {
            best = (cost, candidate);
        }
    }
    // Sampled pipeline with a healthy sample count.
    let tc = typical_cascade(
        &pg,
        4,
        &TypicalCascadeConfig {
            median_samples: 4000,
            cost_samples: 0,
            ..TypicalCascadeConfig::default()
        },
    );
    assert_eq!(tc.median, best.1, "sampled median = exact optimum");
    let true_cost = exact_expected_cost_bruteforce(&pg, 4, &tc.median);
    assert!(
        (tc.training_cost - true_cost).abs() < 0.03,
        "empirical {} vs exact {}",
        tc.training_cost,
        true_cost
    );
}

#[test]
fn theorem2_more_samples_do_not_degrade_the_median() {
    // The multiplicative guarantee implies the cost of the median found
    // with ℓ samples approaches the optimum as ℓ grows; in particular the
    // true cost at ℓ = 64 should already be within a modest factor of the
    // cost at ℓ = 2048.
    let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(1);
    let pg = ProbGraph::fixed(gen::gnm(60, 240, &mut rng), 0.25).unwrap();
    let eval =
        |median: &[NodeId]| spheres_of_influence::core::expected_cost(&pg, 0, median, 20_000, 777);
    let small = typical_cascade(
        &pg,
        0,
        &TypicalCascadeConfig {
            median_samples: 64,
            cost_samples: 0,
            seed: 10,
        },
    );
    let large = typical_cascade(
        &pg,
        0,
        &TypicalCascadeConfig {
            median_samples: 2048,
            cost_samples: 0,
            seed: 11,
        },
    );
    let (c_small, c_large) = (eval(&small.median), eval(&large.median));
    assert!(
        c_small <= c_large * 1.25 + 0.02,
        "64-sample median cost {c_small} vs 2048-sample {c_large}"
    );
}

#[test]
fn full_pipeline_on_a_benchmark_dataset() {
    use spheres_of_influence::datasets::{build, Network, ProbSource};
    // Nethept-syn-W: subcritical with heterogeneous spheres (hubs have
    // spheres of tens of nodes, leaves singletons) — the regime where both
    // seed quality and sphere coverage carry stable signal. Supercritical
    // `-F` configs saturate at moderate k (any seed set reaches the giant
    // core), so methods tie there — the paper's saturation phenomenon.
    let data = build(Network::NethepSyn, ProbSource::WeightedCascade, 0.5, 3);
    let n = data.graph.num_nodes();
    assert!(n >= 100);

    // Index -> all spheres -> both influence-maximization methods.
    let index = CascadeIndex::build(
        &data.graph,
        IndexConfig {
            num_worlds: 128,
            seed: 4,
            ..IndexConfig::default()
        },
    );
    let spheres = all_typical_cascades(&index, &MedianConfig::default(), 0);
    assert_eq!(spheres.len(), n);
    for s in &spheres {
        assert!(s.median.contains(&s.node), "sphere contains its source");
        assert!((0.0..=1.0).contains(&s.training_cost));
    }

    let k = 25;
    let std_run = infmax_std(&index, k, 0);
    let cascades: Vec<Vec<NodeId>> = spheres.into_iter().map(|s| s.median).collect();
    let tc_run = infmax_tc(&cascades, k, 0);
    assert_eq!(std_run.seeds.len(), k);
    assert_eq!(tc_run.seeds.len(), k);

    // Judge both with the independent estimator: the theoretically optimal
    // greedy must beat arbitrary seeds, and InfMax_TC must land in the same
    // band (the paper's claim is that TC *catches up and overtakes* as k
    // grows; at small scale we assert the band, figure6 shows the curves).
    let sigma_std = estimate_spread(&data.graph, &std_run.seeds, 3000, 5);
    let sigma_tc = estimate_spread(&data.graph, &tc_run.seeds, 3000, 5);
    let random: Vec<NodeId> = (0..k as NodeId).map(|i| i * 7 % n as NodeId).collect();
    let sigma_rand = estimate_spread(&data.graph, &random, 3000, 5);
    assert!(
        sigma_std > sigma_rand,
        "std {sigma_std} vs random {sigma_rand}"
    );
    assert!(
        sigma_tc > sigma_rand,
        "tc {sigma_tc} vs random {sigma_rand}"
    );
    assert!(
        sigma_tc > 0.5 * sigma_std,
        "tc {sigma_tc} far below std {sigma_std}"
    );
}

#[test]
fn ris_and_greedy_agree_on_good_seeds() {
    let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(6);
    let pg = ProbGraph::fixed(gen::barabasi_albert(150, 3, true, &mut rng), 0.25).unwrap();
    let index = CascadeIndex::build(
        &pg,
        IndexConfig {
            num_worlds: 200,
            seed: 7,
            ..IndexConfig::default()
        },
    );
    let greedy = infmax_std(&index, 5, 0);
    let ris = infmax_ris(&pg, 5, 8000, 8);
    let sigma_greedy = estimate_spread(&pg, &greedy.seeds, 5000, 9);
    let sigma_ris = estimate_spread(&pg, &ris.seeds, 5000, 9);
    assert!(
        (sigma_greedy - sigma_ris).abs() < 0.15 * sigma_greedy,
        "greedy {sigma_greedy} vs ris {sigma_ris}"
    );
}

#[test]
fn learnt_dataset_pipeline_reaches_influence_maximization() {
    use spheres_of_influence::datasets::{build, Network, ProbSource};
    use spheres_of_influence::problog::eval;
    let data = build(Network::DiggSyn, ProbSource::Saito, 0.05, 9);
    // The learner recovered real signal...
    let truth = data.ground_truth.as_ref().unwrap();
    assert!(truth.len() >= data.graph.num_edges());
    // ...and the learnt graph supports the full downstream pipeline.
    let index = CascadeIndex::build(
        &data.graph,
        IndexConfig {
            num_worlds: 64,
            seed: 10,
            ..IndexConfig::default()
        },
    );
    let spheres = all_typical_cascades(&index, &MedianConfig::default(), 2);
    let cascades: Vec<Vec<NodeId>> = spheres.into_iter().map(|s| s.median).collect();
    let run = infmax_tc(&cascades, 10, 0);
    assert_eq!(run.seeds.len(), 10);
    assert!(run.coverage_curve.windows(2).all(|w| w[1] >= w[0]));
    // eval metrics are well-formed on this real pair.
    let zeros = vec![0.0; truth.len()];
    assert!(eval::mae(&zeros, truth) > 0.0);
}

#[test]
fn graph_io_roundtrips_a_dataset() {
    use spheres_of_influence::datasets::{build, Network, ProbSource};
    use spheres_of_influence::graph::io;
    let data = build(Network::EpinionsSyn, ProbSource::WeightedCascade, 0.03, 12);
    let mut buf = Vec::new();
    io::write_prob_graph(&data.graph, &mut buf).unwrap();
    match io::read_graph(&buf[..]).unwrap() {
        io::ParsedGraph::Probabilistic(back) => {
            assert_eq!(back.num_nodes(), data.graph.num_nodes());
            assert_eq!(back.num_edges(), data.graph.num_edges());
            // Spot-check probabilities survive the text roundtrip.
            for u in back.graph().nodes().step_by(17) {
                for (v, p) in back.out_arcs(u) {
                    let orig = data.graph.edge_prob_between(u, v).unwrap();
                    assert!((p - orig).abs() < 1e-9);
                }
            }
        }
        _ => panic!("expected probabilistic graph"),
    }
}
