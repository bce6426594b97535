//! Quickstart: compute a sphere of influence and use it.
//!
//! Builds a small probabilistic social graph, computes the typical cascade
//! (sphere of influence) of a few users, reports their stability, and runs
//! both influence-maximization methods side by side.
//!
//! Run with: `cargo run --release --example quickstart`

use spheres_of_influence::core::all_typical_cascades;
use spheres_of_influence::jaccard::median::MedianConfig;
use spheres_of_influence::prelude::*;

fn main() {
    // --- 1. A probabilistic graph -------------------------------------
    // 300-node preferential-attachment network with weighted-cascade
    // probabilities (p(u,v) = 1/inDeg(v)) — one of the paper's standard
    // benchmark assignments.
    let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(42);
    let topology = gen::barabasi_albert(300, 3, true, &mut rng);
    let graph = ProbGraph::weighted_cascade(topology);
    println!(
        "graph: {} nodes, {} arcs",
        graph.num_nodes(),
        graph.num_edges()
    );

    // --- 2. One node's sphere of influence -----------------------------
    let config = TypicalCascadeConfig {
        median_samples: 500,
        cost_samples: 500,
        ..TypicalCascadeConfig::default()
    };
    let sphere = typical_cascade(&graph, 0, &config);
    println!(
        "node 0: sphere of influence has {} nodes, expected cost {:.3} \
         (lower = more reliable)",
        sphere.size(),
        sphere.expected_cost
    );

    // --- 3. All spheres at once via the cascade index (Algorithm 2) ----
    let index = CascadeIndex::build(
        &graph,
        IndexConfig {
            num_worlds: 256,
            seed: 7,
            ..IndexConfig::default()
        },
    );
    let spheres = all_typical_cascades(&index, &MedianConfig::default(), 0);
    let biggest = spheres.iter().max_by_key(|s| s.median.len()).unwrap();
    println!(
        "largest sphere: node {} covering {} nodes (training cost {:.3})",
        biggest.node,
        biggest.median.len(),
        biggest.training_cost
    );

    // --- 4. Influence maximization, both ways --------------------------
    let k = 20;
    let std_run = infmax_std(&index, k, 0);
    let cascades: Vec<Vec<NodeId>> = spheres.into_iter().map(|s| s.median).collect();
    let tc_run = infmax_tc(&cascades, k, 0);

    // Judge both seed sets with an independent Monte-Carlo estimator.
    let sigma_std = estimate_spread(&graph, &std_run.seeds, 2000, 99);
    let sigma_tc = estimate_spread(&graph, &tc_run.seeds, 2000, 99);
    println!("expected spread at k = {k}: InfMax_std {sigma_std:.1}, InfMax_TC {sigma_tc:.1}");

    // --- 5. Stability of the two seed sets (Figure 8's comparison) -----
    let cost_std = expected_cost_of_seed_set(
        &graph,
        &std_run.seeds,
        &typical_cascade_of_set(&graph, &std_run.seeds, &config).median,
        500,
        1,
    );
    let cost_tc = expected_cost_of_seed_set(
        &graph,
        &tc_run.seeds,
        &typical_cascade_of_set(&graph, &tc_run.seeds, &config).median,
        500,
        1,
    );
    println!(
        "seed-set stability (expected cost): InfMax_std {cost_std:.3}, InfMax_TC {cost_tc:.3}"
    );
}
