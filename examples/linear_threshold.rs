//! Spheres of influence under the Linear Threshold model.
//!
//! The typical-cascade machinery is propagation-model-agnostic: any model
//! with a live-edge equivalence plugs into the same cascade index. This
//! example runs the full pipeline — worlds, index, spheres, max-cover
//! seeding — under LT instead of IC, and validates the seeds with direct
//! LT simulation.
//!
//! Run with: `cargo run --release --example linear_threshold`

use spheres_of_influence::index::{CascadeIndex, IndexConfig};
use spheres_of_influence::jaccard::jaccard_median;
use spheres_of_influence::prelude::*;
use spheres_of_influence::sampling::lt::{simulate_lt, LtGraph, LtWorldSampler};
use spheres_of_influence::sampling::world::world_rng;

fn main() {
    let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(99);

    // An organization's communication graph; LT weights are the standard
    // uniform 1/inDeg (each colleague contributes equally to persuasion).
    let topo = gen::barabasi_albert(500, 3, false, &mut rng);
    let lt = LtGraph::uniform(&topo);
    println!(
        "LT network: {} nodes, {} weighted arcs",
        lt.num_nodes(),
        lt.graph().num_edges()
    );

    // 1. Sample live-edge worlds (Kempe et al.'s equivalence: at most one
    //    in-arc per node, picked with probability = its weight).
    let ell = 256;
    let mut sampler = LtWorldSampler::new();
    let worlds: Vec<DiGraph> = (0..ell)
        .map(|i| sampler.sample(&lt, &mut world_rng(5, i)))
        .collect();

    // 2. Same cascade index as IC (Algorithm 1).
    let index = CascadeIndex::build_from_worlds(
        lt.num_nodes(),
        worlds.iter(),
        IndexConfig {
            num_worlds: ell,
            seed: 5,
            ..IndexConfig::default()
        },
    );
    println!(
        "index: {:.0} SCCs/world on average, {:.1} KiB",
        index.mean_comps(),
        index.memory_bytes() as f64 / 1024.0
    );

    // 3. Typical cascade per node (Algorithm 2).
    let spheres: Vec<_> = (0..lt.num_nodes() as NodeId)
        .map(|v| {
            let fit = jaccard_median(&index.cascades_of(v));
            spheres_of_influence::core::engine::NodeTypicalCascade {
                node: v,
                median: fit.median,
                training_cost: fit.cost,
            }
        })
        .collect();
    // Largest spheres first; ties toward the smaller id.
    let mut top: Vec<_> = spheres.iter().collect();
    top.sort_by_key(|s| (std::cmp::Reverse(s.median.len()), s.node));
    println!("\ntop LT influencers by sphere size:");
    for s in &top[..3] {
        println!(
            "  node {:>3}: sphere {:>3} nodes (cost {:.3})",
            s.node,
            s.median.len(),
            s.training_cost
        );
    }

    // 4. Max-cover seeding over LT spheres (Algorithm 3).
    let k = 10;
    let sets: Vec<Vec<NodeId>> = spheres.iter().map(|s| s.median.clone()).collect();
    let campaign = infmax_tc(&sets, k, 0);
    println!(
        "\ncampaign: {} seeds covering {:.0} nodes' typical spheres",
        campaign.seeds.len(),
        campaign.coverage_curve.last().unwrap()
    );

    // 5. Validate with direct LT simulation (thresholds, no live edges).
    let mut sim_rng = soi_util::rng::Xoshiro256pp::seed_from_u64(7);
    let rounds = 3000;
    let mean = |seeds: &[NodeId], rng: &mut soi_util::rng::Xoshiro256pp| {
        (0..rounds)
            .map(|_| simulate_lt(&lt, seeds, rng).len())
            .sum::<usize>() as f64
            / rounds as f64
    };
    let tc_spread = mean(&campaign.seeds, &mut sim_rng);
    let random: Vec<NodeId> = (100..100 + k as NodeId).collect();
    let random_spread = mean(&random, &mut sim_rng);
    println!(
        "direct LT simulation: campaign spreads to {tc_spread:.1} nodes, \
         an arbitrary seed set to {random_spread:.1}"
    );
}
