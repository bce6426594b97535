//! Integration of the Linear Threshold model with the typical-cascade
//! pipeline: LT live-edge worlds feed the same cascade index, Jaccard
//! medians, and `InfMax_TC` as IC does.

use soi_util::rng::Xoshiro256pp;
use spheres_of_influence::graph::{gen, DiGraph, Reachability};
use spheres_of_influence::index::{CascadeIndex, IndexConfig};
use spheres_of_influence::influence::infmax_tc;
use spheres_of_influence::jaccard::jaccard_median;
use spheres_of_influence::sampling::lt::{simulate_lt, LtGraph, LtWorldSampler};
use spheres_of_influence::sampling::world::world_rng;

fn lt_worlds(lt: &LtGraph, count: usize, seed: u64) -> Vec<DiGraph> {
    let mut sampler = LtWorldSampler::new();
    (0..count)
        .map(|i| sampler.sample(lt, &mut world_rng(seed, i)))
        .collect()
}

#[test]
fn lt_worlds_feed_the_cascade_index() {
    let mut rng = Xoshiro256pp::seed_from_u64(6);
    let topo = gen::gnm(40, 200, &mut rng);
    let lt = LtGraph::uniform(&topo);
    let worlds = lt_worlds(&lt, 32, 7);
    let index = CascadeIndex::build_from_worlds(
        40,
        worlds.iter(),
        IndexConfig {
            num_worlds: 32,
            seed: 7,
            ..Default::default()
        },
    );
    assert_eq!(index.num_worlds(), 32);
    // Index cascades match direct reachability on the same worlds.
    let mut reach = Reachability::new(40);
    let mut want = Vec::new();
    for v in (0..40u32).step_by(7) {
        for (i, (got, w)) in index.cascades_of(v).iter().zip(&worlds).enumerate() {
            reach.reachable_from(w, v, &mut want);
            want.sort_unstable();
            assert_eq!(got, &want, "world {i} node {v}");
        }
    }
}

#[test]
fn lt_typical_cascades_and_infmax_tc() {
    let mut rng = Xoshiro256pp::seed_from_u64(8);
    let topo = gen::barabasi_albert(120, 3, true, &mut rng);
    let lt = LtGraph::uniform(&topo);
    let worlds = lt_worlds(&lt, 64, 9);
    let index = CascadeIndex::build_from_worlds(120, worlds.iter(), IndexConfig::default());

    // Typical cascade per node over LT worlds.
    let spheres: Vec<Vec<u32>> = (0..120u32)
        .map(|v| jaccard_median(&index.cascades_of(v)).median)
        .collect();
    for (v, s) in spheres.iter().enumerate() {
        assert!(s.contains(&(v as u32)), "sphere of {v} contains itself");
    }

    // Max-cover seeding over the LT spheres.
    let run = infmax_tc(&spheres, 10, 0);
    assert_eq!(run.seeds.len(), 10);
    assert!(run.coverage_curve.windows(2).all(|w| w[1] >= w[0]));

    // The selected seeds spread under direct LT simulation at least as
    // well as a fixed arbitrary set.
    let mut rng = Xoshiro256pp::seed_from_u64(10);
    let mean_spread = |seeds: &[u32], rng: &mut Xoshiro256pp| {
        let rounds = 2000;
        (0..rounds)
            .map(|_| simulate_lt(&lt, seeds, rng).len())
            .sum::<usize>() as f64
            / rounds as f64
    };
    let tc = mean_spread(&run.seeds, &mut rng);
    let arbitrary: Vec<u32> = (110..120).collect();
    let base = mean_spread(&arbitrary, &mut rng);
    assert!(tc > base, "tc {tc} vs arbitrary {base}");
}
