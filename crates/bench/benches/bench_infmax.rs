//! Micro-benchmarks for the influence-maximization algorithms: CELF
//! (`InfMax_std`), `InfMax_TC` max-cover, and the RIS comparator — the
//! per-method costs behind Figure 6.

use soi_bench::microbench::Bencher;
use soi_core::all_typical_cascades;
use soi_graph::{gen, NodeId, ProbGraph};
use soi_index::{CascadeIndex, IndexConfig};
use soi_influence::{infmax_ris, infmax_std, infmax_tc};
use soi_jaccard::median::MedianConfig;
use soi_util::rng::Xoshiro256pp;
use std::hint::black_box;

fn setup() -> (ProbGraph, CascadeIndex, Vec<Vec<NodeId>>) {
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    let pg = ProbGraph::fixed(gen::barabasi_albert(1_000, 3, true, &mut rng), 0.15).unwrap();
    let index = CascadeIndex::build(
        &pg,
        IndexConfig {
            num_worlds: 128,
            seed: 2,
            ..IndexConfig::default()
        },
    );
    let cascades = all_typical_cascades(&index, &MedianConfig::default(), 0)
        .into_iter()
        .map(|s| s.median)
        .collect();
    (pg, index, cascades)
}

fn bench_infmax() {
    let (pg, index, cascades) = setup();
    let b = Bencher::group("infmax_k10").sample_size(10);
    b.bench("std_celf", || infmax_std(black_box(&index), 10, 0));
    b.bench("tc_cover", || infmax_tc(black_box(&cascades), 10, 0));
    b.bench("ris_5000_rr", || infmax_ris(black_box(&pg), 10, 5_000, 3));
}

fn main() {
    bench_infmax();
    soi_bench::microbench::write_summary();
}
