//! Micro-benchmarks for the bottom-k sketch backend (`soi-sketch`) at
//! serving scale: a 10⁵-node graph, measuring the three phases the
//! backend adds — sketch build,
//! spread estimation, and SKIM-style seed selection — against the
//! existing RIS and index-backed TC-cover selection paths.
//!
//! Entries land in `BENCH_summary.json` as `sketch_*` rows:
//!
//! * `sketch_build_1e5/t1`, `/t2` — `ReachSketches::build` on one and two
//!   threads (the benchmark's `batch-sketch` builds on two);
//! * `sketch_estimate_1e5/*` — one `set_spread` lookup vs the
//!   Monte-Carlo estimator answering the same question;
//! * `sketch_vs_baselines_1e5_k10/*` — seed selection through the
//!   sketches vs `infmax_ris` and `infmax_tc` over the same worlds
//!   (index build and cascade extraction are untimed setup).

use soi_bench::microbench::Bencher;
use soi_core::all_typical_cascades;
use soi_graph::{gen, NodeId, ProbGraph};
use soi_index::{CascadeIndex, IndexConfig};
use soi_influence::{infmax_ris, infmax_tc};
use soi_jaccard::median::MedianConfig;
use soi_sketch::{select_seeds, ReachSketches, SketchConfig};
use soi_util::rng::Xoshiro256pp;
use soi_util::Deadline;
use std::hint::black_box;

const NODES: usize = 100_000;
const WORLDS: usize = 32;
const SKETCH_K: usize = 16;

fn setup_graph() -> ProbGraph {
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    ProbGraph::fixed(gen::barabasi_albert(NODES, 2, true, &mut rng), 0.1).unwrap()
}

fn config(threads: usize) -> SketchConfig {
    SketchConfig {
        num_worlds: WORLDS,
        k: SKETCH_K,
        seed: 2,
        threads,
    }
}

fn bench_build(pg: &ProbGraph) {
    let b = Bencher::group("sketch_build_1e5").sample_size(3);
    b.bench("t1", || ReachSketches::build(black_box(pg), config(1)));
    b.bench("t2", || ReachSketches::build(black_box(pg), config(2)));
}

fn bench_estimate(pg: &ProbGraph, sk: &ReachSketches) {
    let seeds: Vec<NodeId> = (0..10).map(|i| (i * 97) as NodeId).collect();
    let b = Bencher::group("sketch_estimate_1e5").sample_size(20);
    b.bench("set_spread_10seeds", || {
        black_box(sk.set_spread(black_box(&seeds)))
    });
    b.bench("node_spread", || black_box(sk.node_spread(black_box(42))));
    b.bench("mc_32_samples_10seeds", || {
        soi_sampling::estimate_spread(black_box(pg), black_box(&seeds), WORLDS, 7)
    });
}

fn bench_selection(pg: &ProbGraph, sk: &ReachSketches) {
    // Untimed setup for the TC-cover comparator: the cascade index over
    // the same ℓ sampled worlds, reduced to its typical cascades.
    let index = CascadeIndex::build(
        pg,
        IndexConfig {
            num_worlds: WORLDS,
            seed: 2,
            ..IndexConfig::default()
        },
    );
    let cascades: Vec<Vec<NodeId>> = all_typical_cascades(&index, &MedianConfig::default(), 0)
        .into_iter()
        .map(|s| s.median)
        .collect();
    let b = Bencher::group("sketch_vs_baselines_1e5_k10").sample_size(5);
    b.bench("sketch_select", || {
        select_seeds(black_box(pg), black_box(sk), 10, &Deadline::unlimited())
    });
    b.bench("ris_10000_rr", || infmax_ris(black_box(pg), 10, 10_000, 3));
    b.bench("tc_cover", || infmax_tc(black_box(&cascades), 10, 0));
}

fn main() {
    let pg = setup_graph();
    bench_build(&pg);
    let sk = ReachSketches::build(&pg, config(0));
    bench_estimate(&pg, &sk);
    bench_selection(&pg, &sk);
    soi_bench::microbench::write_summary();
}
