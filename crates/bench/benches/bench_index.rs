//! Micro-benchmarks for the cascade index (Algorithm 1): construction
//! (the live-arc bits of 64 worlds, one column, plus the hub rows of a
//! cyclic graph), and cascade-extraction queries on G(3000, 15000) below
//! (p = 0.15) and above (p = 0.30) the giant-SCC threshold, where most
//! walks end in the largest SCC's precomputed closure. The `all_nodes_*`
//! rows are the batch pipeline's lookup, walk only: the all-worlds walk
//! of every node at ℓ = 256, on a weighted-cascade BA(20000, m = 5) index
//! (`batch-wc`'s shape) and on G(1000, 5000) at p = 0.15 (the shape of
//! `serve-fabric`'s `web` graph, where a node's cascades are small but
//! their union over the worlds is not). `tc_pipeline/wc_ba_20000_k50` is
//! `infmax --method tc`'s work after the index build on that BA index, on
//! 2 threads: the bounds pass over all nodes, then the lazy cover for
//! k = 50, which fits the spheres it reads.

use soi_bench::microbench::Bencher;
use soi_core::SphereStore;
use soi_graph::{gen, NodeId, ProbGraph};
use soi_index::{CascadeIndex, IndexConfig};
use soi_influence::infmax_tc_lazy;
use soi_jaccard::median::MedianConfig;
use soi_util::rng::Xoshiro256pp;
use soi_util::runtime::Run;
use std::hint::black_box;

fn pg(seed: u64, p: f64) -> ProbGraph {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    ProbGraph::fixed(gen::gnm(3_000, 15_000, &mut rng), p).unwrap()
}

fn bench_build() {
    let pg = pg(1, 0.15);
    let b = Bencher::group("index_build_64_worlds").sample_size(10);
    b.bench("masks", || {
        CascadeIndex::build(
            black_box(&pg),
            IndexConfig {
                num_worlds: 64,
                seed: 2,
                threads: 1,
                ..IndexConfig::default()
            },
        )
    });
}

fn bench_query() {
    let b = Bencher::group("index_query").sample_size(10);
    for (label, p) in [
        ("cascades_of_one_node", 0.15),
        ("cascades_of_one_node_p030", 0.3),
    ] {
        let index = CascadeIndex::build(
            &pg(5, p),
            IndexConfig {
                num_worlds: 256,
                seed: 6,
                ..IndexConfig::default()
            },
        );
        let mut v = 0u32;
        b.bench(label, || {
            v = (v + 1) % 3_000;
            index.cascades_of(black_box(v))
        });
    }
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    let ba = ProbGraph::weighted_cascade(gen::barabasi_albert(20_000, 5, true, &mut rng));
    let web = ProbGraph::fixed(gen::gnm(1_000, 5_000, &mut rng), 0.15).unwrap();
    for (label, pg) in [
        ("all_nodes_wc_ba_20000", ba),
        ("all_nodes_gnm_1000_p015", web),
    ] {
        let index = CascadeIndex::build(
            &pg,
            IndexConfig {
                num_worlds: 256,
                seed: 7,
                ..IndexConfig::default()
            },
        );
        let n = index.num_nodes() as NodeId;
        let mut q = index.query();
        b.bench(label, || {
            for v in 0..n {
                let walked = index.walk(&[v], index.all_worlds(), &mut q);
                black_box(walked.sets().count());
            }
        });
    }
}

fn bench_tc_pipeline() {
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    let ba = ProbGraph::weighted_cascade(gen::barabasi_albert(20_000, 5, true, &mut rng));
    let config = IndexConfig {
        num_worlds: 256,
        seed: 7,
        threads: 2,
        ..IndexConfig::default()
    };
    let index = CascadeIndex::build(&ba, config);
    let b = Bencher::group("tc_pipeline").sample_size(10);
    b.bench("wc_ba_20000_k50", || {
        let median = MedianConfig::default();
        let store = SphereStore::bound(black_box(&index), &median, 2, &Run::unlimited());
        let mut store = store.expect("an unlimited run cannot fail").value();
        infmax_tc_lazy(&mut store, 50, 0).seeds
    });
}

fn main() {
    bench_build();
    bench_query();
    bench_tc_pipeline();
    soi_bench::microbench::write_summary();
}
