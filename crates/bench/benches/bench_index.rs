//! Micro-benchmarks for the cascade index (Algorithm 1): construction
//! (one live-arc mask per world, plus the hub sets of a cyclic graph),
//! and cascade-extraction queries on G(3000, 15000) below (p = 0.15) and
//! above (p = 0.30) the giant-SCC threshold, where most walks end in the
//! largest SCC's precomputed closure. `index_query/all_nodes_wc_ba_20000`
//! is the batch pipeline's lookup, walk only: `reached_comps` of every
//! node of a weighted-cascade BA(20000, m = 5) index at `batch-wc`'s
//! ℓ = 256.

use soi_bench::microbench::Bencher;
use soi_graph::{gen, NodeId, ProbGraph};
use soi_index::{CascadeIndex, IndexConfig};
use soi_util::rng::Xoshiro256pp;
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
    let index = CascadeIndex::build(
        &ba,
        IndexConfig {
            num_worlds: 256,
            seed: 7,
            ..IndexConfig::default()
        },
    );
    let n = index.num_nodes() as NodeId;
    let mut q = index.query();
    b.bench("all_nodes_wc_ba_20000", || {
        for v in 0..n {
            black_box(index.reached_comps(v, &mut q));
        }
    });
}

fn main() {
    bench_build();
    bench_query();
    soi_bench::microbench::write_summary();
}
