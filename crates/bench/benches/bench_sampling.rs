//! Micro-benchmarks for Monte-Carlo machinery: possible-world
//! materialization (as a CSR graph, and as a column of the live-arc bits
//! the cascade index and seed selection keep, 64 worlds drawn in
//! lockstep), lazy cascade sampling, and spread estimation.

use soi_bench::microbench::Bencher;
use soi_graph::{gen, ProbGraph};
use soi_sampling::world::draw_column;
use soi_sampling::{estimate_spread, CascadeSampler, WorldSampler};
use soi_util::rng::Xoshiro256pp;
use std::hint::black_box;

fn pg_with(n: usize, avg_deg: usize, p: f64, seed: u64) -> ProbGraph {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    ProbGraph::fixed(gen::gnm(n, n * avg_deg, &mut rng), p).unwrap()
}

fn bench_world_sampling() {
    let b = Bencher::group("world_sample");
    for &n in &[1_000usize, 10_000] {
        let pg = pg_with(n, 5, 0.1, 1);
        let mut sampler = WorldSampler::new();
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        b.bench(n, || sampler.sample(black_box(&pg), &mut rng));
        if n == 10_000 {
            b.bench("column_64_worlds_10000", || {
                draw_column(black_box(&pg), 2, 0, 64)
            });
        }
    }
}

fn bench_cascade_sampling() {
    let b = Bencher::group("lazy_cascade");
    for &(p, label) in &[(0.05, "subcritical"), (0.3, "supercritical")] {
        let pg = pg_with(5_000, 5, p, 3);
        let mut sampler = CascadeSampler::new(pg.num_nodes());
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut out = Vec::new();
        b.bench(label, || {
            sampler.sample(black_box(&pg), 0, &mut rng, &mut out);
            out.len()
        });
    }
}

fn bench_spread_estimation() {
    let b = Bencher::group("estimate_spread");
    let pg = pg_with(2_000, 5, 0.1, 5);
    let seeds: Vec<u32> = (0..10).collect();
    b.bench("1000_samples", || {
        estimate_spread(black_box(&pg), black_box(&seeds), 1000, 6)
    });
}

fn main() {
    bench_world_sampling();
    bench_cascade_sampling();
    bench_spread_estimation();
    soi_bench::microbench::write_summary();
}
