//! Micro-benchmarks for the graph substrate: Tarjan SCC, condensation,
//! and transitive reduction — the per-world work inside Algorithm 1's
//! index construction.

use soi_bench::microbench::Bencher;
use soi_graph::{gen, scc::Condensation, transitive, DiGraph, ProbGraph};
use soi_sampling::{world::world_rng, WorldSampler};
use soi_util::rng::Xoshiro256pp;
use std::hint::black_box;

fn graph_with(n: usize, avg_deg: usize, seed: u64) -> DiGraph {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    gen::gnm(n, n * avg_deg, &mut rng)
}

fn bench_scc() {
    let b = Bencher::group("tarjan_scc");
    for &n in &[1_000usize, 10_000, 50_000] {
        let g = graph_with(n, 4, 7);
        b.bench(n, || soi_graph::scc::tarjan_scc(black_box(&g)));
    }
}

fn bench_condensation() {
    let b = Bencher::group("condensation");
    for &n in &[1_000usize, 10_000] {
        let g = graph_with(n, 4, 8);
        b.bench(n, || Condensation::new(black_box(&g)));
    }
}

fn bench_transitive_reduction() {
    let b = Bencher::group("transitive_reduction");
    // The realistic input is the condensation of a *sampled possible
    // world* (p = 0.15 keeps worlds sparse, so condensations stay large —
    // a dense deterministic graph collapses to one giant SCC).
    for &n in &[500usize, 2_000] {
        let pg = soi_graph::ProbGraph::fixed(graph_with(n, 6, 9), 0.15).unwrap();
        let mut sampler = soi_sampling::WorldSampler::new();
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let world = sampler.sample(&pg, &mut rng);
        let dag = Condensation::new(&world).dag;
        b.bench(format!("dag_comps_{}", dag.num_nodes()), || {
            transitive::transitive_reduction(black_box(&dag)).unwrap()
        });
    }
    // The condensations the cascade index reduces, at the sizes the repo
    // benchmark runs (`benchmark/src/spec.rs`: BA m = 5 under weighted
    // cascade — near-forests of ~n singleton components) and the
    // supercritical regime of the `-F` configs (one giant component with
    // thousands of arcs in and out). One row is one world, the four
    // worlds of `world_rng(42, 0..4)` taken in turn.
    let ba = |n| {
        let topology = gen::barabasi_albert(n, 5, true, &mut Xoshiro256pp::seed_from_u64(1));
        ProbGraph::weighted_cascade(topology)
    };
    let gnm = ProbGraph::fixed(graph_with(100_000, 5, 1), 0.3).unwrap();
    let inputs = [
        ("wc_ba_20000", ba(20_000)),
        ("wc_ba_100000", ba(100_000)),
        ("gnm_100000_p030", gnm),
    ];
    for (id, pg) in inputs {
        let mut sampler = WorldSampler::new();
        let dags: Vec<DiGraph> = (0..4)
            .map(|i| Condensation::new(&sampler.sample(&pg, &mut world_rng(42, i))).dag)
            .collect();
        let mut turn = (0..4).cycle();
        b.bench(id, || {
            let dag = &dags[turn.next().unwrap_or(0)];
            transitive::transitive_reduction(black_box(dag)).unwrap()
        });
    }
}

fn main() {
    bench_scc();
    bench_condensation();
    bench_transitive_reduction();
    soi_bench::microbench::write_summary();
}
