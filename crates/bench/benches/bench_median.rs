//! Micro-benchmarks for the Jaccard-median pipeline — the per-node work
//! of Algorithm 2 (the paper's Figure 4 reports this as a per-node time
//! distribution; these benches isolate it).

use soi_bench::microbench::Bencher;
use soi_core::{index_median, NodeScratch};
use soi_graph::{gen, ProbGraph};
use soi_index::{CascadeIndex, IndexConfig};
use soi_jaccard::median::{jaccard_median_with, MedianConfig};
use soi_sampling::CascadeSampler;
use soi_util::rng::Xoshiro256pp;
use soi_util::runtime::Deadline;
use std::hint::black_box;

fn graph(p: f64, seed: u64) -> ProbGraph {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    ProbGraph::fixed(gen::gnm(2_000, 10_000, &mut rng), p).unwrap()
}

/// Realistic inputs: actual sampled cascades, not synthetic sets.
fn cascade_collection(ell: usize, p: f64, seed: u64) -> Vec<Vec<u32>> {
    CascadeSampler::sample_many(&graph(p, seed), &[0], ell, seed)
}

fn bench_median_by_samples() {
    let b = Bencher::group("jaccard_median_samples");
    for &ell in &[100usize, 256, 1000] {
        let samples = cascade_collection(ell, 0.15, 1);
        b.bench(ell, || {
            jaccard_median_with(black_box(&samples), &MedianConfig::default())
        });
    }
}

fn bench_median_by_regime() {
    let b = Bencher::group("jaccard_median_regime");
    for &(p, label) in &[(0.05, "small_cascades"), (0.3, "large_cascades")] {
        let samples = cascade_collection(256, p, 2);
        b.bench(label, || {
            jaccard_median_with(black_box(&samples), &MedianConfig::default())
        });
    }
}

/// Algorithm 2's per-node step as the batch pipeline runs it: load one
/// node's 256 indexed cascades into the evaluator straight from the
/// index, then fit — on the same graph as `large_cascades`, and on a
/// weighted-cascade BA graph (the `batch-wc` shape: small cascades) at a
/// node whose time is that graph's mean per node.
fn bench_median_from_index() {
    let mut rng = Xoshiro256pp::seed_from_u64(4);
    let wc = ProbGraph::weighted_cascade(gen::barabasi_albert(2_000, 5, true, &mut rng));
    let b = Bencher::group("median_from_index");
    for (label, pg, v) in [
        ("large_cascades", graph(0.3, 2), 0),
        ("small_cascades", wc, 1_254),
    ] {
        let config = IndexConfig {
            num_worlds: 256,
            seed: 2,
            ..IndexConfig::default()
        };
        let index = CascadeIndex::build(&pg, config);
        let (config, unlimited) = (MedianConfig::default(), Deadline::unlimited());
        let mut scratch = NodeScratch::new(&index);
        b.bench(label, || {
            index_median(&index, black_box(v), &config, &unlimited, &mut scratch)
        });
    }
}

fn bench_sweep_vs_polish() {
    let samples = cascade_collection(256, 0.15, 3);
    let b = Bencher::group("median_ablation");
    let sweep_only = MedianConfig {
        local_search_rounds: 0,
        ..MedianConfig::default()
    };
    b.bench("sweep_only", || {
        jaccard_median_with(black_box(&samples), &sweep_only)
    });
    b.bench("sweep_plus_local_search", || {
        jaccard_median_with(black_box(&samples), &MedianConfig::default())
    });
}

fn main() {
    bench_median_by_samples();
    bench_median_by_regime();
    bench_median_from_index();
    bench_sweep_vs_polish();
    soi_bench::microbench::write_summary();
}
