//! The crate's two differential oracles, each a parent implementation
//! kept verbatim apart from renames and stripped comments, spans, counters
//! and checks:
//!
//! * `select_seeds` of commit 351724d: every selected seed's coverage
//!   update re-samples all ℓ worlds from `world_rng(seed, i)` as CSR
//!   graphs. Selection over live-arc masks drawn once must reproduce it
//!   bit for bit: seeds, coverage bits and `Outcome` progress.
//! * the build of commit 79b73e3: each worker offers a contiguous chunk of
//!   a block's worlds into its own n×k `Builder`, and the workers'
//!   builders are merged serially into the combined one. The node
//!   partition fold must reproduce it bit for bit: the encoded state at
//!   every block boundary, the sketches, and checkpoints in both
//!   directions.

use crate::select::{residual_gain, select_seeds, SelectResult};
use crate::{pair_rank, partition_shift, Builder, Entry, ReachSketches, SketchConfig, BUILD_BLOCK};
use soi_graph::{gen, DiGraph, GraphBuilder, GraphError, NodeId, ProbGraph};
use soi_sampling::world::world_rng;
use soi_sampling::WorldSampler;
use soi_util::ckpt;
use soi_util::rng::{Rng, Xoshiro256pp};
use soi_util::runtime::{Deadline, Outcome, Run};
use soi_util::{BitSet, LazyGreedy, SoiError};
use std::convert::Infallible;
use std::path::Path;

fn resampling_select_seeds(
    pg: &ProbGraph,
    sk: &ReachSketches,
    k_seeds: usize,
    deadline: &Deadline,
) -> Outcome<SelectResult> {
    let n = sk.num_nodes();
    let ell = sk.num_worlds();
    let k_seeds = k_seeds.min(n);

    let mut covered: Vec<BitSet> = (0..ell).map(|_| BitSet::new(n)).collect();
    let mut covered_pairs = 0u64;
    let mut lazy = LazyGreedy::with_capacity(n);
    for v in 0..n as NodeId {
        lazy.push(v, residual_gain(sk, v, &covered));
    }

    let mut sampler = WorldSampler::new();
    let mut queue: Vec<NodeId> = Vec::new();
    let mut seeds = Vec::with_capacity(k_seeds);
    let mut coverage = Vec::with_capacity(k_seeds);
    for round in 1..=k_seeds {
        let proceed = deadline.tick(1);
        if round > 1 && !proceed {
            break;
        }
        let Some((node, _)) = lazy.pop_best(|v| Some(residual_gain(sk, v, &covered))) else {
            break;
        };
        for (i, cov) in covered.iter_mut().enumerate() {
            let world = sampler.sample(pg, &mut world_rng(sk.config().seed, i));
            if cov.contains(node as usize) {
                continue;
            }
            cov.insert(node as usize);
            covered_pairs += 1;
            queue.clear();
            queue.push(node);
            while let Some(u) = queue.pop() {
                for &w in world.out_neighbors(u) {
                    if cov.insert(w as usize) {
                        covered_pairs += 1;
                        queue.push(w);
                    }
                }
            }
        }
        seeds.push(node);
        coverage.push(covered_pairs as f64 / ell as f64);
    }
    let done = seeds.len() as u64;
    deadline.outcome(SelectResult { seeds, coverage }, done, k_seeds as u64)
}

/// Graph `i` of the gate: six families in rotation — G(n, m) at a fixed
/// p, at p = 1 and at p ≈ 0, BA under weighted cascade, a star, and
/// sparse G(n, m) with isolated nodes (every second one of those n = 1).
fn graph(i: u64, rng: &mut Xoshiro256pp) -> Result<ProbGraph, GraphError> {
    let n = rng.random_range(2..48usize);
    let gnm = |rng: &mut Xoshiro256pp, arcs: usize| gen::gnm(n, arcs.min(n * (n - 1)), rng);
    let (topology, p) = match i % 6 {
        0 => (
            gnm(rng, 3 * n),
            [0.05, 0.2, 0.45, 0.8][rng.random_range(0..4usize)],
        ),
        1 => (gnm(rng, 2 * n), 1.0),
        2 => (gnm(rng, 4 * n), 1e-12),
        3 => {
            let m = rng.random_range(1..4usize).min(n - 1);
            let directed = rng.random_bool(0.5);
            let topology = gen::barabasi_albert(n, m, directed, rng);
            return Ok(ProbGraph::weighted_cascade(topology));
        }
        4 => {
            let mut b = GraphBuilder::new(n);
            for leaf in 1..n as NodeId {
                b.add_weighted_edge(0, leaf, 0.05 + 0.95 * rng.random::<f64>());
            }
            return b.build_prob();
        }
        _ if i % 12 == 5 => (gen::path(1), 0.5),
        _ => (gnm(rng, n / 4), 0.6),
    };
    ProbGraph::fixed(topology, p)
}

/// Seeds and coverage bits, with the completion status and progress.
fn bits(outcome: Outcome<SelectResult>) -> Outcome<(Vec<NodeId>, Vec<u64>)> {
    outcome.map(|r| (r.seeds, r.coverage.iter().map(|c| c.to_bits()).collect()))
}

#[test]
fn selection_over_masks_matches_the_resampling_oracle_bit_for_bit() {
    for i in 0..108u64 {
        let mut rng = Xoshiro256pp::seed_from_u64(i);
        let pg = graph(i, &mut rng).unwrap();
        let n = pg.num_nodes();
        let config = SketchConfig {
            num_worlds: [1, 7, 24][rng.random_range(0..3usize)],
            k: [2, 8, 32][rng.random_range(0..3usize)],
            seed: i,
            threads: 1,
        };
        let sk = ReachSketches::build(&pg, config);
        for k in [1, 5, n] {
            for budget in [Some(0), Some(1), Some(3), None] {
                let deadline = || budget.map_or_else(Deadline::unlimited, Deadline::ticks);
                assert_eq!(
                    bits(select_seeds(&pg, &sk, k, &deadline())),
                    bits(resampling_select_seeds(&pg, &sk, k, &deadline())),
                    "graph {i} (n {n}, {config:?}), k {k}, budget {budget:?}"
                );
            }
        }
    }
}

fn merging_build_resumable(
    pg: &ProbGraph,
    config: SketchConfig,
    run: &Run,
) -> Result<Outcome<ReachSketches>, SoiError> {
    let mut slot = run.slot(
        ckpt::KIND_SKETCH_BUILD,
        || pg.fingerprint(),
        ReachSketches::config_fingerprint(&config),
        config.num_worlds,
    );
    let start = match slot.load()? {
        Some(ck) => {
            let builder = Builder::decode(&ck.payload, pg.num_nodes(), config.k)?;
            (ck.done_units as usize, builder)
        }
        None => (0, Builder::new(pg.num_nodes(), config.k)),
    };
    merging_build_blocks(pg, config, run, start, |done, builder| {
        slot.save(done, || builder.encode(config.seed))?;
        Ok(())
    })
}

fn merging_build_blocks<E>(
    pg: &ProbGraph,
    config: SketchConfig,
    run: &Run,
    (start, mut combined): (usize, Builder),
    mut after_block: impl FnMut(usize, &Builder) -> Result<(), E>,
) -> Result<Outcome<ReachSketches>, E> {
    assert!(config.num_worlds > 0, "need at least one world");
    assert!(config.k > 0, "sketch size k must be positive");
    let n = pg.num_nodes();
    let ell = config.num_worlds;
    let k = config.k;
    let threads = soi_util::pool::effective_threads(config.threads, BUILD_BLOCK);

    let mut locals: Vec<Builder> = (0..threads).map(|_| Builder::new(n, k)).collect();
    let done = run.blocks(ell, start, BUILD_BLOCK, |lo, hi| {
        let per_worker = (hi - lo).div_ceil(threads);
        soi_util::pool::for_each_indexed_with(
            &mut locals,
            threads,
            || WorldScratch::new(n),
            |scratch, t, local| {
                local.sizes.fill(0);
                for i in (lo + t * per_worker).min(hi)..(lo + (t + 1) * per_worker).min(hi) {
                    accumulate_world(pg, &config, i, scratch, local);
                }
            },
        );
        for local in &locals {
            merge_from(&mut combined, local);
        }
        after_block(hi, &combined)
    })?;

    let sketches = finish(
        combined,
        pg.fingerprint(),
        SketchConfig {
            num_worlds: done,
            ..config
        },
    );
    Ok(run.deadline.outcome(sketches, done as u64, ell as u64))
}

fn offer(b: &mut Builder, u: usize, e: Entry) {
    let base = u * b.k;
    let size = b.sizes[u] as usize;
    if size < b.k {
        b.heap[base + size] = e;
        b.sizes[u] = size as u32 + 1;
        let mut i = size;
        while i > 0 {
            let p = (i - 1) / 2;
            if b.heap[base + p] < b.heap[base + i] {
                b.heap.swap(base + p, base + i);
                i = p;
            } else {
                break;
            }
        }
    } else if e < b.heap[base] {
        b.heap[base] = e;
        sift_down(b, base);
    }
}

fn sift_down(b: &mut Builder, base: usize) {
    let mut i = 0usize;
    loop {
        let l = 2 * i + 1;
        if l >= b.k {
            break;
        }
        let r = l + 1;
        let c = if r < b.k && b.heap[base + r] > b.heap[base + l] {
            r
        } else {
            l
        };
        if b.heap[base + c] > b.heap[base + i] {
            b.heap.swap(base + i, base + c);
            i = c;
        } else {
            break;
        }
    }
}

fn merge_from(b: &mut Builder, other: &Builder) {
    for u in 0..b.sizes.len() {
        let base = u * b.k;
        for j in 0..other.sizes[u] as usize {
            offer(b, u, other.heap[base + j]);
        }
    }
}

fn finish(mut b: Builder, graph_fingerprint: u64, config: SketchConfig) -> ReachSketches {
    for u in 0..b.sizes.len() {
        let base = u * b.k;
        let size = b.sizes[u] as usize;
        b.heap[base..base + size].sort_unstable();
    }
    ReachSketches {
        num_nodes: b.sizes.len(),
        graph_fingerprint,
        config,
        entries: b.heap,
        sizes: b.sizes,
    }
}

struct WorldScratch {
    sampler: WorldSampler,
    ranks: Vec<u64>,
    order: Vec<NodeId>,
    counts: Vec<u32>,
    visited: Vec<u32>,
    generation: u32,
    queue: Vec<NodeId>,
}

impl WorldScratch {
    fn new(n: usize) -> Self {
        WorldScratch {
            sampler: WorldSampler::new(),
            ranks: vec![0; n],
            order: (0..n as NodeId).collect(),
            counts: vec![0; n],
            visited: vec![0; n],
            generation: 0,
            queue: Vec::new(),
        }
    }
}

fn accumulate_world(
    pg: &ProbGraph,
    config: &SketchConfig,
    i: usize,
    scratch: &mut WorldScratch,
    local: &mut Builder,
) {
    let n = pg.num_nodes();
    let k = config.k as u32;
    let mut rng = world_rng(config.seed, i);
    let world: DiGraph = scratch.sampler.sample(pg, &mut rng);
    let rev = world.reverse();

    for v in 0..n {
        scratch.ranks[v] = pair_rank(config.seed, i, v as NodeId);
    }
    scratch
        .order
        .sort_unstable_by_key(|&v| (scratch.ranks[v as usize], v));
    scratch.counts.fill(0);

    for idx in 0..n {
        let v = scratch.order[idx];
        if scratch.counts[v as usize] >= k {
            continue;
        }
        let rank = scratch.ranks[v as usize];
        if scratch.generation == u32::MAX {
            scratch.visited.fill(0);
            scratch.generation = 0;
        }
        scratch.generation += 1;
        let generation = scratch.generation;
        scratch.queue.clear();
        scratch.queue.push(v);
        scratch.visited[v as usize] = generation;
        while let Some(u) = scratch.queue.pop() {
            scratch.counts[u as usize] += 1;
            offer(
                local,
                u as usize,
                Entry {
                    rank,
                    world: i as u32,
                    node: v,
                },
            );
            for &w in rev.out_neighbors(u) {
                if scratch.visited[w as usize] != generation && scratch.counts[w as usize] < k {
                    scratch.visited[w as usize] = generation;
                    scratch.queue.push(w);
                }
            }
        }
    }
}

/// Graph `i` of the build gate at sketch size `k`, with at most `max_n`
/// random nodes: G(n, m) at p = 0.3, p = 1 and p ≈ 0 (the smallest
/// accepted), BA under weighted cascade, a star, sparse G(n, m) with
/// isolated nodes (every second one n = 1), and sparse G(n, m) with n one
/// short of, exactly or one past the nodes of a build partition of `k`.
fn build_graph(
    i: u64,
    k: usize,
    max_n: usize,
    rng: &mut Xoshiro256pp,
) -> Result<ProbGraph, GraphError> {
    let n = rng.random_range(2..max_n);
    let gnm = |rng: &mut Xoshiro256pp, arcs: usize| gen::gnm(n, arcs.min(n * (n - 1)), rng);
    let (topology, p) = match i % 7 {
        0 => (gnm(rng, 3 * n), 0.3),
        1 => (gnm(rng, n), 1.0),
        2 => (gnm(rng, 3 * n), 1e-12),
        3 => {
            let m = rng.random_range(1..4usize).min(n - 1);
            let topology = gen::barabasi_albert(n, m, rng.random_bool(0.5), rng);
            return Ok(ProbGraph::weighted_cascade(topology));
        }
        4 => {
            let mut b = GraphBuilder::new(n);
            for leaf in 1..n as NodeId {
                b.add_weighted_edge(0, leaf, 0.05 + 0.95 * rng.random::<f64>());
            }
            return b.build_prob();
        }
        5 if i % 14 == 5 => (gen::path(1), 0.5),
        5 => (gnm(rng, n / 4), 0.6),
        _ => {
            let n = (1 << partition_shift(k)) + rng.random_range(0..3usize) - 1;
            (gen::gnm(n, n / 2, rng), 0.5)
        }
    };
    ProbGraph::fixed(topology, p)
}

/// The two builds under test: the node partition fold and the oracle.
#[derive(Clone, Copy, Debug)]
enum Build {
    Fold,
    Merge,
}

impl Build {
    /// The sketches of one full build and its encoded state after every
    /// block.
    fn recorded(self, pg: &ProbGraph, config: SketchConfig) -> (ReachSketches, Vec<Vec<u8>>) {
        let mut states = Vec::new();
        let start = (0, Builder::new(pg.num_nodes(), config.k));
        let run = Run::unlimited();
        let record = |done: usize, b: &Builder| {
            states.push([done.to_le_bytes().to_vec(), b.encode(config.seed)].concat());
            Ok::<(), Infallible>(())
        };
        let Ok(outcome) = match self {
            Build::Fold => ReachSketches::build_blocks(pg, config, &run, start, record),
            Build::Merge => merging_build_blocks(pg, config, &run, start, record),
        };
        (outcome.value(), states)
    }

    fn resumable(
        self,
        pg: &ProbGraph,
        config: SketchConfig,
        run: &Run,
    ) -> Result<Outcome<ReachSketches>, SoiError> {
        match self {
            Build::Fold => ReachSketches::build_resumable(pg, config, run),
            Build::Merge => merging_build_resumable(pg, config, run),
        }
    }
}

/// Builds one block with `first` into a fresh checkpoint at `path`, then
/// resumes it with `then` on `threads` workers: the resumed sketches.
fn interrupted_then_resumed(
    (first, then): (Build, Build),
    pg: &ProbGraph,
    config: SketchConfig,
    threads: usize,
    path: &Path,
) -> Result<Outcome<ReachSketches>, SoiError> {
    let run = |deadline, resume| Run::new(deadline, Some(path.to_path_buf()), 1, resume);
    let _ = std::fs::remove_file(path);
    let partial = first.resumable(pg, config, &run(Deadline::ticks(1), false))?;
    let done = partial.progress().map(|p| p.done);
    assert_eq!(
        done,
        Some(BUILD_BLOCK as u64),
        "{first:?} stopped after one block"
    );
    let config = SketchConfig { threads, ..config };
    then.resumable(pg, config, &run(Deadline::unlimited(), true))
}

#[test]
fn partition_fold_matches_the_merging_oracle_bit_for_bit() {
    let _g = soi_util::failpoint::test_guard();
    let dir = std::env::temp_dir().join(format!("soi-sketch-oracle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sketch.ckpt");
    let mut multi_partition = 0;
    for i in 0..120u64 {
        let mut rng = Xoshiro256pp::seed_from_u64(i);
        // Sketch size k, and the largest random n: two partitions at k = 64.
        let (k, max_n) = [(1, 48), (4, 48), (64, 1800)][i as usize % 3];
        let pg = build_graph(i, k, max_n, &mut rng).unwrap();
        let n = pg.num_nodes();
        let config = SketchConfig {
            // At most 2¹⁷ pairs: binds on the partition-size graphs of
            // k = 1 and 4 only, whose partitions hold 65 536 and 16 384 nodes.
            num_worlds: [1, 15, 16, 17, 40][i as usize / 12 % 5].min((1 << 17) / n),
            k,
            seed: i,
            threads: [1, 2, 3, 8][i as usize % 4],
        };
        let case = format!("graph {i} (n {n}, {config:?})");
        let (ours, our_states) = Build::Fold.recorded(&pg, config);
        let (want, want_states) = Build::Merge.recorded(&pg, config);
        assert!(our_states == want_states, "{case}: encoded states differ");
        assert_eq!(ours.fingerprint(), want.fingerprint(), "{case}");
        for v in 0..n as NodeId {
            assert_eq!(ours.sketch_of(v), want.sketch_of(v), "{case}, node {v}");
        }
        if config.num_worlds > BUILD_BLOCK {
            let threads = [1, 2, 3, 8][(i as usize + 1) % 4];
            for order in [(Build::Merge, Build::Fold), (Build::Fold, Build::Merge)] {
                let resumed = interrupted_then_resumed(order, &pg, config, threads, &path).unwrap();
                assert!(resumed.is_complete(), "{case}: {order:?}");
                assert_eq!(
                    resumed.value().fingerprint(),
                    ours.fingerprint(),
                    "{case}: {order:?}"
                );
            }
        }
        multi_partition += usize::from(n > 1 << partition_shift(k));
    }
    assert!(
        multi_partition >= 20,
        "{multi_partition} multi-partition graphs"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
