//! # soi-sketch
//!
//! Bottom-k **combined reachability sketches** (Cohen et al., "Sketch-based
//! Influence Maximization and Computation") — the workspace's second spread
//! oracle, selectable alongside the cascade index.
//!
//! The cascade index stores every sampled world exactly (a live-arc mask,
//! one bit per arc, plus the hub closure of a supercritical world); memory
//! grows with ℓ · m bits and the closures. Which backend is the smaller or
//! the faster depends on the graph class, its size and ℓ: ROADMAP.md item
//! 6 records the measured regime. This crate trades exactness for an
//! `O(k · n)` summary over the **same ℓ sampled worlds**:
//!
//! 1. every (node, world) pair `(v, i)` gets a fixed uniform 64-bit rank
//!    derived from `(seed, i, v)` — a pure function, no stored randomness;
//! 2. per world, nodes are processed in increasing rank order with a pruned
//!    reverse BFS, so each node `u` collects exactly the `k` smallest ranks
//!    among the pairs `{(v, i) : v reachable from u in world i}` (fewer if
//!    `u` reaches fewer pairs);
//! 3. per-world bottom-k results are folded into one **combined** bottom-k
//!    sketch per node across all worlds (bottom-k sketches are mergeable:
//!    the k smallest of a union of bottom-k summaries are the k smallest of
//!    the union of the underlying sets).
//!
//! From a node's combined sketch, the reachable-pair cardinality — and hence
//! the expected spread `σ(u) = |X(u)| / ℓ` — follows from the classic
//! bottom-k estimator: exact when the sketch never saturated, `(k−1)/τ`
//! (with `τ` the k-th smallest rank mapped into `(0, 1]`) when it did.
//! Seed-set estimates merge member sketches first (see
//! [`ReachSketches::set_spread`]); greedy seed selection with residual
//! estimates lives in [`select`].
//!
//! Everything is deterministic in the build seed: ranks and worlds are pure
//! functions of `(seed, world, node)`; the parallel build runs one world
//! per worker, each bucketing its reached pairs by node partition, then
//! folds every partition's buckets in world order into its own slice of
//! the sketches; and the stored sketch is canonically sorted —
//! byte-stable across runs, thread counts, and replicas.

#[cfg(test)]
mod oracle;
pub mod select;

use soi_graph::{DiGraph, NodeId, ProbGraph};
use soi_sampling::world::world_rng;
use soi_sampling::WorldSampler;
use soi_util::ckpt;
use soi_util::hash::Mix64Hasher;
use soi_util::rng::derive_seed;
use soi_util::runtime::{Outcome, Run};
use soi_util::SoiError;
use std::convert::Infallible;

pub use select::{select_seeds, select_seeds_with, world_masks, SelectResult};

/// Worlds per deadline check (and per checkpointable unit) in the budgeted
/// build. Fixed independent of thread count so a partial prefix is
/// deterministic across machines.
pub const BUILD_BLOCK: usize = 16;

/// The largest sketch size `k` the CLI and the wire protocol accept. The
/// build allocates `num_nodes × k` 16-byte entries before it samples a
/// world, so an unchecked `k` is an unchecked allocation; at the cap a
/// node's block is 64 KiB and the estimator's relative error
/// (~`1/√(k−2)`) is about 1.6 %.
pub const MAX_K: usize = 4096;

/// Salt decoupling the per-pair rank stream from the world-sampling
/// stream: both derive from the same master seed, but must never reuse a
/// sub-seed.
const RANK_SALT: u64 = 0xB077_0ACE_5EED_C0DE;

/// log₂ of the nodes per build partition at sketch size `k`: the largest
/// power of two (at least one) whose k-blocks fit in 1 MB, so the fold
/// into a partition stays cache-resident — 1024 nodes at k = 64.
fn partition_shift(k: usize) -> u32 {
    ((1 << 20) / (k * std::mem::size_of::<Entry>()))
        .max(1)
        .ilog2()
}

/// Build-time options for [`ReachSketches`].
#[derive(Clone, Copy, Debug)]
pub struct SketchConfig {
    /// Number of possible worlds ℓ to sample (shared semantics with the
    /// cascade index: world `i` is `world_rng(seed, i)`).
    pub num_worlds: usize,
    /// Sketch size k: ranks retained per node. Larger k tightens the
    /// cardinality estimate (relative error ~ `1/√(k−2)`) at linear memory
    /// cost.
    pub k: usize,
    /// Master seed; shared with the cascade index so both backends see the
    /// same sampled worlds.
    pub seed: u64,
    /// Worker threads for the build (0 = all available cores). Never
    /// affects the result.
    pub threads: usize,
}

impl Default for SketchConfig {
    fn default() -> Self {
        SketchConfig {
            num_worlds: 256,
            k: 64,
            seed: 0,
            threads: 0,
        }
    }
}

/// One sketch entry: the rank of the reachable pair `(node, world)`.
///
/// Derived lexicographic order `(rank, world, node)` is the canonical
/// entry order everywhere — rank collisions (astronomically unlikely) tie
/// deterministically.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entry {
    /// Uniform 64-bit rank of the pair, a pure function of
    /// `(seed, world, node)`.
    pub rank: u64,
    /// World index `i` of the pair.
    pub world: u32,
    /// Node `v` of the pair (the node *reached*).
    pub node: NodeId,
}

/// The uniform rank of pair `(v, i)` under `seed`.
#[inline]
fn pair_rank(seed: u64, world: usize, node: NodeId) -> u64 {
    derive_seed(derive_seed(seed ^ RANK_SALT, world as u64), u64::from(node))
}

/// Maps a `u64` rank onto `(0, 1]` for the cardinality estimator.
#[inline]
fn rank_unit(rank: u64) -> f64 {
    const TWO64: f64 = 18_446_744_073_709_551_616.0;
    (rank as f64 + 1.0) / TWO64
}

/// Per-node bottom-k combined reachability sketches over ℓ sampled worlds.
///
/// Storage is node-major fixed k-blocks: node `v`'s sketch is
/// `entries[v·k .. v·k + sizes[v]]`, sorted ascending. `sizes[v] < k`
/// means the sketch holds node `v`'s **entire** reachable-pair set (the
/// estimate is exact); `sizes[v] == k` means it saturated and estimates
/// apply.
#[derive(Clone, Debug)]
pub struct ReachSketches {
    num_nodes: usize,
    graph_fingerprint: u64,
    config: SketchConfig,
    entries: Vec<Entry>,
    sizes: Vec<u32>,
}

impl ReachSketches {
    /// Builds combined sketches over `config.num_worlds` sampled worlds.
    /// Deterministic in `config.seed`; thread count never changes the
    /// result.
    ///
    /// ```
    /// use soi_graph::{gen, ProbGraph};
    /// use soi_sketch::{ReachSketches, SketchConfig};
    /// let pg = ProbGraph::fixed(gen::path(4), 1.0).unwrap();
    /// let sk = ReachSketches::build(&pg, SketchConfig {
    ///     num_worlds: 8, k: 64, seed: 1, ..SketchConfig::default()
    /// });
    /// // Deterministic path: node 0 reaches all 4 nodes in every world,
    /// // and k = 64 > 8 · 4 pairs keeps the sketch exhaustive (exact).
    /// assert!((sk.node_spread(0) - 4.0).abs() < 1e-9);
    /// ```
    pub fn build(pg: &ProbGraph, config: SketchConfig) -> Self {
        // No deadline, no file: no hook that could fail.
        let start = (0, Builder::new(pg.num_nodes(), config.k));
        let Ok(outcome) = Self::build_blocks(pg, config, &Run::unlimited(), start, |_, _| {
            Ok::<(), Infallible>(())
        });
        outcome.value()
    }

    /// Budgeted, checkpointable [`build`](Self::build): one tick per
    /// sampled world, checked at [`BUILD_BLOCK`] boundaries, at least one
    /// block always built. On expiry the partial sketches cover a
    /// *prefix* of the world ids — identical to the first worlds of an
    /// uninterrupted build, regardless of thread count. Progress is
    /// persisted to `run.checkpoint` every `run.every` worlds and after
    /// the last (atomic, checksummed — kind
    /// [`soi_util::ckpt::KIND_SKETCH_BUILD`]) and, with `run.resume`, the
    /// build continues from the recorded world prefix. A resumed build is
    /// byte-identical to an uninterrupted one.
    pub fn build_resumable(
        pg: &ProbGraph,
        config: SketchConfig,
        run: &Run,
    ) -> Result<Outcome<Self>, SoiError> {
        let mut slot = run.slot(
            ckpt::KIND_SKETCH_BUILD,
            || pg.fingerprint(),
            Self::config_fingerprint(&config),
            config.num_worlds,
        );
        let start = match slot.load()? {
            Some(ck) => {
                let builder = Builder::decode(&ck.payload, pg.num_nodes(), config.k)?;
                soi_obs::event!(
                    soi_obs::Level::Info,
                    "sketch build resuming from world {}/{}",
                    ck.done_units,
                    ck.total_units
                );
                (ck.done_units as usize, builder)
            }
            None => (0, Builder::new(pg.num_nodes(), config.k)),
        };
        Self::build_blocks(pg, config, run, start, |done, builder| {
            soi_util::failpoint!("sketch.build.block");
            slot.save(done, || builder.encode(config.seed))
        })
    }

    /// The one block-synchronous build body behind both entry points:
    /// worlds `start.0..ℓ` are folded into `start.1`, [`BUILD_BLOCK`] at
    /// a time under [`Run::blocks`]. `after_block(done, builder)` runs
    /// after every block and is the only way it can fail.
    ///
    /// A block runs in batches of one world per worker. Each world's BFS
    /// buckets its reached pairs, at most k per node, by node partition;
    /// then each partition offers the batch's buckets, in world order,
    /// into its own slice of `combined`.
    fn build_blocks<E>(
        pg: &ProbGraph,
        config: SketchConfig,
        run: &Run,
        (start, mut combined): (usize, Builder),
        mut after_block: impl FnMut(usize, &Builder) -> Result<(), E>,
    ) -> Result<Outcome<Self>, E> {
        assert!(config.num_worlds > 0, "need at least one world");
        assert!(config.k > 0, "sketch size k must be positive");
        let _span = soi_obs::span("sketch.build");
        let n = pg.num_nodes();
        let ell = config.num_worlds;
        let k = config.k;
        let shift = partition_shift(k);
        let threads = soi_util::pool::effective_threads(config.threads, BUILD_BLOCK);

        // Per worker, its BFS scratch and one bucket per partition, kept
        // across batches: live buckets stay within workers · n · k pairs.
        let partitions = n.div_ceil(1 << shift);
        let mut slots: Vec<_> = (0..threads)
            .map(|_| (WorldScratch::new(n), vec![Vec::new(); partitions]))
            .collect();
        let done = run.blocks(ell, start, BUILD_BLOCK, |lo, hi| {
            for first in (lo..hi).step_by(threads) {
                let batch = &mut slots[..threads.min(hi - first)];
                soi_util::pool::for_each_indexed(batch, threads, |j, (scratch, buckets)| {
                    bucket_world(pg, &config, first + j, shift, scratch, buckets);
                });
                let mut slices = combined.partitions(shift);
                soi_util::pool::for_each_indexed(&mut slices, threads, |p, (heap, sizes)| {
                    for (world, (_, buckets)) in (first as u32..).zip(batch.iter()) {
                        for o in &buckets[p] {
                            let u = o.target as usize;
                            let e = Entry {
                                rank: o.rank,
                                world,
                                node: o.node,
                            };
                            offer(&mut heap[u * k..(u + 1) * k], &mut sizes[u], e);
                        }
                    }
                });
            }
            after_block(hi, &combined)
        })?;

        // Record the ℓ actually built so a partial sketch's own config
        // matches its true contents.
        let config = SketchConfig {
            num_worlds: done,
            ..config
        };
        let sketches = combined.finish(pg.fingerprint(), config);
        soi_obs::event!(
            soi_obs::Level::Info,
            "sketches built: {} worlds, k={}, {} entries, {} bytes",
            done,
            config.k,
            sketches.total_entries(),
            sketches.memory_bytes()
        );
        Ok(run.deadline.outcome(sketches, done as u64, ell as u64))
    }

    /// A 64-bit fingerprint of build configuration fields that change
    /// sketch contents (`threads` excluded: builds are thread-count
    /// invariant). Pins checkpoints to their run.
    pub fn config_fingerprint(config: &SketchConfig) -> u64 {
        let mut h = Mix64Hasher::new();
        h.update_u64(config.num_worlds as u64);
        h.update_u64(config.k as u64);
        h.update_u64(config.seed);
        h.finish()
    }

    /// A 64-bit cache key identifying the sketches [`build`](Self::build)
    /// would produce for a graph with [`ProbGraph::fingerprint`]
    /// `graph_fingerprint` and `config`, computable without building.
    /// `soi serve` keys its backend cache on this plus a backend tag.
    pub fn cache_key_for(graph_fingerprint: u64, config: &SketchConfig) -> u64 {
        let mut h = Mix64Hasher::new();
        h.update_u64(graph_fingerprint);
        h.update_u64(Self::config_fingerprint(config));
        h.finish()
    }

    /// A 64-bit fingerprint of the built sketch contents (dimensions,
    /// config, every stored entry). Byte-identical builds agree.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Mix64Hasher::new();
        h.update_u64(self.num_nodes as u64);
        h.update_u64(self.graph_fingerprint);
        h.update_u64(Self::config_fingerprint(&self.config));
        for v in 0..self.num_nodes {
            let s = self.sketch_of(v as NodeId);
            h.update_u64(s.len() as u64);
            for e in s {
                h.update_u64(e.rank);
                h.update_u64(u64::from(e.world) << 32 | u64::from(e.node));
            }
        }
        h.finish()
    }

    /// Number of nodes of the sketched graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of sampled worlds ℓ the sketches cover.
    pub fn num_worlds(&self) -> usize {
        self.config.num_worlds
    }

    /// The build configuration (with `num_worlds` reflecting the worlds
    /// actually built).
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// Fingerprint of the graph the sketches were built over.
    pub fn graph_fingerprint(&self) -> u64 {
        self.graph_fingerprint
    }

    /// Node `v`'s combined sketch: up to k entries, sorted ascending.
    #[inline]
    pub fn sketch_of(&self, v: NodeId) -> &[Entry] {
        let base = v as usize * self.config.k;
        &self.entries[base..base + self.sizes[v as usize] as usize]
    }

    /// Whether node `v`'s sketch saturated (holds estimates rather than
    /// the full reachable-pair set).
    #[inline]
    pub fn is_saturated(&self, v: NodeId) -> bool {
        self.sizes[v as usize] as usize == self.config.k
    }

    /// Estimated reachable-pair cardinality `|X(v)|` (exact when the
    /// sketch never saturated).
    fn pair_cardinality(&self, v: NodeId) -> f64 {
        let s = self.sketch_of(v);
        if s.len() < self.config.k {
            s.len() as f64
        } else {
            (self.config.k - 1) as f64 / rank_unit(s[self.config.k - 1].rank)
        }
    }

    /// Estimated expected spread `σ({v}) = |X(v)| / ℓ`.
    pub fn node_spread(&self, v: NodeId) -> f64 {
        self.pair_cardinality(v) / self.config.num_worlds as f64
    }

    /// Estimated expected spread of a seed set: member sketches are merged
    /// (bottom-k of the deduplicated union — valid because each member is
    /// a bottom-k or the full set) and the union cardinality estimated.
    pub fn set_spread(&self, seeds: &[NodeId]) -> f64 {
        let mut merged: Vec<Entry> = Vec::with_capacity(seeds.len() * self.config.k);
        for &s in seeds {
            merged.extend_from_slice(self.sketch_of(s));
        }
        merged.sort_unstable();
        // A pair reachable from several seeds contributes identical
        // entries (rank is a pure function of the pair); keep one.
        merged.dedup();
        let card = if merged.len() < self.config.k {
            // Every member sketch was exhaustive (a saturated member would
            // alone contribute k entries), so the union is exact.
            merged.len() as f64
        } else {
            (self.config.k - 1) as f64 / rank_unit(merged[self.config.k - 1].rank)
        };
        card / self.config.num_worlds as f64
    }

    /// Approximate heap footprint in bytes — the `O(k · n)` the sketch
    /// backend trades exactness for.
    pub fn memory_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<Entry>()
            + self.sizes.len() * std::mem::size_of::<u32>()
    }

    /// Total stored entries across all nodes.
    pub fn total_entries(&self) -> usize {
        self.sizes.iter().map(|&s| s as usize).sum()
    }
}

/// The build's one bottom-k accumulator: node-major k-blocks maintained as
/// max-heaps so the current worst entry of a full block is O(1) to find
/// and replace. The build folds worlds into it one node partition at a
/// time ([`partitions`](Self::partitions)); checkpoints are its
/// [`encode`](Self::encode)d state.
struct Builder {
    k: usize,
    sizes: Vec<u32>,
    heap: Vec<Entry>,
}

impl Builder {
    fn new(num_nodes: usize, k: usize) -> Self {
        Builder {
            k,
            sizes: vec![0; num_nodes],
            heap: vec![Entry::default(); num_nodes * k],
        }
    }

    /// The blocks of consecutive node partitions of `1 << shift` nodes
    /// (the last may be shorter), as disjoint `(heap, sizes)` slices.
    fn partitions(&mut self, shift: u32) -> Vec<(&mut [Entry], &mut [u32])> {
        let nodes = 1 << shift;
        let heaps = self.heap.chunks_mut(nodes * self.k);
        heaps.zip(self.sizes.chunks_mut(nodes)).collect()
    }

    /// Canonical serialized state: `n`, `k`, `seed`, then per-node sorted
    /// entry lists. Sorting makes the bytes a pure function of the entry
    /// *sets*, so checkpoints agree across thread counts.
    fn encode(&self, seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.heap.len() * 16);
        out.extend_from_slice(&(self.sizes.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.k as u64).to_le_bytes());
        out.extend_from_slice(&seed.to_le_bytes());
        let mut block: Vec<Entry> = Vec::with_capacity(self.k);
        for (u, &size) in self.sizes.iter().enumerate() {
            let (base, size) = (u * self.k, size as usize);
            block.clear();
            block.extend_from_slice(&self.heap[base..base + size]);
            block.sort_unstable();
            out.extend_from_slice(&(size as u32).to_le_bytes());
            for e in &block {
                out.extend_from_slice(&e.rank.to_le_bytes());
                out.extend_from_slice(&e.world.to_le_bytes());
                out.extend_from_slice(&e.node.to_le_bytes());
            }
        }
        out
    }

    /// Inverse of [`encode`](Self::encode); `n`/`k` must match the
    /// resuming run.
    fn decode(payload: &[u8], num_nodes: usize, k: usize) -> Result<Builder, SoiError> {
        let mut r = ckpt::ByteReader::new(payload);
        let stored_n = r.u64("num nodes")?;
        let stored_k = r.u64("sketch k")?;
        let _seed = r.u64("seed")?;
        if stored_n != num_nodes as u64 || stored_k != k as u64 {
            return Err(SoiError::Invalid(format!(
                "sketch state is {stored_n} nodes / k={stored_k}, run wants {num_nodes} / k={k}"
            )));
        }
        let mut b = Builder::new(num_nodes, k);
        for u in 0..num_nodes {
            let size = r.u32("sketch size")? as usize;
            if size > k {
                return Err(SoiError::Invalid(format!(
                    "node {u}: sketch size {size} exceeds k={k}"
                )));
            }
            let base = u * k;
            for j in 0..size {
                let rank = r.u64("entry rank")?;
                let world = r.u32("entry world")?;
                let node = r.u32("entry node")?;
                // A sorted-ascending run written back in *descending*
                // order is a valid max-heap (every parent ≥ its children).
                b.heap[base + (size - 1 - j)] = Entry { rank, world, node };
            }
            b.sizes[u] = size as u32;
        }
        r.expect_end("sketch state")?;
        Ok(b)
    }

    /// Sorts every block ascending, partitions on `config.threads`
    /// workers, and freezes into [`ReachSketches`].
    fn finish(mut self, graph_fingerprint: u64, config: SketchConfig) -> ReachSketches {
        let k = self.k;
        let partitions = &mut self.partitions(partition_shift(k));
        soi_util::pool::for_each_indexed(partitions, config.threads, |_, (heap, sizes)| {
            for (block, &size) in heap.chunks_mut(k).zip(sizes.iter()) {
                block[..size as usize].sort_unstable();
            }
        });
        ReachSketches {
            num_nodes: self.sizes.len(),
            graph_fingerprint,
            config,
            entries: self.heap,
            sizes: self.sizes,
        }
    }
}

/// Offers `e` to one node's bottom-k `block`: a max-heap over its first
/// `*size` slots.
#[inline]
fn offer(block: &mut [Entry], size: &mut u32, e: Entry) {
    let k = block.len();
    let filled = *size as usize;
    if filled < k {
        block[filled] = e;
        *size += 1;
        // Sift up.
        let mut i = filled;
        while i > 0 {
            let p = (i - 1) / 2;
            if block[p] < block[i] {
                block.swap(p, i);
                i = p;
            } else {
                break;
            }
        }
    } else if e < block[0] {
        block[0] = e;
        // Sift down.
        let mut i = 0usize;
        loop {
            let l = 2 * i + 1;
            if l >= k {
                break;
            }
            let r = l + 1;
            let c = if r < k && block[r] > block[l] { r } else { l };
            if block[c] > block[i] {
                block.swap(i, c);
                i = c;
            } else {
                break;
            }
        }
    }
}

/// One reached pair of a world, waiting in its node partition's bucket:
/// pair `(node, world)`, ranked `rank`, enters the sketch of the
/// partition's `target`-th node.
#[derive(Clone, Copy)]
struct Offer {
    rank: u64,
    node: NodeId,
    target: u32,
}

/// Reusable per-worker scratch for the per-world pruned reverse BFS.
struct WorldScratch {
    sampler: WorldSampler,
    /// Every node's `(rank, node)`, sorted into rank order.
    order: Vec<(u64, NodeId)>,
    /// Per-world entry count of each node; a node with `k` entries is
    /// complete for the world and prunes the search.
    counts: Vec<u32>,
    /// Generation-stamped visited marks (one generation per BFS).
    visited: Vec<u32>,
    generation: u32,
    queue: Vec<NodeId>,
}

impl WorldScratch {
    fn new(n: usize) -> Self {
        WorldScratch {
            sampler: WorldSampler::new(),
            order: vec![(0, 0); n],
            counts: vec![0; n],
            visited: vec![0; n],
            generation: 0,
            queue: Vec::new(),
        }
    }
}

/// Buckets world `i`'s exact per-world bottom-k contributions by node
/// partition: `buckets[p]` receives, in BFS order, the offers to the
/// nodes of partition `p` (`1 << shift` nodes each).
///
/// Nodes are processed in increasing rank order with a reverse BFS pruned
/// at nodes that already hold k entries *for this world* — the classic
/// bottom-k construction, exact because any pruned path certifies k
/// smaller ranks already reached (or will reach, by induction over rank
/// order) everything upstream.
fn bucket_world(
    pg: &ProbGraph,
    config: &SketchConfig,
    i: usize,
    shift: u32,
    scratch: &mut WorldScratch,
    buckets: &mut [Vec<Offer>],
) {
    let k = config.k as u32;
    let mut rng = world_rng(config.seed, i);
    let world: DiGraph = scratch.sampler.sample(pg, &mut rng);
    let rev = world.reverse();

    buckets.iter_mut().for_each(Vec::clear);
    for (v, slot) in scratch.order.iter_mut().enumerate() {
        *slot = (pair_rank(config.seed, i, v as NodeId), v as NodeId);
    }
    scratch.order.sort_unstable();
    scratch.counts.fill(0);

    for &(rank, v) in &scratch.order {
        if scratch.counts[v as usize] >= k {
            continue;
        }
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
            buckets[(u >> shift) as usize].push(Offer {
                rank,
                node: v,
                target: u & ((1 << shift) - 1),
            });
            for &w in rev.out_neighbors(u) {
                if scratch.visited[w as usize] != generation && scratch.counts[w as usize] < k {
                    scratch.visited[w as usize] = generation;
                    scratch.queue.push(w);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::{gen, Reachability};
    use soi_util::rng::Xoshiro256pp;
    use soi_util::runtime::Deadline;
    use std::path::Path;

    fn test_graph(seed: u64) -> ProbGraph {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        ProbGraph::fixed(gen::gnm(60, 300, &mut rng), 0.3).unwrap()
    }

    fn config(worlds: usize, k: usize, seed: u64, threads: usize) -> SketchConfig {
        SketchConfig {
            num_worlds: worlds,
            k,
            seed,
            threads,
        }
    }

    /// Reference bottom-k over the exact per-world reachability sets.
    fn naive_sketches(pg: &ProbGraph, cfg: &SketchConfig) -> Vec<Vec<Entry>> {
        let n = pg.num_nodes();
        let mut sampler = WorldSampler::new();
        let mut reach = Reachability::new(n);
        let mut all: Vec<Vec<Entry>> = vec![Vec::new(); n];
        let mut out = Vec::new();
        for i in 0..cfg.num_worlds {
            let world = sampler.sample(pg, &mut world_rng(cfg.seed, i));
            for u in 0..n as NodeId {
                reach.reachable_from(&world, u, &mut out);
                for &v in &out {
                    all[u as usize].push(Entry {
                        rank: pair_rank(cfg.seed, i, v),
                        world: i as u32,
                        node: v,
                    });
                }
            }
        }
        for s in &mut all {
            s.sort_unstable();
            s.truncate(cfg.k);
        }
        all
    }

    #[test]
    fn sketches_match_naive_bottom_k_exactly() {
        let pg = test_graph(1);
        let cfg = config(12, 8, 77, 1);
        let sk = ReachSketches::build(&pg, cfg);
        let naive = naive_sketches(&pg, &cfg);
        for (v, expect) in naive.iter().enumerate() {
            assert_eq!(sk.sketch_of(v as NodeId), &expect[..], "node {v}");
        }
    }

    #[test]
    fn parallel_build_is_byte_identical_to_serial() {
        let pg = test_graph(2);
        let a = ReachSketches::build(&pg, config(24, 16, 5, 1));
        let b = ReachSketches::build(&pg, config(24, 16, 5, 4));
        assert_eq!(a.fingerprint(), b.fingerprint());
        for v in 0..pg.num_nodes() as NodeId {
            assert_eq!(a.sketch_of(v), b.sketch_of(v), "node {v}");
        }
    }

    #[test]
    fn unsaturated_nodes_estimate_exactly() {
        // Deterministic path 0→1→2→3: node 2 reaches {2,3} in every world,
        // so with k ≥ 2·ℓ its sketch is exhaustive and σ exact.
        let pg = ProbGraph::fixed(gen::path(4), 1.0).unwrap();
        let sk = ReachSketches::build(&pg, config(6, 64, 3, 1));
        assert!(!sk.is_saturated(2));
        assert!((sk.node_spread(2) - 2.0).abs() < 1e-12);
        assert!((sk.node_spread(3) - 1.0).abs() < 1e-12);
        assert!((sk.node_spread(0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn saturated_estimates_track_monte_carlo() {
        let pg = test_graph(3);
        let sk = ReachSketches::build(&pg, config(64, 64, 9, 2));
        for v in (0..60).step_by(7) {
            let mc = soi_sampling::estimate_spread(&pg, &[v as NodeId], 4000, 123);
            let est = sk.node_spread(v as NodeId);
            assert!(
                (est - mc).abs() < 0.45 * mc.max(1.0),
                "node {v}: sketch {est} vs mc {mc}"
            );
        }
    }

    #[test]
    fn set_spread_is_subadditive_and_covers_members() {
        let pg = test_graph(4);
        let sk = ReachSketches::build(&pg, config(32, 32, 11, 1));
        let seeds = [3 as NodeId, 17, 42];
        let set = sk.set_spread(&seeds);
        let best = seeds
            .iter()
            .map(|&s| sk.node_spread(s))
            .fold(0.0f64, f64::max);
        let sum: f64 = seeds.iter().map(|&s| sk.node_spread(s)).sum();
        assert!(set >= best - 1e-9, "set {set} < best member {best}");
        assert!(set <= sum + 1e-9, "set {set} > member sum {sum}");
        // Merging a seed with itself changes nothing.
        assert!((sk.set_spread(&[3, 3]) - sk.node_spread(3)).abs() < 1e-12);
    }

    /// A run with a budget and (optionally) a file, saving every block.
    fn run(deadline: Deadline, path: Option<&Path>, resume: bool) -> Run {
        Run::new(deadline, path.map(Path::to_path_buf), 1, resume)
    }

    #[test]
    fn budgeted_build_yields_a_world_prefix() {
        let _g = soi_util::failpoint::test_guard();
        let pg = test_graph(8);
        let cfg = config(40, 16, 13, 2);
        let full = ReachSketches::build(&pg, cfg);

        let complete =
            ReachSketches::build_resumable(&pg, cfg, &run(Deadline::unlimited(), None, false))
                .unwrap();
        assert!(complete.is_complete());
        assert_eq!(complete.value_ref().fingerprint(), full.fingerprint());

        let partial =
            ReachSketches::build_resumable(&pg, cfg, &run(Deadline::ticks(1), None, false))
                .unwrap();
        assert!(!partial.is_complete());
        let progress = partial.progress().unwrap();
        assert_eq!(progress.done, BUILD_BLOCK as u64);
        assert_eq!(progress.total, 40);
        let partial = partial.value();
        assert_eq!(partial.num_worlds(), BUILD_BLOCK);
        // The prefix is exactly what a BUILD_BLOCK-world build produces.
        let small = ReachSketches::build(
            &pg,
            SketchConfig {
                num_worlds: BUILD_BLOCK,
                ..cfg
            },
        );
        assert_eq!(partial.fingerprint(), small.fingerprint());
    }

    #[test]
    fn resumed_build_is_byte_identical() {
        let _g = soi_util::failpoint::test_guard();
        let dir = std::env::temp_dir().join(format!("soi-sketch-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sketch.ckpt");
        let pg = test_graph(9);
        let cfg = config(48, 12, 21, 2);
        let full = ReachSketches::build(&pg, cfg);

        // Interrupted run: one block, checkpoint written.
        let interrupted =
            ReachSketches::build_resumable(&pg, cfg, &run(Deadline::ticks(1), Some(&path), false))
                .unwrap();
        assert!(!interrupted.is_complete());
        assert!(path.exists());

        // Resume with a different thread count: byte-identical result.
        let resumed = ReachSketches::build_resumable(
            &pg,
            SketchConfig { threads: 4, ..cfg },
            &run(Deadline::unlimited(), Some(&path), true),
        )
        .unwrap();
        assert!(resumed.is_complete());
        assert_eq!(resumed.value_ref().fingerprint(), full.fingerprint());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_build_shorter_than_the_cadence_still_checkpoints_at_completion() {
        let _g = soi_util::failpoint::test_guard();
        let dir = std::env::temp_dir().join(format!("soi-sketch-short-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sketch.ckpt");
        let pg = test_graph(14);
        let cfg = config(40, 12, 6, 2);
        let opts = |resume| Run::new(Deadline::unlimited(), Some(path.clone()), 64, resume);

        // 40 worlds never reach the 64-world cadence; the last block
        // (8 worlds, not 16) is checkpointed because it is the last.
        let built = ReachSketches::build_resumable(&pg, cfg, &opts(false)).unwrap();
        assert!(built.is_complete());
        let ck = ckpt::read_checkpoint(&path, ckpt::KIND_SKETCH_BUILD).unwrap();
        assert_eq!((ck.done_units, ck.total_units), (40, 40));

        // Resuming from it builds no further world: the per-block
        // failpoint never fires.
        soi_util::failpoint::install("sketch.build.block=error").unwrap();
        let resumed = ReachSketches::build_resumable(&pg, cfg, &opts(true));
        soi_util::failpoint::clear();
        let resumed = resumed.unwrap();
        assert!(resumed.is_complete());
        assert_eq!(
            resumed.value_ref().fingerprint(),
            built.value_ref().fingerprint()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_rejects_mismatched_runs() {
        let _g = soi_util::failpoint::test_guard();
        let dir = std::env::temp_dir().join(format!("soi-sketch-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sketch.ckpt");
        let pg = test_graph(10);
        let cfg = config(32, 8, 2, 1);
        let _ =
            ReachSketches::build_resumable(&pg, cfg, &run(Deadline::ticks(1), Some(&path), false))
                .unwrap();
        // Different k: the config fingerprint must reject the resume.
        let resuming = run(Deadline::unlimited(), Some(&path), true);
        let err = ReachSketches::build_resumable(&pg, SketchConfig { k: 9, ..cfg }, &resuming)
            .unwrap_err();
        assert!(matches!(err, SoiError::CkptMismatch { .. }), "{err:?}");
        // Different graph: rejected too.
        let err = ReachSketches::build_resumable(&test_graph(11), cfg, &resuming).unwrap_err();
        assert!(matches!(err, SoiError::CkptMismatch { .. }), "{err:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(debug_assertions)] // arms a failpoint; the sites compile out in release
    #[test]
    fn build_failpoint_surfaces_as_typed_fault() {
        let _g = soi_util::failpoint::test_guard();
        soi_util::failpoint::install("sketch.build.block=error").unwrap();
        let pg = test_graph(13);
        let err = ReachSketches::build_resumable(&pg, config(16, 8, 1, 1), &Run::unlimited())
            .unwrap_err();
        soi_util::failpoint::clear();
        assert!(matches!(err, SoiError::Fault { .. }), "{err:?}");
    }

    #[test]
    fn cache_key_tracks_content_inputs_only() {
        let pg = test_graph(1);
        let cfg = config(8, 16, 5, 1);
        let key = |pg: &ProbGraph, cfg| ReachSketches::cache_key_for(pg.fingerprint(), &cfg);
        let base = key(&pg, cfg);
        assert_eq!(base, key(&pg, SketchConfig { threads: 4, ..cfg }));
        assert_ne!(base, key(&pg, SketchConfig { k: 17, ..cfg }));
        assert_ne!(
            base,
            key(
                &pg,
                SketchConfig {
                    num_worlds: 9,
                    ..cfg
                }
            )
        );
        assert_ne!(base, key(&pg, SketchConfig { seed: 6, ..cfg }));
        assert_ne!(base, key(&test_graph(2), cfg));
    }

    #[test]
    fn ranks_are_deterministic_and_pairwise_distinct() {
        assert_eq!(pair_rank(1, 2, 3), pair_rank(1, 2, 3));
        let mut seen = std::collections::BTreeSet::new();
        for world in 0..8 {
            for node in 0..256u32 {
                assert!(seen.insert(pair_rank(42, world, node)), "rank collision");
            }
        }
    }
}
