//! # soi-index
//!
//! The cascade index of §4 (Algorithm 1 of the paper).
//!
//! To compute typical cascades for *every* node, the paper samples ℓ
//! possible worlds once and stores each world compactly:
//!
//! 1. the **condensation** of the world's SCCs — all vertices of one SCC
//!    share a reachability set, so cascades only need component-level DFS;
//! 2. after a **transitive reduction** of the condensation — reachability
//!    is preserved with the minimum number of DAG arcs;
//! 3. a **node × world matrix** `I[v, i]` giving the component of `v` in
//!    world `i`.
//!
//! The cascade of `v` in world `i` is then: DFS from `I[v, i]` over the
//! reduced condensation, union of the member lists of reached components —
//! time linear in the output plus the condensation arcs traversed.
//!
//! Most of that output is shared. In a supercritical world most nodes
//! reach the largest SCC, and all of them then reach the same set of
//! components: the **hub closure**, everything the largest SCC (ties: the
//! lowest component id) reaches. Each world stores it once, as a
//! component bitmask plus one contiguous member slice, derived when the
//! world is built. Every walk defers the closure components it meets
//! instead of expanding them. If it reached the largest SCC itself, the
//! whole closure is one chunk ([`HUB_CLOSURE`]); otherwise it resumes
//! from the deferred components.
//! The answer is unchanged: a path from outside the closure into it stays
//! inside it, so every component outside the closure is reached by a
//! path that never touches the closure. A closure of the hub alone (in any
//! world of an acyclic graph, such as a directed Barabási–Albert one)
//! shares nothing, and such a world is walked plainly.
//! Across worlds, the index also keeps one bit row per node that lies in
//! some closure, over the worlds whose closure holds it
//! ([`CascadeIndex::closure_rows`]): a consumer that meets many closures
//! of one node reads each closure node once, not once per world.
//!
//! Storage is compact. Every CSR offset is a `u32`, and a world whose
//! components are all singletons (again, any world of an acyclic graph)
//! stores no member offsets at all: component `c` is `members[c]`. The
//! build makes 32 worlds at a time and transposes their component
//! columns into the node-major matrix before starting the next block, so
//! its peak is the index plus one block of columns.
//!
//! Worlds are derived deterministically from `(seed, world-id)`, so a
//! build is reproducible bit-for-bit regardless of thread count or
//! blocking.
//!
//! Lookups for many nodes walk the index one world at a time
//! ([`CascadeIndex::reach_block`]): a block of consecutive nodes walks
//! world 0, then world 1, and so on, so each world's DAG is read once per
//! block rather than once per node, and each node's chunks are recorded
//! in ascending world order. A block's lists beside its last node stay
//! within 1/64 of the index's [`memory_bytes`](CascadeIndex::memory_bytes).
//! A single node's lookup ([`CascadeIndex::reached_comps`]) is a block of
//! one node.

use soi_graph::{scc::Condensation, transitive, DiGraph, NodeId, ProbGraph, Reachability};
use soi_sampling::world::world_rng;
use soi_sampling::WorldSampler;
use std::ops::Range;

/// Build-time options for [`CascadeIndex`].
#[derive(Clone, Copy, Debug)]
pub struct IndexConfig {
    /// Number of possible worlds ℓ to sample (the paper uses 1000).
    pub num_worlds: usize,
    /// Master seed; world `i` uses the sub-seed `derive_seed(seed, i)`.
    pub seed: u64,
    /// Apply transitive reduction to each condensation (§4). Reduces arc
    /// storage and query traversal cost at some build-time expense.
    pub transitive_reduction: bool,
    /// Worker threads for the build (0 = all available cores).
    pub threads: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            num_worlds: 256,
            seed: 0,
            transitive_reduction: true,
            threads: 0,
        }
    }
}

/// One sampled world, stored as its (reduced) condensation plus component
/// member lists. The per-node component assignment lives in the index's
/// shared matrix.
#[derive(Clone, Debug)]
pub struct WorldIndex {
    /// Condensation DAG over component ids (transitively reduced when the
    /// config asked for it).
    pub dag: DiGraph,
    /// CSR offsets into `members`, or empty when every component is a
    /// singleton (any world of an acyclic graph): component `c` is then
    /// `members[c]` alone, and the offsets would be the identity.
    member_offsets: Vec<u32>,
    members: Vec<NodeId>,
    /// The largest SCC (ties: the lowest id), and the components it
    /// reaches: as a bitmask over component ids up to the largest it
    /// reaches, and as one member slice; both empty when it reaches only
    /// itself.
    hub: u32,
    hub_mask: Vec<u64>,
    hub_members: Vec<NodeId>,
}

/// Worlds built at a time by [`CascadeIndex::build`]: the build holds at
/// most this many component columns (`BLOCK · n` ids) beside the index.
const BLOCK: usize = 32;

/// A [`CascadeIndex::reach_block`] block holds at most this share of the
/// index in walked lists (beside its last node): ~1.2 MB on a 76 MB
/// index, ~75 KB on a 4.8 MB one, so a worker's block stays in cache
/// beside the world it walks and the lookup's peak memory follows the
/// index, not a node count.
const BLOCK_SHARE: usize = 64;

/// The chunk id of a world's whole hub closure in
/// [`CascadeIndex::reached_comps`]; [`WorldIndex::chunk`] reads it.
pub const HUB_CLOSURE: u32 = u32::MAX;

impl WorldIndex {
    /// Assembles a world from its condensation parts, dropping the member
    /// offsets of an all-singleton world, and derives its hub closure.
    fn from_parts(dag: DiGraph, mut member_offsets: Vec<u32>, members: Vec<NodeId>) -> Self {
        if members.len() == dag.num_nodes() {
            member_offsets = Vec::new();
        }
        let members_of = |c: usize| component(&member_offsets, &members, c);
        let hub = (0..dag.num_nodes())
            .rev()
            .max_by_key(|&c| members_of(c).len());
        // The mask ends at the closure's largest id (component ids are
        // reverse-topological, so the hub's), and a walk rejects a larger
        // id without a read.
        let mut hub_mask: Vec<u64> = Vec::new();
        let mut hub_members = Vec::new();
        let mut stack: Vec<u32> = hub.iter().map(|&c| c as u32).collect();
        while let Some(c) = stack.pop() {
            let (word, bit) = (c as usize / 64, 1 << (c % 64));
            if word >= hub_mask.len() {
                hub_mask.resize(word + 1, 0);
            }
            if hub_mask[word] & bit == 0 {
                hub_mask[word] |= bit;
                hub_members.extend_from_slice(members_of(c as usize));
                stack.extend_from_slice(dag.out_neighbors(c));
            }
        }
        // A closure of the hub alone shares nothing: an empty mask, and
        // walks treat the hub as any other component.
        if hub.is_some_and(|c| hub_members.len() == members_of(c).len()) {
            (hub_mask, hub_members) = (Vec::new(), Vec::new());
        }
        WorldIndex {
            dag,
            member_offsets,
            members,
            hub: hub.unwrap_or(0) as u32,
            hub_mask,
            hub_members,
        }
    }

    /// The hub walk from `sources`: fills `walk.chunks` with the chunks
    /// they reach, [`HUB_CLOSURE`] standing for the whole closure when the
    /// walk reached the hub.
    fn walk(&self, sources: &[u32], walk: &mut Walk) {
        let Walk {
            reach,
            chunks,
            deferred,
            ..
        } = walk;
        if self.hub_mask.is_empty() {
            reach.multi_source(&self.dag, sources, chunks);
            return;
        }
        // The mask's address and length ride in the closure, not behind
        // `self`: one load fewer per visited component.
        let mask = self.hub_mask.as_slice();
        let defer = move |c| in_closure(mask, c);
        reach.multi_source_deferring(&self.dag, sources, defer, chunks, deferred);
        let hit = deferred.contains(&self.hub);
        if hit {
            chunks.push(HUB_CLOSURE);
        } else if !deferred.is_empty() {
            reach.resume(&self.dag, deferred, chunks);
        }
        #[cfg(test)]
        if hit || !deferred.is_empty() {
            walk.branches[hit as usize] += 1;
        }
    }

    /// The members of chunk `c` of a [`CascadeIndex::reached_comps`]
    /// answer: component `c`, or the whole hub closure for
    /// [`HUB_CLOSURE`].
    pub fn chunk(&self, c: u32) -> &[NodeId] {
        if c == HUB_CLOSURE {
            &self.hub_members
        } else {
            self.members_of(c)
        }
    }

    /// Number of SCCs in this world.
    pub fn num_comps(&self) -> usize {
        self.dag.num_nodes()
    }

    /// The original nodes in component `c`.
    pub fn members_of(&self, c: u32) -> &[NodeId] {
        component(&self.member_offsets, &self.members, c as usize)
    }
}

/// Component `c`'s slice of a world's `members`: `members[c]` alone when
/// the world stores no offsets (all singletons).
#[inline]
fn component<'m>(offsets: &[u32], members: &'m [NodeId], c: usize) -> &'m [NodeId] {
    if offsets.is_empty() {
        return &members[c..=c];
    }
    &members[offsets[c] as usize..offsets[c + 1] as usize]
}

/// The cascade index: ℓ condensed worlds plus the `node × world`
/// component matrix (Algorithm 1).
pub struct CascadeIndex {
    num_nodes: usize,
    worlds: Vec<WorldIndex>,
    /// Node-major layout: `comp_matrix[v * ℓ + i]` is `I[v, i]`. Node-major
    /// because queries iterate all worlds of one node.
    comp_matrix: Vec<u32>,
    /// The nodes in some world's hub closure, ascending, and for each a
    /// row of `⌈ℓ/64⌉` words: bit `i % 64` of word `i / 64` is set when
    /// world `i`'s closure holds the node. Both empty when no world has a
    /// closure.
    closure_nodes: Vec<NodeId>,
    closure_rows: Vec<u64>,
    max_comps: usize,
    /// The bytes of walked lists a [`CascadeIndex::reach_block`] block may
    /// hold beside its last node: [`memory_bytes`](Self::memory_bytes) /
    /// [`BLOCK_SHARE`].
    block_budget: usize,
    config: IndexConfig,
}

impl CascadeIndex {
    /// Builds the index over `config.num_worlds` sampled worlds
    /// (Algorithm 1). Deterministic in `config.seed`.
    ///
    /// ```
    /// use soi_graph::{gen, ProbGraph};
    /// use soi_index::{CascadeIndex, IndexConfig};
    /// let pg = ProbGraph::fixed(gen::path(4), 1.0).unwrap();
    /// let index = CascadeIndex::build(&pg, IndexConfig {
    ///     num_worlds: 4, seed: 1, ..IndexConfig::default()
    /// });
    /// // Deterministic graph: every sampled cascade of node 1 is {1,2,3}.
    /// assert!(index.cascades_of(1).iter().all(|c| c == &vec![1, 2, 3]));
    /// ```
    pub fn build(pg: &ProbGraph, config: IndexConfig) -> Self {
        assert!(config.num_worlds > 0, "need at least one world");
        let _span = soi_obs::span("index.build");
        // World `i` depends only on `(seed, i)`; each worker keeps one
        // sampler for the worlds it claims in a block.
        Self::build_blocks(
            pg.num_nodes(),
            config.num_worlds,
            config,
            WorldSampler::new,
            |sampler, i| build_world(pg, &config, i, sampler),
        )
    }

    /// Builds worlds `0..num_worlds` with `world`, [`BLOCK`] at a time.
    /// Workers claim the block's world ids (`soi_util::pool`), each with
    /// one `init` scratch; then the block's component columns are
    /// transposed into the node-major matrix and dropped, so the build
    /// holds one block of columns beside the index, never all ℓ. World
    /// `i` depends only on `i`, so neither the worker partition nor the
    /// blocking affects the result.
    fn build_blocks<S>(
        num_nodes: usize,
        num_worlds: usize,
        config: IndexConfig,
        init: impl Fn() -> S + Sync,
        world: impl Fn(&mut S, usize) -> (WorldIndex, Vec<u32>) + Sync,
    ) -> Self {
        let mut worlds = Vec::with_capacity(num_worlds);
        let mut comp_matrix = vec![0u32; num_nodes * num_worlds];
        let words = num_worlds.div_ceil(64);
        let mut closure_rows = Vec::new();
        let mut slots = Vec::with_capacity(BLOCK);
        for start in (0..num_worlds).step_by(BLOCK) {
            slots.resize_with(BLOCK.min(num_worlds - start), || None);
            soi_util::pool::for_each_indexed_with(
                &mut slots,
                config.threads,
                &init,
                |s, j, slot| *slot = Some(world(s, start + j)),
            );
            // The pool fills every slot before its scope joins.
            // xtask-allow: panic_policy
            let built = slots.drain(..).map(|slot| slot.expect("world built"));
            let (block, columns): (Vec<WorldIndex>, Vec<Vec<u32>>) = built.unzip();
            for (v, row) in comp_matrix.chunks_exact_mut(num_worlds).enumerate() {
                for (cell, column) in row[start..].iter_mut().zip(&columns) {
                    *cell = column[v];
                }
            }
            for (i, w) in (start..).zip(&block) {
                if !w.hub_members.is_empty() && closure_rows.is_empty() {
                    closure_rows.resize(num_nodes * words, 0);
                }
                for &v in &w.hub_members {
                    closure_rows[v as usize * words + i / 64] |= 1 << (i % 64);
                }
            }
            worlds.extend(block);
        }
        let closure_nodes = keep_nonzero_rows(&mut closure_rows, words);
        let max_comps = worlds.iter().map(WorldIndex::num_comps).max().unwrap_or(0);
        let mut index = CascadeIndex {
            num_nodes,
            worlds,
            comp_matrix,
            closure_nodes,
            closure_rows,
            max_comps,
            block_budget: 0,
            config,
        };
        index.block_budget = index.memory_bytes() / BLOCK_SHARE;
        index.record_build_metrics();
        index
    }

    /// A 64-bit fingerprint of the index identity: dimensions, build
    /// configuration, and per-world structural summary. Used to pin
    /// checkpoints to the index a run was started with.
    pub fn fingerprint(&self) -> u64 {
        let mut h = soi_util::hash::Mix64Hasher::new();
        h.update_u64(self.num_nodes as u64);
        h.update_u64(self.worlds.len() as u64);
        h.update_u64(self.config.seed);
        h.update_u64(self.config.transitive_reduction as u64);
        for w in &self.worlds {
            h.update_u64(w.num_comps() as u64);
            h.update_u64(w.dag.num_edges() as u64);
        }
        h.finish()
    }

    /// A 64-bit cache key identifying the index that [`build`](Self::build)
    /// would produce for a graph with [`ProbGraph::fingerprint`]
    /// `graph_fingerprint` and `config`, computable **without** building
    /// it. Combines the graph fingerprint with every config field that
    /// changes index contents (`threads` is excluded: builds are
    /// thread-count invariant). `soi serve` keys its index cache on this.
    pub fn cache_key_for(graph_fingerprint: u64, config: &IndexConfig) -> u64 {
        let mut h = soi_util::hash::Mix64Hasher::new();
        h.update_u64(graph_fingerprint);
        h.update_u64(config.num_worlds as u64);
        h.update_u64(config.seed);
        h.update_u64(config.transitive_reduction as u64);
        h.finish()
    }

    /// Builds an index from externally supplied live-edge worlds — any
    /// propagation model with a live-edge equivalence (e.g. the Linear
    /// Threshold sampler in `soi-sampling::lt`) plugs into the same
    /// typical-cascade pipeline this way. `config.num_worlds` and
    /// `config.seed` are recorded but ignored for sampling; worlds are
    /// taken verbatim, in order, and condensed by `config.threads`
    /// workers.
    pub fn build_from_worlds<'w>(
        num_nodes: usize,
        worlds: impl Iterator<Item = &'w DiGraph>,
        config: IndexConfig,
    ) -> Self {
        let worlds: Vec<&DiGraph> = worlds.collect();
        assert!(!worlds.is_empty(), "need at least one world");
        for world in &worlds {
            assert_eq!(world.num_nodes(), num_nodes, "world node-count mismatch");
        }
        Self::build_blocks(
            num_nodes,
            worlds.len(),
            config,
            || (),
            |(), i| condense_world(worlds[i], config.transitive_reduction),
        )
    }

    /// Records the build's world count and size, and logs them. Every
    /// value is a function of the seeded inputs.
    fn record_build_metrics(&self) {
        soi_obs::counter_add!("index.worlds_built", self.worlds.len());
        soi_obs::gauge("index.memory_bytes").set(self.memory_bytes() as f64);
        soi_obs::event!(
            soi_obs::Level::Info,
            "index built: {} worlds, {} comps, {} member entries, {} bytes",
            self.worlds.len(),
            self.worlds.iter().map(WorldIndex::num_comps).sum::<usize>(),
            self.worlds.iter().map(|w| w.members.len()).sum::<usize>(),
            self.memory_bytes()
        );
    }

    /// Number of nodes of the indexed graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of indexed worlds ℓ.
    pub fn num_worlds(&self) -> usize {
        self.worlds.len()
    }

    /// The build configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The stored world structures.
    pub fn world(&self, i: usize) -> &WorldIndex {
        &self.worlds[i]
    }

    /// The nodes in some world's hub closure, ascending, and each one's
    /// row of `⌈ℓ/64⌉` words over the worlds: bit `i % 64` of word `i / 64`
    /// is set when world `i`'s closure ([`WorldIndex::chunk`] of
    /// [`HUB_CLOSURE`]) holds the node. Both are empty when no world has a
    /// closure.
    pub fn closure_rows(&self) -> (&[NodeId], &[u64]) {
        (&self.closure_nodes, &self.closure_rows)
    }

    /// `I[v, i]`: the component of node `v` in world `i`.
    #[inline]
    pub fn comp_of(&self, v: NodeId, i: usize) -> u32 {
        self.comp_matrix[v as usize * self.worlds.len() + i]
    }

    /// Creates reusable query scratch sized for this index.
    pub fn query(&self) -> IndexQuery {
        IndexQuery {
            walk: Walk {
                reach: Reachability::new(self.max_comps),
                chunks: Vec::new(),
                deferred: Vec::new(),
                #[cfg(test)]
                branches: [0; 2],
            },
            seed_comps: Vec::new(),
            block: Block::default(),
            pairs: Vec::new(),
        }
    }

    /// The cascade of `v` in world `i`, written to `out` (unsorted,
    /// no duplicates). `out` is cleared first.
    pub fn cascade(&self, v: NodeId, i: usize, q: &mut IndexQuery, out: &mut Vec<NodeId>) {
        self.multi_cascade(std::slice::from_ref(&v), i, q, out)
    }

    /// The cascade of a seed set in world `i` (union of per-seed
    /// cascades), written to `out` (unsorted, no duplicates).
    pub fn multi_cascade(
        &self,
        seeds: &[NodeId],
        i: usize,
        q: &mut IndexQuery,
        out: &mut Vec<NodeId>,
    ) {
        let w = &self.worlds[i];
        q.seed_comps.clear();
        q.seed_comps
            .extend(seeds.iter().map(|&s| self.comp_of(s, i)));
        w.walk(&q.seed_comps, &mut q.walk);
        out.clear();
        for &c in &q.walk.chunks {
            out.extend_from_slice(w.chunk(c));
        }
    }

    /// Cascade size of `v` in world `i` without materializing node ids.
    pub fn cascade_size(&self, v: NodeId, i: usize, q: &mut IndexQuery) -> usize {
        let w = &self.worlds[i];
        w.walk(&[self.comp_of(v, i)], &mut q.walk);
        q.walk.chunks.iter().map(|&c| w.chunk(c).len()).sum()
    }

    /// All ℓ cascades of `v` as canonical sorted sets — the input shape
    /// the Jaccard-median machinery expects (Algorithm 2's inner loop).
    pub fn cascades_of(&self, v: NodeId) -> Vec<Vec<NodeId>> {
        let mut q = self.query();
        let mut sets = vec![Vec::new(); self.num_worlds()];
        for &(i, c) in self.reached_comps(v, &mut q) {
            sets[i as usize].extend_from_slice(self.worlds[i as usize].chunk(c));
        }
        for set in &mut sets {
            set.sort_unstable();
        }
        sets
    }

    /// What `v` reaches in every world, as `(world, chunk)` pairs in
    /// ascending world order, valid until `q` is used again. A chunk is a
    /// component, or [`HUB_CLOSURE`] when `v` reaches the world's largest
    /// SCC. The cascade of `v` in world `i` is the disjoint union of the
    /// member lists ([`WorldIndex::chunk`]) of world `i`'s pairs, so a
    /// consumer can read all ℓ cascades without materialising them. The
    /// block walk of [`reach_block`](Self::reach_block) over `v` alone.
    pub fn reached_comps<'q>(&self, v: NodeId, q: &'q mut IndexQuery) -> &'q [(u32, u32)] {
        self.walk_block(v, 1, None, q);
        self.block_pairs(v, q)
    }

    /// Walks a block of consecutive nodes from `nodes.start` world by
    /// world: world 0 for every node of the block, then world 1, and so
    /// on, so each world's DAG is read once per block rather than once per
    /// node. Returns the block, never empty when `nodes` is not; each of
    /// its nodes' pairs are then [`block_pairs`](Self::block_pairs), the
    /// same pairs in the same order as [`reached_comps`](Self::reached_comps).
    ///
    /// The block is as long as `nodes` and the index's block budget
    /// allow: the walked lists of all its nodes but the last stay within
    /// [`memory_bytes`](Self::memory_bytes) / 64. A node's lists are
    /// unknown until it is walked, so the block is sized from the bytes
    /// per node that `q`'s last block held (one node at first), and nodes
    /// are dropped from its end, to be walked again in a later block, if
    /// the walked lists outgrow the budget.
    pub fn reach_block(&self, nodes: Range<NodeId>, q: &mut IndexQuery) -> Range<NodeId> {
        self.reach_block_within(nodes, self.block_budget, q)
    }

    /// [`reach_block`](Self::reach_block) under a given `budget` in bytes.
    fn reach_block_within(
        &self,
        nodes: Range<NodeId>,
        budget: usize,
        q: &mut IndexQuery,
    ) -> Range<NodeId> {
        let wanted = match q.block.node_bytes {
            0 => 1,
            per_node => budget / per_node + 1,
        };
        let len = wanted.min(nodes.len());
        let len = self.walk_block(nodes.start, len, Some(budget), q);
        nodes.start..nodes.start + len as NodeId
    }

    /// Walks nodes `first..first + len`, world-major, into `q.block`.
    /// Under a `budget`, drops nodes from the block's end while the lists
    /// of all but its last node hold more than `budget` bytes. Returns
    /// the block's length.
    fn walk_block(
        &self,
        first: NodeId,
        len: usize,
        budget: Option<usize>,
        q: &mut IndexQuery,
    ) -> usize {
        let IndexQuery { walk, block, .. } = q;
        let ell = self.worlds.len();
        block.first = first;
        block.len = len;
        block.chunks.clear();
        block.ends.clear();
        block.counts.clear();
        block.counts.resize(len, 0);
        block.ends.reserve(len * ell);
        if let Some(budget) = budget.filter(|_| len > 1) {
            // Room for a budget of lists in one allocation, never copied;
            // only the pages the lists fill become resident.
            block.chunks.reserve(budget / std::mem::size_of::<u32>());
        }
        // Bytes a node holds: its chunks, and one end per world.
        let bytes = |chunks: usize| (chunks + ell) * std::mem::size_of::<u32>();
        for (i, w) in self.worlds.iter().enumerate() {
            for (j, count) in block.counts.iter_mut().enumerate() {
                w.walk(&[self.comp_of(first + j as NodeId, i)], walk);
                block.chunks.extend_from_slice(&walk.chunks);
                block.ends.push(block.chunks.len() as u32);
                *count += walk.chunks.len() as u32;
            }
            // `ends` and `counts` are `u32`; a failed check stops the walk
            // before a wrapped offset is read.
            assert!(
                block.chunks.len() <= u32::MAX as usize,
                "block lists overflow u32"
            );
            let Some(budget) = budget.filter(|_| block.len > 1) else {
                continue;
            };
            let mut keep = block.len;
            let mut before_last = block.chunks.len() - block.counts[keep - 1] as usize;
            while keep > 1 && bytes(before_last) + (keep - 2) * bytes(0) > budget {
                keep -= 1;
                before_last -= block.counts[keep - 1] as usize;
            }
            if keep < block.len {
                block.truncate(keep);
            }
        }
        let held = bytes(block.chunks.len()) + (block.len - 1) * bytes(0);
        block.node_bytes = held.div_ceil(block.len);
        block.len
    }

    /// `v`'s pairs from the last block walk of `q`, in ascending world
    /// order, valid until `q` is used again. `v` must lie in that block.
    pub fn block_pairs<'q>(&self, v: NodeId, q: &'q mut IndexQuery) -> &'q [(u32, u32)] {
        let IndexQuery { block, pairs, .. } = q;
        let j = (v - block.first) as usize;
        assert!(j < block.len, "node {v} is not in the last block");
        pairs.clear();
        pairs.reserve(block.counts[j] as usize);
        // Node `j`'s chunks in world `i` start where the entry before it
        // ends: node `j - 1`'s in the same world, or the previous world's
        // last node's.
        let mut last = 0;
        for (i, ends) in block.ends.chunks_exact(block.len).enumerate() {
            let start = if j == 0 { last } else { ends[j - 1] as usize };
            let chunks = &block.chunks[start..ends[j] as usize];
            pairs.extend(chunks.iter().map(|&c| (i as u32, c)));
            last = ends[block.len - 1] as usize;
        }
        pairs
    }

    /// Heap footprint in bytes of the stored arrays: the component
    /// matrix, the closure rows and, per world, the DAG's CSR offsets and
    /// arcs, the members (and their offsets, unless all components are
    /// singletons), and the hub closure's mask and members. The quantity
    /// §4 argues the condensation representation keeps small.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let worlds: usize = self
            .worlds
            .iter()
            .map(|w| {
                let (offsets, arcs) = w.dag.csr_parts();
                let ids = [offsets, arcs, &w.member_offsets, &w.members, &w.hub_members];
                ids.map(<[u32]>::len).iter().sum::<usize>() * size_of::<u32>()
                    + w.hub_mask.len() * size_of::<u64>()
            })
            .sum();
        let closures = self.closure_nodes.len() * size_of::<NodeId>()
            + self.closure_rows.len() * size_of::<u64>();
        self.comp_matrix.len() * size_of::<u32>() + closures + worlds
    }

    /// Mean number of SCCs per world (diagnostics for EXPERIMENTS.md).
    pub fn mean_comps(&self) -> f64 {
        self.worlds
            .iter()
            .map(|w| w.num_comps() as f64)
            .sum::<f64>()
            / self.worlds.len() as f64
    }

    /// Mean number of condensation arcs per world.
    pub fn mean_dag_edges(&self) -> f64 {
        self.worlds
            .iter()
            .map(|w| w.dag.num_edges() as f64)
            .sum::<f64>()
            / self.worlds.len() as f64
    }
}

/// Drops the all-zero rows of `words` words from the node-major `rows`,
/// keeping the others in node order, and returns the nodes they belong to.
fn keep_nonzero_rows(rows: &mut Vec<u64>, words: usize) -> Vec<NodeId> {
    let mut nodes = Vec::new();
    for v in 0..rows.len() / words.max(1) {
        let row = v * words..(v + 1) * words;
        if rows[row.clone()].iter().any(|&w| w != 0) {
            rows.copy_within(row, nodes.len() * words);
            nodes.push(v as NodeId);
        }
    }
    rows.truncate(nodes.len() * words);
    rows.shrink_to_fit();
    nodes
}

/// Whether component `c` is in the hub closure `mask`.
#[inline]
fn in_closure(mask: &[u64], c: u32) -> bool {
    let word = mask.get(c as usize / 64);
    word.is_some_and(|w| w >> (c % 64) & 1 == 1)
}

/// Reusable per-thread query scratch for [`CascadeIndex`].
pub struct IndexQuery {
    walk: Walk,
    /// The seeds' components in the world being queried.
    seed_comps: Vec<u32>,
    /// The last block walk.
    block: Block,
    /// The last [`CascadeIndex::block_pairs`] answer.
    pairs: Vec<(u32, u32)>,
}

/// The lists of a block walk ([`CascadeIndex::reach_block`]): the chunks
/// of every `(world, node)` walk, world-major.
#[derive(Default)]
struct Block {
    first: NodeId,
    len: usize,
    chunks: Vec<u32>,
    /// `ends[i * len + j]`: where node `first + j`'s chunks in world `i`
    /// end in `chunks`; they start where the previous entry ends.
    ends: Vec<u32>,
    /// Chunks walked so far per node.
    counts: Vec<u32>,
    /// The bytes per node the last block held: the next block's size.
    node_bytes: usize,
    /// Nodes dropped from blocks' ends so far.
    #[cfg(test)]
    dropped: usize,
}

impl Block {
    /// Drops the block's nodes from `keep` on, from every world walked.
    fn truncate(&mut self, keep: usize) {
        let (mut start, mut write, mut at) = (0, 0, 0);
        for k in 0..self.ends.len() {
            let end = self.ends[k] as usize;
            if k % self.len < keep {
                self.chunks.copy_within(start..end, write);
                write += end - start;
                self.ends[at] = write as u32;
                at += 1;
            }
            start = end;
        }
        self.chunks.truncate(write);
        self.ends.truncate(at);
        self.counts.truncate(keep);
        #[cfg(test)]
        {
            self.dropped += self.len - keep;
        }
        self.len = keep;
    }
}

/// Scratch of [`WorldIndex::walk`].
struct Walk {
    reach: Reachability,
    /// The last walk's chunks.
    chunks: Vec<u32>,
    /// The hub-closure components the walk set aside.
    deferred: Vec<u32>,
    /// Walks that resumed from deferred components, and walks that hit.
    #[cfg(test)]
    branches: [usize; 2],
}

fn build_world(
    pg: &ProbGraph,
    config: &IndexConfig,
    i: usize,
    sampler: &mut WorldSampler,
) -> (WorldIndex, Vec<u32>) {
    let mut rng = world_rng(config.seed, i);
    let world = {
        let _span = soi_obs::span("index.sample_world");
        sampler.sample(pg, &mut rng)
    };
    let _span = soi_obs::span("index.condense_world");
    condense_world(&world, config.transitive_reduction)
}

fn condense_world(world: &DiGraph, reduce: bool) -> (WorldIndex, Vec<u32>) {
    let cond = Condensation::new(world);
    let dag = if reduce {
        // A condensation is acyclic by construction (checked in debug
        // builds by soi_util::invariant::debug_check_acyclic), and
        // transitive_reduction only returns None on cyclic input.
        // xtask-allow: panic_policy
        transitive::transitive_reduction(&cond.dag).expect("condensation is a DAG")
    } else {
        cond.dag
    };
    (
        WorldIndex::from_parts(dag, cond.member_offsets, cond.members),
        cond.comp_of,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::gen;
    use soi_graph::DiGraph;

    fn test_graph(seed: u64) -> ProbGraph {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(seed);
        ProbGraph::fixed(gen::gnm(60, 300, &mut rng), 0.3).unwrap()
    }

    /// The differential oracle of the hub walk: for every node and world,
    /// `cascade`, `cascade_size` and `reached_comps` answer what a plain
    /// BFS over the re-sampled world answers, and so does `multi_cascade`
    /// from seeds in the hub closure but outside the hub (plus node 0),
    /// which forces the resume branch. Returns the walk branch counts
    /// `[resumed from deferred components, hit]`.
    fn assert_hub_walk_matches_bfs(pg: &ProbGraph, num_worlds: usize) -> [usize; 2] {
        let config = IndexConfig {
            num_worlds,
            seed: 77,
            transitive_reduction: true,
            threads: 1,
        };
        let index = CascadeIndex::build(pg, config);
        let n = pg.num_nodes() as NodeId;
        let mut sampler = WorldSampler::new();
        let worlds: Vec<DiGraph> = (0..num_worlds)
            .map(|i| sampler.sample(pg, &mut world_rng(77, i)))
            .collect();
        let mut q = index.query();
        let mut reach = Reachability::new(n as usize);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let sorted = |set: &mut Vec<NodeId>| {
            set.sort_unstable();
            std::mem::take(set)
        };
        for v in 0..n {
            let mut chunks = vec![Vec::new(); num_worlds];
            for &(i, c) in index.reached_comps(v, &mut q) {
                chunks[i as usize].extend_from_slice(index.world(i as usize).chunk(c));
            }
            for (i, world) in worlds.iter().enumerate() {
                reach.reachable_from(world, v, &mut want);
                let want = sorted(&mut want);
                index.cascade(v, i, &mut q, &mut got);
                assert_eq!(sorted(&mut got), want, "cascade: world {i}, node {v}");
                assert_eq!(sorted(&mut chunks[i]), want, "chunks: world {i}, node {v}");
                assert_eq!(index.cascade_size(v, i, &mut q), want.len());
            }
        }
        for (i, world) in worlds.iter().enumerate() {
            let w = index.world(i);
            let inside = |v: &NodeId| {
                let c = index.comp_of(*v, i);
                in_closure(&w.hub_mask, c) && c != w.hub
            };
            let mut seeds: Vec<NodeId> = (0..n).filter(inside).take(3).collect();
            for _ in 0..2 {
                index.multi_cascade(&seeds, i, &mut q, &mut got);
                reach.multi_source(world, &seeds, &mut want);
                assert_eq!(
                    sorted(&mut got),
                    sorted(&mut want),
                    "world {i}, seeds {seeds:?}"
                );
                seeds.push(0);
            }
        }
        q.walk.branches
    }

    #[test]
    fn hub_walk_matches_bfs_on_a_supercritical_graph() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(1);
        let pg = ProbGraph::fixed(gen::gnm(120, 600, &mut rng), 0.3).unwrap();
        let [resumed, hits] = assert_hub_walk_matches_bfs(&pg, 12);
        assert!(resumed > 0 && hits > 0, "resumed {resumed}, hits {hits}");
    }

    #[test]
    fn hub_walk_matches_bfs_on_a_weighted_cascade_graph() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(2);
        let pg = ProbGraph::weighted_cascade(gen::barabasi_albert(300, 3, true, &mut rng));
        assert_hub_walk_matches_bfs(&pg, 8);
    }

    #[test]
    fn hub_walk_matches_bfs_when_the_hub_reaches_the_whole_world() {
        // A p = 1 cycle is one SCC: a closure of the hub alone, walked
        // plainly.
        let pg = ProbGraph::fixed(gen::cycle(30), 1.0).unwrap();
        assert_eq!(assert_hub_walk_matches_bfs(&pg, 4), [0, 0]);
        // The cycle 0..30 with the path 29 → 30 → … → 39 hanging off it:
        // per world, each node walks three times (cascade, size, chunks),
        // so the 30 cycle nodes hit 90 times and the 10 path nodes resume
        // 30 times; then seeds {30, 31, 32} resume and {30, 31, 32, 0} hit.
        let mut edges: Vec<(NodeId, NodeId)> = (0..30).map(|v| (v, (v + 1) % 30)).collect();
        edges.extend((29..39).map(|v| (v, v + 1)));
        let pg = ProbGraph::fixed(DiGraph::from_edges(40, &edges).unwrap(), 1.0).unwrap();
        assert_eq!(assert_hub_walk_matches_bfs(&pg, 4), [4 * 31, 4 * 91]);
    }

    #[test]
    fn cache_key_tracks_content_inputs_only() {
        let pg = test_graph(1);
        let config = IndexConfig {
            num_worlds: 8,
            seed: 5,
            transitive_reduction: true,
            threads: 1,
        };
        let key = |pg: &ProbGraph, config| CascadeIndex::cache_key_for(pg.fingerprint(), &config);
        let base = key(&pg, config);
        // Thread count never changes index contents, so it never changes
        // the key; every content-bearing input does.
        assert_eq!(
            base,
            key(
                &pg,
                IndexConfig {
                    threads: 4,
                    ..config
                }
            )
        );
        assert_ne!(
            base,
            key(
                &pg,
                IndexConfig {
                    num_worlds: 9,
                    ..config
                }
            )
        );
        assert_ne!(base, key(&pg, IndexConfig { seed: 6, ..config }));
        assert_ne!(
            base,
            key(
                &pg,
                IndexConfig {
                    transitive_reduction: false,
                    ..config
                }
            )
        );
        assert_ne!(base, key(&test_graph(2), config));
    }

    /// Every `comp_of(v, i)` and every world's DAG and member lists.
    fn assert_same_index(a: &CascadeIndex, b: &CascadeIndex) {
        assert_eq!(a.num_worlds(), b.num_worlds());
        for i in 0..a.num_worlds() {
            let (wa, wb) = (a.world(i), b.world(i));
            assert_eq!(wa.dag, wb.dag, "world {i}");
            for c in 0..wa.num_comps() as u32 {
                assert_eq!(wa.members_of(c), wb.members_of(c), "world {i}, comp {c}");
            }
            for v in 0..a.num_nodes() as NodeId {
                assert_eq!(a.comp_of(v, i), b.comp_of(v, i), "world {i}, node {v}");
            }
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    /// Two full blocks of worlds and a ragged third.
    const BLOCKS_OF_WORLDS: usize = 2 * BLOCK + 3;

    #[test]
    fn parallel_build_matches_serial() {
        let pg = test_graph(2);
        let mk = |threads| {
            CascadeIndex::build(
                &pg,
                IndexConfig {
                    num_worlds: BLOCKS_OF_WORLDS,
                    seed: 5,
                    transitive_reduction: true,
                    threads,
                },
            )
        };
        let serial = mk(1);
        let parallel = mk(4);
        assert_same_index(&serial, &parallel);
        for v in 0..pg.num_nodes() as NodeId {
            assert_eq!(serial.cascades_of(v), parallel.cascades_of(v), "node {v}");
        }
    }

    #[test]
    fn build_from_sampled_worlds_matches_build() {
        let pg = test_graph(8);
        let config = IndexConfig {
            num_worlds: BLOCKS_OF_WORLDS,
            seed: 13,
            transitive_reduction: true,
            threads: 2,
        };
        let mut sampler = WorldSampler::new();
        let worlds: Vec<DiGraph> = (0..config.num_worlds)
            .map(|i| sampler.sample(&pg, &mut world_rng(config.seed, i)))
            .collect();
        let from_worlds = CascadeIndex::build_from_worlds(pg.num_nodes(), worlds.iter(), config);
        assert_same_index(&CascadeIndex::build(&pg, config), &from_worlds);
    }

    #[test]
    fn reduction_does_not_change_cascades() {
        let pg = test_graph(3);
        let mk = |reduce| {
            CascadeIndex::build(
                &pg,
                IndexConfig {
                    num_worlds: 6,
                    seed: 9,
                    transitive_reduction: reduce,
                    threads: 1,
                },
            )
        };
        let reduced = mk(true);
        let full = mk(false);
        for v in (0..pg.num_nodes() as NodeId).step_by(7) {
            assert_eq!(reduced.cascades_of(v), full.cascades_of(v));
        }
        // The reduction should not add arcs.
        let re: f64 = reduced.mean_dag_edges();
        let fe: f64 = full.mean_dag_edges();
        assert!(re <= fe + 1e-9, "{re} > {fe}");
    }

    #[test]
    fn cascade_size_matches_materialization() {
        let pg = test_graph(4);
        let index = CascadeIndex::build(
            &pg,
            IndexConfig {
                num_worlds: 5,
                seed: 3,
                ..IndexConfig::default()
            },
        );
        let mut q = index.query();
        let mut out = Vec::new();
        for i in 0..5 {
            for v in (0..60).step_by(11) {
                index.cascade(v, i, &mut q, &mut out);
                let len = out.len();
                assert_eq!(index.cascade_size(v, i, &mut q), len);
            }
        }
    }

    #[test]
    fn multi_cascade_is_union_of_singles() {
        let pg = test_graph(5);
        let index = CascadeIndex::build(
            &pg,
            IndexConfig {
                num_worlds: 4,
                seed: 8,
                ..IndexConfig::default()
            },
        );
        let mut q = index.query();
        let (mut a, mut b, mut ab) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..4 {
            index.cascade(10, i, &mut q, &mut a);
            index.cascade(20, i, &mut q, &mut b);
            index.multi_cascade(&[10, 20], i, &mut q, &mut ab);
            let mut union: Vec<NodeId> = a.iter().chain(b.iter()).copied().collect();
            union.sort_unstable();
            union.dedup();
            ab.sort_unstable();
            assert_eq!(ab, union, "world {i}");
        }
    }

    #[test]
    fn cascades_contain_their_source_and_sizes_bounded() {
        let pg = test_graph(6);
        let index = CascadeIndex::build(
            &pg,
            IndexConfig {
                num_worlds: 10,
                seed: 2,
                ..IndexConfig::default()
            },
        );
        for v in (0..60).step_by(13) {
            for c in index.cascades_of(v as NodeId) {
                assert!(c.contains(&(v as NodeId)));
                assert!(c.len() <= 60);
            }
        }
    }

    #[test]
    fn fingerprint_distinguishes_builds() {
        let pg = test_graph(9);
        let mk = |seed| {
            CascadeIndex::build(
                &pg,
                IndexConfig {
                    num_worlds: 4,
                    seed,
                    ..IndexConfig::default()
                },
            )
        };
        assert_eq!(mk(1).fingerprint(), mk(1).fingerprint());
        assert_ne!(mk(1).fingerprint(), mk(2).fingerprint());
    }

    /// The built index's structure, read through public accessors only:
    /// every world's reduced DAG and member lists, then the component
    /// matrix. The transitive reduction of a DAG is unique, so however
    /// the kernels find it the contents stay the same; the hashes and
    /// [`CascadeIndex::fingerprint`]s below were recorded at commit
    /// 4ad167f — checkpoints and caches keyed on them stay valid. Every
    /// weighted-cascade world is all singletons and stores no member
    /// offsets, and no supercritical world is, so the hashes cover both
    /// layouts of `members_of`. [`CascadeIndex::memory_bytes`] is pinned
    /// beside them, so storage that grows again (wider offsets, identity
    /// member offsets) fails here.
    #[test]
    fn index_contents_and_fingerprint_are_pinned() {
        let got = pinned_fixtures().map(|index| {
            let singletons = (0..index.num_worlds())
                .filter(|&i| index.world(i).member_offsets.is_empty())
                .count();
            let mut h = soi_util::hash::Mix64Hasher::new();
            for i in 0..index.num_worlds() {
                let w = index.world(i);
                h.update_u64(w.num_comps() as u64);
                for c in 0..w.num_comps() as u32 {
                    for list in [w.dag.out_neighbors(c), w.members_of(c)] {
                        h.update_u64(list.len() as u64);
                        list.iter().for_each(|&x| h.update_u64(x.into()));
                    }
                }
            }
            for v in 0..index.num_nodes() as NodeId {
                for i in 0..index.num_worlds() {
                    h.update_u64(index.comp_of(v, i).into());
                }
            }
            (
                h.finish(),
                index.fingerprint(),
                index.memory_bytes(),
                singletons,
            )
        });
        // The supercritical fixture's 597 closure nodes add one 4-byte id
        // and one 16-world row word each.
        let pinned = [
            (0xb22c_85d4_7c6c_fc2d, 0xa731_8c4c_7e3d_6853, 142_936, 16),
            (
                0xe840_0ede_920f_dbba,
                0x4745_6411_1710_acbb,
                177_220 + 597 * (4 + 8),
                0,
            ),
        ];
        assert_eq!(got, pinned, "got {got:#x?}");
    }

    /// The indexes [`index_contents_and_fingerprint_are_pinned`] pins: 16
    /// worlds of a weighted-cascade BA graph, and of a supercritical one.
    fn pinned_fixtures() -> [CascadeIndex; 2] {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(11);
        let wc = ProbGraph::weighted_cascade(gen::barabasi_albert(600, 5, true, &mut rng));
        let supercritical = ProbGraph::fixed(gen::gnm(600, 3000, &mut rng), 0.3).unwrap();
        [wc, supercritical].map(|pg| {
            let config = IndexConfig {
                num_worlds: 16,
                seed: 29,
                threads: 2,
                ..IndexConfig::default()
            };
            CascadeIndex::build(&pg, config)
        })
    }

    /// Bit `(v, i)` of the closure rows is set exactly when world `i`'s
    /// hub closure holds `v`, and a node in no closure has no row. Returns
    /// the number of rows.
    fn assert_closure_rows(index: &CascadeIndex) -> usize {
        let (nodes, rows) = index.closure_rows();
        let words = index.num_worlds().div_ceil(64);
        assert!(nodes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(rows.len(), nodes.len() * words);
        let zeros = vec![0; words];
        for v in 0..index.num_nodes() as NodeId {
            let row = match nodes.binary_search(&v) {
                Ok(at) => &rows[at * words..(at + 1) * words],
                Err(_) => &zeros[..],
            };
            for i in 0..index.num_worlds() {
                let held = index.world(i).chunk(HUB_CLOSURE).contains(&v);
                assert_eq!(
                    row[i / 64] >> (i % 64) & 1 == 1,
                    held,
                    "node {v}, world {i}"
                );
            }
        }
        nodes.len()
    }

    /// The block walk of nodes `first..first + len` gives every node of
    /// the block the pairs `reached_comps` gives it, in the same order.
    fn assert_block_matches_single(
        index: &CascadeIndex,
        first: NodeId,
        len: usize,
        q: &mut IndexQuery,
    ) {
        let mut single = index.query();
        assert_eq!(index.walk_block(first, len, None, q), len);
        for v in first..first + len as NodeId {
            let want = index.reached_comps(v, &mut single).to_vec();
            assert_eq!(
                index.block_pairs(v, q),
                want,
                "block {first}+{len}, node {v}"
            );
        }
    }

    /// Every block start and length on a 60-node supercritical graph,
    /// where walks hit the hub closure and resume from it, and every
    /// partition into equal blocks of the two pinned fixtures.
    #[test]
    fn block_walk_matches_reached_comps() {
        let index = CascadeIndex::build(
            &test_graph(12),
            IndexConfig {
                num_worlds: 8,
                seed: 3,
                ..IndexConfig::default()
            },
        );
        let mut q = index.query();
        for first in 0..60 {
            for len in 1..=60 - first as usize {
                assert_block_matches_single(&index, first, len, &mut q);
            }
        }
        let [resumed, hits] = q.walk.branches;
        assert!(resumed > 0 && hits > 0, "resumed {resumed}, hits {hits}");
        for index in pinned_fixtures() {
            let (n, mut q) = (index.num_nodes(), index.query());
            for len in [1, 7, 64, 250, n] {
                for first in (0..n).step_by(len) {
                    assert_block_matches_single(
                        &index,
                        first as NodeId,
                        len.min(n - first),
                        &mut q,
                    );
                }
            }
        }
    }

    /// On a directed BA graph at p = 0.6 (acyclic, so no hub closure, and
    /// node `v` reaches much of `0..v`: lists grow along the node range),
    /// the blocks of `reach_block_within` tile the range, and the lists of
    /// all but a block's last node never exceed the budget, while blocks
    /// still hold many nodes and nodes are dropped from their ends.
    #[test]
    fn block_lists_stay_within_the_budget() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(13);
        let pg = ProbGraph::fixed(gen::barabasi_albert(400, 3, true, &mut rng), 0.6).unwrap();
        let index = CascadeIndex::build(
            &pg,
            IndexConfig {
                num_worlds: 16,
                seed: 5,
                ..IndexConfig::default()
            },
        );
        assert!(index.closure_rows().0.is_empty(), "no world has a closure");
        let budget = 40_000;
        let (mut q, mut single) = (index.query(), index.query());
        let (mut next, mut longest) = (0, 0);
        while next < 400 {
            let block = index.reach_block_within(next..400, budget, &mut q);
            assert_eq!(block.start, next);
            assert!(!block.is_empty());
            longest = longest.max(block.len());
            let b = &q.block;
            let last = b.counts[b.len - 1] as usize + index.num_worlds();
            let held = b.chunks.len() + b.len * index.num_worlds();
            assert!(
                (held - last) * 4 <= budget,
                "block {block:?} holds {} bytes beside its last node",
                (held - last) * 4
            );
            for v in block.clone() {
                let want = index.reached_comps(v, &mut single).to_vec();
                assert_eq!(index.block_pairs(v, &mut q), want, "node {v}");
            }
            next = block.end;
        }
        let dropped = q.block.dropped;
        assert!(
            longest >= 10 && dropped > 0,
            "longest {longest}, dropped {dropped}"
        );
    }

    #[test]
    fn closure_rows_mark_each_worlds_hub_members() {
        let [wc, supercritical] = pinned_fixtures();
        assert_eq!(assert_closure_rows(&wc), 0);
        assert_eq!(wc.closure_rows(), (&[][..], &[][..]));
        assert_eq!(assert_closure_rows(&supercritical), 597);
        // Two full blocks of worlds and a ragged third: two-word rows.
        let index = CascadeIndex::build(
            &test_graph(10),
            IndexConfig {
                num_worlds: BLOCKS_OF_WORLDS,
                seed: 4,
                ..IndexConfig::default()
            },
        );
        assert!(assert_closure_rows(&index) > 0);
    }

    #[test]
    fn diagnostics_are_positive() {
        let pg = test_graph(7);
        let index = CascadeIndex::build(
            &pg,
            IndexConfig {
                num_worlds: 3,
                seed: 1,
                ..IndexConfig::default()
            },
        );
        assert!(index.memory_bytes() > 0);
        assert!(index.mean_comps() >= 1.0);
        assert!(index.mean_comps() <= 60.0);
    }
}
