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

use soi_graph::{scc::Condensation, transitive, DiGraph, NodeId, ProbGraph, Reachability};
use soi_sampling::world::world_rng;
use soi_sampling::WorldSampler;

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
        let index = CascadeIndex {
            num_nodes,
            worlds,
            comp_matrix,
            closure_nodes,
            closure_rows,
            max_comps,
            config,
        };
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
    /// consumer can read all ℓ cascades without materialising them.
    pub fn reached_comps<'q>(&self, v: NodeId, q: &'q mut IndexQuery) -> &'q [(u32, u32)] {
        q.pairs.clear();
        for (i, w) in self.worlds.iter().enumerate() {
            w.walk(&[self.comp_of(v, i)], &mut q.walk);
            q.pairs.extend(q.walk.chunks.iter().map(|&c| (i as u32, c)));
        }
        &q.pairs
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
    /// The last [`CascadeIndex::reached_comps`] answer.
    pairs: Vec<(u32, u32)>,
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
