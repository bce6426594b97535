//! # soi-index
//!
//! The cascade index of §4 (Algorithm 1 of the paper).
//!
//! To compute typical cascades for *every* node, the paper samples ℓ
//! possible worlds once and keeps them for the whole run. This index keeps
//! them as **live-arc bits** ([`WorldMasks`]): world `i`'s arc `e` is bit
//! `i % 64` of word `e` in column `i / 64`, so an arc's live worlds are one
//! row of `⌈ℓ/64⌉` words, drawn 64 worlds at a time by the coin loop every
//! sampler shares. The cascade of `v` in world `i` is what a walk from `v`
//! reaches over the graph's CSR, skipping the arcs dead in world `i`.
//!
//! A lookup walks all ℓ worlds at once ([`CascadeIndex::walk`]): its state
//! per node is a **world set** of `⌈ℓ/64⌉` words, the worlds in which the
//! walk reached the node, and it carries along each arc only the worlds
//! `new = d_x & row_e & !seen_y` that reach its head for the first time.
//! A node's ℓ cascades come out of one pass over the nodes any of them
//! holds, not ℓ passes.
//!
//! The paper condenses each world's SCCs and transitively reduces the
//! condensation, so that queries walk a smaller DAG. Every world of an
//! acyclic graph (a directed Barabási–Albert one under weighted cascade,
//! say) is all singletons, and its reduction keeps every arc: the
//! condensation is the live world relabelled. So the index keeps SCC
//! structure only where it shares work.
//!
//! In a supercritical world most nodes reach the largest SCC, and all of
//! them then reach the same nodes: the **hub closure**, everything the
//! largest SCC (ties: the lowest Tarjan component id) reaches. For a world
//! whose hub reaches more than itself the index keeps the closure's
//! members, and one row per node over the worlds whose closure holds it
//! and over the worlds whose hub SCC holds it
//! ([`CascadeIndex::closure_rows`]). The walk does not expand a node in
//! the worlds whose closure holds it but sets it aside there. In the
//! worlds where a set-aside node is a hub node the cascade is the walked
//! nodes plus the whole closure (a **hit**); in the others the walk
//! resumes from the set-aside nodes. The answer is unchanged: a path from
//! outside the closure into it stays inside it, so every node outside the
//! closure is reached by a path that never touches the closure, and a path
//! into the hub enters the closure at a hub node. In an acyclic graph
//! every SCC is one node, so the hub is Tarjan's first component, a sink
//! that reaches only itself, and the build runs no Tarjan at all.
//!
//! Worlds are derived deterministically from `(seed, world-id)`, so a
//! build is reproducible bit-for-bit regardless of thread count. The
//! [`fingerprint`](CascadeIndex::fingerprint) hashes what the index
//! stores: `n`, ℓ and each arc's row of live worlds. No product path
//! condenses a world; only the diagnostic
//! [`mean_dag_edges`](CascadeIndex::mean_dag_edges) does.

use soi_graph::{scc::tarjan_scc, transitive, DiGraph, NodeId, ProbGraph, Reachability};
use soi_sampling::world::{draw_column, WorldMasks};
use soi_util::bitset::ones;
use std::collections::VecDeque;

/// Build-time options for [`CascadeIndex`].
#[derive(Clone, Copy, Debug)]
pub struct IndexConfig {
    /// Number of possible worlds ℓ to sample (the paper uses 1000).
    pub num_worlds: usize,
    /// Master seed; world `i` uses the sub-seed `derive_seed(seed, i)`.
    pub seed: u64,
    /// Whether [`CascadeIndex::mean_dag_edges`] counts each world's
    /// condensation transitively reduced (§4). The index stores no
    /// condensation, so this changes no cascade and no fingerprint.
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

/// A world's hub closure: the nodes its largest SCC (ties: the lowest
/// Tarjan component id) reaches, that SCC's nodes first.
struct Hub {
    members: Vec<NodeId>,
    scc_len: usize,
}

impl Hub {
    /// The hub of `world`, or `None` when it reaches only itself.
    fn find(world: &DiGraph) -> Option<Hub> {
        let n = world.num_nodes();
        let scc = tarjan_scc(world);
        let mut sizes = vec![0u32; scc.num_comps];
        for &c in &scc.comp_of {
            sizes[c as usize] += 1;
        }
        let hub = (0..scc.num_comps).rev().max_by_key(|&c| sizes[c])?;
        let nodes = (0..n as NodeId).filter(|&v| scc.comp_of[v as usize] as usize == hub);
        let scc: Vec<NodeId> = nodes.collect();
        // The walk lists its sources first.
        let mut members = Vec::new();
        Reachability::new(n).multi_source(world, &scc, &mut members);
        (members.len() > scc.len()).then_some(Hub {
            members,
            scc_len: scc.len(),
        })
    }

    fn scc(&self) -> &[NodeId] {
        &self.members[..self.scc_len]
    }
}

/// World `i` of `masks` as a graph of its own: `g`'s arcs live in it, in
/// CSR order.
fn live_world(g: &DiGraph, masks: &WorldMasks, i: usize) -> DiGraph {
    let mut offsets = Vec::with_capacity(g.num_nodes() + 1);
    let mut targets = Vec::new();
    offsets.push(0);
    for v in g.nodes() {
        let arcs = g.edge_range(v).zip(g.out_neighbors(v));
        targets.extend(arcs.filter(|&(e, _)| masks.is_live(i, e)).map(|(_, &w)| w));
        // At most `g`'s arcs, whose count fits a `u32` offset.
        offsets.push(targets.len() as u32);
    }
    DiGraph::from_csr_parts(offsets, targets)
}

/// Column `c` of the masks of `worlds` over `union`, which holds every
/// one of their arcs.
fn column_of(union: &DiGraph, worlds: &[&DiGraph], c: usize) -> Vec<u64> {
    let mut words = vec![0u64; union.num_edges()];
    for (j, world) in worlds.iter().skip(c * 64).take(64).enumerate() {
        for v in world.nodes() {
            let (first, targets) = (union.edge_range(v).start, union.out_neighbors(v));
            for &w in world.out_neighbors(v) {
                words[first + targets.partition_point(|&t| t < w)] |= 1 << j;
            }
        }
    }
    words
}

/// The cascade index: ℓ sampled worlds, as live-arc bits over one graph
/// (Algorithm 1).
pub struct CascadeIndex {
    /// The arcs every world masks: `pg.graph()`, or the union of the
    /// supplied worlds' arcs.
    graph: DiGraph,
    masks: WorldMasks,
    /// Each world's hub closure, in no particular order: empty when its
    /// hub reaches only itself.
    closures: Vec<Vec<NodeId>>,
    /// The nodes in some world's hub closure, ascending, and for each two
    /// rows of `⌈ℓ/64⌉` words: bit `i % 64` of word `i / 64` is set when
    /// world `i`'s closure holds the node (`closure_rows`), and when world
    /// `i`'s hub SCC does (`hub_rows`). All empty when no world has a
    /// closure.
    closure_nodes: Vec<NodeId>,
    closure_rows: Vec<u64>,
    hub_rows: Vec<u64>,
    /// Per node, its place in `closure_nodes` plus one, or 0 for a node in
    /// no closure; empty when no world has a closure.
    closure_slot: Vec<u32>,
    /// The world set of all ℓ worlds.
    all_worlds: Vec<u64>,
    config: IndexConfig,
}

impl CascadeIndex {
    /// Builds the index over `config.num_worlds` sampled worlds
    /// (Algorithm 1), one column of 64 worlds per task on
    /// `config.threads` workers. Deterministic in `config.seed`.
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
        let ell = config.num_worlds;
        let masks = WorldMasks::from_columns(ell, config.threads, |c| {
            let _span = soi_obs::span("index.sample_world");
            draw_column(pg, config.seed, c, ell)
        });
        Self::from_masks(pg.graph().clone(), masks, config)
    }

    /// The index of the worlds `masks` over `graph`. A cyclic graph's
    /// worlds are searched for their hubs on `config.threads` workers
    /// (`soi_util::pool`); world `i`'s hub depends only on `i`, so the
    /// worker partition does not affect the result.
    fn from_masks(graph: DiGraph, masks: WorldMasks, config: IndexConfig) -> Self {
        let ell = masks.num_worlds();
        let mut hubs: Vec<Option<Hub>> = (0..ell).map(|_| None).collect();
        // Only a cycle of the graph lets a world's hub reach more than
        // itself.
        if transitive::topological_order(&graph).is_none() {
            soi_util::pool::for_each_indexed(&mut hubs, config.threads, |i, slot| {
                *slot = Hub::find(&live_world(&graph, &masks, i));
            });
        }
        let (n, words) = (graph.num_nodes(), ell.div_ceil(64));
        let (mut closure_rows, mut hub_rows) = (Vec::new(), Vec::new());
        for (i, hub) in hubs.iter().enumerate() {
            let Some(hub) = hub else { continue };
            closure_rows.resize(n * words, 0);
            hub_rows.resize(n * words, 0);
            for &v in &hub.members {
                closure_rows[v as usize * words + i / 64] |= 1 << (i % 64);
            }
            for &v in hub.scc() {
                hub_rows[v as usize * words + i / 64] |= 1 << (i % 64);
            }
        }
        let closure_nodes = keep_nonzero_rows(&mut closure_rows, &mut hub_rows, words);
        let mut closure_slot = Vec::new();
        if !closure_nodes.is_empty() {
            closure_slot.resize(n, 0);
            for (at, &v) in (1..).zip(&closure_nodes) {
                closure_slot[v as usize] = at;
            }
        }
        let mut all_worlds = vec![!0u64; words];
        if !ell.is_multiple_of(64) {
            all_worlds[words - 1] = !0 >> (64 - ell % 64);
        }
        let index = CascadeIndex {
            graph,
            masks,
            closures: hubs
                .into_iter()
                .map(|h| h.map_or_else(Vec::new, |h| h.members))
                .collect(),
            closure_nodes,
            closure_rows,
            hub_rows,
            closure_slot,
            all_worlds,
            config,
        };
        index.record_build_metrics();
        index
    }

    /// A 64-bit fingerprint of what the index stores: `n`, ℓ, and each
    /// arc live in some world as its tail, head and row of `⌈ℓ/64⌉` world
    /// words, in CSR order. Arcs live in no world are left out, so
    /// [`build`](Self::build) and [`build_from_worlds`](Self::build_from_worlds)
    /// over the same worlds agree. One pass over the masks; used to pin
    /// checkpoints to the index a run was started with.
    pub fn fingerprint(&self) -> u64 {
        let mut h = soi_util::hash::Mix64Hasher::new();
        h.update_u64(self.num_nodes() as u64);
        h.update_u64(self.num_worlds() as u64);
        let columns = self.all_worlds.len();
        for v in self.graph.nodes() {
            for (e, &w) in self.graph.edge_range(v).zip(self.graph.out_neighbors(v)) {
                let row = (0..columns).map(|c| self.masks.column(c)[e]);
                if row.clone().all(|bits| bits == 0) {
                    continue;
                }
                h.update_u64(v.into());
                h.update_u64(w.into());
                row.for_each(|bits| h.update_u64(bits));
            }
        }
        h.finish()
    }

    /// A 64-bit cache key identifying the index that [`build`](Self::build)
    /// would produce for a graph with [`ProbGraph::fingerprint`]
    /// `graph_fingerprint` and `config`, computable **without** building
    /// it. Combines the graph fingerprint with every config field that
    /// changes the index or its fingerprint: `num_worlds` and `seed`
    /// (builds are thread-count invariant, and `transitive_reduction`
    /// changes only [`mean_dag_edges`](Self::mean_dag_edges)). `soi serve`
    /// keys its index cache on this.
    pub fn cache_key_for(graph_fingerprint: u64, config: &IndexConfig) -> u64 {
        let mut h = soi_util::hash::Mix64Hasher::new();
        h.update_u64(graph_fingerprint);
        h.update_u64(config.num_worlds as u64);
        h.update_u64(config.seed);
        h.finish()
    }

    /// Builds an index from externally supplied live-edge worlds — any
    /// propagation model with a live-edge equivalence (e.g. the Linear
    /// Threshold sampler in `soi-sampling::lt`) plugs into the same
    /// typical-cascade pipeline this way. `config.num_worlds` and
    /// `config.seed` are recorded but ignored for sampling; worlds are
    /// taken verbatim, in order, as masks over the union of their arcs,
    /// by `config.threads` workers.
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
        let mut arcs: Vec<(NodeId, NodeId)> = worlds.iter().flat_map(|w| w.edges()).collect();
        arcs.sort_unstable();
        arcs.dedup();
        #[expect(
            clippy::expect_used,
            reason = "every arc is some world's, so its ends are below `num_nodes`, \
                      and there are no more of them than the worlds hold"
        )]
        let union = DiGraph::from_edges(num_nodes, &arcs).expect("world arcs");
        let masks = WorldMasks::from_columns(worlds.len(), config.threads, |c| {
            column_of(&union, &worlds, c)
        });
        Self::from_masks(union, masks, config)
    }

    /// Records the build's world count and size, and logs them. Every
    /// value is a function of the seeded inputs.
    fn record_build_metrics(&self) {
        soi_obs::counter_add!("index.worlds_built", self.num_worlds());
        soi_obs::gauge("index.memory_bytes").set(self.memory_bytes() as f64);
        soi_obs::event!(
            soi_obs::Level::Info,
            "index built: {} worlds, {} with a hub closure, {} closure entries, {} bytes",
            self.num_worlds(),
            self.closures.iter().filter(|c| !c.is_empty()).count(),
            self.closures.iter().map(Vec::len).sum::<usize>(),
            self.memory_bytes()
        );
    }

    /// Number of nodes of the indexed graph.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of indexed worlds ℓ.
    pub fn num_worlds(&self) -> usize {
        self.masks.num_worlds()
    }

    /// The build configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// World `i`'s hub closure, in no particular order: empty when its
    /// hub reaches only itself.
    pub fn closure(&self, i: usize) -> &[NodeId] {
        &self.closures[i]
    }

    /// The nodes in some world's hub closure, ascending, and each one's
    /// row of `⌈ℓ/64⌉` words over the worlds: bit `i % 64` of word `i / 64`
    /// is set when world `i`'s [`closure`](Self::closure) holds the node.
    /// Both are empty when no world has a closure.
    pub fn closure_rows(&self) -> (&[NodeId], &[u64]) {
        (&self.closure_nodes, &self.closure_rows)
    }

    /// The world set of all ℓ worlds: `⌈ℓ/64⌉` words, bit `i % 64` of word
    /// `i / 64` set for every world `i`.
    pub fn all_worlds(&self) -> &[u64] {
        &self.all_worlds
    }

    /// Creates reusable query scratch sized for this index: one `u32` per
    /// node, and `⌈ℓ/64⌉` words per node a walk touches.
    pub fn query(&self) -> IndexQuery {
        let words = self.all_worlds.len();
        IndexQuery {
            words,
            slot: vec![0; self.num_nodes()],
            nodes: Vec::new(),
            sets: Vec::new(),
            todo: Vec::new(),
            aside: Vec::new(),
            queued: Vec::new(),
            queue: VecDeque::new(),
            set_aside: Vec::new(),
            hits: vec![0; words],
        }
    }

    /// The walk from `sources` in the worlds of the world set `start`
    /// (`⌈ℓ/64⌉` words, as [`all_worlds`](Self::all_worlds)), valid until
    /// `q` is used again. In each world of `start` it reaches what a
    /// breadth-first search from `sources` over that world's live arcs
    /// reaches, and in no other world. Every node it reaches comes with
    /// its world set; in a world of [`Walked::hits`] the sets leave out
    /// the world's hub [`closure`](Self::closure), which the cascade holds
    /// whole.
    pub fn walk<'q>(&self, sources: &[NodeId], start: &[u64], q: &'q mut IndexQuery) -> Walked<'q> {
        debug_assert_eq!(start.len(), q.words, "a start set has ⌈ℓ/64⌉ words");
        q.clear();
        let defer = !self.closure_slot.is_empty();
        for &s in sources {
            for (c, &bits) in start.iter().enumerate() {
                if bits != 0 {
                    self.arrive(q, s, c, bits, defer);
                }
            }
        }
        self.expand(q, defer);
        if !q.set_aside.is_empty() {
            let w = q.words;
            for &t in &q.set_aside {
                let row = self.closure_slot[q.nodes[t as usize] as usize] as usize - 1;
                let (aside, hub) = (&q.aside[t as usize * w..], &self.hub_rows[row * w..]);
                for (hit, (a, h)) in q.hits.iter_mut().zip(aside.iter().zip(hub)) {
                    *hit |= a & h;
                }
            }
            for at in 0..q.set_aside.len() {
                let t = q.set_aside[at] as usize;
                for c in 0..w {
                    let (aside, hits) = (q.aside[t * w + c], q.hits[c]);
                    q.sets[t * w + c] &= !(aside & hits);
                    if aside & !hits != 0 {
                        q.push(t, c, aside & !hits);
                    }
                }
            }
            self.expand(q, false);
        }
        Walked {
            words: q.words,
            nodes: &q.nodes,
            sets: &q.sets,
            hits: &q.hits,
        }
    }

    /// Reaches `y` in the worlds `bits` of column `c`: the ones that had
    /// not reached it join its world set, and it expands them later, save
    /// those whose closure holds `y` when `defer` is set. It sets `y`
    /// aside in those.
    #[inline]
    fn arrive(&self, q: &mut IndexQuery, y: NodeId, c: usize, bits: u64, defer: bool) {
        let w = q.words;
        let t = match q.slot[y as usize] {
            0 => q.touch(y),
            slot => slot as usize - 1,
        };
        let seen = &mut q.sets[t * w + c];
        let mut new = bits & !*seen;
        if new == 0 {
            return;
        }
        *seen |= new;
        if defer {
            if let Some(row) = (self.closure_slot[y as usize] as usize).checked_sub(1) {
                let aside = new & self.closure_rows[row * w + c];
                if aside != 0 {
                    if q.aside.len() < q.sets.len() {
                        q.aside.resize(q.sets.len(), 0);
                    }
                    if q.aside[t * w..(t + 1) * w].iter().all(|&a| a == 0) {
                        q.set_aside.push(t as u32);
                    }
                    q.aside[t * w + c] |= aside;
                    new &= !aside;
                }
            }
        }
        if new != 0 {
            q.push(t, c, new);
        }
    }

    /// Expands the queued nodes, first come first served, until none
    /// waits: a node carries the worlds it has not expanded yet along each
    /// arc, to the arc's head in the worlds where the arc is live.
    fn expand(&self, q: &mut IndexQuery, defer: bool) {
        let w = q.words;
        while let Some(t) = q.queue.pop_front() {
            let t = t as usize;
            q.queued[t] = false;
            let x = q.nodes[t];
            let (arcs, targets) = (self.graph.edge_range(x), self.graph.out_neighbors(x));
            for c in 0..w {
                // Worlds that reach `x` while it expands come back with it.
                let d = std::mem::take(&mut q.todo[t * w + c]);
                if d == 0 {
                    continue;
                }
                let live = &self.masks.column(c)[arcs.clone()];
                for (&row, &y) in live.iter().zip(targets) {
                    if d & row != 0 {
                        self.arrive(q, y, c, d & row, defer);
                    }
                }
            }
        }
    }

    /// All ℓ cascades of `v` as canonical sorted sets — the input shape
    /// the Jaccard-median machinery expects (Algorithm 2's inner loop).
    pub fn cascades_of(&self, v: NodeId) -> Vec<Vec<NodeId>> {
        let mut q = self.query();
        let walked = self.walk(&[v], &self.all_worlds, &mut q);
        let mut sets = vec![Vec::new(); self.num_worlds()];
        for (u, worlds) in walked.sets() {
            ones(worlds).for_each(|i| sets[i].push(u));
        }
        for i in ones(walked.hits()) {
            sets[i].extend_from_slice(self.closure(i));
        }
        for set in &mut sets {
            set.sort_unstable();
        }
        sets
    }

    /// Heap footprint in bytes of the stored arrays: the graph's CSR, the
    /// worlds' live-arc bits, the hub closures' members, and the closure
    /// nodes with their rows.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let (offsets, targets) = self.graph.csr_parts();
        let graph = (offsets.len() + targets.len()) * size_of::<u32>();
        let members: usize = self.closures.iter().map(Vec::len).sum();
        let ids = members + self.closure_nodes.len() + self.closure_slot.len();
        let rows = self.closure_rows.len() + self.hub_rows.len();
        graph + self.masks.memory_bytes() + ids * size_of::<u32>() + rows * size_of::<u64>()
    }

    /// Mean number of SCCs per world (diagnostics for EXPERIMENTS.md).
    pub fn mean_comps(&self) -> f64 {
        self.mean_per_world(|world| tarjan_scc(&world).num_comps)
    }

    /// Mean number of condensation arcs per world, after the transitive
    /// reduction when the config asks for it. Condenses every world.
    pub fn mean_dag_edges(&self) -> f64 {
        self.mean_per_world(|world| {
            let dag = soi_graph::Condensation::new(&world).dag;
            if !self.config.transitive_reduction {
                return dag.num_edges();
            }
            #[expect(
                clippy::expect_used,
                reason = "a condensation is acyclic by construction, and \
                          transitive_reduction only returns None on cyclic input"
            )]
            let reduced = transitive::transitive_reduction(&dag).expect("condensation is a DAG");
            reduced.num_edges()
        })
    }

    /// The mean of `count` over every world's live graph, the worlds
    /// taken on `config.threads` workers.
    fn mean_per_world(&self, count: impl Fn(DiGraph) -> usize + Sync) -> f64 {
        let mut counts = vec![0; self.num_worlds()];
        soi_util::pool::for_each_indexed(&mut counts, self.config.threads, |i, slot| {
            *slot = count(live_world(&self.graph, &self.masks, i));
        });
        counts.iter().sum::<usize>() as f64 / self.num_worlds() as f64
    }
}

/// Drops the nodes whose row of `closure` is all zero from the node-major
/// rows of `words` words of `closure` and `hub`, keeping the others in
/// node order, and returns the nodes kept. A node's `hub` row is zero
/// wherever its `closure` row is.
fn keep_nonzero_rows(closure: &mut Vec<u64>, hub: &mut Vec<u64>, words: usize) -> Vec<NodeId> {
    let mut nodes = Vec::new();
    for v in 0..closure.len() / words.max(1) {
        let row = v * words..(v + 1) * words;
        if closure[row.clone()].iter().any(|&w| w != 0) {
            closure.copy_within(row.clone(), nodes.len() * words);
            hub.copy_within(row, nodes.len() * words);
            nodes.push(v as NodeId);
        }
    }
    for rows in [closure, hub] {
        rows.truncate(nodes.len() * words);
        rows.shrink_to_fit();
    }
    nodes
}

/// What a [`CascadeIndex::walk`] reached.
pub struct Walked<'q> {
    words: usize,
    nodes: &'q [NodeId],
    sets: &'q [u64],
    hits: &'q [u64],
}

impl<'q> Walked<'q> {
    /// Each node the walk reached, in the order it first did, with its
    /// world set (`⌈ℓ/64⌉` words): the worlds whose cascade holds it
    /// outside a hit closure. A set may be empty.
    pub fn sets(&self) -> impl Iterator<Item = (NodeId, &'q [u64])> + Clone + 'q {
        let sets = self.sets.chunks_exact(self.words);
        self.nodes.iter().copied().zip(sets)
    }

    /// The worlds whose hub closure the walk reached (`⌈ℓ/64⌉` words): the
    /// cascade of world `i` among them is its walked nodes plus all of
    /// [`CascadeIndex::closure`]`(i)`, which holds none of them.
    pub fn hits(&self) -> &'q [u64] {
        self.hits
    }
}

/// Reusable per-thread query scratch for [`CascadeIndex::walk`].
pub struct IndexQuery {
    /// `⌈ℓ/64⌉`.
    words: usize,
    /// Per node of the graph: its place in `nodes` plus one, or 0 for a
    /// node the walk has not touched.
    slot: Vec<u32>,
    /// The touched nodes, in the order the walk first reached them, and
    /// for each `words` words of `sets` (the worlds that reached it),
    /// `todo` (those it has yet to expand) and `aside` (those that set it
    /// aside; grown only once a node is set aside), and whether it waits
    /// in `queue`.
    nodes: Vec<NodeId>,
    sets: Vec<u64>,
    todo: Vec<u64>,
    aside: Vec<u64>,
    queued: Vec<bool>,
    /// Places in `nodes` waiting to expand, each at most once: a node
    /// comes back when more worlds reach it after it expanded.
    queue: VecDeque<u32>,
    /// Places in `nodes` of the set-aside nodes.
    set_aside: Vec<u32>,
    /// The worlds whose hub the walk reached.
    hits: Vec<u64>,
}

impl IndexQuery {
    /// Forgets the last walk, in time proportional to what it touched.
    fn clear(&mut self) {
        for &v in &self.nodes {
            self.slot[v as usize] = 0;
        }
        self.nodes.clear();
        self.sets.clear();
        self.todo.clear();
        self.aside.clear();
        self.queued.clear();
        self.set_aside.clear();
        self.hits.fill(0);
    }

    /// Adds `y` to the touched nodes, with empty world sets, and returns
    /// its place.
    fn touch(&mut self, y: NodeId) -> usize {
        let t = self.nodes.len();
        self.nodes.push(y);
        // At most n nodes, whose count fits a `u32` id.
        self.slot[y as usize] = t as u32 + 1;
        self.sets.resize(self.sets.len() + self.words, 0);
        self.todo.resize(self.todo.len() + self.words, 0);
        self.queued.push(false);
        t
    }

    /// Queues the worlds `bits` of column `c` for touched node `t` to
    /// expand.
    #[inline]
    fn push(&mut self, t: usize, c: usize, bits: u64) {
        if !self.queued[t] {
            self.queued[t] = true;
            self.queue.push_back(t as u32);
        }
        self.todo[t * self.words + c] |= bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::{gen, Condensation};
    use soi_sampling::world::world_rng;
    use soi_sampling::WorldSampler;
    use soi_util::rng::Rng;
    use soi_util::BitSet;

    fn test_graph(seed: u64) -> ProbGraph {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(seed);
        ProbGraph::fixed(gen::gnm(60, 300, &mut rng), 0.3).unwrap()
    }

    /// The walk the index ran one world at a time before it walked all
    /// ℓ worlds at once, kept as the all-worlds walk's differential
    /// oracle: a walk over world `i`'s own live arcs that sets aside the
    /// nodes of its hub closure, then either takes the whole closure (a
    /// set-aside node is a hub node) or resumes from the set-aside nodes.
    /// The hub is found again from the world, not read from the index.
    struct PerWorld {
        world: DiGraph,
        scc: BitSet,
        closure: BitSet,
        members: Vec<NodeId>,
    }

    /// How a [`PerWorld`] walk ended.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Branch {
        Plain,
        Resumed,
        Hit,
    }

    impl PerWorld {
        fn new(index: &CascadeIndex, i: usize) -> Self {
            let world = live_world(&index.graph, &index.masks, i);
            let n = world.num_nodes();
            let (mut scc, mut closure) = (BitSet::new(n), BitSet::new(n));
            let mut members = Vec::new();
            if let Some(hub) = Hub::find(&world) {
                hub.scc().iter().for_each(|&v| _ = scc.insert(v as usize));
                hub.members
                    .iter()
                    .for_each(|&v| _ = closure.insert(v as usize));
                members = hub.members;
                members.sort_unstable();
            }
            PerWorld {
                world,
                scc,
                closure,
                members,
            }
        }

        /// The walked nodes, sorted (without the closure on a hit), and
        /// the branch the walk took.
        fn walk(&self, sources: &[NodeId], reach: &mut Reachability) -> (Vec<NodeId>, Branch) {
            let (mut out, mut deferred) = (Vec::new(), Vec::new());
            let defer = |v: NodeId| self.closure.contains(v as usize);
            reach.multi_source_deferring(
                &self.world,
                sources,
                |_| true,
                defer,
                &mut out,
                &mut deferred,
            );
            let branch = if deferred.iter().any(|&v| self.scc.contains(v as usize)) {
                Branch::Hit
            } else if deferred.is_empty() {
                Branch::Plain
            } else {
                reach.resume(&self.world, |_| true, &deferred, &mut out);
                Branch::Resumed
            };
            out.sort_unstable();
            (out, branch)
        }
    }

    fn has(bits: &[u64], i: usize) -> bool {
        bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Per world, the closure and the hub rows are the oracle's hub's.
    /// Then, from every node plus up to two random ones, in all worlds and
    /// in a random world set, the walk's world sets and hits answer what
    /// the per-world oracle answers in each world of the start set, and
    /// nothing in the others. Returns the oracle's branch counts
    /// `[resumed, hit]` over the all-worlds walks from single nodes.
    fn assert_walk_matches_per_world_walk(index: &CascadeIndex, seed: u64) -> [usize; 2] {
        let (n, ell) = (index.num_nodes(), index.num_worlds());
        let oracles: Vec<PerWorld> = (0..ell).map(|i| PerWorld::new(index, i)).collect();
        let (nodes, rows) = index.closure_rows();
        let words = ell.div_ceil(64);
        for (i, oracle) in oracles.iter().enumerate() {
            let mut closure = index.closure(i).to_vec();
            closure.sort_unstable();
            assert_eq!(closure, oracle.members, "world {i}");
            for (at, &v) in nodes.iter().enumerate() {
                let row = at * words..(at + 1) * words;
                assert_eq!(
                    has(&rows[row.clone()], i),
                    oracle.closure.contains(v as usize)
                );
                assert_eq!(
                    has(&index.hub_rows[row], i),
                    oracle.scc.contains(v as usize)
                );
            }
        }
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(seed);
        let (mut q, mut reach) = (index.query(), Reachability::new(n));
        let mut branches = [0; 2];
        for v in 0..n as NodeId {
            let random: Vec<u64> = index
                .all_worlds()
                .iter()
                .map(|w| w & rng.random::<u64>())
                .collect();
            let mut sources = vec![v];
            for start in [index.all_worlds(), &random[..]] {
                let walked = index.walk(&sources, start, &mut q);
                let mut got = vec![Vec::new(); ell];
                for (u, set) in walked.sets() {
                    ones(set).for_each(|i| got[i].push(u));
                }
                for (i, (mut got, oracle)) in got.into_iter().zip(&oracles).enumerate() {
                    let hit = has(walked.hits(), i);
                    if !has(start, i) {
                        assert!(got.is_empty() && !hit, "world {i} is not in the start set");
                        continue;
                    }
                    got.sort_unstable();
                    let (want, branch) = oracle.walk(&sources, &mut reach);
                    let at = format!("sources {sources:?}, world {i}");
                    assert_eq!((got, hit), (want, branch == Branch::Hit), "{at}");
                    if sources.len() == 1 && start == index.all_worlds() {
                        match branch {
                            Branch::Resumed => branches[0] += 1,
                            Branch::Hit => branches[1] += 1,
                            Branch::Plain => {}
                        }
                    }
                }
                let extra = rng.random_range(1usize..3);
                sources.extend((0..extra).map(|_| rng.random_range(0..n as NodeId)));
            }
        }
        branches
    }

    /// The all-worlds walk against the per-world walk: on the 60-node
    /// supercritical graph; on the cycle 0..30 with the path 29 → 30 → … →
    /// 39 hanging off it, whose 30 cycle nodes hit and 10 path nodes
    /// resume in every world; on both pinned fixtures; and on G(100, 500)
    /// at p = 0.15, 0.3 and 0.6. ℓ runs over 1, 63, 64, 65 and 130, so
    /// the last word of a world set is partial or full.
    #[test]
    fn walk_matches_the_per_world_walk() {
        let mut totals = [0; 2];
        for (k, ell) in [1, 63, 64, 65, 130].into_iter().enumerate() {
            let config = IndexConfig {
                num_worlds: ell,
                seed: 3 + k as u64,
                ..IndexConfig::default()
            };
            let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(k as u64);
            let gnm = gen::gnm(100, 500, &mut rng);
            let mut graphs = vec![test_graph(12)];
            for p in [0.15, 0.3, 0.6] {
                graphs.push(ProbGraph::fixed(gnm.clone(), p).unwrap());
            }
            for (j, pg) in graphs.iter().enumerate() {
                let index = CascadeIndex::build(pg, config);
                let [resumed, hits] = assert_walk_matches_per_world_walk(&index, j as u64);
                totals = [totals[0] + resumed, totals[1] + hits];
            }
            let index = CascadeIndex::build(&cycle_with_a_tail(), config);
            let branches = assert_walk_matches_per_world_walk(&index, 7);
            assert_eq!(branches, [ell * 10, ell * 30], "ℓ = {ell}");
        }
        assert!(totals[0] > 0 && totals[1] > 0, "{totals:?}");
        for (j, index) in pinned_fixtures().iter().enumerate() {
            assert_walk_matches_per_world_walk(index, 10 + j as u64);
        }
    }

    /// The cycle 0..30 with the path 29 → 30 → … → 39 hanging off it, at
    /// p = 1: one SCC whose closure adds the path.
    fn cycle_with_a_tail() -> ProbGraph {
        let mut edges: Vec<(NodeId, NodeId)> = (0..30).map(|v| (v, (v + 1) % 30)).collect();
        edges.extend((29..39).map(|v| (v, v + 1)));
        ProbGraph::fixed(DiGraph::from_edges(40, &edges).unwrap(), 1.0).unwrap()
    }

    #[test]
    fn a_hub_that_reaches_only_itself_is_walked_plainly() {
        // A p = 1 cycle is one SCC: a closure of the hub alone, which the
        // index does not keep.
        let pg = ProbGraph::fixed(gen::cycle(30), 1.0).unwrap();
        let config = IndexConfig {
            num_worlds: 4,
            ..IndexConfig::default()
        };
        let index = CascadeIndex::build(&pg, config);
        assert_eq!(index.closure_rows(), (&[][..], &[][..]));
        assert_eq!(assert_walk_matches_per_world_walk(&index, 1), [0, 0]);
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
        // Thread count never changes index contents, and the reduction
        // changes only a diagnostic, so neither changes the key; every
        // content-bearing input does.
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
        assert_eq!(
            base,
            key(
                &pg,
                IndexConfig {
                    transitive_reduction: false,
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
        assert_ne!(base, key(&test_graph(2), config));
    }

    /// Every world's live arcs, as `(u, v)` pairs, and its closure, then
    /// the closure and hub rows and the fingerprint.
    fn assert_same_index(a: &CascadeIndex, b: &CascadeIndex) {
        assert_eq!(a.num_worlds(), b.num_worlds());
        for i in 0..a.num_worlds() {
            let arcs = |index: &CascadeIndex| live_world(&index.graph, &index.masks, i);
            assert_eq!(arcs(a), arcs(b), "world {i}");
            assert_eq!(a.closure(i), b.closure(i), "world {i}");
        }
        assert_eq!(a.closure_rows(), b.closure_rows());
        assert_eq!(a.hub_rows, b.hub_rows);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    /// More than 64 worlds: closure rows of two words, the second ragged.
    const TWO_WORD_ROWS: usize = 67;

    #[test]
    fn parallel_build_matches_serial() {
        let pg = test_graph(2);
        let mk = |threads| {
            CascadeIndex::build(
                &pg,
                IndexConfig {
                    num_worlds: TWO_WORD_ROWS,
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
            num_worlds: TWO_WORD_ROWS,
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
        let (a, b) = (index.cascades_of(10), index.cascades_of(20));
        let mut q = index.query();
        let walked = index.walk(&[10, 20], index.all_worlds(), &mut q);
        for i in 0..4 {
            let mut ab: Vec<NodeId> = walked.sets().filter(|p| has(p.1, i)).map(|p| p.0).collect();
            if has(walked.hits(), i) {
                ab.extend_from_slice(index.closure(i));
            }
            ab.sort_unstable();
            let mut union: Vec<NodeId> = a[i].iter().chain(&b[i]).copied().collect();
            union.sort_unstable();
            union.dedup();
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

    /// The fingerprint is a function of the worlds in their order: one
    /// arc dropped from one world, or two worlds swapped, changes it, and
    /// an arc live in no world does not enter it.
    #[test]
    fn fingerprint_is_a_function_of_the_worlds() {
        let pg = test_graph(4);
        let config = IndexConfig {
            num_worlds: TWO_WORD_ROWS,
            seed: 6,
            ..IndexConfig::default()
        };
        let mut sampler = WorldSampler::new();
        let worlds: Vec<DiGraph> = (0..config.num_worlds)
            .map(|i| sampler.sample(&pg, &mut world_rng(config.seed, i)))
            .collect();
        let fingerprint = |worlds: &[DiGraph]| {
            CascadeIndex::build_from_worlds(pg.num_nodes(), worlds.iter(), config).fingerprint()
        };
        let mut dropped = worlds.clone();
        let mut arcs: Vec<(NodeId, NodeId)> = dropped[65].edges().collect();
        arcs.pop();
        dropped[65] = DiGraph::from_edges(pg.num_nodes(), &arcs).unwrap();
        let mut swapped = worlds.clone();
        swapped.swap(0, 64);
        assert_ne!(worlds[0], worlds[64]);
        let got = [&worlds, &dropped, &swapped].map(|w| fingerprint(w));
        assert!(
            got[0] != got[1] && got[0] != got[2] && got[1] != got[2],
            "{got:#x?}"
        );
        // Two worlds leave most of the graph's arcs dead in both.
        let two = IndexConfig {
            num_worlds: 2,
            ..config
        };
        assert_eq!(
            CascadeIndex::build(&pg, two).fingerprint(),
            CascadeIndex::build_from_worlds(pg.num_nodes(), worlds[..2].iter(), two).fingerprint()
        );
    }

    /// The built index's structure: every world's live arcs and hub sets,
    /// hashed, its [`CascadeIndex::fingerprint`], its
    /// [`CascadeIndex::memory_bytes`] and its number of worlds without a
    /// hub closure. The fingerprints hash each live arc's row of worlds,
    /// recorded when the fingerprint became that hash. The content hash,
    /// recorded when worlds became live-arc masks, is layout-free: it
    /// hashes each world's arcs, closure and hub SCC. The sizes describe
    /// the live-arc-bits layout, recorded at the commit that introduced
    /// it. Every weighted-cascade
    /// world is hubless (the BA graph is acyclic), and no supercritical
    /// one is, so the hashes cover both kinds of world.
    #[test]
    fn index_contents_and_fingerprint_are_pinned() {
        let got = pinned_fixtures().map(|index| {
            let hubless = index.closures.iter().filter(|c| c.is_empty()).count();
            let mut h = soi_util::hash::Mix64Hasher::new();
            let mut update = |list: &[NodeId]| {
                h.update_u64(list.len() as u64);
                list.iter().for_each(|&x| h.update_u64(x.into()));
            };
            let (nodes, _) = index.closure_rows();
            let words = index.num_worlds().div_ceil(64);
            for i in 0..index.num_worlds() {
                let world = live_world(&index.graph, &index.masks, i);
                world.nodes().for_each(|v| update(world.out_neighbors(v)));
                if !index.closure(i).is_empty() {
                    let mut members = index.closure(i).to_vec();
                    members.sort_unstable();
                    update(&members);
                    let scc = nodes.iter().enumerate();
                    let scc = scc.filter(|&(at, _)| has(&index.hub_rows[at * words..], i));
                    update(&scc.map(|(_, &v)| v).collect::<Vec<_>>());
                }
            }
            (
                h.finish(),
                index.fingerprint(),
                index.memory_bytes(),
                hubless,
            )
        });
        // Both graphs have ~3000 arcs (2985 and 3000): a 4-byte CSR entry
        // per node and arc, and one mask word per arc (16 worlds, one
        // column). The supercritical worlds add 5477 closure members
        // between them, and its 597 closure nodes one id and two row words
        // each, plus a 4-byte closure slot per node.
        let pinned = [
            (
                0xa3f9_3a46_bdfe_129f,
                0x45c6_8e73_9e74_5eeb,
                601 * 4 + 2985 * 12,
                16,
            ),
            (
                0xc3c8_acd8_9562_431c,
                0xf635_6baf_41b3_b71d,
                (601 + 3000) * 4 + 3000 * 8 + 5477 * 4 + 597 * (4 + 2 * 8) + 600 * 4,
                0,
            ),
        ];
        assert_eq!(got, pinned, "got {got:#x?}");
    }

    /// Every node's sorted `cascades_of` on both pinned fixtures, hashed:
    /// what any layout of the index must answer. Recorded at commit
    /// c8e7f23, before worlds became live-arc masks.
    #[test]
    fn cascades_are_pinned() {
        let got = pinned_fixtures().map(|index| {
            let mut h = soi_util::hash::Mix64Hasher::new();
            for v in 0..index.num_nodes() as NodeId {
                for set in index.cascades_of(v) {
                    h.update_u64(set.len() as u64);
                    set.iter().for_each(|&x| h.update_u64(x.into()));
                }
            }
            h.finish()
        });
        assert_eq!(
            got,
            [0x2b12_93ef_08c2_b1ca, 0x89f2_e8be_ca07_b325],
            "got {got:#x?}"
        );
    }

    /// `(mean_comps, mean_dag_edges)` of both pinned fixtures, as `f64`
    /// bits, recorded at commit 74cb3e5, when both means read the pass the
    /// fingerprint shared: 600 and 432.375 for the weighted-cascade worlds
    /// (all singletons), 396.3125 and 426.625 for the supercritical ones.
    #[test]
    fn diagnostics_are_pinned() {
        let got = pinned_fixtures().map(|index| {
            let means = (index.mean_comps(), index.mean_dag_edges());
            (means.0.to_bits(), means.1.to_bits())
        });
        let pinned = [
            (0x4082_c000_0000_0000, 0x407b_0600_0000_0000),
            (0x4078_c500_0000_0000, 0x407a_aa00_0000_0000),
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
                let held = index.closure(i).contains(&v);
                assert_eq!(
                    row[i / 64] >> (i % 64) & 1 == 1,
                    held,
                    "node {v}, world {i}"
                );
            }
        }
        nodes.len()
    }

    /// The condensation walk the index ran before its worlds became
    /// live-arc masks, kept as the mask walk's differential oracle: a
    /// world re-derived as its reduced condensation, whose hub closure is
    /// a component bitmask plus a member slice, walked over components
    /// with the closure components deferred.
    struct CondensedWorld {
        cond: Condensation,
        hub: u32,
        hub_mask: Vec<u64>,
        hub_members: Vec<NodeId>,
    }

    impl CondensedWorld {
        fn new(world: &DiGraph) -> Self {
            let mut cond = Condensation::new(world);
            cond.dag = transitive::transitive_reduction(&cond.dag).unwrap();
            let hub = (0..cond.num_comps() as u32)
                .rev()
                .max_by_key(|&c| cond.comp_size(c));
            let (mut hub_mask, mut hub_members) = (Vec::<u64>::new(), Vec::new());
            let mut stack: Vec<u32> = hub.into_iter().collect();
            while let Some(c) = stack.pop() {
                let (word, bit) = (c as usize / 64, 1 << (c % 64));
                if word >= hub_mask.len() {
                    hub_mask.resize(word + 1, 0);
                }
                if hub_mask[word] & bit == 0 {
                    hub_mask[word] |= bit;
                    hub_members.extend_from_slice(cond.members_of(c));
                    stack.extend_from_slice(cond.dag.out_neighbors(c));
                }
            }
            // A closure of the hub alone shares nothing: walked plainly.
            if hub.is_some_and(|c| hub_members.len() == cond.comp_size(c)) {
                (hub_mask, hub_members) = (Vec::new(), Vec::new());
            }
            let hub = hub.unwrap_or(0);
            CondensedWorld {
                cond,
                hub,
                hub_mask,
                hub_members,
            }
        }

        /// The cascade of `v`, sorted, whether the walk reached the hub,
        /// and whether it resumed from set-aside components.
        fn cascade(&self, v: NodeId, reach: &mut Reachability) -> (Vec<NodeId>, bool, bool) {
            let (dag, mask) = (&self.cond.dag, self.hub_mask.as_slice());
            let in_closure = |c: u32| {
                mask.get(c as usize / 64)
                    .is_some_and(|w| w >> (c % 64) & 1 == 1)
            };
            let (mut chunks, mut deferred) = (Vec::new(), Vec::new());
            let source = [self.cond.comp_of[v as usize]];
            reach.multi_source_deferring(
                dag,
                &source,
                |_| true,
                in_closure,
                &mut chunks,
                &mut deferred,
            );
            let hit = deferred.contains(&self.hub);
            if !hit {
                reach.resume(dag, |_| true, &deferred, &mut chunks);
            }
            let members = chunks.iter().flat_map(|&c| self.cond.members_of(c));
            let mut set: Vec<NodeId> = members.copied().collect();
            if hit {
                set.extend_from_slice(&self.hub_members);
            }
            set.sort_unstable();
            (set, hit, !hit && !deferred.is_empty())
        }
    }

    /// For every node and world, the walk's world sets hold the cascade
    /// the condensation walk finds, with a hit exactly where that walk
    /// reached the hub, and every world's closure is the condensation's.
    /// Returns the walk's hit count and the number of (node, world) pairs
    /// whose per-world walk resumes, `[resumed, hit]`.
    fn assert_mask_walk_matches_condensation_walk(index: &CascadeIndex) -> [usize; 2] {
        let n = index.num_nodes();
        let oracles: Vec<CondensedWorld> = (0..index.num_worlds())
            .map(|i| CondensedWorld::new(&live_world(&index.graph, &index.masks, i)))
            .collect();
        for (i, oracle) in oracles.iter().enumerate() {
            let mut closure = index.closure(i).to_vec();
            closure.sort_unstable();
            let mut want = oracle.hub_members.clone();
            want.sort_unstable();
            assert_eq!(closure, want, "world {i}");
        }
        let (mut q, mut reach) = (index.query(), Reachability::new(n));
        let mut branches = [0; 2];
        for v in 0..n as NodeId {
            let walked = index.walk(&[v], index.all_worlds(), &mut q);
            let mut got = vec![Vec::new(); index.num_worlds()];
            for (u, set) in walked.sets() {
                ones(set).for_each(|i| got[i].push(u));
            }
            for (i, (oracle, mut set)) in oracles.iter().zip(got).enumerate() {
                let hit = has(walked.hits(), i);
                if hit {
                    set.extend_from_slice(index.closure(i));
                }
                set.sort_unstable();
                let (want, want_hit, resumed) = oracle.cascade(v, &mut reach);
                assert_eq!((set, hit), (want, want_hit), "node {v}, world {i}");
                branches[0] += resumed as usize;
                branches[1] += hit as usize;
            }
        }
        branches
    }

    /// The mask walk against the condensation walk on the 60-node
    /// supercritical graph, where walks both hit the hub and resume; on
    /// the cycle 0..30 with the path 29 → 30 → … → 39 hanging off it,
    /// where the 30 cycle nodes hit and the 10 path nodes resume in each
    /// of 4 worlds; and on both pinned fixtures, one of whose graphs is
    /// acyclic, so its index runs no Tarjan.
    #[test]
    fn mask_walk_matches_the_condensation_walk() {
        let config = IndexConfig {
            num_worlds: 8,
            seed: 3,
            ..IndexConfig::default()
        };
        let index = CascadeIndex::build(&test_graph(12), config);
        let [resumed, hits] = assert_mask_walk_matches_condensation_walk(&index);
        assert!(resumed > 0 && hits > 0, "resumed {resumed}, hits {hits}");
        let config = IndexConfig {
            num_worlds: 4,
            ..config
        };
        let index = CascadeIndex::build(&cycle_with_a_tail(), config);
        let branches = assert_mask_walk_matches_condensation_walk(&index);
        assert_eq!(branches, [4 * 10, 4 * 30]);
        for index in pinned_fixtures() {
            assert_mask_walk_matches_condensation_walk(&index);
        }
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
                num_worlds: TWO_WORD_ROWS,
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
