//! # soi-index
//!
//! The cascade index of §4 (Algorithm 1 of the paper).
//!
//! To compute typical cascades for *every* node, the paper samples ℓ
//! possible worlds once and keeps them for the whole run. This index keeps
//! each world as its **live-arc mask** ([`LiveArcs`]): one bit per arc of
//! the graph, drawn once by the coin loop every sampler shares. The
//! cascade of `v` in world `i` is what a walk from `v` reaches over the
//! graph's CSR, skipping the arcs dead in world `i`.
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
//! largest SCC (ties: the lowest Tarjan component id) reaches. A world
//! whose hub reaches more than itself keeps the hub SCC and its closure as
//! n-bit sets, and the closure's members as one slice. A walk does not
//! expand the closure nodes it meets but sets them aside. If one of them
//! is a hub node, the whole closure is one chunk ([`HUB_CLOSURE`]);
//! otherwise the walk resumes from them. The answer is unchanged: a path
//! from outside the closure into it stays inside it, so every node
//! outside the closure is reached by a path that never touches the
//! closure, and a path into the hub enters the closure at a hub node. In
//! an acyclic graph every SCC is one node, so the hub is Tarjan's first
//! component, a sink that reaches only itself, and the build runs no
//! Tarjan at all.
//! Across worlds, the index also keeps one bit row per node that lies in
//! some closure, over the worlds whose closure holds it
//! ([`CascadeIndex::closure_rows`]): a consumer that meets many closures
//! of one node reads each closure node once, not once per world.
//!
//! Worlds are derived deterministically from `(seed, world-id)`, so a
//! build is reproducible bit-for-bit regardless of thread count. The
//! [`fingerprint`](CascadeIndex::fingerprint) still hashes each world's
//! condensation, re-derived from its mask only when it is asked for, so
//! checkpoints written by a condensing index still resume.

use soi_graph::{
    scc::tarjan_scc, transitive, Condensation, DiGraph, NodeId, ProbGraph, Reachability,
};
use soi_sampling::world::{world_rng, LiveArcs};
use soi_util::BitSet;
use std::sync::OnceLock;

/// Build-time options for [`CascadeIndex`].
#[derive(Clone, Copy, Debug)]
pub struct IndexConfig {
    /// Number of possible worlds ℓ to sample (the paper uses 1000).
    pub num_worlds: usize,
    /// Master seed; world `i` uses the sub-seed `derive_seed(seed, i)`.
    pub seed: u64,
    /// Whether [`CascadeIndex::fingerprint`] and
    /// [`CascadeIndex::mean_dag_edges`] read each world's condensation
    /// transitively reduced (§4). The index stores no condensation, so
    /// this changes no cascade.
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

/// The chunk id of a world's whole hub closure in
/// [`CascadeIndex::reached_comps`]; [`CascadeIndex::chunk`] reads it.
pub const HUB_CLOSURE: u32 = u32::MAX;

/// One sampled world: its live arcs, and its hub when the hub reaches
/// more than itself.
struct World {
    live: LiveArcs,
    hub: Option<Hub>,
}

/// A world's largest SCC (ties: the lowest Tarjan component id) and the
/// nodes it reaches, as n-bit sets, plus the closure's members.
struct Hub {
    scc: BitSet,
    closure: BitSet,
    members: Vec<NodeId>,
}

impl World {
    /// The walk from `sources` over the world's live arcs: writes to `out`
    /// the nodes it reaches, and returns whether it reached a hub node.
    /// Then `out` holds no closure node, and the cascade is `out` plus the
    /// whole closure.
    fn walk(
        &self,
        g: &DiGraph,
        sources: &[NodeId],
        walk: &mut Walk,
        out: &mut Vec<NodeId>,
    ) -> bool {
        let live = |e| self.live.is_live(e);
        let Walk {
            reach, deferred, ..
        } = walk;
        let Some(hub) = &self.hub else {
            reach.multi_source_deferring(g, sources, live, |_| false, out, deferred);
            return false;
        };
        let defer = |v: NodeId| hub.closure.contains(v as usize);
        reach.multi_source_deferring(g, sources, live, defer, out, deferred);
        let hit = deferred.iter().any(|&v| hub.scc.contains(v as usize));
        if !hit && !deferred.is_empty() {
            reach.resume(g, live, deferred, out);
        }
        #[cfg(test)]
        if hit || !deferred.is_empty() {
            walk.branches[hit as usize] += 1;
        }
        hit
    }
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
        let mut members = Vec::new();
        Reachability::new(n).multi_source(world, &scc, &mut members);
        let set = |nodes: &[NodeId]| {
            let mut set = BitSet::new(n);
            nodes.iter().for_each(|&v| _ = set.insert(v as usize));
            set
        };
        (members.len() > scc.len()).then(|| Hub {
            scc: set(&scc),
            closure: set(&members),
            members,
        })
    }
}

/// World `live` of `g` as a graph of its own: `g`'s live arcs, in CSR
/// order.
fn live_world(g: &DiGraph, live: &LiveArcs) -> DiGraph {
    let mut offsets = Vec::with_capacity(g.num_nodes() + 1);
    let mut targets = Vec::new();
    offsets.push(0);
    for v in g.nodes() {
        let arcs = g.edge_range(v).zip(g.out_neighbors(v));
        targets.extend(arcs.filter(|&(e, _)| live.is_live(e)).map(|(_, &w)| w));
        // At most `g`'s arcs, whose count fits a `u32` offset.
        offsets.push(targets.len() as u32);
    }
    DiGraph::from_csr_parts(offsets, targets)
}

/// `world`'s arcs as a mask over `union`, which holds every one of them.
fn mask_of(union: &DiGraph, world: &DiGraph) -> LiveArcs {
    let live = world.nodes().flat_map(|v| {
        let (first, targets) = (union.edge_range(v).start, union.out_neighbors(v));
        let arcs = world.out_neighbors(v).iter();
        arcs.map(move |&w| first + targets.partition_point(|&t| t < w))
    });
    LiveArcs::from_live(union.num_edges(), live)
}

/// The cascade index: ℓ sampled worlds, each a live-arc mask over one
/// graph (Algorithm 1).
pub struct CascadeIndex {
    /// The arcs every world masks: `pg.graph()`, or the union of the
    /// supplied worlds' arcs.
    graph: DiGraph,
    worlds: Vec<World>,
    /// The nodes in some world's hub closure, ascending, and for each a
    /// row of `⌈ℓ/64⌉` words: bit `i % 64` of word `i / 64` is set when
    /// world `i`'s closure holds the node. Both empty when no world has a
    /// closure.
    closure_nodes: Vec<NodeId>,
    closure_rows: Vec<u64>,
    config: IndexConfig,
    /// [`condensations`](Self::condensations), derived on first use.
    condensations: OnceLock<Vec<(usize, usize)>>,
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
        Self::from_masks(pg.graph().clone(), config.num_worlds, config, |_, i| {
            let _span = soi_obs::span("index.sample_world");
            LiveArcs::sample(pg, &mut world_rng(config.seed, i))
        })
    }

    /// Builds worlds `0..num_worlds` over `graph`, world `i` masked by
    /// `mask(&graph, i)`, on `config.threads` workers
    /// (`soi_util::pool`). World `i` depends only on `i`, so the worker
    /// partition does not affect the result.
    fn from_masks(
        graph: DiGraph,
        num_worlds: usize,
        config: IndexConfig,
        mask: impl Fn(&DiGraph, usize) -> LiveArcs + Sync,
    ) -> Self {
        // Only a cycle of the graph lets a world's hub reach more than
        // itself.
        let cyclic = transitive::topological_order(&graph).is_none();
        let mut worlds: Vec<Option<World>> = (0..num_worlds).map(|_| None).collect();
        soi_util::pool::for_each_indexed(&mut worlds, config.threads, |i, slot| {
            let live = mask(&graph, i);
            let hub = cyclic
                .then(|| Hub::find(&live_world(&graph, &live)))
                .flatten();
            *slot = Some(World { live, hub });
        });
        #[expect(
            clippy::expect_used,
            reason = "the pool fills every slot before its scope joins"
        )]
        let built = worlds.into_iter().map(|w| w.expect("world built"));
        let worlds: Vec<World> = built.collect();
        let words = num_worlds.div_ceil(64);
        let mut closure_rows = Vec::new();
        for (i, w) in worlds.iter().enumerate() {
            let Some(hub) = &w.hub else { continue };
            closure_rows.resize(graph.num_nodes() * words, 0);
            for &v in &hub.members {
                closure_rows[v as usize * words + i / 64] |= 1 << (i % 64);
            }
        }
        let closure_nodes = keep_nonzero_rows(&mut closure_rows, words);
        let index = CascadeIndex {
            graph,
            worlds,
            closure_nodes,
            closure_rows,
            config,
            condensations: OnceLock::new(),
        };
        index.record_build_metrics();
        index
    }

    /// Each world's condensation, re-derived from its mask, as
    /// `(components, DAG arcs)`; the DAG transitively reduced when
    /// `config.transitive_reduction` is set. The first call costs what a
    /// condensing build cost, so only the diagnostics below read it; later
    /// calls read the memo.
    fn condensations(&self) -> &[(usize, usize)] {
        self.condensations.get_or_init(|| self.condense_worlds())
    }

    fn condense_worlds(&self) -> Vec<(usize, usize)> {
        #[cfg(test)]
        tests::CONDENSE_PASSES.with(|n| n.set(n.get() + 1));
        let mut sizes = vec![(0, 0); self.worlds.len()];
        soi_util::pool::for_each_indexed(&mut sizes, self.config.threads, |i, slot| {
            let cond = Condensation::new(&live_world(&self.graph, &self.worlds[i].live));
            let dag = if self.config.transitive_reduction {
                #[expect(
                    clippy::expect_used,
                    reason = "a condensation is acyclic by construction, and \
                              transitive_reduction only returns None on cyclic input"
                )]
                transitive::transitive_reduction(&cond.dag).expect("condensation is a DAG")
            } else {
                cond.dag
            };
            *slot = (dag.num_nodes(), dag.num_edges());
        });
        sizes
    }

    /// A 64-bit fingerprint of the index identity: dimensions, build
    /// configuration, and each world's condensation size (components and
    /// arcs). Used to pin checkpoints to the index a run was started
    /// with; it condenses every world, so compute it only for a run that
    /// has a checkpoint.
    pub fn fingerprint(&self) -> u64 {
        let mut h = soi_util::hash::Mix64Hasher::new();
        h.update_u64(self.num_nodes() as u64);
        h.update_u64(self.worlds.len() as u64);
        h.update_u64(self.config.seed);
        h.update_u64(self.config.transitive_reduction as u64);
        for &(comps, arcs) in self.condensations() {
            h.update_u64(comps as u64);
            h.update_u64(arcs as u64);
        }
        h.finish()
    }

    /// A 64-bit cache key identifying the index that [`build`](Self::build)
    /// would produce for a graph with [`ProbGraph::fingerprint`]
    /// `graph_fingerprint` and `config`, computable **without** building
    /// it. Combines the graph fingerprint with every config field that
    /// changes the index or its fingerprint (`threads` is excluded: builds
    /// are thread-count invariant). `soi serve` keys its index cache on
    /// this.
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
    /// taken verbatim, in order, each as a mask over the union of their
    /// arcs, by `config.threads` workers.
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
        Self::from_masks(union, worlds.len(), config, |union, i| {
            mask_of(union, worlds[i])
        })
    }

    /// Records the build's world count and size, and logs them. Every
    /// value is a function of the seeded inputs.
    fn record_build_metrics(&self) {
        soi_obs::counter_add!("index.worlds_built", self.worlds.len());
        soi_obs::gauge("index.memory_bytes").set(self.memory_bytes() as f64);
        soi_obs::event!(
            soi_obs::Level::Info,
            "index built: {} worlds, {} with a hub closure, {} closure entries, {} bytes",
            self.worlds.len(),
            self.worlds.iter().filter(|w| w.hub.is_some()).count(),
            (0..self.worlds.len())
                .map(|i| self.closure(i).len())
                .sum::<usize>(),
            self.memory_bytes()
        );
    }

    /// Number of nodes of the indexed graph.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of indexed worlds ℓ.
    pub fn num_worlds(&self) -> usize {
        self.worlds.len()
    }

    /// The build configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// World `i`'s hub closure, in no particular order: empty when its
    /// hub reaches only itself.
    pub fn closure(&self, i: usize) -> &[NodeId] {
        self.worlds[i].hub.as_ref().map_or(&[], |h| &h.members)
    }

    /// The nodes in some world's hub closure, ascending, and each one's
    /// row of `⌈ℓ/64⌉` words over the worlds: bit `i % 64` of word `i / 64`
    /// is set when world `i`'s [`closure`](Self::closure) holds the node.
    /// Both are empty when no world has a closure.
    pub fn closure_rows(&self) -> (&[NodeId], &[u64]) {
        (&self.closure_nodes, &self.closure_rows)
    }

    /// Creates reusable query scratch sized for this index.
    pub fn query(&self) -> IndexQuery {
        IndexQuery {
            walk: Walk {
                reach: Reachability::new(self.num_nodes()),
                deferred: Vec::new(),
                #[cfg(test)]
                branches: [0; 2],
            },
            nodes: Vec::new(),
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
        if self.worlds[i].walk(&self.graph, seeds, &mut q.walk, out) {
            out.extend_from_slice(self.closure(i));
        }
    }

    /// Cascade size of `v` in world `i` without materializing node ids.
    pub fn cascade_size(&self, v: NodeId, i: usize, q: &mut IndexQuery) -> usize {
        let IndexQuery { walk, nodes, .. } = q;
        let hit = self.worlds[i].walk(&self.graph, &[v], walk, nodes);
        nodes.len() + if hit { self.closure(i).len() } else { 0 }
    }

    /// All ℓ cascades of `v` as canonical sorted sets — the input shape
    /// the Jaccard-median machinery expects (Algorithm 2's inner loop).
    pub fn cascades_of(&self, v: NodeId) -> Vec<Vec<NodeId>> {
        let mut q = self.query();
        let mut sets = vec![Vec::new(); self.num_worlds()];
        for pair in self.reached_comps(v, &mut q) {
            sets[pair.0 as usize].extend_from_slice(self.chunk(pair));
        }
        for set in &mut sets {
            set.sort_unstable();
        }
        sets
    }

    /// What `v` reaches in every world, as `(world, chunk)` pairs in
    /// ascending world order, valid until `q` is used again. A chunk is a
    /// node, or [`HUB_CLOSURE`] when `v` reaches the world's largest SCC.
    /// The cascade of `v` in world `i` is the disjoint union of the
    /// members ([`chunk`](Self::chunk)) of world `i`'s pairs, so a
    /// consumer can read all ℓ cascades without materialising them.
    pub fn reached_comps<'q>(&self, v: NodeId, q: &'q mut IndexQuery) -> &'q [(u32, u32)] {
        let IndexQuery { walk, nodes, pairs } = q;
        pairs.clear();
        for (i, w) in (0..).zip(&self.worlds) {
            let hit = w.walk(&self.graph, &[v], walk, nodes);
            pairs.extend(nodes.iter().map(|&u| (i, u)));
            if hit {
                pairs.push((i, HUB_CLOSURE));
            }
        }
        pairs
    }

    /// The members of a [`reached_comps`](Self::reached_comps) pair's
    /// chunk: its node, or the world's whole hub
    /// [`closure`](Self::closure) for [`HUB_CLOSURE`].
    pub fn chunk<'a>(&'a self, pair: &'a (u32, u32)) -> &'a [NodeId] {
        match pair {
            &(i, HUB_CLOSURE) => self.closure(i as usize),
            (_, v) => std::slice::from_ref(v),
        }
    }

    /// Heap footprint in bytes of the stored arrays: the graph's CSR,
    /// every world's mask and hub (two n-bit sets and the closure's
    /// members), and the closure rows.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let (offsets, targets) = self.graph.csr_parts();
        let graph = (offsets.len() + targets.len()) * size_of::<u32>();
        let sets = 2 * self.num_nodes().div_ceil(64) * size_of::<u64>();
        let hubs = self.worlds.iter().filter_map(|w| w.hub.as_ref());
        let hubs: usize = hubs
            .map(|h| sets + h.members.len() * size_of::<NodeId>())
            .sum();
        let masks: usize = self.worlds.iter().map(|w| w.live.memory_bytes()).sum();
        let closures = self.closure_nodes.len() * size_of::<NodeId>()
            + self.closure_rows.len() * size_of::<u64>();
        graph + masks + hubs + closures
    }

    /// Mean number of SCCs per world (diagnostics for EXPERIMENTS.md).
    pub fn mean_comps(&self) -> f64 {
        let comps = self.condensations().iter().map(|c| c.0 as f64).sum::<f64>();
        comps / self.worlds.len() as f64
    }

    /// Mean number of condensation arcs per world, after the transitive
    /// reduction when the config asks for it.
    pub fn mean_dag_edges(&self) -> f64 {
        let arcs = self.condensations().iter().map(|c| c.1 as f64).sum::<f64>();
        arcs / self.worlds.len() as f64
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

/// Reusable per-thread query scratch for [`CascadeIndex`].
pub struct IndexQuery {
    walk: Walk,
    /// The nodes of the last walk.
    nodes: Vec<NodeId>,
    /// The last [`CascadeIndex::reached_comps`] answer.
    pairs: Vec<(u32, u32)>,
}

/// Scratch of [`World::walk`].
struct Walk {
    reach: Reachability,
    /// The closure nodes the walk set aside.
    deferred: Vec<NodeId>,
    /// Walks that resumed from set-aside nodes, and walks that hit.
    #[cfg(test)]
    branches: [usize; 2],
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::gen;
    use soi_sampling::WorldSampler;

    fn test_graph(seed: u64) -> ProbGraph {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(seed);
        ProbGraph::fixed(gen::gnm(60, 300, &mut rng), 0.3).unwrap()
    }

    /// The differential oracle of the hub walk: for every node and world,
    /// `cascade`, `cascade_size` and `reached_comps` answer what a plain
    /// BFS over the re-sampled world answers, and so does `multi_cascade`
    /// from seeds in the hub closure but outside the hub (plus node 0),
    /// which forces the resume branch. Returns the walk branch counts
    /// `[resumed from set-aside nodes, hit]`.
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
            for pair in index.reached_comps(v, &mut q) {
                chunks[pair.0 as usize].extend_from_slice(index.chunk(pair));
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
            let hub = index.worlds[i].hub.as_ref();
            let inside = |&v: &NodeId| {
                hub.is_some_and(|h| h.closure.contains(v as usize) && !h.scc.contains(v as usize))
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

    /// Every world's live arcs, as `(u, v)` pairs, and its hub sets,
    /// then the closure rows and the fingerprint.
    fn assert_same_index(a: &CascadeIndex, b: &CascadeIndex) {
        assert_eq!(a.num_worlds(), b.num_worlds());
        for (i, (wa, wb)) in a.worlds.iter().zip(&b.worlds).enumerate() {
            let arcs = |index: &CascadeIndex, w: &World| live_world(&index.graph, &w.live);
            assert_eq!(arcs(a, wa), arcs(b, wb), "world {i}");
            let sets = |w: &World| w.hub.as_ref().map(|h| (h.scc.clone(), h.closure.clone()));
            assert_eq!(sets(wa), sets(wb), "world {i}");
        }
        assert_eq!(a.closure_rows(), b.closure_rows());
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

    /// The built index's structure: every world's live arcs and hub sets,
    /// hashed, its [`CascadeIndex::fingerprint`], its
    /// [`CascadeIndex::memory_bytes`] and its number of worlds without a
    /// hub. The fingerprints were recorded at commit 4ad167f, when every
    /// world was stored as its reduced condensation; they hash each
    /// world's condensation size, re-derived from the mask, so
    /// checkpoints and caches keyed on them stay valid. The content hash,
    /// the sizes and the hubless counts describe the live-arc layout,
    /// recorded at the commit that introduced it. Every weighted-cascade
    /// world is hubless (the BA graph is acyclic), and no supercritical
    /// one is, so the hashes cover both kinds of world.
    #[test]
    fn index_contents_and_fingerprint_are_pinned() {
        let got = pinned_fixtures().map(|index| {
            let hubless = index.worlds.iter().filter(|w| w.hub.is_none()).count();
            let mut h = soi_util::hash::Mix64Hasher::new();
            let mut update = |list: &[NodeId]| {
                h.update_u64(list.len() as u64);
                list.iter().for_each(|&x| h.update_u64(x.into()));
            };
            for w in &index.worlds {
                let world = live_world(&index.graph, &w.live);
                world.nodes().for_each(|v| update(world.out_neighbors(v)));
                if let Some(hub) = &w.hub {
                    let mut members = hub.members.clone();
                    members.sort_unstable();
                    update(&members);
                    let scc = |&v: &NodeId| hub.scc.contains(v as usize);
                    update(&world.nodes().filter(scc).collect::<Vec<_>>());
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
        // per node and arc, and 47 mask words per world. The supercritical
        // worlds add two 10-word hub sets and 5477 closure members between
        // them, and its 597 closure nodes one id and one row word each.
        let pinned = [
            (0xa3f9_3a46_bdfe_129f, 0xa731_8c4c_7e3d_6853, 20_360, 16),
            (
                0xc3c8_acd8_9562_431c,
                0x4745_6411_1710_acbb,
                (601 + 3000) * 4 + 16 * (47 + 2 * 10) * 8 + 5477 * 4 + 597 * (4 + 8),
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

    thread_local! {
        /// Calls of [`CascadeIndex::condense_worlds`] on this thread.
        pub(super) static CONDENSE_PASSES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// The fingerprint and both condensation means share one pass over
    /// the worlds, and the memo answers what a fresh pass would.
    #[test]
    fn the_diagnostics_condense_every_world_once() {
        for index in pinned_fixtures() {
            let before = CONDENSE_PASSES.with(|n| n.get());
            let fingerprint = index.fingerprint();
            let means = (index.mean_comps(), index.mean_dag_edges());
            assert_eq!(index.fingerprint(), fingerprint);
            assert_eq!(CONDENSE_PASSES.with(|n| n.get()) - before, 1);
            let fresh = index.condense_worlds();
            assert_eq!(index.condensations(), &fresh[..]);
            let ell = fresh.len() as f64;
            let comps = fresh.iter().map(|c| c.0 as f64).sum::<f64>() / ell;
            let arcs = fresh.iter().map(|c| c.1 as f64).sum::<f64>() / ell;
            assert_eq!(means, (comps, arcs));
        }
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

        /// The cascade of `v`, sorted, and whether the walk reached the
        /// hub.
        fn cascade(&self, v: NodeId, reach: &mut Reachability) -> (Vec<NodeId>, bool) {
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
            (set, hit)
        }
    }

    /// For every node and world, the pairs of `reached_comps` hold the
    /// cascade the condensation walk finds, with a [`HUB_CLOSURE`] pair
    /// exactly where that walk reached the hub, and every world's closure
    /// is the condensation's. Returns the mask walk's branch counts
    /// `[resumed from set-aside nodes, hit]`.
    fn assert_mask_walk_matches_condensation_walk(index: &CascadeIndex) -> [usize; 2] {
        let n = index.num_nodes();
        let oracles: Vec<CondensedWorld> = index
            .worlds
            .iter()
            .map(|w| CondensedWorld::new(&live_world(&index.graph, &w.live)))
            .collect();
        for (i, oracle) in oracles.iter().enumerate() {
            let mut closure = index.closure(i).to_vec();
            closure.sort_unstable();
            let mut want = oracle.hub_members.clone();
            want.sort_unstable();
            assert_eq!(closure, want, "world {i}");
        }
        let (mut q, mut reach) = (index.query(), Reachability::new(n));
        for v in 0..n as NodeId {
            let mut got = vec![(Vec::new(), false); index.num_worlds()];
            for pair in index.reached_comps(v, &mut q) {
                let (set, hit) = &mut got[pair.0 as usize];
                set.extend_from_slice(index.chunk(pair));
                *hit |= pair.1 == HUB_CLOSURE;
            }
            for (i, (oracle, (mut set, hit))) in oracles.iter().zip(got).enumerate() {
                set.sort_unstable();
                assert_eq!(
                    (set, hit),
                    oracle.cascade(v, &mut reach),
                    "node {v}, world {i}"
                );
            }
        }
        q.walk.branches
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
        let mut edges: Vec<(NodeId, NodeId)> = (0..30).map(|v| (v, (v + 1) % 30)).collect();
        edges.extend((29..39).map(|v| (v, v + 1)));
        let pg = ProbGraph::fixed(DiGraph::from_edges(40, &edges).unwrap(), 1.0).unwrap();
        let config = IndexConfig {
            num_worlds: 4,
            ..config
        };
        let index = CascadeIndex::build(&pg, config);
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
