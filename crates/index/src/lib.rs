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
//! Worlds are derived deterministically from `(seed, world-id)`, so a
//! build is reproducible bit-for-bit regardless of thread count.

pub mod io;

use soi_graph::{scc::Condensation, transitive, DiGraph, NodeId, ProbGraph, Reachability};
use soi_sampling::world::world_rng;
use soi_sampling::WorldSampler;
use soi_util::runtime::{Deadline, Outcome, Run};
use std::convert::Infallible;

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
    member_offsets: Vec<usize>,
    members: Vec<NodeId>,
}

impl WorldIndex {
    /// Reassembles a world from its stored parts (used by [`io`]).
    pub(crate) fn from_parts(
        dag: DiGraph,
        member_offsets: Vec<usize>,
        members: Vec<NodeId>,
    ) -> Self {
        WorldIndex {
            dag,
            member_offsets,
            members,
        }
    }

    /// Raw member-offset accessor (used by [`io`]): the CSR offset of
    /// component `c`'s member slice; `c` may equal `num_comps` (the end
    /// sentinel).
    pub fn member_offset(&self, c: usize) -> usize {
        self.member_offsets[c]
    }

    /// Number of SCCs in this world.
    pub fn num_comps(&self) -> usize {
        self.dag.num_nodes()
    }

    /// The original nodes in component `c`.
    pub fn members_of(&self, c: u32) -> &[NodeId] {
        &self.members[self.member_offsets[c as usize]..self.member_offsets[c as usize + 1]]
    }

    /// Size of component `c`.
    pub fn comp_size(&self, c: u32) -> usize {
        self.member_offsets[c as usize + 1] - self.member_offsets[c as usize]
    }
}

/// The cascade index: ℓ condensed worlds plus the `node × world`
/// component matrix (Algorithm 1).
pub struct CascadeIndex {
    num_nodes: usize,
    worlds: Vec<WorldIndex>,
    /// Node-major layout: `comp_matrix[v * ℓ + i]` is `I[v, i]`. Node-major
    /// because queries iterate all worlds of one node.
    comp_matrix: Vec<u32>,
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
        // Nothing can stop it: one block of all ℓ worlds, a single pool
        // fan-out.
        Self::build_blocks(pg, config, &Run::unlimited()).value()
    }

    /// Budgeted [`build`](CascadeIndex::build): one tick per sampled
    /// world, checked at block boundaries (blocks of [`BUILD_BLOCK`]
    /// worlds, parallel within a block). On expiry the partial index
    /// covers a *prefix* of the world ids — world `i` depends only on
    /// `(seed, i)`, so the prefix is identical to the first worlds of an
    /// uninterrupted build regardless of thread count. At least one block
    /// is always built, so even an expired deadline yields a usable
    /// (small-ℓ) index.
    pub fn build_budgeted(
        pg: &ProbGraph,
        config: IndexConfig,
        deadline: &Deadline,
    ) -> Outcome<Self> {
        let run = Run::new(deadline.clone(), None, BUILD_BLOCK, false);
        Self::build_blocks(pg, config, &run)
    }

    /// The block-synchronous build: worlds are sampled and condensed
    /// `run.every` at a time, one pool fan-out per block, under
    /// [`Run::blocks`].
    fn build_blocks(pg: &ProbGraph, config: IndexConfig, run: &Run) -> Outcome<Self> {
        assert!(config.num_worlds > 0, "need at least one world");
        let _span = soi_obs::span("index.build");
        let ell = config.num_worlds;

        // World `i` depends only on `(seed, i)`, so neither the block size
        // nor the worker partition affects the result.
        let mut built: Vec<(WorldIndex, Vec<u32>)> = Vec::with_capacity(ell);
        let Ok(done) = run.blocks(ell, 0, run.every, |lo, hi| {
            let mut slots: Vec<Option<(WorldIndex, Vec<u32>)>> = (lo..hi).map(|_| None).collect();
            // Workers claim chunks of world ids (`soi_util::pool`); each
            // keeps one sampler allocation for all the chunks it claims.
            soi_util::pool::for_each_indexed_with(
                &mut slots,
                config.threads,
                WorldSampler::new,
                |sampler, j, slot| {
                    *slot = Some(build_world(pg, &config, lo + j, sampler));
                },
            );
            // The pool fills every slot before its scope joins.
            // xtask-allow: panic_policy
            built.extend(slots.into_iter().map(|slot| slot.expect("world built")));
            Ok::<(), Infallible>(())
        });

        // Record the ℓ actually built so the stored config matches a
        // partial index's true dimensions.
        let config = IndexConfig {
            num_worlds: done,
            ..config
        };
        let index = Self::assemble(pg.num_nodes(), built, config);
        run.deadline.outcome(index, done as u64, ell as u64)
    }

    /// Transposes the per-world component assignments into the node-major
    /// matrix and records the build metrics.
    fn assemble(num_nodes: usize, built: Vec<(WorldIndex, Vec<u32>)>, config: IndexConfig) -> Self {
        let ell = built.len();
        let mut worlds = Vec::with_capacity(ell);
        let mut comp_matrix = vec![0u32; num_nodes * ell];
        let mut max_comps = 0usize;
        for (i, (w, comp_of)) in built.into_iter().enumerate() {
            max_comps = max_comps.max(w.num_comps());
            for v in 0..num_nodes {
                comp_matrix[v * ell + i] = comp_of[v];
            }
            worlds.push(w);
        }
        let index = CascadeIndex {
            num_nodes,
            worlds,
            comp_matrix,
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
    /// would produce for `(pg, config)`, computable **without** building
    /// it. Combines the graph fingerprint with every config field that
    /// changes index contents (`threads` is excluded: builds are
    /// thread-count invariant). `soi serve` keys its index cache on this.
    pub fn cache_key(pg: &ProbGraph, config: &IndexConfig) -> u64 {
        Self::cache_key_for(pg.fingerprint(), config)
    }

    /// [`cache_key`](Self::cache_key) from an already computed
    /// [`ProbGraph::fingerprint`], for callers that look the same graph
    /// up repeatedly: the fingerprint is O(n + m), the rest O(1).
    pub fn cache_key_for(graph_fingerprint: u64, config: &IndexConfig) -> u64 {
        let mut h = soi_util::hash::Mix64Hasher::new();
        h.update_u64(graph_fingerprint);
        h.update_u64(config.num_worlds as u64);
        h.update_u64(config.seed);
        h.update_u64(config.transitive_reduction as u64);
        h.finish()
    }

    /// Reassembles an index from stored parts (used by [`io`]); inputs
    /// are assumed already validated.
    pub(crate) fn from_parts(
        num_nodes: usize,
        worlds: Vec<WorldIndex>,
        comp_matrix: Vec<u32>,
        max_comps: usize,
        config: IndexConfig,
    ) -> Self {
        CascadeIndex {
            num_nodes,
            worlds,
            comp_matrix,
            max_comps,
            config,
        }
    }

    /// Builds an index from externally supplied live-edge worlds — any
    /// propagation model with a live-edge equivalence (e.g. the Linear
    /// Threshold sampler in `soi-sampling::lt`) plugs into the same
    /// typical-cascade pipeline this way. `config.num_worlds` and
    /// `config.seed` are recorded but ignored for sampling; worlds are
    /// taken verbatim, in order.
    pub fn build_from_worlds<'w>(
        num_nodes: usize,
        worlds: impl Iterator<Item = &'w DiGraph>,
        config: IndexConfig,
    ) -> Self {
        let built: Vec<(WorldIndex, Vec<u32>)> = worlds
            .map(|world| {
                assert_eq!(world.num_nodes(), num_nodes, "world node-count mismatch");
                condense_world(world, config.transitive_reduction)
            })
            .collect();
        assert!(!built.is_empty(), "need at least one world");
        Self::assemble(num_nodes, built, config)
    }

    /// Records closure/size counters and gauges for a finished build.
    /// Everything here is a function of the seeded inputs, so the values
    /// are deterministic.
    fn record_build_metrics(&self) {
        soi_obs::counter_add!("index.builds", 1);
        soi_obs::counter_add!("index.worlds_built", self.worlds.len());
        let comps: usize = self.worlds.iter().map(WorldIndex::num_comps).sum();
        let dag_edges: usize = self.worlds.iter().map(|w| w.dag.num_edges()).sum();
        let members: usize = self.worlds.iter().map(|w| w.members.len()).sum();
        soi_obs::counter_add!("index.total_comps", comps);
        soi_obs::counter_add!("index.total_dag_edges", dag_edges);
        soi_obs::counter_add!("index.total_member_entries", members);
        soi_obs::gauge("index.memory_bytes").set(self.memory_bytes() as f64);
        soi_obs::gauge("index.max_comps").set(self.max_comps as f64);
        soi_obs::event!(
            soi_obs::Level::Info,
            "index built: {} worlds, {} comps, {} member entries, {} bytes",
            self.worlds.len(),
            comps,
            members,
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

    /// `I[v, i]`: the component of node `v` in world `i`.
    #[inline]
    pub fn comp_of(&self, v: NodeId, i: usize) -> u32 {
        self.comp_matrix[v as usize * self.worlds.len() + i]
    }

    /// Creates reusable query scratch sized for this index.
    pub fn query(&self) -> IndexQuery {
        IndexQuery {
            reach: Reachability::new(self.max_comps),
            comps: Vec::new(),
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
        q.reach.multi_source(&w.dag, &q.seed_comps, &mut q.comps);
        out.clear();
        for &c in &q.comps {
            out.extend_from_slice(w.members_of(c));
        }
    }

    /// Cascade size of `v` in world `i` without materializing node ids.
    pub fn cascade_size(&self, v: NodeId, i: usize, q: &mut IndexQuery) -> usize {
        let w = &self.worlds[i];
        q.reach
            .multi_source(&w.dag, &[self.comp_of(v, i)], &mut q.comps);
        q.comps.iter().map(|&c| w.comp_size(c)).sum()
    }

    /// All ℓ cascades of `v` as canonical sorted sets — the input shape
    /// the Jaccard-median machinery expects (Algorithm 2's inner loop).
    pub fn cascades_of(&self, v: NodeId) -> Vec<Vec<NodeId>> {
        let mut q = self.query();
        let mut sets = vec![Vec::new(); self.num_worlds()];
        for &(i, c) in self.reached_comps(v, &mut q) {
            sets[i as usize].extend_from_slice(self.worlds[i as usize].members_of(c));
        }
        for set in &mut sets {
            set.sort_unstable();
        }
        sets
    }

    /// The components `v` reaches in every world, as `(world, component)`
    /// pairs in ascending world order, valid until `q` is used again. The
    /// cascade of `v` in world `i` is the disjoint union of the member
    /// lists ([`WorldIndex::members_of`]) of world `i`'s pairs, so a
    /// consumer can read all ℓ cascades without materialising them.
    pub fn reached_comps<'q>(&self, v: NodeId, q: &'q mut IndexQuery) -> &'q [(u32, u32)] {
        q.pairs.clear();
        for (i, w) in self.worlds.iter().enumerate() {
            q.reach
                .multi_source(&w.dag, &[self.comp_of(v, i)], &mut q.comps);
            q.pairs.extend(q.comps.iter().map(|&c| (i as u32, c)));
        }
        &q.pairs
    }

    /// Approximate heap footprint in bytes (matrix + world structures):
    /// the quantity §4 argues the condensation representation keeps small.
    pub fn memory_bytes(&self) -> usize {
        let matrix = self.comp_matrix.len() * std::mem::size_of::<u32>();
        let worlds: usize = self
            .worlds
            .iter()
            .map(|w| {
                w.dag.num_edges() * std::mem::size_of::<NodeId>()
                    + (w.dag.num_nodes() + 1) * std::mem::size_of::<usize>()
                    + w.members.len() * std::mem::size_of::<NodeId>()
                    + w.member_offsets.len() * std::mem::size_of::<usize>()
            })
            .sum();
        matrix + worlds
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

/// Reusable per-thread query scratch for [`CascadeIndex`].
pub struct IndexQuery {
    reach: Reachability,
    comps: Vec<u32>,
    /// The seeds' components in the world being queried.
    seed_comps: Vec<u32>,
    /// The last [`CascadeIndex::reached_comps`] answer.
    pairs: Vec<(u32, u32)>,
}

/// Worlds per deadline check in [`CascadeIndex::build_budgeted`]. A fixed
/// block size (independent of thread count) keeps the partial prefix
/// deterministic across machines.
pub const BUILD_BLOCK: usize = 16;

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
        WorldIndex {
            dag,
            member_offsets: cond.member_offsets,
            members: cond.members,
        },
        cond.comp_of,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::gen;

    fn test_graph(seed: u64) -> ProbGraph {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(seed);
        ProbGraph::fixed(gen::gnm(60, 300, &mut rng), 0.3).unwrap()
    }

    #[test]
    fn index_cascades_match_direct_reachability() {
        let pg = test_graph(1);
        let config = IndexConfig {
            num_worlds: 12,
            seed: 77,
            transitive_reduction: true,
            threads: 1,
        };
        let index = CascadeIndex::build(&pg, config);
        let mut q = index.query();
        let mut out = Vec::new();
        let mut sampler = WorldSampler::new();
        let mut reach = Reachability::new(pg.num_nodes());
        let mut direct = Vec::new();
        for i in 0..12 {
            // Re-derive the exact world the index sampled.
            let world = sampler.sample(&pg, &mut world_rng(77, i));
            for v in 0..pg.num_nodes() as NodeId {
                index.cascade(v, i, &mut q, &mut out);
                out.sort_unstable();
                reach.reachable_from(&world, v, &mut direct);
                direct.sort_unstable();
                assert_eq!(out, direct, "world {i}, node {v}");
            }
        }
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
        let base = CascadeIndex::cache_key(&pg, &config);
        // Thread count never changes index contents, so it never changes
        // the key; every content-bearing input does.
        assert_eq!(
            base,
            CascadeIndex::cache_key(
                &pg,
                &IndexConfig {
                    threads: 4,
                    ..config
                }
            )
        );
        assert_ne!(
            base,
            CascadeIndex::cache_key(
                &pg,
                &IndexConfig {
                    num_worlds: 9,
                    ..config
                }
            )
        );
        assert_ne!(
            base,
            CascadeIndex::cache_key(&pg, &IndexConfig { seed: 6, ..config })
        );
        assert_ne!(
            base,
            CascadeIndex::cache_key(
                &pg,
                &IndexConfig {
                    transitive_reduction: false,
                    ..config
                }
            )
        );
        assert_ne!(base, CascadeIndex::cache_key(&test_graph(2), &config));
    }

    #[test]
    fn parallel_build_matches_serial() {
        let pg = test_graph(2);
        let mk = |threads| {
            CascadeIndex::build(
                &pg,
                IndexConfig {
                    num_worlds: 8,
                    seed: 5,
                    transitive_reduction: true,
                    threads,
                },
            )
        };
        let serial = mk(1);
        let parallel = mk(4);
        assert_eq!(serial.num_worlds(), parallel.num_worlds());
        for v in 0..pg.num_nodes() as NodeId {
            assert_eq!(serial.cascades_of(v), parallel.cascades_of(v), "node {v}");
        }
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
    fn budgeted_build_yields_a_world_prefix() {
        use soi_util::runtime::Deadline;
        let pg = test_graph(8);
        let config = IndexConfig {
            num_worlds: 40,
            seed: 13,
            transitive_reduction: true,
            threads: 2,
        };
        let full = CascadeIndex::build(&pg, config);

        let complete = CascadeIndex::build_budgeted(&pg, config, &Deadline::unlimited());
        assert!(complete.is_complete());
        let complete = complete.value();
        assert_eq!(complete.num_worlds(), 40);
        assert_eq!(complete.cascades_of(3), full.cascades_of(3));
        assert_eq!(complete.fingerprint(), full.fingerprint());

        // Budget for one block: the partial index is worlds 0..BUILD_BLOCK.
        let partial = CascadeIndex::build_budgeted(&pg, config, &Deadline::ticks(1));
        assert!(!partial.is_complete());
        let progress = partial.progress().unwrap();
        assert_eq!(progress.done, crate::BUILD_BLOCK as u64);
        assert_eq!(progress.total, 40);
        let partial = partial.value();
        assert_eq!(partial.num_worlds(), crate::BUILD_BLOCK);
        for v in (0..60).step_by(9) {
            assert_eq!(
                partial.cascades_of(v),
                full.cascades_of(v)[..crate::BUILD_BLOCK].to_vec(),
                "node {v}"
            );
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
