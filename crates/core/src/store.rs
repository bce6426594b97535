//! The per-index sphere store: the one place spheres are computed from a
//! [`CascadeIndex`].
//!
//! Every node's sphere comes from one [`index_median`] call, and every
//! pass over the nodes runs `Workers::blocks`: blocks of `run.every`
//! nodes, one pool fan-out per block, paying one deadline tick per node.
//! Two passes use it.
//!
//! * **The fill** fits all n, in node order: `spheres --out`, the
//!   daemon's cache entry and the reference engine read it through
//!   [`crate::all_typical_cascades_resumable`].
//! * **The bounds pass** ([`SphereStore::bound`]) computes only
//!   [`sphere_bound`]'s `B(v)` per node: the walk, the ℓ cascade sizes and
//!   the element frequencies, with no load and no fit. `infmax --method
//!   tc` covers from the store it leaves, which fits a node at most once,
//!   when the cover asks for its sphere ([`SphereStore::fit`]).

use crate::engine::{index_median, sphere_bound, NodeScratch};
use soi_graph::NodeId;
use soi_index::CascadeIndex;
use soi_jaccard::median::MedianConfig;
use soi_util::ckpt::{ByteReader, Checkpoint, KIND_SPHERE_BOUNDS};
use soi_util::runtime::{Deadline, Outcome, Run};
use soi_util::SoiError;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Spheres of one index's nodes, fitted on demand: each node of the
/// prefix the bounds pass reached carries `B(v)`, an upper bound on its
/// sphere's size, until the cover asks for its sphere.
pub struct SphereStore<'i> {
    /// The bounds pass's workers, whose scratch the fits reuse.
    workers: Workers<'i>,
    median: MedianConfig,
    /// `B(v)` of each node of the bounded prefix.
    bounds: Vec<u32>,
    /// Each node's sphere, once fitted.
    spheres: Vec<Option<Vec<NodeId>>>,
}

impl<'i> SphereStore<'i> {
    /// The bounds pass: `B(v)` for nodes `0..n` in blocks of `run.every`,
    /// one tick per node, so a deadline stops it at the node prefix the
    /// fill would have stopped at. After each block a
    /// [`KIND_SPHERE_BOUNDS`] checkpoint is written when the run has a
    /// file, and a resumed run continues from its prefix. Later fits fan
    /// out on `threads` workers (0 = the default).
    pub fn bound(
        index: &'i CascadeIndex,
        median: &MedianConfig,
        threads: usize,
        run: &Run,
    ) -> Result<Outcome<Self>, SoiError> {
        let n = index.num_nodes();
        let mut slot = run.slot(
            KIND_SPHERE_BOUNDS,
            || index.fingerprint(),
            bounds_fingerprint(),
            n,
        );
        let mut bounds = Vec::new();
        if let Some(c) = slot.load()? {
            bounds = decode_bounds(&c, n)?;
            soi_obs::event!(
                soi_obs::Level::Info,
                "resuming sphere bounds from checkpoint: {} of {n} nodes done",
                bounds.len()
            );
        }
        let workers = Workers::new(index, threads);
        let done = workers.blocks(
            run,
            &mut bounds,
            |scratch, v| {
                // At most n nodes, whose count fits a `u32`.
                sphere_bound(index, v, scratch) as u32
            },
            || block_site(run),
            |bounds| slot.save(bounds.len(), || encode_bounds(bounds)),
        )?;
        let store = SphereStore {
            workers,
            median: *median,
            spheres: vec![None; bounds.len()],
            bounds,
        };
        Ok(run.deadline.outcome(store, done as u64, n as u64))
    }

    /// The nodes the bounds pass reached: the cover's candidates.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// `true` when the bounds pass reached no node.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// The index's node count: a sphere's members lie below it.
    pub fn num_nodes(&self) -> usize {
        self.workers.index.num_nodes()
    }

    /// `B(v)`: no sphere of `v` is larger.
    pub fn size_bound(&self, v: NodeId) -> usize {
        self.bounds[v as usize] as usize
    }

    /// `v`'s sphere, once fitted.
    pub fn sphere(&self, v: NodeId) -> Option<&[NodeId]> {
        self.spheres[v as usize].as_deref()
    }

    /// Nodes fitted so far.
    pub fn fitted(&self) -> usize {
        self.spheres.iter().filter(|s| s.is_some()).count()
    }

    /// Fits the nodes of `nodes` not fitted yet, in one pool fan-out.
    pub fn fit(&mut self, nodes: &[NodeId]) {
        let todo: Vec<NodeId> = nodes
            .iter()
            .copied()
            .filter(|&v| self.spheres[v as usize].is_none())
            .collect();
        let (index, median) = (self.workers.index, &self.median);
        let fits = self.workers.fan_out(&todo, |scratch, v| {
            index_median(index, v, median, &Deadline::unlimited(), scratch)
                .value()
                .median
        });
        for (v, sphere) in todo.into_iter().zip(fits) {
            self.spheres[v as usize] = Some(sphere);
        }
    }
}

/// The workers of a pass over an index's nodes, and their scratch, kept
/// across the pass's fan-outs: a pass of many fan-outs (the bounds, then
/// the cover's fits; the fill's blocks) holds one scratch per worker, not
/// one per worker and fan-out.
pub(crate) struct Workers<'i> {
    index: &'i CascadeIndex,
    /// Workers per fan-out (0 = the default).
    threads: usize,
    scratch: Mutex<Vec<NodeScratch>>,
}

impl<'i> Workers<'i> {
    pub(crate) fn new(index: &'i CascadeIndex, threads: usize) -> Self {
        Workers {
            index,
            threads,
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// The block loop of every pass over the nodes: solves nodes
    /// `done.len()..n` in blocks of `run.every`, one fan-out of `unit` per
    /// block, calling `before_block` before each block and `after_block`
    /// with everything done so far after it. A block starts only once the
    /// deadline paid for its nodes (the first block always runs). It can
    /// fail only through those hooks. Returns the nodes done.
    pub(crate) fn blocks<T: Send, E>(
        &self,
        run: &Run,
        done: &mut Vec<T>,
        unit: impl Fn(&mut NodeScratch, NodeId) -> T + Sync,
        mut before_block: impl FnMut() -> Result<(), E>,
        mut after_block: impl FnMut(&[T]) -> Result<(), E>,
    ) -> Result<usize, E> {
        let n = self.index.num_nodes();
        done.reserve(n.saturating_sub(done.len()));
        let end = run.blocks(n, done.len(), run.every, |lo, hi| {
            before_block()?;
            let nodes: Vec<NodeId> = (lo as NodeId..hi as NodeId).collect();
            done.extend(self.fan_out(&nodes, &unit));
            after_block(done)
        })?;
        soi_obs::event!(
            soi_obs::Level::Info,
            "solved {end} of {n} nodes on {} thread(s)",
            soi_util::pool::effective_threads(self.threads, n)
        );
        Ok(end)
    }

    /// `unit(v)` for every node of `nodes`, in that order, in one pool
    /// fan-out, each worker on a scratch it takes from the pool (or makes)
    /// and puts back when it ends.
    fn fan_out<T: Send>(
        &self,
        nodes: &[NodeId],
        unit: impl Fn(&mut NodeScratch, NodeId) -> T + Sync,
    ) -> Vec<T> {
        let mut slots: Vec<Option<T>> = nodes.iter().map(|_| None).collect();
        let lease = || Lease {
            workers: self,
            scratch: self.lock().pop(),
        };
        soi_util::pool::for_each_indexed_with(&mut slots, self.threads, lease, |lease, j, slot| {
            let scratch = lease
                .scratch
                .get_or_insert_with(|| NodeScratch::new(self.index));
            *slot = Some(unit(scratch, nodes[j]))
        });
        #[expect(
            clippy::expect_used,
            reason = "scoped threads fill every slot exactly once"
        )]
        slots.into_iter().map(|r| r.expect("filled")).collect()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<NodeScratch>> {
        self.scratch.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A worker's scratch, taken from its [`Workers`] (or made on first use)
/// and put back when the worker ends.
struct Lease<'w, 'i> {
    workers: &'w Workers<'i>,
    scratch: Option<NodeScratch>,
}

impl Drop for Lease<'_, '_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.workers.lock().push(scratch);
        }
    }
}

/// The `engine.block` crash site, before each block of a checkpointed
/// pass: only where a crash leaves something to resume from, so runs
/// without a checkpoint file (the daemon) have no failure source at all.
pub(crate) fn block_site(run: &Run) -> Result<(), SoiError> {
    if run.checkpoint.is_some() {
        soi_util::failpoint!("engine.block");
    }
    Ok(())
}

/// The bounds checkpoint's config fingerprint: `B(v)` depends on the
/// index alone, so the kind and the bound's version are all it binds.
fn bounds_fingerprint() -> u64 {
    let mut h = soi_util::hash::Mix64Hasher::new();
    h.update_u64(KIND_SPHERE_BOUNDS as u64);
    h.update_u64(1);
    h.finish()
}

/// Payload: u32 count, then each node's `B(v)` as a u32, in node order,
/// little-endian.
fn encode_bounds(bounds: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 * (bounds.len() + 1));
    out.extend_from_slice(&(bounds.len() as u32).to_le_bytes());
    for b in bounds {
        out.extend_from_slice(&b.to_le_bytes());
    }
    out
}

fn decode_bounds(c: &Checkpoint, num_nodes: usize) -> Result<Vec<u32>, SoiError> {
    let mut r = ByteReader::new(&c.payload);
    let count = r.u32("node count")? as usize;
    if count as u64 != c.done_units || count > num_nodes {
        return Err(SoiError::invalid(format!(
            "checkpoint payload holds {count} bounds but header says {} of {num_nodes}",
            c.done_units
        )));
    }
    let mut bounds = Vec::with_capacity(count);
    for v in 0..count {
        let b = r.u32("sphere bound")?;
        if b == 0 || b as usize > num_nodes {
            return Err(SoiError::invalid(format!(
                "checkpoint bound {b} of node {v} is not in 1..={num_nodes}"
            )));
        }
        bounds.push(b);
    }
    r.expect_end("sphere-bound payload")?;
    Ok(bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_typical_cascades;
    use soi_graph::{gen, ProbGraph};
    use soi_index::IndexConfig;

    fn index(pg: &ProbGraph, num_worlds: usize, seed: u64) -> CascadeIndex {
        let config = IndexConfig {
            num_worlds,
            seed,
            threads: 2,
            ..IndexConfig::default()
        };
        CascadeIndex::build(pg, config)
    }

    /// `|fit(v)| ≤ B(v)` at every node of the `spheres_are_pinned*`
    /// fixtures (`spheres_are_pinned_supercritical` checks its own), and a
    /// store's on-demand fit is the fill's sphere.
    #[test]
    fn every_sphere_is_within_its_bound() {
        let fixtures = crate::engine::tests::pinned_fixtures();
        for (pg, ell, seed) in &fixtures {
            let index = index(pg, *ell, *seed);
            let median = MedianConfig::default();
            let all = all_typical_cascades(&index, &median, 2);
            let mut store = SphereStore::bound(&index, &median, 2, &Run::unlimited())
                .unwrap()
                .value();
            assert_eq!(store.len(), index.num_nodes());
            let mut slack = 0;
            for tc in &all {
                let bound = store.size_bound(tc.node);
                assert!(
                    tc.median.len() <= bound,
                    "node {}: {tc:?} > {bound}",
                    tc.node
                );
                slack += bound - tc.median.len();
            }
            let some: Vec<NodeId> = (0..index.num_nodes() as NodeId).step_by(7).collect();
            store.fit(&some);
            store.fit(&some);
            assert_eq!(store.fitted(), some.len(), "a node is fitted once");
            for &v in &some {
                assert_eq!(store.sphere(v), Some(&all[v as usize].median[..]));
            }
            assert!(store.sphere(1).is_none());
            soi_obs::event!(
                soi_obs::Level::Info,
                "mean bound slack {:.2}",
                slack as f64 / all.len() as f64
            );
        }
    }

    #[test]
    fn bounds_stop_at_the_fills_prefix_and_resume_from_their_checkpoint() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(9);
        let pg = ProbGraph::fixed(gen::gnm(40, 180, &mut rng), 0.3).unwrap();
        let index = index(&pg, 16, 11);
        let median = MedianConfig::default();
        let full = SphereStore::bound(&index, &median, 1, &Run::unlimited())
            .unwrap()
            .value();
        let partial = SphereStore::bound(
            &index,
            &median,
            1,
            &Run::new(Deadline::ticks(10), None, 5, false),
        )
        .unwrap();
        assert_eq!(
            partial.progress().map(|p| (p.done, p.total)),
            Some((10, 40))
        );
        assert_eq!(partial.value().bounds, full.bounds[..10]);

        let dir = std::env::temp_dir().join(format!("soi-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bounds.ckpt");
        let run = |ticks, resume| Run::new(Deadline::ticks(ticks), Some(path.clone()), 6, resume);
        assert!(!SphereStore::bound(&index, &median, 2, &run(13, false))
            .unwrap()
            .is_complete());
        let c = soi_util::ckpt::read_checkpoint(&path, KIND_SPHERE_BOUNDS).unwrap();
        assert_eq!((c.done_units, c.total_units), (12, 40));
        let resumed = SphereStore::bound(&index, &median, 2, &run(u64::MAX - 1, true)).unwrap();
        assert!(resumed.is_complete());
        assert_eq!(resumed.value().bounds, full.bounds);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
