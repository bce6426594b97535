//! The typical-cascade solver (§3–§4, Algorithm 2).

use soi_graph::{NodeId, ProbGraph};
use soi_index::{CascadeIndex, IndexQuery, HUB_CLOSURE};
use soi_jaccard::cost::IncrementalCost;
use soi_jaccard::median::{jaccard_median_loaded, jaccard_median_with, MedianConfig, MedianResult};
use soi_sampling::CascadeSampler;
use soi_util::ckpt::{ByteReader, Checkpoint, KIND_TYPICAL_CASCADES};
use soi_util::rng::derive_seed;
use soi_util::runtime::{Deadline, Outcome, Run};
use soi_util::SoiError;
use std::convert::Infallible;

/// Power-of-two buckets for the `engine.sphere_size` histogram (sphere
/// sizes are counts, so bucket totals stay deterministic).
const SPHERE_SIZE_BUCKETS: &[f64] = &[
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0, 16384.0,
];

/// Configuration for typical-cascade computation.
#[derive(Clone, Copy, Debug)]
pub struct TypicalCascadeConfig {
    /// Cascade samples ℓ used to compute the median (the paper uses 1000).
    pub median_samples: usize,
    /// Fresh, independent samples used to estimate the median's expected
    /// cost (stability). 0 skips the estimate (cost is reported from the
    /// training pool instead).
    pub cost_samples: usize,
    /// Jaccard-median tuning.
    pub median: MedianConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for TypicalCascadeConfig {
    fn default() -> Self {
        TypicalCascadeConfig {
            median_samples: 256,
            cost_samples: 256,
            median: MedianConfig::default(),
            seed: 0,
        }
    }
}

impl TypicalCascadeConfig {
    /// Sizes the sample pools from Theorem 2's bound: `ℓ = log(1/α)/α²`
    /// samples give a `(1 + O(α))`-approximate median whenever the optimal
    /// cost exceeds `α`.
    ///
    /// ```
    /// use soi_core::TypicalCascadeConfig;
    /// let config = TypicalCascadeConfig::for_accuracy(0.1, 7);
    /// assert!(config.median_samples >= 230); // ln(10)/0.01
    /// ```
    pub fn for_accuracy(alpha: f64, seed: u64) -> Self {
        let samples = soi_jaccard::theory::samples_for_alpha(alpha);
        TypicalCascadeConfig {
            median_samples: samples,
            cost_samples: samples,
            median: MedianConfig::default(),
            seed,
        }
    }
}

/// A typical cascade (sphere of influence) with its quality measures.
#[derive(Clone, Debug, PartialEq)]
pub struct TypicalCascade {
    /// The median set `C̃*`, canonical (sorted, deduplicated). Contains the
    /// source whenever the source appears in the median — for non-trivial
    /// sources it always does (the source is in every sampled cascade).
    pub median: Vec<NodeId>,
    /// Empirical cost on the training pool (`ρ̂` on the samples used to fit
    /// the median; optimistic).
    pub training_cost: f64,
    /// Expected cost on a fresh pool — the paper's stability measure
    /// `ρ(C̃*)` estimate. Equals `training_cost` when `cost_samples == 0`.
    pub expected_cost: f64,
}

impl TypicalCascade {
    /// Size of the sphere of influence.
    pub fn size(&self) -> usize {
        self.median.len()
    }
}

/// Computes the typical cascade of a single source by direct sampling
/// (no index). The per-query cost is `O(ℓ · cascade work)`; batch callers
/// should build a [`CascadeIndex`] and use [`all_typical_cascades`].
pub fn typical_cascade(
    pg: &ProbGraph,
    source: NodeId,
    config: &TypicalCascadeConfig,
) -> TypicalCascade {
    typical_cascade_of_set(pg, std::slice::from_ref(&source), config)
}

/// Computes the typical cascade of a *seed set* (all seeds active at time
/// zero) — §5 extends the single-source definition this way, and the
/// stability analysis of Figure 8 evaluates it.
pub fn typical_cascade_of_set(
    pg: &ProbGraph,
    seeds: &[NodeId],
    config: &TypicalCascadeConfig,
) -> TypicalCascade {
    assert!(config.median_samples > 0, "need at least one sample");
    soi_obs::counter_add!("engine.tc_queries", 1);
    let _span = soi_obs::span("engine.typical_cascade");
    let train_seed = derive_seed(config.seed, 0x7261696e); // "rain"
    let samples = {
        let _s = soi_obs::span("engine.sample");
        CascadeSampler::sample_many(pg, seeds, config.median_samples, train_seed)
    };
    let fit = {
        let _s = soi_obs::span("engine.median_fit");
        jaccard_median_with(&samples, &config.median)
    };
    let expected_cost = if config.cost_samples == 0 {
        fit.cost
    } else {
        let _s = soi_obs::span("engine.cost_eval");
        let eval_seed = derive_seed(config.seed, 0x6576616c); // "eval"
        crate::stability::expected_cost_of_seed_set(
            pg,
            seeds,
            &fit.median,
            config.cost_samples,
            eval_seed,
        )
    };
    TypicalCascade {
        median: fit.median,
        training_cost: fit.cost,
        expected_cost,
    }
}

/// Per-worker scratch for [`index_median`]: a worker that solves node
/// after node keeps one and allocates nothing per node.
pub struct NodeScratch {
    query: IndexQuery,
    inc: IncrementalCost,
}

impl NodeScratch {
    /// Scratch sized for `index`.
    pub fn new(index: &CascadeIndex) -> Self {
        NodeScratch {
            query: index.query(),
            inc: IncrementalCost::default(),
        }
    }
}

/// Algorithm 2's per-node step: the Jaccard median of `v`'s ℓ indexed
/// cascades, bit-identical to
/// `jaccard_median_budgeted(&index.cascades_of(v), median, deadline)`
/// without materialising those cascades. The evaluator loads its postings
/// straight from the chunks `v` reaches in each world (span
/// `engine.index_lookup`: the hub walk `engine.reach`, then
/// `engine.load`). A world whose walk reached its largest SCC contributes
/// that SCC's whole closure as one precomputed chunk (counted in
/// `engine.hub_hits`). Only the input-set candidates the fit asks for are
/// assembled (span `engine.median_fit`, which spends the deadline's
/// ticks).
pub fn index_median(
    index: &CascadeIndex,
    v: NodeId,
    median: &MedianConfig,
    deadline: &Deadline,
    scratch: &mut NodeScratch,
) -> Outcome<MedianResult> {
    let NodeScratch { query, inc } = scratch;
    let pairs = {
        let _s = soi_obs::span("engine.index_lookup");
        let pairs = {
            let _s = soi_obs::span("engine.reach");
            index.reached_comps(v, query)
        };
        let _load = soi_obs::span("engine.load");
        let members = |&(i, c): &(u32, u32)| (i, index.world(i as usize).chunk(c));
        inc.load(index.num_worlds(), pairs.iter().map(members));
        pairs
    };
    let hub_hits = pairs.iter().filter(|p| p.1 == HUB_CLOSURE).count();
    soi_obs::counter_add!("engine.hub_hits", hub_hits);
    let _s = soi_obs::span("engine.median_fit");
    jaccard_median_loaded(inc, median, deadline, |i, out| {
        let from = pairs.partition_point(|p| (p.0 as usize) < i);
        for &(w, c) in pairs[from..].iter().take_while(|p| p.0 as usize == i) {
            out.extend_from_slice(index.world(w as usize).chunk(c));
        }
    })
}

/// The typical cascade of one node as produced by the batch pipeline.
#[derive(Clone, Debug)]
pub struct NodeTypicalCascade {
    /// The node.
    pub node: NodeId,
    /// Its typical cascade (canonical sorted set).
    pub median: Vec<NodeId>,
    /// Empirical cost on the index's sample pool.
    pub training_cost: f64,
}

/// Algorithm 2: typical cascades for **every** node of the indexed graph,
/// re-using the ℓ sampled worlds stored in `index`. Fans out across
/// `threads` workers (0 = all cores). Results are in node order and
/// deterministic regardless of thread count.
///
/// The expected-cost (stability) estimate on fresh samples is *not*
/// computed here — it costs another ℓ cascades per node; callers that need
/// it (Figure 4/5 experiments) invoke
/// [`crate::stability::expected_cost`] on the nodes of interest.
pub fn all_typical_cascades(
    index: &CascadeIndex,
    median: &MedianConfig,
    threads: usize,
) -> Vec<NodeTypicalCascade> {
    // Nothing can stop it and nothing persists: one block of all n nodes,
    // a single pool fan-out, with no hook that could fail.
    let run = Run::unlimited();
    let nothing = || Ok::<(), Infallible>(());
    let Ok(outcome) = solve_blocks(
        index,
        median,
        threads,
        &run,
        Vec::new(),
        nothing,
        |_| Ok(()),
    );
    outcome.value()
}

/// Binds the config fingerprint to everything that changes per-node
/// output: the checkpoint kind and the median tuning. The graph
/// fingerprint (worlds, seed, structure) is carried separately.
fn engine_config_fingerprint(median: &MedianConfig) -> u64 {
    let mut h = soi_util::hash::Mix64Hasher::new();
    h.update_u64(KIND_TYPICAL_CASCADES as u64);
    h.update_u64(median.local_search_rounds as u64);
    h.update_u64(median.min_frequency.to_bits());
    h.finish()
}

/// Payload: u32 count, then per node `u32 node | f64 cost bits | u32 len |
/// len x u32 median`, little-endian throughout.
fn encode_tc_payload(results: &[NodeTypicalCascade]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(results.len() as u32).to_le_bytes());
    for r in results {
        out.extend_from_slice(&r.node.to_le_bytes());
        out.extend_from_slice(&r.training_cost.to_bits().to_le_bytes());
        out.extend_from_slice(&(r.median.len() as u32).to_le_bytes());
        for &m in &r.median {
            out.extend_from_slice(&m.to_le_bytes());
        }
    }
    out
}

fn decode_tc_payload(
    c: &Checkpoint,
    num_nodes: usize,
) -> Result<Vec<NodeTypicalCascade>, SoiError> {
    let mut r = ByteReader::new(&c.payload);
    let count = r.u32("node count")? as usize;
    if count as u64 != c.done_units || count > num_nodes {
        return Err(SoiError::invalid(format!(
            "checkpoint payload holds {count} nodes but header says {} of {num_nodes}",
            c.done_units
        )));
    }
    let mut results = Vec::with_capacity(count);
    for i in 0..count {
        let node = r.u32("node id")?;
        if node as usize != i {
            return Err(SoiError::invalid(format!(
                "checkpoint node {node} out of order at position {i}"
            )));
        }
        let training_cost = f64::from_bits(r.u64("training cost")?);
        let len = r.u32("median length")? as usize;
        if len > num_nodes {
            return Err(SoiError::invalid(format!(
                "checkpoint median of node {node} has {len} > {num_nodes} members"
            )));
        }
        let mut median = Vec::with_capacity(len);
        for _ in 0..len {
            let m = r.u32("median member")?;
            if m as usize >= num_nodes {
                return Err(SoiError::invalid(format!(
                    "checkpoint median member {m} out of range for node {node}"
                )));
            }
            if let Some(&prev) = median.last() {
                if m <= prev {
                    return Err(SoiError::invalid(format!(
                        "checkpoint median of node {node} is not canonical (sorted, unique)"
                    )));
                }
            }
            median.push(m);
        }
        results.push(NodeTypicalCascade {
            node,
            median,
            training_cost,
        });
    }
    r.expect_end("typical-cascade payload")?;
    Ok(results)
}

/// Fault-tolerant [`all_typical_cascades`]: same node-order deterministic
/// output, plus cooperative deadlines and checkpoint/resume.
///
/// Nodes are solved in blocks of `run.every` under [`Run::blocks`], so on
/// expiry the partial value is an exact node-prefix of the uninterrupted
/// run (per-node work depends only on the index and the median config,
/// never on other nodes). After each block a [`KIND_TYPICAL_CASCADES`]
/// checkpoint is written atomically when a path is configured; resuming
/// validates the checkpoint against the index fingerprint and median
/// config and continues from the stored prefix, yielding byte-identical
/// final output.
pub fn all_typical_cascades_resumable(
    index: &CascadeIndex,
    median: &MedianConfig,
    threads: usize,
    run: &Run,
) -> Result<Outcome<Vec<NodeTypicalCascade>>, SoiError> {
    let n = index.num_nodes();
    let mut slot = run.slot(
        KIND_TYPICAL_CASCADES,
        index.fingerprint(),
        engine_config_fingerprint(median),
        n,
    );
    let mut results = Vec::new();
    if let Some(c) = slot.load()? {
        results = decode_tc_payload(&c, n)?;
        soi_obs::counter_add!("engine.tc_resumes", 1);
        soi_obs::event!(
            soi_obs::Level::Info,
            "resuming typical cascades from checkpoint: {} of {n} nodes done",
            results.len()
        );
    }
    solve_blocks(
        index,
        median,
        threads,
        run,
        results,
        || {
            // A crash site only where a crash leaves something to resume
            // from: runs without a checkpoint file (the daemon) have no
            // failure source at all.
            if run.checkpoint.is_some() {
                soi_util::failpoint!("engine.block");
            }
            Ok(())
        },
        |results| {
            if slot.save(results.len(), || encode_tc_payload(results))? {
                soi_obs::counter_add!("engine.tc_checkpoints", 1);
            }
            Ok(())
        },
    )
}

/// The one body behind both entry points: solves nodes `results.len()..n`
/// in blocks of `run.every`, one pool fan-out per block, calling
/// `before_block` / `after_block` around each. It can fail only through
/// those hooks.
fn solve_blocks<E>(
    index: &CascadeIndex,
    median: &MedianConfig,
    threads: usize,
    run: &Run,
    mut results: Vec<NodeTypicalCascade>,
    mut before_block: impl FnMut() -> Result<(), E>,
    mut after_block: impl FnMut(&[NodeTypicalCascade]) -> Result<(), E>,
) -> Result<Outcome<Vec<NodeTypicalCascade>>, E> {
    let n = index.num_nodes();
    let threads = soi_util::pool::effective_threads(threads, n);
    results.reserve(n.saturating_sub(results.len()));

    let solve = |scratch: &mut NodeScratch, v: NodeId| {
        soi_obs::counter_add!("engine.nodes_solved", 1);
        let fit = index_median(index, v, median, &Deadline::unlimited(), scratch).value();
        soi_obs::hist_observe!("engine.sphere_size", SPHERE_SIZE_BUCKETS, fit.median.len());
        NodeTypicalCascade {
            node: v,
            median: fit.median,
            training_cost: fit.cost,
        }
    };

    let done = run.blocks(n, results.len(), run.every, |lo, hi| {
        before_block()?;
        let mut block: Vec<Option<NodeTypicalCascade>> = (lo..hi).map(|_| None).collect();
        // One scratch per worker, kept across chunks.
        let scratch = || NodeScratch::new(index);
        soi_util::pool::for_each_indexed_with(&mut block, threads, scratch, |s, j, slot| {
            *slot = Some(solve(s, (lo + j) as NodeId));
        });
        // Scoped threads fill every slot exactly once. xtask-allow: panic_policy
        results.extend(block.into_iter().map(|r| r.expect("filled")));
        after_block(&results)
    })?;
    soi_obs::event!(
        soi_obs::Level::Info,
        "typical cascades solved for {done} of {n} nodes on {threads} thread(s)"
    );
    Ok(run.deadline.outcome(results, done as u64, n as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::{gen, GraphBuilder};
    use soi_index::IndexConfig;
    use soi_jaccard::median::jaccard_median_budgeted;

    fn small_config() -> TypicalCascadeConfig {
        TypicalCascadeConfig {
            median_samples: 200,
            cost_samples: 200,
            ..TypicalCascadeConfig::default()
        }
    }

    #[test]
    fn deterministic_graph_typical_cascade_is_reachability() {
        let pg = ProbGraph::fixed(gen::path(5), 1.0).unwrap();
        let tc = typical_cascade(&pg, 1, &small_config());
        assert_eq!(tc.median, vec![1, 2, 3, 4]);
        assert_eq!(tc.training_cost, 0.0);
        assert_eq!(tc.expected_cost, 0.0);
    }

    #[test]
    fn isolated_node_sphere_is_itself() {
        let pg = ProbGraph::fixed(gen::path(3), 1e-12).unwrap();
        let tc = typical_cascade(&pg, 0, &small_config());
        assert_eq!(tc.median, vec![0]);
        assert!(tc.expected_cost < 0.01);
    }

    #[test]
    fn high_probability_star_includes_leaves() {
        // Star with p = 0.95: every leaf is in ~95% of cascades, so the
        // median is (almost surely, at ℓ = 200) the full star.
        let mut b = GraphBuilder::new(6);
        for leaf in 1..6 {
            b.add_weighted_edge(0, leaf, 0.95);
        }
        let pg = b.build_prob().unwrap();
        let tc = typical_cascade(&pg, 0, &small_config());
        assert_eq!(tc.median, vec![0, 1, 2, 3, 4, 5]);
        assert!(tc.expected_cost < 0.2, "cost {}", tc.expected_cost);
    }

    #[test]
    fn low_probability_star_excludes_leaves() {
        let mut b = GraphBuilder::new(6);
        for leaf in 1..6 {
            b.add_weighted_edge(0, leaf, 0.05);
        }
        let pg = b.build_prob().unwrap();
        let tc = typical_cascade(&pg, 0, &small_config());
        assert_eq!(tc.median, vec![0], "rare leaves stay out of the sphere");
    }

    #[test]
    fn seed_set_cascade_unions_sources() {
        let mut b = GraphBuilder::new(6);
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(2, 3, 1.0);
        let pg = b.build_prob().unwrap();
        let tc = typical_cascade_of_set(&pg, &[0, 2], &small_config());
        assert_eq!(tc.median, vec![0, 1, 2, 3]);
        assert_eq!(tc.expected_cost, 0.0);
    }

    #[test]
    fn expected_cost_close_to_training_cost_with_enough_samples() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(3);
        let pg = ProbGraph::fixed(gen::gnm(40, 200, &mut rng), 0.25).unwrap();
        let tc = typical_cascade(&pg, 0, &small_config());
        assert!(
            (tc.training_cost - tc.expected_cost).abs() < 0.1,
            "train {} vs eval {}",
            tc.training_cost,
            tc.expected_cost
        );
    }

    #[test]
    fn batch_matches_index_medians_and_parallel_is_deterministic() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(4);
        let pg = ProbGraph::fixed(gen::gnm(50, 250, &mut rng), 0.3).unwrap();
        let index = CascadeIndex::build(
            &pg,
            IndexConfig {
                num_worlds: 32,
                seed: 6,
                ..IndexConfig::default()
            },
        );
        let serial = all_typical_cascades(&index, &MedianConfig::default(), 1);
        let parallel = all_typical_cascades(&index, &MedianConfig::default(), 4);
        assert_eq!(serial.len(), 50);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.median, b.median);
            assert_eq!(a.training_cost, b.training_cost);
        }
        // Each node's median fitted from the index's components equals a
        // direct median of its materialised cascades — medians, cost bits
        // and progress at every tick budget.
        let mut scratch = NodeScratch::new(&index);
        let config = MedianConfig::default();
        for v in 0..50 {
            let samples = index.cascades_of(v);
            for budget in [Some(0), Some(1), Some(7), Some(50), None] {
                let deadline = || budget.map_or_else(Deadline::unlimited, Deadline::ticks);
                let bits = |o: Outcome<MedianResult>| o.map(|r| (r.median, r.cost.to_bits()));
                let direct = jaccard_median_budgeted(&samples, &config, &deadline());
                let loaded = index_median(&index, v, &config, &deadline(), &mut scratch);
                assert_eq!(bits(loaded), bits(direct), "node {v}, budget {budget:?}");
            }
            let direct = jaccard_median_with(&samples, &config);
            assert_eq!(serial[v as usize].median, direct.median);
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("soi-engine-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn test_index(num_worlds: usize) -> CascadeIndex {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(9);
        let pg = ProbGraph::fixed(gen::gnm(40, 180, &mut rng), 0.3).unwrap();
        CascadeIndex::build(
            &pg,
            IndexConfig {
                num_worlds,
                seed: 11,
                ..IndexConfig::default()
            },
        )
    }

    fn assert_same(a: &[NodeTypicalCascade], b: &[NodeTypicalCascade]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.median, y.median);
            assert_eq!(x.training_cost.to_bits(), y.training_cost.to_bits());
        }
    }

    #[test]
    fn resumable_matches_plain_without_interruption() {
        use soi_util::runtime::Deadline;
        let index = test_index(16);
        let plain = all_typical_cascades(&index, &MedianConfig::default(), 2);
        let out = all_typical_cascades_resumable(
            &index,
            &MedianConfig::default(),
            2,
            &Run {
                deadline: Deadline::unlimited(),
                checkpoint: None,
                every: 7,
                resume: false,
            },
        )
        .unwrap();
        assert!(out.is_complete());
        assert_same(&out.value(), &plain);
    }

    #[test]
    fn deadline_yields_a_node_prefix() {
        use soi_util::runtime::Deadline;
        let index = test_index(16);
        let plain = all_typical_cascades(&index, &MedianConfig::default(), 1);
        let out = all_typical_cascades_resumable(
            &index,
            &MedianConfig::default(),
            1,
            &Run::new(Deadline::ticks(10), None, 5, false),
        )
        .unwrap();
        assert!(!out.is_complete());
        let progress = out.progress().unwrap();
        assert_eq!(progress.done, 10);
        assert_eq!(progress.total, 40);
        assert_same(&out.value(), &plain[..10]);
    }

    #[cfg(debug_assertions)] // arms a failpoint; the sites compile out in release
    #[test]
    fn interrupted_run_resumes_to_identical_output() {
        use soi_util::runtime::Deadline;
        let _g = soi_util::failpoint::test_guard();
        let index = test_index(16);
        let plain = all_typical_cascades(&index, &MedianConfig::default(), 2);
        let dir = tmp_dir("resume");
        let path = dir.join("tc.ckpt");
        let _ = std::fs::remove_file(&path);
        let opts = |resume| Run::new(Deadline::unlimited(), Some(path.clone()), 6, resume);

        // Crash the third block: blocks 1 and 2 (12 nodes) are durable.
        soi_util::failpoint::install("engine.block=error@3").unwrap();
        let err = all_typical_cascades_resumable(&index, &MedianConfig::default(), 2, &opts(false))
            .unwrap_err();
        assert!(matches!(err, SoiError::Fault { .. }), "{err}");
        soi_util::failpoint::clear();

        let c = soi_util::ckpt::read_checkpoint(&path, KIND_TYPICAL_CASCADES).unwrap();
        assert_eq!(c.done_units, 12, "two 6-node blocks checkpointed");

        let out = all_typical_cascades_resumable(&index, &MedianConfig::default(), 2, &opts(true))
            .unwrap();
        assert!(out.is_complete());
        assert_same(&out.value(), &plain);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_mismatches_are_rejected() {
        use soi_util::runtime::Deadline;
        let index = test_index(16);
        let dir = tmp_dir("mismatch");
        let path = dir.join("tc.ckpt");
        let opts = |resume| Run::new(Deadline::unlimited(), Some(path.clone()), 50, resume);
        all_typical_cascades_resumable(&index, &MedianConfig::default(), 1, &opts(false)).unwrap();

        // Different median config: config fingerprint differs.
        let other = MedianConfig {
            local_search_rounds: 5,
            ..MedianConfig::default()
        };
        let err = all_typical_cascades_resumable(&index, &other, 1, &opts(true)).unwrap_err();
        assert!(
            matches!(
                err,
                SoiError::CkptMismatch {
                    field: "config_fingerprint",
                    ..
                }
            ),
            "{err}"
        );

        // Different index: graph fingerprint differs.
        let other_index = test_index(8);
        let err =
            all_typical_cascades_resumable(&other_index, &MedianConfig::default(), 1, &opts(true))
                .unwrap_err();
        assert!(
            matches!(
                err,
                SoiError::CkptMismatch {
                    field: "graph_fingerprint",
                    ..
                }
            ),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every node's median and training-cost bits, for one supercritical
    /// and one weighted-cascade fixture, are pinned to hashes recorded at
    /// commit a89153b (HashMap evaluator, merge-scored input-set
    /// candidates): a faster evaluator must reproduce them bit for bit.
    #[test]
    fn spheres_are_pinned() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(23);
        let supercritical = ProbGraph::fixed(gen::gnm(300, 1500, &mut rng), 0.3).unwrap();
        let wc = ProbGraph::weighted_cascade(gen::barabasi_albert(400, 4, true, &mut rng));
        let got = [&supercritical, &wc].map(|pg| {
            let config = IndexConfig {
                num_worlds: 48,
                seed: 5,
                threads: 2,
                ..IndexConfig::default()
            };
            let index = CascadeIndex::build(pg, config);
            let results = all_typical_cascades(&index, &MedianConfig::default(), 2);
            soi_util::hash::hash_bytes(&encode_tc_payload(&results))
        });
        assert_eq!(
            got,
            [0xc145_1534_958f_3ced, 0x2528_de72_7461_bb1e],
            "got {got:#x?}"
        );
    }

    /// [`spheres_are_pinned`] at the pipeline's ℓ = 256, where a fit sums
    /// 256 terms per cost and near-ties sit closest to the median's
    /// comparison bounds; hashes recorded at commit 7a9a48d.
    #[test]
    fn spheres_are_pinned_at_256_worlds() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(29);
        let supercritical = ProbGraph::fixed(gen::gnm(200, 1000, &mut rng), 0.3).unwrap();
        let wc = ProbGraph::weighted_cascade(gen::barabasi_albert(300, 4, true, &mut rng));
        let got = [&supercritical, &wc].map(|pg| {
            let config = IndexConfig {
                num_worlds: 256,
                seed: 31,
                threads: 2,
                ..IndexConfig::default()
            };
            let index = CascadeIndex::build(pg, config);
            let results = all_typical_cascades(&index, &MedianConfig::default(), 2);
            soi_util::hash::hash_bytes(&encode_tc_payload(&results))
        });
        assert_eq!(
            got,
            [0x5d70_489b_c815_4df9, 0xb270_3772_62c4_ae8b],
            "got {got:#x?}"
        );
    }

    /// The direct-sampling path: median, training-cost and expected-cost
    /// bits of 20 single sources and 3 seed sets, on one supercritical and
    /// one weighted-cascade fixture, pinned to hashes recorded at commit
    /// 4ad167f.
    #[test]
    fn direct_spheres_are_pinned() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(37);
        let supercritical = ProbGraph::fixed(gen::gnm(200, 1000, &mut rng), 0.3).unwrap();
        let wc = ProbGraph::weighted_cascade(gen::barabasi_albert(300, 4, true, &mut rng));
        let config = TypicalCascadeConfig {
            median_samples: 64,
            cost_samples: 32,
            seed: 41,
            ..TypicalCascadeConfig::default()
        };
        let sets: [&[NodeId]; 3] = [&[0, 1], &[5, 50, 150], &[7, 7, 199]];
        let got = [&supercritical, &wc].map(|pg| {
            let mut h = soi_util::hash::Mix64Hasher::new();
            let singles = (0..200).step_by(10).map(|v| vec![v]);
            for seeds in singles.chain(sets.map(<[NodeId]>::to_vec)) {
                let tc = typical_cascade_of_set(pg, &seeds, &config);
                h.update_u64(tc.median.len() as u64);
                tc.median.iter().for_each(|&m| h.update_u64(m.into()));
                h.update_u64(tc.training_cost.to_bits());
                h.update_u64(tc.expected_cost.to_bits());
            }
            h.finish()
        });
        assert_eq!(
            got,
            [0x9f4f_3420_328d_0bf6, 0xa359_87bd_b624_5a1a],
            "got {got:#x?}"
        );
    }

    #[test]
    fn runs_are_reproducible_across_calls() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(5);
        let pg = ProbGraph::fixed(gen::gnm(30, 120, &mut rng), 0.3).unwrap();
        let a = typical_cascade(&pg, 3, &small_config());
        let b = typical_cascade(&pg, 3, &small_config());
        assert_eq!(a, b);
    }
}
