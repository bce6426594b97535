//! The typical-cascade solver (§3–§4, Algorithm 2).
//!
//! The batch pipeline solves every node from the index, each one as
//! [`index_median`] solves it: the node's walk of all ℓ worlds at once
//! ([`CascadeIndex::walk`]), then its load and median fit. [`sphere_bound`]
//! stops after the walk, with a bound on the sphere's size; the sphere
//! store ([`crate::store`]) runs both.

use crate::store::{block_site, Workers};
use soi_graph::{NodeId, ProbGraph};
use soi_index::{CascadeIndex, IndexQuery};
use soi_jaccard::cost::{Closures, IncrementalCost};
use soi_jaccard::median::{
    jaccard_median_loaded, jaccard_median_with, median_size_bound, MedianConfig, MedianResult,
};
use soi_sampling::CascadeSampler;
use soi_util::bitset::ones;
use soi_util::ckpt::{ByteReader, Checkpoint, KIND_TYPICAL_CASCADES};
use soi_util::rng::derive_seed;
use soi_util::runtime::{Deadline, Outcome, Run};
use soi_util::SoiError;
use std::convert::Infallible;

/// Configuration for typical-cascade computation.
#[derive(Clone, Copy, Debug)]
pub struct TypicalCascadeConfig {
    /// Cascade samples ℓ used to compute the median (the paper uses 1000).
    pub median_samples: usize,
    /// Fresh, independent samples used to estimate the median's expected
    /// cost (stability). 0 skips the estimate (cost is reported from the
    /// training pool instead).
    pub cost_samples: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for TypicalCascadeConfig {
    fn default() -> Self {
        TypicalCascadeConfig {
            median_samples: 256,
            cost_samples: 256,
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
    let _span = soi_obs::span("engine.typical_cascade");
    let train_seed = derive_seed(config.seed, 0x7261696e); // "rain"
    let samples = {
        let _s = soi_obs::span("engine.sample");
        CascadeSampler::sample_many(pg, seeds, config.median_samples, train_seed)
    };
    let fit = {
        let _s = soi_obs::span("engine.median_fit");
        jaccard_median_with(&samples, &MedianConfig::default())
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

/// Per-worker scratch for [`index_median`] and [`sphere_bound`]: a worker
/// that solves node after node keeps one and allocates nothing per node.
pub struct NodeScratch {
    query: IndexQuery,
    inc: IncrementalCost,
    /// The bound's cascade sizes, one per world, and its element
    /// frequencies, one per element of the cascades' union.
    sizes: Vec<u32>,
    frequencies: Vec<u32>,
}

impl NodeScratch {
    /// Scratch sized for `index`.
    pub fn new(index: &CascadeIndex) -> Self {
        NodeScratch {
            query: index.query(),
            inc: IncrementalCost::default(),
            sizes: Vec::new(),
            frequencies: Vec::new(),
        }
    }
}

/// `B(v)`, the bound [`median_size_bound`] puts on the size of `v`'s
/// sphere, from `v`'s cascade sizes and element frequencies alone (span
/// `engine.bound`): the walk of all ℓ worlds (`engine.reach`), then each
/// world's count of walked nodes plus its closure when the walk hit it,
/// and each element's count of worlds, which is the load's count pass
/// ([`IncrementalCost::count_sets`]). There is no load and no fit, yet
/// the walk is under half of the cost where cascades are large: on a
/// supercritical G(1000, 5000) at p = 0.3 and ℓ = 256, whose walked world
/// sets hold hundreds of nodes per world outside the hub closures, the
/// bound measured 57–81 µs per node on one thread of a 2-vCPU host, of
/// which the walk took 26–35, [`median_size_bound`] 16–22, the counts
/// 10–16 and the per-world sizes 5–7.
pub fn sphere_bound(index: &CascadeIndex, v: NodeId, scratch: &mut NodeScratch) -> usize {
    let _span = soi_obs::span("engine.bound");
    let NodeScratch {
        query,
        inc,
        sizes,
        frequencies,
    } = scratch;
    let walked = {
        let _s = soi_obs::span("engine.reach");
        index.walk(&[v], index.all_worlds(), query)
    };
    sizes.clear();
    sizes.resize(index.num_worlds(), 0);
    for (_, set) in walked.sets() {
        for (c, &word) in set.iter().enumerate() {
            let sizes = &mut sizes[c * 64..];
            if word == u64::MAX {
                // A whole word of worlds, as the source's set has.
                sizes[..64].iter_mut().for_each(|s| *s += 1);
                continue;
            }
            let mut word = word;
            while word != 0 {
                sizes[word.trailing_zeros() as usize] += 1;
                word &= word - 1;
            }
        }
    }
    // At most n nodes, whose count fits a `u32`.
    for i in ones(walked.hits()) {
        sizes[i] += index.closure(i).len() as u32;
    }
    inc.count_sets(walked.sets(), &closures(index, walked.hits()), frequencies);
    median_size_bound(sizes, frequencies)
}

/// The index's hub closures, with the hit words `hits` of one walk.
fn closures<'a>(
    index: &'a CascadeIndex,
    hits: &'a [u64],
) -> Closures<'a, impl Fn(usize) -> &'a [NodeId]> {
    let (elems, rows) = index.closure_rows();
    Closures {
        hits,
        elems,
        rows,
        members: |i| index.closure(i),
    }
}

/// Algorithm 2's per-node step: the Jaccard median of `v`'s ℓ indexed
/// cascades, bit-identical to
/// `jaccard_median_budgeted(&index.cascades_of(v), median, deadline)`
/// without materialising those cascades. The node's walk of all ℓ worlds
/// at once (span `engine.index_lookup`: the walk `engine.reach`, then
/// `engine.load`) gives each node it reaches with its world set, and the
/// worlds whose largest SCC it reached (counted in `engine.hub_hits`),
/// whose cascades hold that SCC's whole closure. The evaluator loads each
/// element's samples from its world set, or-ed for a closure node with
/// its closure row under the hit worlds' mask, and folds the worlds with
/// equal cascades into one weighted class ([`IncrementalCost::load_sets`]).
/// The fit (span `engine.median_fit`, which spends the deadline's ticks)
/// reads the cascades from the evaluator's class rows alone, and
/// materialises one only when it wins as an input-set candidate.
pub fn index_median(
    index: &CascadeIndex,
    v: NodeId,
    median: &MedianConfig,
    deadline: &Deadline,
    scratch: &mut NodeScratch,
) -> Outcome<MedianResult> {
    let NodeScratch { query, inc, .. } = scratch;
    let hits = {
        let _s = soi_obs::span("engine.index_lookup");
        let walked = {
            let _s = soi_obs::span("engine.reach");
            index.walk(&[v], index.all_worlds(), query)
        };
        let _load = soi_obs::span("engine.load");
        let hits = walked.hits();
        inc.load_sets(index.num_worlds(), walked.sets(), &closures(index, hits));
        hits
    };
    let hub_hits: u32 = hits.iter().map(|h| h.count_ones()).sum();
    soi_obs::counter_add!("engine.hub_hits", hub_hits as usize);
    let _s = soi_obs::span("engine.median_fit");
    jaccard_median_loaded(inc, median, deadline)
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
    let (run, mut results) = (Run::unlimited(), Vec::new());
    let nothing = || Ok::<(), Infallible>(());
    let fit = |scratch: &mut NodeScratch, v| fit_node(index, median, scratch, v);
    let workers = Workers::new(index, threads);
    let Ok(_) = workers.blocks(&run, &mut results, fit, nothing, |_| nothing());
    results
}

/// One node of the fill: its [`index_median`], without a deadline.
fn fit_node(
    index: &CascadeIndex,
    median: &MedianConfig,
    scratch: &mut NodeScratch,
    v: NodeId,
) -> NodeTypicalCascade {
    let fit = index_median(index, v, median, &Deadline::unlimited(), scratch).value();
    NodeTypicalCascade {
        node: v,
        median: fit.median,
        training_cost: fit.cost,
    }
}

/// Binds the config fingerprint to everything that changes per-node
/// output: the checkpoint kind and the median tuning. The graph
/// fingerprint (worlds, seed, structure) is carried separately.
fn engine_config_fingerprint(median: &MedianConfig) -> u64 {
    let mut h = soi_util::hash::Mix64Hasher::new();
    h.update_u64(KIND_TYPICAL_CASCADES as u64);
    h.update_u64(median.local_search_rounds as u64);
    // The word that once held the median fit's frequency cutoff, which was
    // always 0.0: hashing it keeps older checkpoints valid.
    h.update_u64(0f64.to_bits());
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

/// Fault-tolerant [`all_typical_cascades`], the sphere store's fill: same
/// node-order deterministic output, plus cooperative deadlines and
/// checkpoint/resume.
///
/// Nodes are solved in blocks of `run.every` ([`crate::store`]'s block
/// loop), so on expiry the partial value is an exact node-prefix of the
/// uninterrupted run (per-node work depends only on the index and the
/// median config, never on other nodes). After each block a
/// [`KIND_TYPICAL_CASCADES`] checkpoint is written atomically when a path
/// is configured; resuming validates the checkpoint against the index
/// fingerprint and median config and continues from the stored prefix,
/// yielding byte-identical final output.
pub fn all_typical_cascades_resumable(
    index: &CascadeIndex,
    median: &MedianConfig,
    threads: usize,
    run: &Run,
) -> Result<Outcome<Vec<NodeTypicalCascade>>, SoiError> {
    let n = index.num_nodes();
    let mut slot = run.slot(
        KIND_TYPICAL_CASCADES,
        || index.fingerprint(),
        engine_config_fingerprint(median),
        n,
    );
    let mut results = Vec::new();
    if let Some(c) = slot.load()? {
        results = decode_tc_payload(&c, n)?;
        soi_obs::event!(
            soi_obs::Level::Info,
            "resuming typical cascades from checkpoint: {} of {n} nodes done",
            results.len()
        );
    }
    let fit = |scratch: &mut NodeScratch, v| fit_node(index, median, scratch, v);
    let done = Workers::new(index, threads).blocks(
        run,
        &mut results,
        fit,
        || block_site(run),
        |results| slot.save(results.len(), || encode_tc_payload(results)),
    )?;
    Ok(run.deadline.outcome(results, done as u64, n as u64))
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// The classes `index_median` fits on are the groups of equal
    /// `cascades_of` by brute force, numbered by their first world, at
    /// every node of a WC graph (whose worlds mostly leave a node alone)
    /// and of a G(60, 300) at p = 0.15 and 0.3 (whose worlds have a hub
    /// closure or none, and a node hits it or not).
    #[test]
    fn classes_are_the_groups_of_equal_cascades() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(53);
        let wc = ProbGraph::weighted_cascade(gen::barabasi_albert(80, 3, true, &mut rng));
        let g = gen::gnm(60, 300, &mut rng);
        let graphs = [
            wc,
            ProbGraph::fixed(g.clone(), 0.15).unwrap(),
            ProbGraph::fixed(g, 0.3).unwrap(),
        ];
        // Worlds seen: [hit, unhit with a closure, without a closure,
        // cascade {v} alone].
        let mut seen = [0; 4];
        for ell in [1, 63, 64, 65, 130, 256] {
            for pg in &graphs {
                let config = IndexConfig {
                    num_worlds: ell,
                    seed: 59,
                    ..IndexConfig::default()
                };
                let index = CascadeIndex::build(pg, config);
                let (mut scratch, mut query) = (NodeScratch::new(&index), index.query());
                for v in 0..index.num_nodes() as NodeId {
                    let cascades = index.cascades_of(v);
                    let mut firsts: Vec<&Vec<NodeId>> = Vec::new();
                    let want = cascades.iter().map(|c| {
                        firsts.iter().position(|&f| f == c).unwrap_or_else(|| {
                            firsts.push(c);
                            firsts.len() - 1
                        })
                    });
                    let want: Vec<usize> = want.collect();
                    index_median(
                        &index,
                        v,
                        &MedianConfig::default(),
                        &Deadline::unlimited(),
                        &mut scratch,
                    );
                    let got: Vec<usize> = (0..ell).map(|i| scratch.inc.class_of(i)).collect();
                    assert_eq!(got, want, "ℓ = {ell}, node {v}");
                    let hits = index
                        .walk(&[v], index.all_worlds(), &mut query)
                        .hits()
                        .to_vec();
                    for (i, cascade) in cascades.iter().enumerate() {
                        let hit = hits[i / 64] >> (i % 64) & 1 == 1;
                        let closure = !index.closure(i).is_empty();
                        seen[0] += usize::from(hit);
                        seen[1] += usize::from(!hit && closure);
                        seen[2] += usize::from(!closure);
                        seen[3] += usize::from(cascade == &[v]);
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s >= 1000), "{seen:?}");
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

    /// [`spheres_are_pinned`] at ℓ = 100, whose last world word holds 36
    /// used bits, on a weighted-cascade BA(2000, m = 5) and a G(300, 1500)
    /// at p = 0.15; hashes recorded at commit 2d7c9c3, before the fit ran
    /// one lane per class of equal cascades.
    #[test]
    fn spheres_are_pinned_at_100_worlds() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(43);
        let wc = ProbGraph::weighted_cascade(gen::barabasi_albert(2000, 5, true, &mut rng));
        let sparse = ProbGraph::fixed(gen::gnm(300, 1500, &mut rng), 0.15).unwrap();
        let got = [&wc, &sparse].map(|pg| {
            let config = IndexConfig {
                num_worlds: 100,
                seed: 47,
                threads: 2,
                ..IndexConfig::default()
            };
            let index = CascadeIndex::build(pg, config);
            let results = all_typical_cascades(&index, &MedianConfig::default(), 2);
            soi_util::hash::hash_bytes(&encode_tc_payload(&results))
        });
        assert_eq!(
            got,
            [0x3f26_49e9_127c_5029, 0x7d24_4360_9c43_6752],
            "got {got:#x?}"
        );
    }

    /// [`spheres_are_pinned`] on the supercritical G(2000, 10⁴) at p = 0.3
    /// and ℓ = 64, whose worlds have giant hub closures; hash recorded at
    /// commit ef59657, before the sphere store. Every sphere is also
    /// within its bound, as `crate::store`'s test checks on the smaller
    /// fixtures (this fill is the slow one).
    #[test]
    fn spheres_are_pinned_supercritical() {
        let (pg, ell, seed) = supercritical_fixture();
        let config = IndexConfig {
            num_worlds: ell,
            seed,
            threads: 2,
            ..IndexConfig::default()
        };
        let index = CascadeIndex::build(&pg, config);
        let results = all_typical_cascades(&index, &MedianConfig::default(), 2);
        let got = soi_util::hash::hash_bytes(&encode_tc_payload(&results));
        assert_eq!(got, 0xfc37_7436_037d_3894, "got {got:#x}");
        let mut scratch = NodeScratch::new(&index);
        for tc in &results {
            let bound = sphere_bound(&index, tc.node, &mut scratch);
            assert!(tc.median.len() <= bound, "node {}: {bound}", tc.node);
        }
    }

    /// At every node of the `spheres_are_pinned*` fixtures, the
    /// supercritical one included, `B(v)` is [`median_size_bound`] over
    /// the sizes and element counts of `index.cascades_of(v)`, both when
    /// the hit closures are counted from their members and when from their
    /// rows; each fixture's `B(v)` vector is pinned to a hash recorded at
    /// commit 62ee641.
    #[test]
    fn bounds_match_the_cascades() {
        let mut fixtures = pinned_fixtures();
        fixtures.push(supercritical_fixture());
        // Nodes that hit a closure, [counted from members, from rows].
        let mut by_rows = [0; 2];
        let got: Vec<u64> = fixtures
            .iter()
            .map(|(pg, ell, seed)| {
                let config = IndexConfig {
                    num_worlds: *ell,
                    seed: *seed,
                    threads: 2,
                    ..IndexConfig::default()
                };
                let index = CascadeIndex::build(pg, config);
                let (mut scratch, mut query) = (NodeScratch::new(&index), index.query());
                let rows = index.closure_rows().1.len();
                let mut counts = vec![0u32; index.num_nodes()];
                let mut h = soi_util::hash::Mix64Hasher::new();
                for v in 0..index.num_nodes() as NodeId {
                    let bound = sphere_bound(&index, v, &mut scratch);
                    let cascades = index.cascades_of(v);
                    let mut sizes: Vec<u32> = cascades.iter().map(|c| c.len() as u32).collect();
                    for &u in cascades.iter().flatten() {
                        counts[u as usize] += 1;
                    }
                    let mut frequencies: Vec<u32> =
                        counts.iter().copied().filter(|&c| c > 0).collect();
                    counts.fill(0);
                    let want = median_size_bound(&mut sizes, &mut frequencies);
                    assert_eq!(bound, want, "ℓ = {ell}, node {v}");
                    let hits = index.walk(&[v], index.all_worlds(), &mut query).hits();
                    let hit = |i: &usize| hits[i / 64] >> (i % 64) & 1 == 1;
                    let entries: usize =
                        (0..*ell).filter(hit).map(|i| index.closure(i).len()).sum();
                    if entries > 0 {
                        by_rows[usize::from(entries > rows)] += 1;
                    }
                    h.update_u64(bound as u64);
                }
                h.finish()
            })
            .collect();
        assert!(by_rows[0] > 0 && by_rows[1] > 0, "{by_rows:?}");
        let want = [
            0x108a_3a1f_5eed_6f87,
            0xa41d_8925_e262_796e,
            0xb17d_4aa0_dcce_da8e,
            0xdbef_610b_a831_eac7,
            0x66c6_d5ac_1b61_f369,
            0xdef1_d0f6_b8ba_8b7a,
            0x11c0_65b6_66c1_34cb,
        ];
        assert_eq!(got, want, "got {got:#x?}");
    }

    /// G(2000, 10⁴) at p = 0.3, with its ℓ and index seed.
    fn supercritical_fixture() -> (ProbGraph, usize, u64) {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(61);
        let pg = ProbGraph::fixed(gen::gnm(2000, 10_000, &mut rng), 0.3).unwrap();
        (pg, 64, 67)
    }

    /// The graphs of the `spheres_are_pinned*` tests but the supercritical
    /// one, each with its ℓ and index seed.
    pub(crate) fn pinned_fixtures() -> Vec<(ProbGraph, usize, u64)> {
        let mut fixtures = Vec::new();
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(23);
        let supercritical = ProbGraph::fixed(gen::gnm(300, 1500, &mut rng), 0.3).unwrap();
        let wc = ProbGraph::weighted_cascade(gen::barabasi_albert(400, 4, true, &mut rng));
        fixtures.extend([(supercritical, 48, 5), (wc, 48, 5)]);
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(29);
        let supercritical = ProbGraph::fixed(gen::gnm(200, 1000, &mut rng), 0.3).unwrap();
        let wc = ProbGraph::weighted_cascade(gen::barabasi_albert(300, 4, true, &mut rng));
        fixtures.extend([(supercritical, 256, 31), (wc, 256, 31)]);
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(43);
        let wc = ProbGraph::weighted_cascade(gen::barabasi_albert(2000, 5, true, &mut rng));
        let sparse = ProbGraph::fixed(gen::gnm(300, 1500, &mut rng), 0.15).unwrap();
        fixtures.extend([(wc, 100, 47), (sparse, 100, 47)]);
        fixtures
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

    /// The checkpoint config fingerprint of the default median fit, pinned
    /// to the value recorded at commit c611df0: a checkpoint written before
    /// the median fit's settings became constants must still resume.
    #[test]
    fn config_fingerprint_is_pinned() {
        let fp = engine_config_fingerprint(&MedianConfig::default());
        assert_eq!(fp, 0x1aad_ca0b_ab6c_7a7a, "got {fp:#x}");
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
