//! The server-side query engine: loaded graphs, warm index cache, and
//! request execution under a per-request deadline.
//!
//! Graphs are loaded once at startup and shared immutably. Cascade
//! indexes are built on first use (or eagerly via
//! [`ServerEngine::warm`]) and kept in an LRU cache keyed by
//! [`CascadeIndex::cache_key_for`], so repeated queries against the same
//! graph reuse the ℓ sampled worlds instead of resampling — the whole
//! point of a long-lived daemon over one-shot CLI runs.
//!
//! Deadlines are deterministic tick budgets ([`Deadline`]): a query that
//! runs out of budget returns a well-formed `partial` response covering
//! the exact prefix of work completed, never a stalled worker.

use crate::json::fmt_num;
use crate::protocol::Request;
use crate::trace::PhaseTrace;
use soi_graph::ProbGraph;
use soi_index::{CascadeIndex, IndexConfig};
use soi_influence::{BackendKind, SpreadBackend};
use soi_jaccard::median::MedianConfig;
use soi_sketch::{ReachSketches, SketchConfig};
use soi_util::hash::Mix64Hasher;
use soi_util::runtime::{Deadline, Outcome, Run, StopReason};
use soi_util::{ProtoErrorKind, SoiError};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Engine-level options fixed at startup.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worlds ℓ per cascade index.
    pub num_worlds: usize,
    /// Master sampling seed for index builds.
    pub seed: u64,
    /// Apply transitive reduction to indexed worlds.
    pub transitive_reduction: bool,
    /// Threads per index build / batch solve (0 = pool default).
    pub threads: usize,
    /// Jaccard-median tuning shared by all queries.
    pub median: MedianConfig,
    /// LRU capacity of the index cache.
    pub cache_cap: usize,
    /// Default per-request tick budget (0 = unlimited) applied when a
    /// request carries no `deadline_ticks`.
    pub default_deadline_ticks: u64,
    /// Default sketch size `k` for `"backend":"sketch"` requests that
    /// carry no `sketch_k` override.
    pub sketch_k: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_worlds: 256,
            seed: 42,
            transitive_reduction: true,
            threads: 0,
            median: MedianConfig::default(),
            cache_cap: 4,
            default_deadline_ticks: 0,
            sketch_k: 64,
        }
    }
}

/// The outcome of executing one compute request: a pre-encoded JSON
/// payload fragment plus partial-progress accounting when a deadline
/// cut the work short.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecOutput {
    /// JSON fragment (`"key":value,...`) for the response body.
    pub payload: String,
    /// `Some((done, total, reason))` when the result covers a prefix.
    pub partial: Option<(u64, u64, StopReason)>,
}

impl ExecOutput {
    fn complete(payload: String) -> Self {
        ExecOutput {
            payload,
            partial: None,
        }
    }

    fn from_outcome<T>(outcome: &Outcome<T>, payload: String) -> Self {
        match outcome {
            Outcome::Completed(_) => ExecOutput::complete(payload),
            Outcome::Partial {
                progress, reason, ..
            } => ExecOutput {
                payload,
                partial: Some((progress.done, progress.total, *reason)),
            },
        }
    }
}

/// Loaded graphs plus the warm spread-oracle cache.
pub struct ServerEngine {
    /// Each graph beside its [`ProbGraph::fingerprint`], hashed once at
    /// load: a cache lookup forms its key from the stored value.
    graphs: BTreeMap<String, (Arc<ProbGraph>, u64)>,
    /// One LRU for both backends. Keys mix the backend tag into the
    /// backend-specific cache key ([`mixed_key`]), so the key is
    /// (graph fingerprint, backend, build params) and a sketch entry can
    /// never serve a cascade request or vice versa.
    cache: Mutex<crate::cache::LruCache<SpreadBackend>>,
    /// Last successfully built oracle per (graph *name*, backend tag,
    /// sketch k — 0 for cascade), regardless of fingerprint: the stale
    /// fallback served (explicitly flagged) when a fresh build fails and
    /// the request opted into degradation.
    last_good: Mutex<BTreeMap<(String, u8, u64), SpreadBackend>>,
    config: EngineConfig,
}

/// Folds the backend tag into a backend-specific cache key. Both inner
/// keys already mix the graph fingerprint and build parameters; the tag
/// keeps the two key spaces disjoint in the shared LRU.
fn mixed_key(kind: BackendKind, inner: u64) -> u64 {
    let mut h = Mix64Hasher::new();
    h.update_u64(u64::from(kind.tag()));
    h.update_u64(inner);
    h.finish()
}

/// The `k` component of a last-good key: sketch entries are keyed by
/// their sketch size (a different `k` is a different oracle), cascade
/// entries have no such parameter and use 0.
fn last_good_k(kind: BackendKind, k: usize) -> u64 {
    match kind {
        BackendKind::Cascade => 0,
        BackendKind::Sketch => k as u64,
    }
}

/// The cache key folds in the backend tag, so a lookup can only ever
/// yield the backend it asked for; the callers still answer this typed
/// error rather than trusting that from a distance.
fn wrong_backend() -> SoiError {
    SoiError::invalid("oracle lookup returned the other backend")
}

impl ServerEngine {
    /// An engine with no graphs loaded yet.
    pub fn new(config: EngineConfig) -> Self {
        ServerEngine {
            graphs: BTreeMap::new(),
            cache: Mutex::new(crate::cache::LruCache::new(config.cache_cap)),
            last_good: Mutex::new(BTreeMap::new()),
            config,
        }
    }

    /// Registers a graph under `name` (replacing any previous binding —
    /// the cache key includes the graph fingerprint, recomputed here, so
    /// stale indexes can never serve the new graph).
    pub fn add_graph(&mut self, name: impl Into<String>, pg: ProbGraph) {
        let fingerprint = pg.fingerprint();
        self.graphs.insert(name.into(), (Arc::new(pg), fingerprint));
    }

    /// Names of the loaded graphs, sorted.
    pub fn graph_names(&self) -> Vec<&str> {
        self.graphs.keys().map(String::as_str).collect()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Eagerly builds the index of every loaded graph so the first
    /// query doesn't pay the build. Returns the number of indexes built.
    pub fn warm(&self) -> usize {
        let names: Vec<String> = self.graphs.keys().cloned().collect();
        let mut built = 0;
        for name in names {
            if self.index_for(&name).is_ok() {
                built += 1;
            }
        }
        built
    }

    fn index_config(&self) -> IndexConfig {
        IndexConfig {
            num_worlds: self.config.num_worlds,
            seed: self.config.seed,
            transitive_reduction: self.config.transitive_reduction,
            threads: self.config.threads,
        }
    }

    /// Sketch build parameters: the same ℓ worlds and master seed as the
    /// cascade index, with the request's (or server's default) `k`.
    fn sketch_config(&self, k: usize) -> SketchConfig {
        SketchConfig {
            num_worlds: self.config.num_worlds,
            k,
            seed: self.config.seed,
            threads: self.config.threads,
        }
    }

    /// The graph bound to `name` and its load-time fingerprint.
    fn graph(&self, name: &str) -> Result<&(Arc<ProbGraph>, u64), SoiError> {
        self.graphs.get(name).ok_or_else(|| {
            SoiError::protocol(
                ProtoErrorKind::UnknownGraph,
                format!("graph {name:?} is not loaded"),
            )
        })
    }

    /// The warm index for `name`, building (and caching) it on a miss.
    pub fn index_for(&self, name: &str) -> Result<Arc<CascadeIndex>, SoiError> {
        let mut trace = PhaseTrace::new();
        let (oracle, _) = self.oracle(name, BackendKind::Cascade, None, false, &mut trace)?;
        oracle.as_cascade().cloned().ok_or_else(wrong_backend)
    }

    /// The one oracle lookup: the warm spread oracle for (`name`,
    /// `kind`, `sketch_k`), built and cached on a miss, and whether it is
    /// degraded — when a fresh build fails and `degrade` is set, the last
    /// successfully built same-backend oracle for this graph name is
    /// served instead, flagged; stale results are never silently
    /// substituted. A successful lookup records the request's `cache`
    /// phase: a build costs `num_worlds` deterministic ticks, a hit (or
    /// a stale fallback) costs zero.
    fn oracle(
        &self,
        name: &str,
        kind: BackendKind,
        sketch_k: Option<usize>,
        degrade: bool,
        trace: &mut PhaseTrace,
    ) -> Result<(SpreadBackend, bool), SoiError> {
        let started = std::time::Instant::now();
        let (pg, fingerprint) = self.graph(name)?;
        let k = sketch_k.unwrap_or(self.config.sketch_k);
        let inner = match kind {
            BackendKind::Cascade => CascadeIndex::cache_key_for(*fingerprint, &self.index_config()),
            BackendKind::Sketch => {
                ReachSketches::cache_key_for(*fingerprint, &self.sketch_config(k))
            }
        };
        let key = mixed_key(kind, inner);
        let hit = {
            // Waiting on the cache mutex is the engine's contention
            // point; attribute it to this worker's lock-wait slot.
            let mut cache =
                soi_obs::perthread::timed_region(soi_obs::perthread::record_lock_wait, || {
                    self.cache.lock().unwrap_or_else(PoisonError::into_inner)
                });
            cache.get(key).map(|entry| (*entry).clone())
        };
        let (backend, degraded, ticks) = if let Some(backend) = hit {
            soi_obs::counter_add!("server.cache_hits", 1);
            (backend, false, 0)
        } else {
            soi_obs::counter_add!("server.cache_misses", 1);
            let last_key = (name.to_string(), kind.tag(), last_good_k(kind, k));
            match self.build_backend(pg, kind, k, key, &last_key) {
                Ok(backend) => (backend, false, self.config.num_worlds as u64),
                Err(err) => {
                    let stale = if degrade {
                        let last = self
                            .last_good
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner);
                        last.get(&last_key).cloned()
                    } else {
                        None
                    };
                    let Some(backend) = stale else {
                        return Err(err);
                    };
                    soi_obs::counter_add!("server.requests_degraded", 1);
                    (backend, true, 0)
                }
            }
        };
        trace.record("cache", ticks, crate::trace::elapsed_ns(started));
        Ok((backend, degraded))
    }

    fn build_backend(
        &self,
        pg: &Arc<ProbGraph>,
        kind: BackendKind,
        k: usize,
        key: u64,
        last_key: &(String, u8, u64),
    ) -> Result<SpreadBackend, SoiError> {
        // Built outside the cache lock: a slow build must not stall
        // queries against already-cached graphs.
        let backend = match kind {
            BackendKind::Cascade => {
                soi_util::failpoint!("server.index.build");
                let _span = soi_obs::span("server.index_build");
                SpreadBackend::Cascade(Arc::new(CascadeIndex::build(pg, self.index_config())))
            }
            BackendKind::Sketch => {
                soi_util::failpoint!("server.sketch.build");
                let _span = soi_obs::span("server.sketch_build");
                SpreadBackend::Sketch(Arc::new(ReachSketches::build(pg, self.sketch_config(k))))
            }
        };
        soi_util::failpoint_crash!("server.cache.insert");
        {
            let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
            cache.insert(key, Arc::new(backend.clone()));
        }
        let mut last = self
            .last_good
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        last.insert(last_key.clone(), backend.clone());
        Ok(backend)
    }

    fn deadline(&self, requested: Option<u64>) -> Deadline {
        match requested.unwrap_or(self.config.default_deadline_ticks) {
            0 => Deadline::unlimited(),
            ticks => Deadline::ticks(ticks),
        }
    }

    /// Executes one compute request, producing the response payload.
    /// Control requests ([`Request::is_control`]) are not handled here.
    pub fn execute(&self, req: &Request) -> Result<ExecOutput, SoiError> {
        let mut trace = PhaseTrace::new();
        self.execute_traced(req, &mut trace)
    }

    /// [`Self::execute`] additionally recording the request's `cache`
    /// and `compute` phases into `trace`. Tick costs are deterministic
    /// work proxies: a cold `cache` phase costs `num_worlds` (the worlds
    /// sampled by the build; a hit costs 0), `compute` costs 1 per
    /// typical-cascade fit, one per Monte-Carlo sample run, or `k` per
    /// seed selected. Wall time is measured alongside and lives only in
    /// the phases' `wall_ns`. Error returns leave `trace` at whatever
    /// prefix of phases completed — error responses carry no trace.
    pub fn execute_traced(
        &self,
        req: &Request,
        trace: &mut PhaseTrace,
    ) -> Result<ExecOutput, SoiError> {
        match req {
            Request::TypicalCascade {
                graph,
                source,
                deadline_ticks,
                degrade,
            } => {
                let (oracle, degraded) =
                    self.oracle(graph, BackendKind::Cascade, None, *degrade, trace)?;
                let index = oracle.as_cascade().ok_or_else(wrong_backend)?;
                if (*source as usize) >= index.num_nodes() {
                    return Err(SoiError::protocol(
                        ProtoErrorKind::BadField,
                        format!(
                            "source {source} out of range (graph has {} nodes)",
                            index.num_nodes()
                        ),
                    ));
                }
                let deadline = self.deadline(*deadline_ticks);
                let compute_start = std::time::Instant::now();
                let outcome = soi_core::index_median(
                    index,
                    *source,
                    &self.config.median,
                    &deadline,
                    &mut soi_core::NodeScratch::new(index),
                );
                let fit = outcome.value_ref();
                let payload = format!(
                    "\"sphere\":{},\"cost\":{}{}",
                    encode_nodes(&fit.median),
                    fmt_num(fit.cost),
                    degraded_suffix(degraded, "stale-index")
                );
                trace.record("compute", 1, crate::trace::elapsed_ns(compute_start));
                Ok(ExecOutput::from_outcome(&outcome, payload))
            }
            Request::SpreadEstimate {
                graph,
                seeds,
                samples,
                seed,
                deadline_ticks,
                degrade,
                backend,
                sketch_k,
            } => {
                let (pg, _) = self.graph(graph)?;
                if let Some(&bad) = seeds.iter().find(|&&s| (s as usize) >= pg.num_nodes()) {
                    return Err(SoiError::protocol(
                        ProtoErrorKind::BadField,
                        format!(
                            "seed {bad} out of range (graph has {} nodes)",
                            pg.num_nodes()
                        ),
                    ));
                }
                if *backend == BackendKind::Sketch {
                    // The sketch backend answers from the warm sketches:
                    // the cache phase carries the (possible) build, the
                    // estimator itself is one O(seeds · k) evaluation.
                    let (oracle, degraded) =
                        self.oracle(graph, BackendKind::Sketch, *sketch_k, *degrade, trace)?;
                    let sk = oracle.as_sketch().ok_or_else(wrong_backend)?;
                    let compute_start = std::time::Instant::now();
                    let spread = sk.set_spread(seeds);
                    let payload = format!(
                        "\"spread\":{},\"backend\":\"sketch\"{}",
                        fmt_num(spread),
                        degraded_suffix(degraded, "stale-sketch")
                    );
                    trace.record("compute", 1, crate::trace::elapsed_ns(compute_start));
                    return Ok(ExecOutput::complete(payload));
                }
                // Cascade spread estimates never touch the oracle cache;
                // the phase is recorded at zero cost so every compute
                // request shares one timeline schema.
                trace.record("cache", 0, 0);
                let budget = deadline_ticks.unwrap_or(self.config.default_deadline_ticks);
                if *degrade && budget > 0 && (budget as usize) < *samples {
                    // Degrade instead of going partial: answer with the
                    // sample count the budget affords, run to completion.
                    // Same seed + a prefix-sized count keeps the reduced
                    // answer deterministic.
                    let reduced = budget as usize;
                    let compute_start = std::time::Instant::now();
                    let outcome = soi_sampling::estimate_spread_budgeted(
                        pg,
                        seeds,
                        reduced,
                        *seed,
                        &Deadline::unlimited(),
                    );
                    soi_obs::counter_add!("server.requests_degraded", 1);
                    let payload = format!(
                        "\"spread\":{},\"samples_used\":{reduced}{}",
                        fmt_num(*outcome.value_ref()),
                        degraded_suffix(true, "reduced-samples")
                    );
                    trace.record(
                        "compute",
                        reduced as u64,
                        crate::trace::elapsed_ns(compute_start),
                    );
                    return Ok(ExecOutput::complete(payload));
                }
                let deadline = self.deadline(*deadline_ticks);
                let compute_start = std::time::Instant::now();
                let outcome =
                    soi_sampling::estimate_spread_budgeted(pg, seeds, *samples, *seed, &deadline);
                let payload = format!("\"spread\":{}", fmt_num(*outcome.value_ref()));
                trace.record(
                    "compute",
                    *samples as u64,
                    crate::trace::elapsed_ns(compute_start),
                );
                Ok(ExecOutput::from_outcome(&outcome, payload))
            }
            Request::InfmaxTc {
                graph,
                k,
                deadline_ticks,
                degrade,
                backend,
                sketch_k,
            } => {
                if *backend == BackendKind::Sketch {
                    return self.execute_infmax_sketch(
                        graph,
                        *k,
                        *deadline_ticks,
                        *degrade,
                        *sketch_k,
                        trace,
                    );
                }
                let (oracle, degraded) =
                    self.oracle(graph, BackendKind::Cascade, None, *degrade, trace)?;
                let index = oracle.as_cascade().ok_or_else(wrong_backend)?;
                let run = Run::new(self.deadline(*deadline_ticks), None, 64, false);
                let compute_start = std::time::Instant::now();
                let outcome = soi_core::all_typical_cascades_resumable(
                    index,
                    &self.config.median,
                    self.config.threads,
                    &run,
                )?;
                let spheres: Vec<Vec<u32>> = outcome
                    .value_ref()
                    .iter()
                    .map(|tc| tc.median.clone())
                    .collect();
                let run = soi_influence::infmax_tc(&spheres, *k, 0);
                let coverage: Vec<String> =
                    run.coverage_curve.iter().map(|&c| fmt_num(c)).collect();
                let payload = format!(
                    "\"seeds\":{},\"coverage\":[{}]{}",
                    encode_nodes(&run.seeds),
                    coverage.join(","),
                    degraded_suffix(degraded, "stale-index")
                );
                trace.record(
                    "compute",
                    *k as u64,
                    crate::trace::elapsed_ns(compute_start),
                );
                Ok(ExecOutput::from_outcome(&outcome, payload))
            }
            control => Err(SoiError::invalid(format!(
                "control request {:?} routed to the compute engine",
                control.type_name()
            ))),
        }
    }

    /// `infmax-tc` with `"backend":"sketch"`: SKIM-style greedy over the
    /// warm sketches, one deadline tick per seed selected.
    fn execute_infmax_sketch(
        &self,
        graph: &str,
        k: usize,
        deadline_ticks: Option<u64>,
        degrade: bool,
        sketch_k: Option<usize>,
        trace: &mut PhaseTrace,
    ) -> Result<ExecOutput, SoiError> {
        let (oracle, degraded) =
            self.oracle(graph, BackendKind::Sketch, sketch_k, degrade, trace)?;
        let sk = oracle.as_sketch().ok_or_else(wrong_backend)?;
        let (pg, fingerprint) = self.graph(graph)?;
        if sk.graph_fingerprint() != *fingerprint {
            // A stale sketch from a different graph revision cannot
            // drive selection: the coverage BFS re-derives the worlds
            // the sketches were built over, which belong to the old
            // graph. Fail typed instead of answering wrong.
            return Err(SoiError::protocol(
                ProtoErrorKind::Internal,
                "stale sketch does not match the loaded graph; seed selection cannot degrade",
            ));
        }
        let deadline = self.deadline(deadline_ticks);
        let compute_start = std::time::Instant::now();
        let outcome = soi_sketch::select_seeds(pg, sk, k, &deadline);
        let run = outcome.value_ref();
        let coverage: Vec<String> = run.coverage.iter().map(|&c| fmt_num(c)).collect();
        let payload = format!(
            "\"seeds\":{},\"coverage\":[{}],\"backend\":\"sketch\"{}",
            encode_nodes(&run.seeds),
            coverage.join(","),
            degraded_suffix(degraded, "stale-sketch")
        );
        trace.record("compute", k as u64, crate::trace::elapsed_ns(compute_start));
        Ok(ExecOutput::from_outcome(&outcome, payload))
    }
}

fn encode_nodes(nodes: &[u32]) -> String {
    let items: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// The payload suffix flagging a degraded answer (empty when the answer
/// is fresh): degradation is always explicit on the wire.
fn degraded_suffix(degraded: bool, mode: &str) -> String {
    if degraded {
        format!(",\"degraded\":true,\"degraded_mode\":\"{mode}\"")
    } else {
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::gen;

    fn engine() -> ServerEngine {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(7);
        let pg = ProbGraph::fixed(gen::gnm(40, 160, &mut rng), 0.4).expect("graph");
        let mut engine = ServerEngine::new(EngineConfig {
            num_worlds: 16,
            seed: 3,
            cache_cap: 2,
            ..EngineConfig::default()
        });
        engine.add_graph("g", pg);
        engine
    }

    #[test]
    fn typical_cascade_is_deterministic() {
        let _g = soi_util::failpoint::test_guard();
        let engine = engine();
        let req = Request::TypicalCascade {
            graph: "g".into(),
            source: 5,
            deadline_ticks: None,
            degrade: false,
        };
        let a = engine.execute(&req).expect("exec");
        let b = engine.execute(&req).expect("exec");
        assert_eq!(a, b);
        assert!(a.partial.is_none());
        assert!(a.payload.starts_with("\"sphere\":["), "{}", a.payload);
    }

    #[test]
    fn spread_deadline_yields_partial_prefix() {
        let engine = engine();
        let full = Request::SpreadEstimate {
            graph: "g".into(),
            seeds: vec![0, 1],
            samples: 64,
            seed: 9,
            deadline_ticks: None,
            degrade: false,
            backend: BackendKind::Cascade,
            sketch_k: None,
        };
        let capped = Request::SpreadEstimate {
            graph: "g".into(),
            seeds: vec![0, 1],
            samples: 64,
            seed: 9,
            deadline_ticks: Some(8),
            degrade: false,
            backend: BackendKind::Cascade,
            sketch_k: None,
        };
        let full = engine.execute(&full).expect("full");
        assert!(full.partial.is_none());
        let capped = engine.execute(&capped).expect("capped");
        let (done, total, reason) = capped.partial.expect("partial");
        assert_eq!(total, 64);
        assert!(done < total);
        assert_eq!(reason, StopReason::DeadlineExpired);
        // Partial value is the mean over the deterministic prefix.
        let again = engine.execute(&Request::SpreadEstimate {
            graph: "g".into(),
            seeds: vec![0, 1],
            samples: 64,
            seed: 9,
            deadline_ticks: Some(8),
            degrade: false,
            backend: BackendKind::Cascade,
            sketch_k: None,
        });
        assert_eq!(capped, again.expect("again"));
    }

    #[test]
    fn infmax_selects_k_seeds() {
        let _g = soi_util::failpoint::test_guard();
        let engine = engine();
        let out = engine
            .execute(&Request::InfmaxTc {
                graph: "g".into(),
                k: 3,
                deadline_ticks: None,
                degrade: false,
                backend: BackendKind::Cascade,
                sketch_k: None,
            })
            .expect("exec");
        assert!(out.partial.is_none());
        assert!(out.payload.contains("\"seeds\":["));
        assert!(out.payload.contains("\"coverage\":["));
    }

    #[test]
    fn unknown_graph_and_bad_fields_are_typed() {
        let _g = soi_util::failpoint::test_guard();
        let engine = engine();
        let err = engine
            .execute(&Request::TypicalCascade {
                graph: "missing".into(),
                source: 0,
                deadline_ticks: None,
                degrade: false,
            })
            .expect_err("unknown graph");
        assert!(matches!(
            err,
            SoiError::Protocol {
                kind: ProtoErrorKind::UnknownGraph,
                ..
            }
        ));
        let err = engine
            .execute(&Request::TypicalCascade {
                graph: "g".into(),
                source: 40,
                deadline_ticks: None,
                degrade: false,
            })
            .expect_err("out of range");
        assert!(matches!(
            err,
            SoiError::Protocol {
                kind: ProtoErrorKind::BadField,
                ..
            }
        ));
    }

    #[test]
    fn execute_traced_records_deterministic_phase_ticks() {
        let _g = soi_util::failpoint::test_guard();
        let engine = engine();
        let req = Request::TypicalCascade {
            graph: "g".into(),
            source: 5,
            deadline_ticks: None,
            degrade: false,
        };
        let mut cold = PhaseTrace::new();
        engine.execute_traced(&req, &mut cold).expect("cold");
        let names: Vec<&str> = cold.phases().iter().map(|p| p.name).collect();
        assert_eq!(names, ["cache", "compute"]);
        // Cold cache phase costs num_worlds ticks; the hit costs zero.
        assert_eq!(cold.phases()[0].ticks, 16);
        assert_eq!(cold.phases()[1].ticks, 1);
        let mut warm = PhaseTrace::new();
        engine.execute_traced(&req, &mut warm).expect("warm");
        assert_eq!(warm.phases()[0].ticks, 0);
        // Spread estimates cost one tick per sample and skip the cache.
        let mut spread = PhaseTrace::new();
        engine
            .execute_traced(
                &Request::SpreadEstimate {
                    graph: "g".into(),
                    seeds: vec![0, 1],
                    samples: 24,
                    seed: 9,
                    deadline_ticks: None,
                    degrade: false,
                    backend: BackendKind::Cascade,
                    sketch_k: None,
                },
                &mut spread,
            )
            .expect("spread");
        assert_eq!(
            spread.phases()[0],
            crate::trace::Phase {
                name: "cache",
                ticks: 0,
                wall_ns: 0,
            }
        );
        assert_eq!(spread.phases()[1].ticks, 24);
        // Seed selection costs k ticks.
        let mut infmax = PhaseTrace::new();
        engine
            .execute_traced(
                &Request::InfmaxTc {
                    graph: "g".into(),
                    k: 3,
                    deadline_ticks: None,
                    degrade: false,
                    backend: BackendKind::Cascade,
                    sketch_k: None,
                },
                &mut infmax,
            )
            .expect("infmax");
        assert_eq!(infmax.phases()[1].ticks, 3);
    }

    #[test]
    fn index_cache_hits_after_first_build() {
        let _g = soi_util::failpoint::test_guard();
        let engine = engine();
        let _ = engine.index_for("g").expect("build");
        let before = soi_obs::metrics::counter("server.cache_hits").get();
        let _ = engine.index_for("g").expect("cached");
        assert!(soi_obs::metrics::counter("server.cache_hits").get() > before);
    }

    #[test]
    fn degraded_spread_reduces_samples_deterministically() {
        let engine = engine();
        let degraded = Request::SpreadEstimate {
            graph: "g".into(),
            seeds: vec![0, 1],
            samples: 64,
            seed: 9,
            deadline_ticks: Some(8),
            degrade: true,
            backend: BackendKind::Cascade,
            sketch_k: None,
        };
        let out = engine.execute(&degraded).expect("degraded");
        assert!(out.partial.is_none(), "degraded answers are complete");
        assert!(
            out.payload
                .contains("\"degraded\":true,\"degraded_mode\":\"reduced-samples\""),
            "{}",
            out.payload
        );
        assert!(
            out.payload.contains("\"samples_used\":8"),
            "{}",
            out.payload
        );
        // Deterministic: same request, same degraded answer.
        assert_eq!(out, engine.execute(&degraded).expect("again"));
        // The reduced answer equals an honest 8-sample estimate.
        let honest = engine
            .execute(&Request::SpreadEstimate {
                graph: "g".into(),
                seeds: vec![0, 1],
                samples: 8,
                seed: 9,
                deadline_ticks: None,
                degrade: false,
                backend: BackendKind::Cascade,
                sketch_k: None,
            })
            .expect("honest");
        let spread_of = |p: &str| p.split(',').next().map(str::to_string);
        assert_eq!(spread_of(&out.payload), spread_of(&honest.payload));
        // An affordable budget does not degrade.
        let roomy = engine
            .execute(&Request::SpreadEstimate {
                graph: "g".into(),
                seeds: vec![0, 1],
                samples: 8,
                seed: 9,
                deadline_ticks: Some(64),
                degrade: true,
                backend: BackendKind::Cascade,
                sketch_k: None,
            })
            .expect("roomy");
        assert!(!roomy.payload.contains("degraded"), "{}", roomy.payload);
    }

    #[test]
    #[cfg(debug_assertions)] // arms a failpoint; the sites compile out in release
    fn stale_index_serves_flagged_when_build_fails() {
        let _g = soi_util::failpoint::test_guard();
        soi_util::failpoint::clear();
        let engine = engine();
        // Warm the last-known-good slot, then evict the cached entry by
        // swapping the graph (new fingerprint → cold cache key).
        let _ = engine.index_for("g").expect("first build");
        let mut engine = engine;
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(11);
        let pg2 = ProbGraph::fixed(gen::gnm(40, 120, &mut rng), 0.3).expect("graph2");
        engine.add_graph("g", pg2);
        // Fresh builds now fail; without degrade the error is typed…
        soi_util::failpoint::install("server.index.build=error").expect("arm");
        let err = engine
            .execute(&Request::TypicalCascade {
                graph: "g".into(),
                source: 1,
                deadline_ticks: None,
                degrade: false,
            })
            .expect_err("build fails");
        assert!(matches!(err, SoiError::Fault { .. }), "{err}");
        // …with degrade the stale index answers, explicitly flagged.
        let out = engine
            .execute(&Request::TypicalCascade {
                graph: "g".into(),
                source: 1,
                deadline_ticks: None,
                degrade: true,
            })
            .expect("stale serve");
        assert!(
            out.payload
                .contains("\"degraded\":true,\"degraded_mode\":\"stale-index\""),
            "{}",
            out.payload
        );
        soi_util::failpoint::clear();
        // With the fault gone a fresh build wins again, unflagged.
        let fresh = engine
            .execute(&Request::TypicalCascade {
                graph: "g".into(),
                source: 1,
                deadline_ticks: None,
                degrade: true,
            })
            .expect("fresh");
        assert!(!fresh.payload.contains("degraded"), "{}", fresh.payload);
    }

    fn sketch_spread_req(sketch_k: Option<usize>) -> Request {
        Request::SpreadEstimate {
            graph: "g".into(),
            seeds: vec![0, 1],
            samples: 64,
            seed: 9,
            deadline_ticks: None,
            degrade: false,
            backend: BackendKind::Sketch,
            sketch_k,
        }
    }

    #[test]
    fn sketch_backend_answers_spread_deterministically() {
        let _g = soi_util::failpoint::test_guard();
        let engine = engine();
        let a = engine.execute(&sketch_spread_req(None)).expect("sketch");
        let b = engine.execute(&sketch_spread_req(None)).expect("again");
        assert_eq!(a, b);
        assert!(a.partial.is_none());
        assert!(
            a.payload.starts_with("\"spread\":") && a.payload.ends_with("\"backend\":\"sketch\""),
            "{}",
            a.payload
        );
        // The sketch answer tracks the Monte-Carlo answer on this graph.
        let mc = engine
            .execute(&Request::SpreadEstimate {
                graph: "g".into(),
                seeds: vec![0, 1],
                samples: 2000,
                seed: 9,
                deadline_ticks: None,
                degrade: false,
                backend: BackendKind::Cascade,
                sketch_k: None,
            })
            .expect("mc");
        let num = |p: &str| -> f64 {
            p.strip_prefix("\"spread\":")
                .and_then(|r| r.split(',').next())
                .and_then(|v| v.parse().ok())
                .expect("spread number")
        };
        let (sk, mc) = (num(&a.payload), num(&mc.payload));
        assert!(
            (sk - mc).abs() / mc.max(1.0) < 0.5,
            "sketch {sk} vs mc {mc}"
        );
    }

    #[test]
    fn sketch_backend_selects_seeds_with_backend_tag() {
        let _g = soi_util::failpoint::test_guard();
        let engine = engine();
        let req = Request::InfmaxTc {
            graph: "g".into(),
            k: 3,
            deadline_ticks: None,
            degrade: false,
            backend: BackendKind::Sketch,
            sketch_k: Some(32),
        };
        let mut trace = PhaseTrace::new();
        let a = engine.execute_traced(&req, &mut trace).expect("sketch");
        assert_eq!(a, engine.execute(&req).expect("again"));
        assert!(a.partial.is_none());
        assert!(
            a.payload.contains("\"seeds\":[") && a.payload.contains("\"backend\":\"sketch\""),
            "{}",
            a.payload
        );
        // Cold sketch build costs num_worlds cache ticks, selection k.
        assert_eq!(trace.phases()[0].ticks, 16);
        assert_eq!(trace.phases()[1].ticks, 3);
        // A capped budget yields a partial seed prefix.
        let capped = engine
            .execute(&Request::InfmaxTc {
                graph: "g".into(),
                k: 3,
                deadline_ticks: Some(2),
                degrade: false,
                backend: BackendKind::Sketch,
                sketch_k: Some(32),
            })
            .expect("capped");
        let (done, total, _) = capped.partial.expect("partial");
        assert_eq!((done, total), (2, 3));
    }

    #[test]
    fn cache_keeps_backends_and_params_disjoint() {
        let _g = soi_util::failpoint::test_guard();
        // Room for all three oracle identities at once (the shared
        // fixture's cap of 2 would evict the first one).
        let mut engine = {
            let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(7);
            let pg = ProbGraph::fixed(gen::gnm(40, 160, &mut rng), 0.4).expect("graph");
            let mut e = ServerEngine::new(EngineConfig {
                num_worlds: 16,
                seed: 3,
                cache_cap: 4,
                ..EngineConfig::default()
            });
            e.add_graph("g", pg);
            e
        };
        let engine = &mut engine;
        let misses = || soi_obs::metrics::counter("server.cache_misses").get();
        let hits = || soi_obs::metrics::counter("server.cache_hits").get();
        let m0 = misses();
        // Same graph, four oracle identities: cascade, sketch k=default,
        // sketch k=32 — each is its own cache entry…
        let _ = engine.execute(&sketch_spread_req(None)).expect("sketch");
        let _ = engine
            .execute(&Request::TypicalCascade {
                graph: "g".into(),
                source: 0,
                deadline_ticks: None,
                degrade: false,
            })
            .expect("cascade");
        let _ = engine.execute(&sketch_spread_req(Some(32))).expect("k=32");
        assert_eq!(misses() - m0, 3, "three distinct oracles, three builds");
        // …and repeats hit their own entry without rebuilding.
        let h0 = hits();
        let _ = engine.execute(&sketch_spread_req(None)).expect("warm");
        let _ = engine.execute(&sketch_spread_req(Some(32))).expect("warm");
        assert_eq!(hits() - h0, 2);
        assert_eq!(misses() - m0, 3);
    }

    #[test]
    fn warm_lookups_never_miss_and_key_on_the_load_time_fingerprint() {
        let _g = soi_util::failpoint::test_guard();
        let mut engine = engine();
        let misses = || soi_obs::metrics::counter("server.cache_misses").get();
        let tc = Request::TypicalCascade {
            graph: "g".into(),
            source: 5,
            deadline_ticks: None,
            degrade: false,
        };
        let cold = engine.execute(&tc).expect("tc");
        let _ = engine.execute(&sketch_spread_req(None)).expect("sketch");
        let warm = misses();
        for _ in 0..8 {
            assert_eq!(engine.execute(&tc).expect("tc"), cold);
            let _ = engine.execute(&sketch_spread_req(None)).expect("sketch");
        }
        assert_eq!(misses(), warm);
        // The stored fingerprint forms the keys the graph itself would.
        let (pg, fingerprint) = engine.graph("g").expect("g");
        assert_eq!(*fingerprint, pg.fingerprint());
        let sketch_config = engine.sketch_config(engine.config.sketch_k);
        for key in [
            mixed_key(
                BackendKind::Cascade,
                CascadeIndex::cache_key_for(pg.fingerprint(), &engine.index_config()),
            ),
            mixed_key(
                BackendKind::Sketch,
                ReachSketches::cache_key_for(pg.fingerprint(), &sketch_config),
            ),
        ] {
            let mut cache = engine.cache.lock().expect("cache");
            assert!(cache.get(key).is_some());
        }
        // Re-binding the name re-hashes: the old entry cannot serve.
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(11);
        let pg2 = ProbGraph::fixed(gen::gnm(40, 120, &mut rng), 0.3).expect("graph2");
        engine.add_graph("g", pg2);
        assert_ne!(engine.execute(&tc).expect("rebound"), cold);
        assert_eq!(misses(), warm + 1);
    }

    /// `infmax-tc` runs under `Run::new`; before, it ran under the
    /// literal 64-node-block `Run` built here. Same answers, budgeted or
    /// not — only the unbudgeted block count changed.
    #[test]
    fn infmax_tc_answers_as_the_64_node_blocks_did() {
        let _g = soi_util::failpoint::test_guard();
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(17);
        let pg = ProbGraph::fixed(gen::gnm(200, 600, &mut rng), 0.2).expect("graph");
        let mut engine = ServerEngine::new(EngineConfig {
            num_worlds: 8,
            seed: 3,
            ..EngineConfig::default()
        });
        engine.add_graph("g", pg);
        let index = engine.index_for("g").expect("index");
        for deadline_ticks in [None, Some(100)] {
            let got = engine
                .execute(&Request::InfmaxTc {
                    graph: "g".into(),
                    k: 4,
                    deadline_ticks,
                    degrade: false,
                    backend: BackendKind::Cascade,
                    sketch_k: None,
                })
                .expect("exec");
            let run = Run {
                deadline: engine.deadline(deadline_ticks),
                checkpoint: None,
                every: 64,
                resume: false,
            };
            let outcome = soi_core::all_typical_cascades_resumable(
                &index,
                &engine.config.median,
                engine.config.threads,
                &run,
            )
            .expect("spheres");
            let spheres: Vec<Vec<u32>> = outcome
                .value_ref()
                .iter()
                .map(|tc| tc.median.clone())
                .collect();
            let cover = soi_influence::infmax_tc(&spheres, 4, 0);
            let coverage: Vec<String> = cover.coverage_curve.iter().map(|&c| fmt_num(c)).collect();
            let payload = format!(
                "\"seeds\":{},\"coverage\":[{}]",
                encode_nodes(&cover.seeds),
                coverage.join(",")
            );
            assert_eq!(got, ExecOutput::from_outcome(&outcome, payload));
            assert_eq!(got.partial.is_some(), deadline_ticks.is_some());
        }
    }

    #[test]
    #[cfg(debug_assertions)] // arms a failpoint; the sites compile out in release
    fn sketch_build_failure_degrades_to_stale_sketch_or_fails_typed() {
        let _g = soi_util::failpoint::test_guard();
        soi_util::failpoint::clear();
        let engine = engine();
        // Warm the sketch last-good slot, then arm the build failpoint.
        let _ = engine.execute(&sketch_spread_req(None)).expect("warm");
        let mut engine = engine;
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(13);
        let pg2 = ProbGraph::fixed(gen::gnm(40, 120, &mut rng), 0.3).expect("graph2");
        engine.add_graph("g", pg2);
        soi_util::failpoint::install("server.sketch.build=error").expect("arm");
        // Without degrade: typed fault.
        let err = engine.execute(&sketch_spread_req(None)).expect_err("fault");
        assert!(matches!(err, SoiError::Fault { .. }), "{err}");
        // With degrade: the stale sketch answers spread, flagged.
        let out = engine
            .execute(&Request::SpreadEstimate {
                graph: "g".into(),
                seeds: vec![0, 1],
                samples: 64,
                seed: 9,
                deadline_ticks: None,
                degrade: true,
                backend: BackendKind::Sketch,
                sketch_k: None,
            })
            .expect("stale");
        assert!(
            out.payload
                .contains("\"degraded\":true,\"degraded_mode\":\"stale-sketch\""),
            "{}",
            out.payload
        );
        // Seed selection cannot run on a mismatched stale sketch: typed
        // internal error, never a wrong answer or a panic.
        let err = engine
            .execute(&Request::InfmaxTc {
                graph: "g".into(),
                k: 2,
                deadline_ticks: None,
                degrade: true,
                backend: BackendKind::Sketch,
                sketch_k: None,
            })
            .expect_err("cannot degrade selection");
        assert!(
            matches!(
                err,
                SoiError::Protocol {
                    kind: ProtoErrorKind::Internal,
                    ..
                }
            ),
            "{err}"
        );
        soi_util::failpoint::clear();
    }
}
