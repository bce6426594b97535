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
//! Deadlines are deterministic tick budgets
//! ([`soi_util::runtime::Deadline`], read by [`protocol::deadline`]): a
//! query that runs out of budget returns a well-formed `partial`
//! response covering the exact prefix of work completed, never a
//! stalled worker.

use crate::protocol::{self, Request};
use crate::trace::PhaseTrace;
use soi_graph::ProbGraph;
use soi_index::{CascadeIndex, IndexConfig};
use soi_influence::BackendKind;
use soi_jaccard::median::MedianConfig;
use soi_sketch::{ReachSketches, SketchConfig};
use soi_util::hash::Mix64Hasher;
use soi_util::runtime::{Outcome, Progress, Run};
use soi_util::SoiError;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Engine-level options fixed at startup.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worlds ℓ per cascade index.
    pub num_worlds: usize,
    /// Master sampling seed for index builds.
    pub seed: u64,
    /// Threads per index build / batch solve (0 = pool default).
    pub threads: usize,
    /// LRU capacity of the oracle cache.
    pub cache_cap: usize,
    /// Default sketch size `k` for `"backend":"sketch"` requests that
    /// carry no `sketch_k` override.
    pub sketch_k: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_worlds: 256,
            seed: 42,
            threads: 0,
            cache_cap: 4,
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
    /// How much of the work the payload covers, when a deadline cut it
    /// short.
    pub partial: Option<Progress>,
}

impl ExecOutput {
    /// A payload and how much of the work it covers (`None`: all).
    pub fn new(payload: String, partial: Option<Progress>) -> Self {
        ExecOutput { payload, partial }
    }

    /// A cascade `spread-estimate` answered from its one budgeted
    /// estimate: partial when a deadline cut it short, unless the request
    /// set `degrade` — then the same mean over the `done` samples drawn is
    /// a complete, reduced-sample answer.
    pub fn spread(outcome: Outcome<f64>, degrade: bool) -> Self {
        let spread = *outcome.value_ref();
        match outcome.progress() {
            Some(p) if degrade => {
                ExecOutput::new(protocol::degraded_spread_payload(spread, p.done), None)
            }
            partial => ExecOutput::new(
                protocol::spread_payload(spread, BackendKind::Cascade),
                partial,
            ),
        }
    }
}

/// Nodes per block of an `infmax-tc` sphere computation: a deadline
/// stops at a block boundary, so every engine answering the request
/// must cut the same prefix.
pub const TC_BLOCK: usize = 64;

/// A built spread oracle: one of the two backends, `Arc`-shared so cache
/// eviction never invalidates an oracle a worker is still querying, and
/// frees it once the last such worker lets go.
#[derive(Clone)]
enum SpreadBackend {
    /// A warm cascade index.
    Cascade(Arc<CascadeIndex>),
    /// Warm bottom-k reachability sketches.
    Sketch(Arc<ReachSketches>),
}

impl SpreadBackend {
    /// The cascade index, when that is the selected backend.
    fn as_cascade(&self) -> Option<&Arc<CascadeIndex>> {
        match self {
            SpreadBackend::Cascade(index) => Some(index),
            SpreadBackend::Sketch(_) => None,
        }
    }

    /// The sketches, when that is the selected backend.
    fn as_sketch(&self) -> Option<&Arc<ReachSketches>> {
        match self {
            SpreadBackend::Cascade(_) => None,
            SpreadBackend::Sketch(sk) => Some(sk),
        }
    }
}

/// Loaded graphs plus the warm spread-oracle cache.
pub struct ServerEngine {
    /// Each graph beside its [`ProbGraph::fingerprint`], hashed once at
    /// load: a cache lookup forms its key from the stored value.
    graphs: BTreeMap<String, (Arc<ProbGraph>, u64)>,
    /// One LRU for both backends, and the only place a built oracle
    /// lives. Keys mix the backend tag into the backend-specific cache
    /// key ([`mixed_key`]), so the key is (graph fingerprint, backend,
    /// build params) and a sketch entry can never serve a cascade
    /// request or vice versa.
    cache: Mutex<crate::cache::LruCache<SpreadBackend>>,
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
            threads: self.config.threads,
            ..IndexConfig::default()
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
        self.graphs
            .get(name)
            .ok_or_else(|| protocol::unknown_graph(name))
    }

    /// The warm index for `name`, building (and caching) it on a miss.
    pub fn index_for(&self, name: &str) -> Result<Arc<CascadeIndex>, SoiError> {
        let mut trace = PhaseTrace::new();
        let oracle = self.oracle(name, BackendKind::Cascade, None, &mut trace)?;
        oracle.as_cascade().cloned().ok_or_else(wrong_backend)
    }

    /// The one oracle lookup: the warm spread oracle for (`name`,
    /// `kind`, `sketch_k`), built and cached on a miss. A successful
    /// lookup records the request's `cache` phase: a build costs
    /// `num_worlds` deterministic ticks, a hit costs zero.
    fn oracle(
        &self,
        name: &str,
        kind: BackendKind,
        sketch_k: Option<usize>,
        trace: &mut PhaseTrace,
    ) -> Result<SpreadBackend, SoiError> {
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
            cache.get(key)
        };
        let (backend, ticks) = if let Some(backend) = hit {
            soi_obs::counter_add!("server.cache_hits", 1);
            (backend, 0)
        } else {
            soi_obs::counter_add!("server.cache_misses", 1);
            let backend = self.build_backend(pg, kind, k)?;
            soi_util::failpoint_crash!("server.cache.insert");
            let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
            cache.insert(key, backend.clone());
            (backend, self.config.num_worlds as u64)
        };
        trace.record("cache", ticks, crate::trace::elapsed_ns(started));
        Ok(backend)
    }

    /// Builds one oracle, outside the cache lock: a slow build must not
    /// stall queries against already-cached graphs. The failpoints are
    /// the only way it can fail.
    fn build_backend(
        &self,
        pg: &Arc<ProbGraph>,
        kind: BackendKind,
        k: usize,
    ) -> Result<SpreadBackend, SoiError> {
        Ok(match kind {
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
        })
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
                ..
            } => {
                let oracle = self.oracle(graph, BackendKind::Cascade, None, trace)?;
                let index = oracle.as_cascade().ok_or_else(wrong_backend)?;
                protocol::check_nodes("source", &[*source], index.num_nodes())?;
                let deadline = protocol::deadline(*deadline_ticks);
                let compute_start = std::time::Instant::now();
                let outcome = soi_core::index_median(
                    index,
                    *source,
                    &MedianConfig::default(),
                    &deadline,
                    &mut soi_core::NodeScratch::new(index),
                );
                let fit = outcome.value_ref();
                let payload = protocol::sphere_payload(&fit.median, fit.cost);
                trace.record("compute", 1, crate::trace::elapsed_ns(compute_start));
                Ok(ExecOutput::new(payload, outcome.progress()))
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
                protocol::check_nodes("seed", seeds, pg.num_nodes())?;
                if *backend == BackendKind::Sketch {
                    // The sketch backend answers from the warm sketches:
                    // the cache phase carries the (possible) build, the
                    // estimator itself is one O(seeds · k) evaluation.
                    let oracle = self.oracle(graph, BackendKind::Sketch, *sketch_k, trace)?;
                    let sk = oracle.as_sketch().ok_or_else(wrong_backend)?;
                    let compute_start = std::time::Instant::now();
                    let spread = sk.set_spread(seeds);
                    let payload = protocol::spread_payload(spread, BackendKind::Sketch);
                    trace.record("compute", 1, crate::trace::elapsed_ns(compute_start));
                    return Ok(ExecOutput::new(payload, None));
                }
                // Cascade spread estimates never touch the oracle cache;
                // the phase is recorded at zero cost so every compute
                // request shares one timeline schema.
                trace.record("cache", 0, 0);
                let deadline = protocol::deadline(*deadline_ticks);
                let compute_start = std::time::Instant::now();
                let outcome =
                    soi_sampling::estimate_spread_budgeted(pg, seeds, *samples, *seed, &deadline);
                let progress = outcome.progress();
                let out = ExecOutput::spread(outcome, *degrade);
                // A degraded answer is complete but covers only the
                // samples the budget afforded.
                let ticks = match progress {
                    Some(p) if out.partial.is_none() => {
                        soi_obs::counter_add!("server.requests_degraded", 1);
                        p.done
                    }
                    _ => *samples as u64,
                };
                trace.record("compute", ticks, crate::trace::elapsed_ns(compute_start));
                Ok(out)
            }
            Request::InfmaxTc {
                graph,
                k,
                deadline_ticks,
                backend,
                sketch_k,
                ..
            } => {
                if *backend == BackendKind::Sketch {
                    return self.execute_infmax_sketch(
                        graph,
                        *k,
                        *deadline_ticks,
                        *sketch_k,
                        trace,
                    );
                }
                let oracle = self.oracle(graph, BackendKind::Cascade, None, trace)?;
                let index = oracle.as_cascade().ok_or_else(wrong_backend)?;
                let run = Run::new(protocol::deadline(*deadline_ticks), None, TC_BLOCK, false);
                let compute_start = std::time::Instant::now();
                let outcome = soi_core::all_typical_cascades_resumable(
                    index,
                    &MedianConfig::default(),
                    self.config.threads,
                    &run,
                )?;
                let spheres: Vec<Vec<u32>> = outcome
                    .value_ref()
                    .iter()
                    .map(|tc| tc.median.clone())
                    .collect();
                let run = soi_influence::infmax_tc(&spheres, *k, 0);
                let payload =
                    protocol::seeds_payload(&run.seeds, &run.coverage_curve, BackendKind::Cascade);
                trace.record(
                    "compute",
                    *k as u64,
                    crate::trace::elapsed_ns(compute_start),
                );
                Ok(ExecOutput::new(payload, outcome.progress()))
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
        sketch_k: Option<usize>,
        trace: &mut PhaseTrace,
    ) -> Result<ExecOutput, SoiError> {
        let oracle = self.oracle(graph, BackendKind::Sketch, sketch_k, trace)?;
        let sk = oracle.as_sketch().ok_or_else(wrong_backend)?;
        let (pg, _) = self.graph(graph)?;
        let deadline = protocol::deadline(deadline_ticks);
        let compute_start = std::time::Instant::now();
        let outcome = soi_sketch::select_seeds(pg, sk, k, &deadline);
        let run = outcome.value_ref();
        let payload = protocol::seeds_payload(&run.seeds, &run.coverage, BackendKind::Sketch);
        trace.record("compute", k as u64, crate::trace::elapsed_ns(compute_start));
        Ok(ExecOutput::new(payload, outcome.progress()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::gen;
    use soi_util::ProtoErrorKind;

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
        let progress = capped.partial.expect("partial");
        assert_eq!(progress.total, 64);
        assert!(progress.done < progress.total);
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
        // ...and the partial answer at the same budget, relabelled.
        let partial = engine
            .execute(&Request::SpreadEstimate {
                graph: "g".into(),
                seeds: vec![0, 1],
                samples: 64,
                seed: 9,
                deadline_ticks: Some(8),
                degrade: false,
                backend: BackendKind::Cascade,
                sketch_k: None,
            })
            .expect("partial");
        assert_eq!(partial.partial.map(|p| p.done), Some(8));
        assert_eq!(spread_of(&out.payload), spread_of(&partial.payload));
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

    /// A failed build answers a typed fault, even when an evicted build
    /// of the same oracle once existed: nothing evicted is ever served.
    #[test]
    #[cfg(debug_assertions)] // arms a failpoint; the sites compile out in release
    fn index_build_failure_answers_a_typed_fault() {
        let _g = soi_util::failpoint::test_guard();
        soi_util::failpoint::clear();
        let engine = engine();
        let tc = Request::TypicalCascade {
            graph: "g".into(),
            source: 1,
            deadline_ticks: None,
        };
        let cold = engine.execute(&tc).expect("first build");
        // Two sketch oracles fill the cap of 2 and evict the index.
        let _ = engine.execute(&sketch_spread_req(None)).expect("sketch");
        let _ = engine.execute(&sketch_spread_req(Some(32))).expect("k=32");
        soi_util::failpoint::install("server.index.build=error").expect("arm");
        let infmax = Request::InfmaxTc {
            graph: "g".into(),
            k: 2,
            deadline_ticks: None,
            backend: BackendKind::Cascade,
            sketch_k: None,
        };
        for req in [&tc, &infmax] {
            let err = engine.execute(req).expect_err("build fails");
            assert!(matches!(err, SoiError::Fault { .. }), "{err}");
        }
        soi_util::failpoint::clear();
        // With the fault gone a fresh build answers as the first did.
        assert_eq!(engine.execute(&tc).expect("fresh"), cold);
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
                backend: BackendKind::Sketch,
                sketch_k: Some(32),
            })
            .expect("capped");
        let progress = capped.partial.expect("partial");
        assert_eq!((progress.done, progress.total), (2, 3));
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
                    backend: BackendKind::Cascade,
                    sketch_k: None,
                })
                .expect("exec");
            let run = Run {
                deadline: protocol::deadline(deadline_ticks),
                checkpoint: None,
                every: 64,
                resume: false,
            };
            let outcome = soi_core::all_typical_cascades_resumable(
                &index,
                &MedianConfig::default(),
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
            let payload =
                protocol::seeds_payload(&cover.seeds, &cover.coverage_curve, BackendKind::Cascade);
            assert_eq!(got, ExecOutput::new(payload, outcome.progress()));
            assert_eq!(got.partial.is_some(), deadline_ticks.is_some());
        }
    }

    /// The sketch twin of [`index_build_failure_answers_a_typed_fault`],
    /// for both requests the sketch backend answers.
    #[test]
    #[cfg(debug_assertions)] // arms a failpoint; the sites compile out in release
    fn sketch_build_failure_answers_a_typed_fault() {
        let _g = soi_util::failpoint::test_guard();
        soi_util::failpoint::clear();
        let engine = engine();
        let spread = |degrade| Request::SpreadEstimate {
            graph: "g".into(),
            seeds: vec![0, 1],
            samples: 64,
            seed: 9,
            deadline_ticks: None,
            degrade,
            backend: BackendKind::Sketch,
            sketch_k: None,
        };
        let cold = engine.execute(&spread(false)).expect("first build");
        // The index and a second sketch size evict the first sketches.
        let _ = engine.index_for("g").expect("index");
        let _ = engine.execute(&sketch_spread_req(Some(32))).expect("k=32");
        soi_util::failpoint::install("server.sketch.build=error").expect("arm");
        let infmax = Request::InfmaxTc {
            graph: "g".into(),
            k: 2,
            deadline_ticks: None,
            backend: BackendKind::Sketch,
            sketch_k: None,
        };
        for req in [spread(false), spread(true), infmax] {
            let err = engine.execute(&req).expect_err("build fails");
            assert!(matches!(err, SoiError::Fault { .. }), "{err}");
        }
        soi_util::failpoint::clear();
        assert_eq!(engine.execute(&spread(true)).expect("fresh"), cold);
    }

    /// The cache is the only owner of a built oracle: once evicted and
    /// released by every request, it is freed.
    #[test]
    fn evicted_oracles_are_freed_once_no_request_holds_them() {
        let _g = soi_util::failpoint::test_guard();
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(7);
        let mut engine = ServerEngine::new(EngineConfig {
            num_worlds: 8,
            seed: 3,
            cache_cap: 1,
            ..EngineConfig::default()
        });
        for name in ["a", "b"] {
            let pg = ProbGraph::fixed(gen::gnm(40, 160, &mut rng), 0.4).expect("graph");
            engine.add_graph(name, pg);
        }
        let index = engine.index_for("a").expect("a");
        let weak = Arc::downgrade(&index);
        drop(index);
        assert!(weak.upgrade().is_some(), "the cache still holds a");
        let _ = engine.index_for("b").expect("b");
        assert!(weak.upgrade().is_none(), "evicting a freed it");
    }
}
