//! The naive reference engine: the v2 server protocol answered by
//! direct recomputation.
//!
//! [`ReferenceEngine`] answers every request the real daemon answers —
//! `typical-cascade`, `spread-estimate` and `infmax-tc` on both
//! backends, the degraded mode, deadlines, and the control verbs — but
//! with none of the serving machinery: no LRU cache, no worker pool, no
//! persisted state. Every compute request
//! rebuilds its cascade index or sketch set from scratch and runs the
//! estimator serially. Slow and obviously correct, it is the executable
//! spec the differential fuzzer diffs the real [`soi_server`] stack
//! against: after masking ([`crate::fuzz`]) the two must agree byte for
//! byte.
//!
//! What it recomputes is what makes it an oracle: a fresh, serial index
//! or sketch set per request, and its own `cascades_of` +
//! `jaccard_median_budgeted` path for a typical cascade. How an answer is
//! stated it takes from the daemon's [`soi_server::protocol`]: payload
//! shapes, node range checks, the deadline rule, control answers and the
//! answer envelope — plus the engine's `infmax-tc` block size, so both
//! cut a budgeted run at the same prefix.
//!
//! Line handling mirrors the daemon exactly: an over-long line answers
//! a typed `oversized-line` error, bytes that are not UTF-8 answer a
//! typed `malformed-json` error, blank lines are skipped, and a parsed
//! `shutdown` stops the stream after its `draining` acknowledgement —
//! the same contract `daemon::run_stdio` implements.

use soi_graph::ProbGraph;
use soi_index::{CascadeIndex, IndexConfig};
use soi_influence::BackendKind;
use soi_jaccard::median::MedianConfig;
use soi_server::engine::TC_BLOCK;
use soi_server::protocol::{self, Request};
use soi_server::{EngineConfig, ExecOutput};
use soi_sketch::{ReachSketches, SketchConfig};
use soi_util::runtime::Run;
use soi_util::{ProtoErrorKind, SoiError};
use std::collections::BTreeMap;

/// One answered line: the response (None for skipped blank lines) and
/// whether the stream stops here (a parsed `shutdown`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LineAnswer {
    /// The encoded response line, without trailing newline.
    pub response: Option<String>,
    /// True after a parsed `shutdown` request: no further lines are
    /// answered, matching `run_stdio` returning.
    pub stop: bool,
}

/// Direct-recomputation reference for the v2 serving protocol.
pub struct ReferenceEngine {
    graphs: BTreeMap<String, ProbGraph>,
    config: EngineConfig,
    max_line: usize,
}

impl ReferenceEngine {
    /// A reference engine sharing the real engine's tuning (worlds,
    /// seed, default sketch k) and line cap — these
    /// define the *answers*, so both sides must agree on them. The
    /// config's cache and thread knobs are ignored: the reference always
    /// recomputes, serially.
    pub fn new(config: EngineConfig, max_line: usize) -> Self {
        ReferenceEngine {
            graphs: BTreeMap::new(),
            config,
            max_line,
        }
    }

    /// Registers a graph under `name`, replacing any previous binding.
    pub fn add_graph(&mut self, name: impl Into<String>, pg: ProbGraph) {
        self.graphs.insert(name.into(), pg);
    }

    /// Answers one raw request line (terminator already stripped),
    /// mirroring the daemon's line handling end to end.
    pub fn answer_line(&self, raw: &[u8]) -> LineAnswer {
        if raw.len() > self.max_line {
            let err = SoiError::protocol(
                ProtoErrorKind::OversizedLine,
                format!("request line exceeds {} bytes", self.max_line),
            );
            return LineAnswer {
                response: Some(protocol::encode_error(None, &err)),
                stop: false,
            };
        }
        let Ok(line) = std::str::from_utf8(raw) else {
            let err = SoiError::protocol(
                ProtoErrorKind::MalformedJson,
                "request line is not valid UTF-8",
            );
            return LineAnswer {
                response: Some(protocol::encode_error(None, &err)),
                stop: false,
            };
        };
        if line.trim().is_empty() {
            return LineAnswer {
                response: None,
                stop: false,
            };
        }
        let envelope = match protocol::parse_request(line) {
            Err(err) => {
                return LineAnswer {
                    response: Some(protocol::encode_rejection(line, &err)),
                    stop: false,
                }
            }
            Ok(envelope) => envelope,
        };
        if envelope.req.is_control() {
            let stop = envelope.req == Request::Shutdown;
            return LineAnswer {
                response: Some(self.control_response(envelope.id, &envelope.req)),
                stop,
            };
        }
        let response = match self.execute(&envelope.req) {
            Ok(out) => protocol::encode_answer(envelope.id, &out.payload, out.partial, 0),
            Err(err) => protocol::encode_error(Some(envelope.id), &err),
        };
        LineAnswer {
            response: Some(response),
            stop: false,
        }
    }

    /// Control verbs, answered as a daemon answers them. The `stats`
    /// payload is a placeholder — live counters are inherently
    /// process-local, so the differential driver compares stats
    /// responses on their envelope only.
    fn control_response(&self, id: u64, req: &Request) -> String {
        let stats = || "\"stats\":\"reference\"".to_string();
        match protocol::daemon_control(req, self.graphs.len(), stats) {
            Ok(payload) => protocol::encode_ok(id, &payload, 0),
            Err(err) => protocol::encode_error(Some(id), &err),
        }
    }

    fn graph(&self, name: &str) -> Result<&ProbGraph, SoiError> {
        self.graphs
            .get(name)
            .ok_or_else(|| protocol::unknown_graph(name))
    }

    /// A fresh cascade index — built serially on every call, never
    /// cached. Serial and pooled builds are byte-identical by the
    /// workspace determinism invariant, so the answers still match a
    /// multi-threaded daemon.
    fn fresh_index(&self, pg: &ProbGraph) -> CascadeIndex {
        CascadeIndex::build(
            pg,
            IndexConfig {
                num_worlds: self.config.num_worlds,
                seed: self.config.seed,
                threads: 1,
                ..IndexConfig::default()
            },
        )
    }

    /// Fresh reachability sketches, same policy as [`Self::fresh_index`].
    fn fresh_sketches(&self, pg: &ProbGraph, k: usize) -> ReachSketches {
        ReachSketches::build(
            pg,
            SketchConfig {
                num_worlds: self.config.num_worlds,
                k,
                seed: self.config.seed,
                threads: 1,
            },
        )
    }

    fn execute(&self, req: &Request) -> Result<ExecOutput, SoiError> {
        match req {
            Request::TypicalCascade {
                graph,
                source,
                deadline_ticks,
                ..
            } => {
                let pg = self.graph(graph)?;
                let index = self.fresh_index(pg);
                protocol::check_nodes("source", &[*source], index.num_nodes())?;
                let deadline = protocol::deadline(*deadline_ticks);
                let samples = index.cascades_of(*source);
                let outcome = soi_jaccard::median::jaccard_median_budgeted(
                    &samples,
                    &MedianConfig::default(),
                    &deadline,
                );
                let fit = outcome.value_ref();
                let payload = protocol::sphere_payload(&fit.median, fit.cost);
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
                let pg = self.graph(graph)?;
                protocol::check_nodes("seed", seeds, pg.num_nodes())?;
                if *backend == BackendKind::Sketch {
                    let k = sketch_k.unwrap_or(self.config.sketch_k);
                    let sk = self.fresh_sketches(pg, k);
                    let spread = sk.set_spread(seeds);
                    let payload = protocol::spread_payload(spread, BackendKind::Sketch);
                    return Ok(ExecOutput::new(payload, None));
                }
                let deadline = protocol::deadline(*deadline_ticks);
                let outcome =
                    soi_sampling::estimate_spread_budgeted(pg, seeds, *samples, *seed, &deadline);
                Ok(ExecOutput::spread(outcome, *degrade))
            }
            Request::InfmaxTc {
                graph,
                k,
                deadline_ticks,
                backend,
                sketch_k,
                ..
            } => {
                let pg = self.graph(graph)?;
                let deadline = protocol::deadline(*deadline_ticks);
                if *backend == BackendKind::Sketch {
                    let sketch_k = sketch_k.unwrap_or(self.config.sketch_k);
                    let sk = self.fresh_sketches(pg, sketch_k);
                    let outcome = soi_sketch::select_seeds(pg, &sk, *k, &deadline);
                    let run = outcome.value_ref();
                    let payload =
                        protocol::seeds_payload(&run.seeds, &run.coverage, BackendKind::Sketch);
                    return Ok(ExecOutput::new(payload, outcome.progress()));
                }
                let index = self.fresh_index(pg);
                let run = Run::new(deadline, None, TC_BLOCK, false);
                let outcome = soi_core::all_typical_cascades_resumable(
                    &index,
                    &MedianConfig::default(),
                    1,
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
                Ok(ExecOutput::new(payload, outcome.progress()))
            }
            control => Err(SoiError::invalid(format!(
                "control request {:?} routed to the reference compute path",
                control.type_name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::gen;
    use soi_obs::report::mask_wall_clock;
    use soi_server::ServerEngine;
    use soi_util::rng::Xoshiro256pp;

    fn pair() -> (ServerEngine, ReferenceEngine) {
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let pg = ProbGraph::fixed(gen::gnm(24, 72, &mut rng), 0.3).expect("graph");
        let config = EngineConfig {
            num_worlds: 12,
            seed: 5,
            sketch_k: 8,
            ..EngineConfig::default()
        };
        let mut real = ServerEngine::new(config);
        real.add_graph("g", pg.clone());
        let mut reference = ReferenceEngine::new(config, protocol::DEFAULT_MAX_LINE);
        reference.add_graph("g", pg);
        (real, reference)
    }

    /// Runs one line through the real stdio daemon and the reference,
    /// asserting masked byte equality.
    fn diff_line(real: &ServerEngine, reference: &ReferenceEngine, line: &str) {
        let mut out = Vec::new();
        let input = format!("{line}\n{}\n", r#"{"v":1,"id":9999,"type":"shutdown"}"#);
        soi_server::run_stdio(
            real,
            protocol::DEFAULT_MAX_LINE,
            &mut input.as_bytes(),
            &mut out,
        )
        .expect("stdio");
        let sut = String::from_utf8(out).expect("utf8");
        let sut_first = sut.lines().next().expect("one response");
        let got = reference.answer_line(line.as_bytes());
        let want = got.response.expect("reference answered");
        assert_eq!(
            mask_wall_clock(sut_first),
            mask_wall_clock(&want),
            "line {line}"
        );
    }

    #[test]
    fn compute_answers_match_the_real_daemon() {
        let _g = soi_util::failpoint::test_guard();
        let (real, reference) = pair();
        for line in [
            r#"{"v":1,"id":1,"type":"typical-cascade","graph":"g","source":3}"#,
            r#"{"v":1,"id":2,"type":"spread-estimate","graph":"g","seeds":[0,1],"samples":16,"seed":7}"#,
            r#"{"v":1,"id":3,"type":"spread-estimate","graph":"g","seeds":[2],"samples":16,"seed":7,"backend":"sketch"}"#,
            r#"{"v":1,"id":4,"type":"infmax-tc","graph":"g","k":2}"#,
            r#"{"v":1,"id":5,"type":"infmax-tc","graph":"g","k":2,"backend":"sketch","sketch_k":4}"#,
            r#"{"v":1,"id":6,"type":"spread-estimate","graph":"g","seeds":[0],"samples":64,"seed":3,"deadline_ticks":8,"degrade":true}"#,
            r#"{"v":1,"id":7,"type":"spread-estimate","graph":"g","seeds":[0],"samples":64,"seed":3,"deadline_ticks":8}"#,
            r#"{"v":1,"id":8,"type":"typical-cascade","graph":"missing","source":0}"#,
            r#"{"v":1,"id":9,"type":"typical-cascade","graph":"g","source":99}"#,
            r#"{"v":1,"id":10,"type":"health"}"#,
            r#"{"v":1,"id":11,"type":"rebalance","graph":"g","shard":0}"#,
            r#"not json"#,
            r#"{"v":7,"id":12,"type":"health"}"#,
        ] {
            diff_line(&real, &reference, line);
        }
    }

    #[test]
    fn line_handling_mirrors_the_daemon() {
        let (_, reference) = pair();
        let blank = reference.answer_line(b"   ");
        assert_eq!(blank.response, None);
        assert!(!blank.stop);
        let shutdown = reference.answer_line(br#"{"v":1,"id":1,"type":"shutdown"}"#);
        assert!(shutdown.stop);
        assert!(shutdown
            .response
            .expect("ack")
            .contains("\"draining\":true"));
        let mut reference = reference;
        reference.max_line = 16;
        let oversized = reference.answer_line(&[b'x'; 32]);
        let resp = oversized.response.expect("typed");
        assert!(
            resp.contains("\"kind\":\"oversized-line\"") && resp.contains("\"id\":null"),
            "{resp}"
        );
        let invalid = reference.answer_line(&[0xff, 0xfe, b'{']);
        let resp = invalid.response.expect("typed");
        assert!(resp.contains("\"kind\":\"malformed-json\""), "{resp}");
    }
}
