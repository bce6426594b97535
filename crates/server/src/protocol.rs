//! The versioned line protocol: request parsing and response encoding.
//!
//! Every request and response is one line of JSON. Requests carry a
//! protocol version `v`, a client-chosen `id` echoed back verbatim, and
//! a `type` selecting the operation. Responses carry `status`
//! (`ok` | `partial` | `error`); wall-clock time appears only in the
//! `wall_ns` field so deterministic-output tests can mask it with
//! `soi_obs::report::mask_wall_clock`.
//!
//! Violations map onto [`ProtoErrorKind`] — a distinct, stable wire code
//! per failure class — so clients can react without parsing free-form
//! messages. See `docs/SERVING.md` for the full message catalogue.

use crate::json::{self, Value};
use soi_graph::NodeId;
use soi_influence::BackendKind;
use soi_util::runtime::{Deadline, Progress};
use soi_util::{ProtoErrorKind, SoiError};
use std::time::Instant;

/// The protocol version this build speaks. Requests must carry
/// `"v":1`; anything else is rejected with `version-mismatch`.
pub const PROTOCOL_VERSION: u64 = 1;

/// Default cap on request-line length (bytes, newline excluded).
pub const DEFAULT_MAX_LINE: usize = 64 * 1024;

/// A parsed request: the echoed `id` plus the operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Client-chosen request id, echoed in the response.
    pub id: u64,
    /// The requested operation.
    pub req: Request,
    /// Opt-in phase tracing: when set on a compute request, the success
    /// response carries the request's phase timeline (`"trace":[…]`).
    pub trace: bool,
}

/// The operations the server understands.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; always answered inline.
    Health,
    /// Server statistics snapshot; always answered inline.
    Stats,
    /// Graceful shutdown: stop accepting, drain in-flight, exit.
    Shutdown,
    /// Router control: move a graph's ownership to another shard. The
    /// single-daemon server answers it with a typed error — only the
    /// router holds a shard map.
    Rebalance {
        /// Name of the graph to move.
        graph: String,
        /// Target shard index within the router's shard list.
        shard: usize,
    },
    /// The typical cascade (sphere of influence) of one source node.
    TypicalCascade {
        /// Name of a loaded graph.
        graph: String,
        /// Source node.
        source: NodeId,
        /// Optional tick budget for the median fit.
        deadline_ticks: Option<u64>,
    },
    /// Monte-Carlo spread estimate of a seed set.
    SpreadEstimate {
        /// Name of a loaded graph.
        graph: String,
        /// Seed set (all active at time 0).
        seeds: Vec<NodeId>,
        /// Number of Monte-Carlo samples.
        samples: usize,
        /// RNG seed for the estimate.
        seed: u64,
        /// Optional tick budget (one tick per sample).
        deadline_ticks: Option<u64>,
        /// Opt-in graceful degradation (answer with a reduced sample
        /// count under deadline pressure rather than go partial). Only
        /// the cascade backend degrades; the sketch backend ignores it.
        degrade: bool,
        /// Spread-oracle backend (`"backend"` field; default cascade —
        /// Monte-Carlo sampling; `"sketch"` answers from warm bottom-k
        /// sketches, ignoring `samples`/`seed`).
        backend: BackendKind,
        /// Sketch size `k` override for the sketch backend (`None` =
        /// the server's `--sketch-k` default).
        sketch_k: Option<usize>,
    },
    /// `InfMax_TC`: greedy max-cover seed selection over spheres.
    InfmaxTc {
        /// Name of a loaded graph.
        graph: String,
        /// Number of seeds to select.
        k: usize,
        /// Optional tick budget (one tick per node solved).
        deadline_ticks: Option<u64>,
        /// Spread-oracle backend (default cascade — `InfMax_TC` max
        /// cover; `"sketch"` runs SKIM-style greedy over the sketches).
        backend: BackendKind,
        /// Sketch size `k` override for the sketch backend.
        sketch_k: Option<usize>,
    },
}

impl Request {
    /// Control requests are answered by the connection thread itself and
    /// never enter the compute queue, so `health`/`stats`/`shutdown`
    /// stay responsive while workers are saturated.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Request::Health | Request::Stats | Request::Shutdown | Request::Rebalance { .. }
        )
    }

    /// The graph a compute request targets (`None` for controls). The
    /// router's shard map keys off this.
    pub fn graph(&self) -> Option<&str> {
        match self {
            Request::TypicalCascade { graph, .. }
            | Request::SpreadEstimate { graph, .. }
            | Request::InfmaxTc { graph, .. } => Some(graph),
            _ => None,
        }
    }

    /// The wire name of this request's type.
    pub fn type_name(&self) -> &'static str {
        match self {
            Request::Health => "health",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
            Request::Rebalance { .. } => "rebalance",
            Request::TypicalCascade { .. } => "typical-cascade",
            Request::SpreadEstimate { .. } => "spread-estimate",
            Request::InfmaxTc { .. } => "infmax-tc",
        }
    }
}

fn proto(kind: ProtoErrorKind, message: impl Into<String>) -> SoiError {
    SoiError::protocol(kind, message)
}

fn req_str(obj: &Value, key: &str) -> Result<String, SoiError> {
    obj.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| {
            proto(
                ProtoErrorKind::BadField,
                format!("missing string field {key:?}"),
            )
        })
}

fn req_u64(obj: &Value, key: &str) -> Result<u64, SoiError> {
    obj.get(key).and_then(Value::as_u64).ok_or_else(|| {
        proto(
            ProtoErrorKind::BadField,
            format!("missing non-negative integer field {key:?}"),
        )
    })
}

fn opt_u64(obj: &Value, key: &str) -> Result<Option<u64>, SoiError> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            proto(
                ProtoErrorKind::BadField,
                format!("field {key:?} must be a non-negative integer"),
            )
        }),
    }
}

fn opt_bool(obj: &Value, key: &str) -> Result<bool, SoiError> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(false),
        Some(v) => v.as_bool().ok_or_else(|| {
            proto(
                ProtoErrorKind::BadField,
                format!("field {key:?} must be a boolean"),
            )
        }),
    }
}

fn opt_str(obj: &Value, key: &str) -> Result<Option<String>, SoiError> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v.as_str().map(|s| Some(s.to_string())).ok_or_else(|| {
            proto(
                ProtoErrorKind::BadField,
                format!("field {key:?} must be a string"),
            )
        }),
    }
}

/// Parses the optional `backend` / `sketch_k` pair shared by the compute
/// requests that dispatch between spread-oracle backends.
fn opt_backend(obj: &Value) -> Result<(BackendKind, Option<usize>), SoiError> {
    let backend = match opt_str(obj, "backend")? {
        None => BackendKind::default(),
        Some(name) => BackendKind::parse(&name).ok_or_else(|| {
            proto(
                ProtoErrorKind::BadField,
                format!("unknown backend {name:?} (cascade|sketch)"),
            )
        })?,
    };
    let sketch_k = match opt_u64(obj, "sketch_k")? {
        None => None,
        Some(0) => return Err(proto(ProtoErrorKind::BadField, "sketch_k must be >= 1")),
        Some(k) if k > soi_sketch::MAX_K as u64 => {
            return Err(proto(
                ProtoErrorKind::BadField,
                format!("sketch_k must be <= {}", soi_sketch::MAX_K),
            ))
        }
        Some(k) => Some(k as usize),
    };
    Ok((backend, sketch_k))
}

fn req_nodes(obj: &Value, key: &str) -> Result<Vec<NodeId>, SoiError> {
    let arr = obj.get(key).and_then(Value::as_arr).ok_or_else(|| {
        proto(
            ProtoErrorKind::BadField,
            format!("missing array field {key:?}"),
        )
    })?;
    arr.iter()
        .map(|v| {
            v.as_u64()
                .filter(|&n| n <= u64::from(u32::MAX))
                .map(|n| n as NodeId)
                .ok_or_else(|| {
                    proto(
                        ProtoErrorKind::BadField,
                        format!("field {key:?} must hold node ids"),
                    )
                })
        })
        .collect()
}

/// Envelope fields every request may carry.
const COMMON_KEYS: [&str; 4] = ["v", "id", "type", "trace"];

/// The fields each request type accepts beyond [`COMMON_KEYS`]. The
/// request table in docs/SERVING.md is checked against this one.
const TYPE_FIELDS: [(&str, &[&str]); 7] = [
    ("health", &[]),
    ("stats", &[]),
    ("shutdown", &[]),
    ("rebalance", &["graph", "shard"]),
    (
        "typical-cascade",
        &["graph", "source", "deadline_ticks", "degrade"],
    ),
    (
        "spread-estimate",
        &[
            "graph",
            "seeds",
            "samples",
            "seed",
            "deadline_ticks",
            "degrade",
            "backend",
            "sketch_k",
        ],
    ),
    (
        "infmax-tc",
        &[
            "graph",
            "k",
            "deadline_ticks",
            "degrade",
            "backend",
            "sketch_k",
        ],
    ),
];

/// Rejects fields outside the request type's schema. A misspelled
/// field silently ignored would make the request mean something other
/// than the client intended (e.g. `dedline_ticks` running unbounded),
/// so unknown keys are a typed `bad-field` naming the offender.
fn check_known_fields(obj: &Value, type_name: &str) -> Result<(), SoiError> {
    // Unknown types get their own typed error in the dispatch below.
    let Some((_, extra)) = TYPE_FIELDS.iter().find(|(name, _)| *name == type_name) else {
        return Ok(());
    };
    if let Some(map) = obj.as_obj() {
        for key in map.keys() {
            if !COMMON_KEYS.contains(&key.as_str()) && !extra.contains(&key.as_str()) {
                return Err(proto(
                    ProtoErrorKind::BadField,
                    format!("unknown field {key:?} for request type {type_name:?}"),
                ));
            }
        }
    }
    Ok(())
}

/// Parses one request line. Errors carry the [`ProtoErrorKind`] the
/// response should report.
pub fn parse_request(line: &str) -> Result<Envelope, SoiError> {
    let doc = json::parse(line).map_err(|e| proto(ProtoErrorKind::MalformedJson, e))?;
    if doc.as_obj().is_none() {
        return Err(proto(
            ProtoErrorKind::MalformedJson,
            "request is not an object",
        ));
    }
    let version = req_u64(&doc, "v").map_err(|_| {
        proto(
            ProtoErrorKind::VersionMismatch,
            "missing protocol version field v",
        )
    })?;
    if version != PROTOCOL_VERSION {
        return Err(proto(
            ProtoErrorKind::VersionMismatch,
            format!("protocol version {version} (this server speaks {PROTOCOL_VERSION})"),
        ));
    }
    let id = req_u64(&doc, "id")?;
    let type_name = req_str(&doc, "type")
        .map_err(|_| proto(ProtoErrorKind::UnknownType, "missing type field"))?;
    check_known_fields(&doc, &type_name)?;
    let req = match type_name.as_str() {
        "health" => Request::Health,
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        "rebalance" => Request::Rebalance {
            graph: req_str(&doc, "graph")?,
            shard: req_u64(&doc, "shard")? as usize,
        },
        "typical-cascade" => {
            let req = Request::TypicalCascade {
                graph: req_str(&doc, "graph")?,
                source: req_u64(&doc, "source")?
                    .try_into()
                    .map_err(|_| proto(ProtoErrorKind::BadField, "source exceeds u32"))?,
                deadline_ticks: opt_u64(&doc, "deadline_ticks")?,
            };
            // `degrade` means something only to `spread-estimate`; the
            // other compute types accept it, type-checked, and drop it.
            opt_bool(&doc, "degrade")?;
            req
        }
        "spread-estimate" => {
            let samples = req_u64(&doc, "samples")? as usize;
            if samples == 0 {
                return Err(proto(ProtoErrorKind::BadField, "samples must be >= 1"));
            }
            let (backend, sketch_k) = opt_backend(&doc)?;
            Request::SpreadEstimate {
                graph: req_str(&doc, "graph")?,
                seeds: req_nodes(&doc, "seeds")?,
                samples,
                seed: opt_u64(&doc, "seed")?.unwrap_or(0),
                deadline_ticks: opt_u64(&doc, "deadline_ticks")?,
                degrade: opt_bool(&doc, "degrade")?,
                backend,
                sketch_k,
            }
        }
        "infmax-tc" => {
            let k = req_u64(&doc, "k")? as usize;
            if k == 0 {
                return Err(proto(ProtoErrorKind::BadField, "k must be >= 1"));
            }
            let (backend, sketch_k) = opt_backend(&doc)?;
            let req = Request::InfmaxTc {
                graph: req_str(&doc, "graph")?,
                k,
                deadline_ticks: opt_u64(&doc, "deadline_ticks")?,
                backend,
                sketch_k,
            };
            opt_bool(&doc, "degrade")?;
            req
        }
        other => {
            return Err(proto(
                ProtoErrorKind::UnknownType,
                format!("unknown request type {other:?}"),
            ))
        }
    };
    let trace = opt_bool(&doc, "trace")?;
    Ok(Envelope { id, req, trace })
}

/// The client-chosen `id` of a request line: `Some` when the line is a
/// JSON object with a non-negative integer `id`, whatever else is wrong
/// with it.
pub(crate) fn request_id(line: &str) -> Option<u64> {
    json::parse(line).ok()?.get("id")?.as_u64()
}

/// The error answer to a line [`parse_request`] rejected. It echoes the
/// line's `id` when the line is a JSON object with a non-negative integer
/// `id` and is `"id":null` otherwise. The line is parsed again only here,
/// on the error path.
pub fn encode_rejection(line: &str, error: &SoiError) -> String {
    encode_error(request_id(line), error)
}

/// Answers one framed request line, the way every front-end does. A
/// line that does not parse is a typed error ([`encode_rejection`]). A
/// control request is answered by `control` — the payload fragment, or a
/// typed error — and encoded here with the wall time measured here.
/// Anything else goes to `compute` with the instant the line was taken
/// up. The flag reports a `shutdown`; what that means is the front-end's
/// call.
pub(crate) fn dispatch(
    line: &str,
    control: impl FnOnce(&Request) -> Result<String, SoiError>,
    compute: impl FnOnce(Envelope, Instant) -> String,
) -> (String, bool) {
    let started = Instant::now();
    match parse_request(line) {
        Err(err) => (encode_rejection(line, &err), false),
        Ok(envelope) if envelope.req.is_control() => {
            let response = match control(&envelope.req) {
                Ok(payload) => encode_ok(envelope.id, &payload, crate::trace::elapsed_ns(started)),
                Err(err) => encode_error(Some(envelope.id), &err),
            };
            (response, envelope.req == Request::Shutdown)
        }
        Ok(envelope) => (compute(envelope, started), false),
    }
}

/// A field-less control request line (`health`, `stats`, `shutdown`).
pub(crate) fn control_line(id: u64, type_name: &str) -> String {
    format!("{{\"v\":{PROTOCOL_VERSION},\"id\":{id},\"type\":\"{type_name}\"}}")
}

/// Encodes a complete success response. `payload` is a pre-encoded JSON
/// fragment (`"key":value,...`) or empty.
pub fn encode_ok(id: u64, payload: &str, wall_ns: u64) -> String {
    if payload.is_empty() {
        format!("{{\"v\":{PROTOCOL_VERSION},\"id\":{id},\"status\":\"ok\",\"wall_ns\":{wall_ns}}}")
    } else {
        format!(
            "{{\"v\":{PROTOCOL_VERSION},\"id\":{id},\"status\":\"ok\",{payload},\"wall_ns\":{wall_ns}}}"
        )
    }
}

/// Encodes a partial (deadline-limited) response: the payload covers the
/// completed prefix of work, `done`/`total` say how much that was.
pub fn encode_partial(id: u64, payload: &str, done: u64, total: u64, wall_ns: u64) -> String {
    format!(
        "{{\"v\":{PROTOCOL_VERSION},\"id\":{id},\"status\":\"partial\",\"reason\":\"deadline-expired\",\
         \"done\":{done},\"total\":{total},{payload},\"wall_ns\":{wall_ns}}}"
    )
}

/// Encodes a compute answer: [`encode_ok`] when the payload covers all
/// of the work, [`encode_partial`] when a deadline cut it to `partial`.
pub fn encode_answer(id: u64, payload: &str, partial: Option<Progress>, wall_ns: u64) -> String {
    match partial {
        None => encode_ok(id, payload, wall_ns),
        Some(p) => encode_partial(id, payload, p.done, p.total, wall_ns),
    }
}

/// The tick budget a request's `deadline_ticks` asks for: absent or 0
/// is unlimited.
pub fn deadline(requested: Option<u64>) -> Deadline {
    match requested {
        None | Some(0) => Deadline::unlimited(),
        Some(ticks) => Deadline::ticks(ticks),
    }
}

/// The typed error for a request naming a graph that is not loaded.
pub fn unknown_graph(name: &str) -> SoiError {
    proto(
        ProtoErrorKind::UnknownGraph,
        format!("graph {name:?} is not loaded"),
    )
}

/// Checks the nodes a request names in `field` (`source`, `seed`)
/// against a graph of `num_nodes` nodes: the first one out of range is a
/// typed `bad-field`.
pub fn check_nodes(field: &str, nodes: &[NodeId], num_nodes: usize) -> Result<(), SoiError> {
    match nodes.iter().find(|&&v| v as usize >= num_nodes) {
        None => Ok(()),
        Some(bad) => Err(proto(
            ProtoErrorKind::BadField,
            format!("{field} {bad} out of range (graph has {num_nodes} nodes)"),
        )),
    }
}

/// A daemon's answer to a control request: `health` counts the `graphs`
/// loaded, `stats` is `stats()`, `shutdown` acknowledges the drain, and
/// `rebalance` is refused — only the router holds a shard map.
pub fn daemon_control(
    req: &Request,
    graphs: usize,
    stats: impl FnOnce() -> String,
) -> Result<String, SoiError> {
    match req {
        Request::Health => Ok(format!("\"ok\":true,\"graphs\":{graphs}")),
        Request::Stats => Ok(stats()),
        Request::Shutdown => Ok("\"draining\":true".to_string()),
        Request::Rebalance { .. } => Err(proto(
            ProtoErrorKind::BadField,
            "rebalance is a router control; this daemon holds no shard map",
        )),
        _ => Err(proto(ProtoErrorKind::BadField, "not a control request")),
    }
}

/// `typical-cascade`'s payload: the sphere and its Jaccard cost.
pub fn sphere_payload(sphere: &[NodeId], cost: f64) -> String {
    format!(
        "\"sphere\":{},\"cost\":{}",
        encode_nodes(sphere),
        json::fmt_num(cost)
    )
}

/// `spread-estimate`'s payload; a sketch answer names its backend.
pub fn spread_payload(spread: f64, backend: BackendKind) -> String {
    format!(
        "\"spread\":{}{}",
        json::fmt_num(spread),
        backend_suffix(backend)
    )
}

/// A degraded cascade `spread-estimate`'s payload: the mean over the
/// `samples_used` samples the deadline afforded, labelled as reduced.
pub fn degraded_spread_payload(spread: f64, samples_used: u64) -> String {
    format!(
        "\"spread\":{},\"samples_used\":{samples_used},\"degraded\":true,\"degraded_mode\":\"reduced-samples\"",
        json::fmt_num(spread)
    )
}

/// `infmax-tc`'s payload: the seeds in selection order and the coverage
/// after each; a sketch answer names its backend.
pub fn seeds_payload(seeds: &[NodeId], coverage: &[f64], backend: BackendKind) -> String {
    let coverage: Vec<String> = coverage.iter().map(|&c| json::fmt_num(c)).collect();
    format!(
        "\"seeds\":{},\"coverage\":[{}]{}",
        encode_nodes(seeds),
        coverage.join(","),
        backend_suffix(backend)
    )
}

/// The payload field naming a non-default backend.
fn backend_suffix(backend: BackendKind) -> &'static str {
    match backend {
        BackendKind::Cascade => "",
        BackendKind::Sketch => ",\"backend\":\"sketch\"",
    }
}

fn encode_nodes(nodes: &[NodeId]) -> String {
    let items: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// Encodes an error response. `id` is `None` when the request never
/// parsed far enough to recover one (encoded as `"id":null`).
pub fn encode_error(id: Option<u64>, error: &SoiError) -> String {
    let (kind, message) = match error {
        SoiError::Protocol { kind, message } => (kind.code(), message.clone()),
        // Injected faults surface as retryable server-side failures, not
        // as a client mistake.
        fault @ SoiError::Fault { .. } => (ProtoErrorKind::Internal.code(), fault.to_string()),
        other => (ProtoErrorKind::BadField.code(), other.to_string()),
    };
    let id = id.map_or_else(|| "null".to_string(), |id| id.to_string());
    format!(
        "{{\"v\":{PROTOCOL_VERSION},\"id\":{id},\"status\":\"error\",\"error\":{{\"kind\":\"{kind}\",\"message\":\"{}\"}}}}",
        json::escape(&message)
    )
}

/// Checks that a received line is a response of this protocol version:
/// a JSON object whose `v` is [`PROTOCOL_VERSION`]. A JSON object with a
/// different (or no) version is **protocol skew**, and the typed
/// `protocol-mismatch` names both versions, so a client talking to a
/// newer/older daemon gets a diagnosis instead of a generic parse
/// failure. A line that is no JSON object at all is the same typed
/// error — whatever answered does not speak this protocol, and neither
/// the client nor the router passes its bytes on.
pub fn check_response_version(line: &str) -> Result<(), SoiError> {
    let doc = json::parse(line).ok().filter(|doc| doc.as_obj().is_some());
    let Some(doc) = doc else {
        return Err(proto(
            ProtoErrorKind::ProtocolMismatch,
            format!("peer response is not a protocol line (this side speaks version {PROTOCOL_VERSION})"),
        ));
    };
    match doc.get("v").and_then(Value::as_u64) {
        Some(v) if v == PROTOCOL_VERSION => Ok(()),
        Some(v) => Err(proto(
            ProtoErrorKind::ProtocolMismatch,
            format!("peer speaks protocol version {v} (this side speaks {PROTOCOL_VERSION})"),
        )),
        None => Err(proto(
            ProtoErrorKind::ProtocolMismatch,
            format!("peer response has no protocol version (this side speaks {PROTOCOL_VERSION})"),
        )),
    }
}

/// The control-plane acceptance test: `line` parsed, when it is a JSON
/// object carrying this protocol version and `"status":"ok"`. Stricter
/// than [`check_response_version`] on purpose — a peer that answers a
/// `health` or `stats` poll with garbage is not a peer.
pub(crate) fn parse_ok_response(line: &str) -> Option<Value> {
    let doc = json::parse(line).ok()?;
    let ok = doc.get("v").and_then(Value::as_u64) == Some(PROTOCOL_VERSION)
        && doc.get("status").and_then(Value::as_str) == Some("ok");
    ok.then_some(doc)
}

/// Encodes the structured `queue-full` rejection: the generic error
/// shape plus load-shedding detail — the queue depth observed at
/// rejection and a deterministic retry hint
/// ([`soi_util::backoff::retry_after_ticks`]). v1-compatible: only
/// fields are added, the `kind`/`message` contract is unchanged.
pub fn encode_queue_full(id: u64, queue_depth: usize, retry_after_ticks: u64) -> String {
    format!(
        "{{\"v\":{PROTOCOL_VERSION},\"id\":{id},\"status\":\"error\",\"error\":{{\"kind\":\"queue-full\",\
         \"message\":\"request queue is full; retry later\",\"queue_depth\":{queue_depth},\
         \"retry_after_ticks\":{retry_after_ticks}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind_of(err: SoiError) -> ProtoErrorKind {
        match err {
            SoiError::Protocol { kind, .. } => kind,
            other => panic!("not a protocol error: {other}"),
        }
    }

    #[test]
    fn parses_every_request_type() {
        let e = parse_request(r#"{"v":1,"id":1,"type":"health"}"#).expect("health");
        assert_eq!(e.req, Request::Health);
        assert!(e.req.is_control());
        let e = parse_request(r#"{"v":1,"id":2,"type":"typical-cascade","graph":"g","source":5}"#)
            .expect("tc");
        assert_eq!(e.id, 2);
        assert!(!e.req.is_control());
        assert_eq!(e.req.type_name(), "typical-cascade");
        let e = parse_request(
            r#"{"v":1,"id":3,"type":"spread-estimate","graph":"g","seeds":[0,1],"samples":8,"seed":9,"deadline_ticks":4}"#,
        )
        .expect("spread");
        assert_eq!(
            e.req,
            Request::SpreadEstimate {
                graph: "g".into(),
                seeds: vec![0, 1],
                samples: 8,
                seed: 9,
                deadline_ticks: Some(4),
                degrade: false,
                backend: BackendKind::Cascade,
                sketch_k: None,
            }
        );
        let e = parse_request(r#"{"v":1,"id":4,"type":"infmax-tc","graph":"g","k":3}"#)
            .expect("infmax");
        assert_eq!(e.req.type_name(), "infmax-tc");
    }

    #[test]
    fn degrade_field_is_optional_and_boolean() {
        let e = parse_request(
            r#"{"v":1,"id":5,"type":"spread-estimate","graph":"g","seeds":[0],"samples":4,"degrade":true}"#,
        )
        .expect("degrade");
        assert!(matches!(
            e.req,
            Request::SpreadEstimate { degrade: true, .. }
        ));
        let e = parse_request(
            r#"{"v":1,"id":6,"type":"typical-cascade","graph":"g","source":0,"degrade":false}"#,
        )
        .expect("explicit false");
        assert!(matches!(e.req, Request::TypicalCascade { .. }));
        let k = kind_of(
            parse_request(r#"{"v":1,"id":7,"type":"infmax-tc","graph":"g","k":1,"degrade":1}"#)
                .expect_err("non-boolean degrade"),
        );
        assert_eq!(k, ProtoErrorKind::BadField);
    }

    #[test]
    fn backend_field_selects_the_oracle() {
        // Absent: cascade default on both dispatching requests.
        let e = parse_request(
            r#"{"v":1,"id":20,"type":"spread-estimate","graph":"g","seeds":[0],"samples":4}"#,
        )
        .expect("default");
        assert!(matches!(
            e.req,
            Request::SpreadEstimate {
                backend: BackendKind::Cascade,
                sketch_k: None,
                ..
            }
        ));
        // Explicit sketch selection with a k override.
        let e = parse_request(
            r#"{"v":1,"id":21,"type":"infmax-tc","graph":"g","k":2,"backend":"sketch","sketch_k":32}"#,
        )
        .expect("sketch");
        assert!(matches!(
            e.req,
            Request::InfmaxTc {
                backend: BackendKind::Sketch,
                sketch_k: Some(32),
                ..
            }
        ));
        // Unknown backend names and zero k are typed bad-field errors.
        let k = kind_of(
            parse_request(
                r#"{"v":1,"id":22,"type":"spread-estimate","graph":"g","seeds":[0],"samples":4,"backend":"voodoo"}"#,
            )
            .expect_err("unknown backend"),
        );
        assert_eq!(k, ProtoErrorKind::BadField);
        let k = kind_of(
            parse_request(
                r#"{"v":1,"id":23,"type":"infmax-tc","graph":"g","k":2,"backend":"sketch","sketch_k":0}"#,
            )
            .expect_err("zero sketch_k"),
        );
        assert_eq!(k, ProtoErrorKind::BadField);
        // The cap is accepted, one past it is refused before any build.
        let at_cap = format!(
            r#"{{"v":1,"id":25,"type":"infmax-tc","graph":"g","k":2,"backend":"sketch","sketch_k":{}}}"#,
            soi_sketch::MAX_K
        );
        assert!(parse_request(&at_cap).is_ok());
        let past_cap = at_cap.replace(
            &soi_sketch::MAX_K.to_string(),
            &(soi_sketch::MAX_K + 1).to_string(),
        );
        let k = kind_of(parse_request(&past_cap).expect_err("oversize sketch_k"));
        assert_eq!(k, ProtoErrorKind::BadField);
        let k = kind_of(
            parse_request(r#"{"v":1,"id":24,"type":"infmax-tc","graph":"g","k":2,"backend":7}"#)
                .expect_err("non-string backend"),
        );
        assert_eq!(k, ProtoErrorKind::BadField);
    }

    #[test]
    fn trace_field_is_optional_and_boolean() {
        let e = parse_request(
            r#"{"v":1,"id":8,"type":"typical-cascade","graph":"g","source":0,"trace":true}"#,
        )
        .expect("trace on");
        assert!(e.trace);
        let e = parse_request(r#"{"v":1,"id":9,"type":"health"}"#).expect("default");
        assert!(!e.trace);
        let k = kind_of(
            parse_request(r#"{"v":1,"id":10,"type":"health","trace":"yes"}"#)
                .expect_err("non-boolean trace"),
        );
        assert_eq!(k, ProtoErrorKind::BadField);
    }

    #[test]
    fn violations_map_to_distinct_kinds() {
        let k = kind_of(parse_request("{not json").expect_err("malformed"));
        assert_eq!(k, ProtoErrorKind::MalformedJson);
        let k = kind_of(parse_request(r#"{"v":2,"id":1,"type":"health"}"#).expect_err("version"));
        assert_eq!(k, ProtoErrorKind::VersionMismatch);
        let k = kind_of(parse_request(r#"{"id":1,"type":"health"}"#).expect_err("no version"));
        assert_eq!(k, ProtoErrorKind::VersionMismatch);
        let k = kind_of(parse_request(r#"{"v":1,"id":1,"type":"sigmoid"}"#).expect_err("type"));
        assert_eq!(k, ProtoErrorKind::UnknownType);
        let k = kind_of(
            parse_request(r#"{"v":1,"id":1,"type":"infmax-tc","graph":"g","k":0}"#)
                .expect_err("k=0"),
        );
        assert_eq!(k, ProtoErrorKind::BadField);
        let k = kind_of(
            parse_request(
                r#"{"v":1,"id":1,"type":"spread-estimate","graph":"g","seeds":[-1],"samples":2}"#,
            )
            .expect_err("negative node"),
        );
        assert_eq!(k, ProtoErrorKind::BadField);
    }

    #[test]
    fn unknown_fields_are_typed_bad_field_errors() {
        // A misspelled optional field must not be silently ignored.
        let err = parse_request(
            r#"{"v":1,"id":1,"type":"typical-cascade","graph":"g","source":0,"dedline_ticks":4}"#,
        )
        .expect_err("misspelled field");
        let SoiError::Protocol { kind, message } = &err else {
            panic!("not protocol: {err}");
        };
        assert_eq!(*kind, ProtoErrorKind::BadField);
        assert!(message.contains("dedline_ticks"), "{message}");
        let k = kind_of(
            parse_request(r#"{"v":1,"id":2,"type":"health","graph":"g"}"#)
                .expect_err("controls take no fields"),
        );
        assert_eq!(k, ProtoErrorKind::BadField);
        // Every schema field is still accepted.
        parse_request(
            r#"{"v":1,"id":3,"type":"spread-estimate","graph":"g","seeds":[0],"samples":4,"seed":1,"deadline_ticks":9,"degrade":true,"backend":"sketch","sketch_k":8,"trace":true}"#,
        )
        .expect("full schema");
    }

    /// docs/SERVING.md's request table, row by row, lists exactly what
    /// the parser accepts: every request type, and for each the fields of
    /// [`TYPE_FIELDS`] plus the optional envelope field `trace` (`v`,
    /// `id` and `type` are stated once above the table).
    #[test]
    fn serving_doc_request_table_matches_the_field_whitelist() {
        let doc = include_str!("../../../docs/SERVING.md");
        let table: Vec<&str> = doc
            .lines()
            .skip_while(|l| !l.starts_with("| type | fields |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .collect();
        let ticked = |cell: &str| -> Vec<String> {
            cell.split('`')
                .skip(1)
                .step_by(2)
                .map(|f| f.trim_end_matches('?').to_string())
                .collect()
        };
        let mut documented = Vec::new();
        for row in table {
            let cells: Vec<&str> = row.split('|').collect();
            let type_name = ticked(cells[1]).remove(0);
            let mut fields = ticked(cells[2]);
            fields.sort();
            let (_, extra) = TYPE_FIELDS
                .iter()
                .find(|(name, _)| *name == type_name)
                .unwrap_or_else(|| panic!("doc row for unknown type {type_name:?}"));
            let mut accepted: Vec<String> = extra.iter().map(|f| f.to_string()).collect();
            accepted.push("trace".to_string());
            accepted.sort();
            assert_eq!(fields, accepted, "fields of the {type_name:?} row");
            documented.push(type_name);
        }
        let known: Vec<&str> = TYPE_FIELDS.iter().map(|(name, _)| *name).collect();
        assert_eq!(documented, known, "one row per request type, in order");
    }

    #[test]
    fn responses_have_stable_shape() {
        assert_eq!(
            encode_ok(7, "\"spread\":2.5", 981),
            "{\"v\":1,\"id\":7,\"status\":\"ok\",\"spread\":2.5,\"wall_ns\":981}"
        );
        assert_eq!(
            encode_partial(7, "\"spread\":1.5", 3, 8, 44),
            "{\"v\":1,\"id\":7,\"status\":\"partial\",\"reason\":\"deadline-expired\",\"done\":3,\"total\":8,\"spread\":1.5,\"wall_ns\":44}"
        );
        let err = SoiError::protocol(ProtoErrorKind::QueueFull, "cap 2 reached");
        assert_eq!(
            encode_error(Some(7), &err),
            "{\"v\":1,\"id\":7,\"status\":\"error\",\"error\":{\"kind\":\"queue-full\",\"message\":\"cap 2 reached\"}}"
        );
        assert!(encode_error(None, &err).contains("\"id\":null"));
    }

    #[test]
    fn queue_full_rejection_is_structured() {
        let line = encode_queue_full(3, 8, 32);
        assert_eq!(
            line,
            "{\"v\":1,\"id\":3,\"status\":\"error\",\"error\":{\"kind\":\"queue-full\",\
             \"message\":\"request queue is full; retry later\",\"queue_depth\":8,\
             \"retry_after_ticks\":32}}"
        );
        // The added fields are machine-readable through the client's
        // own parser (v1 compatibility: shape extended, not changed).
        let doc = json::parse(&line).expect("parse");
        let err = doc.get("error").expect("error object");
        assert_eq!(err.get("queue_depth").and_then(Value::as_u64), Some(8));
        assert_eq!(
            err.get("retry_after_ticks").and_then(Value::as_u64),
            Some(32)
        );
    }

    #[test]
    fn rebalance_is_a_control_request() {
        let e = parse_request(r#"{"v":1,"id":11,"type":"rebalance","graph":"net","shard":2}"#)
            .expect("rebalance");
        assert!(e.req.is_control());
        assert_eq!(e.req.type_name(), "rebalance");
        assert_eq!(
            e.req,
            Request::Rebalance {
                graph: "net".into(),
                shard: 2,
            }
        );
        let k = kind_of(
            parse_request(r#"{"v":1,"id":12,"type":"rebalance","graph":"net"}"#)
                .expect_err("missing shard"),
        );
        assert_eq!(k, ProtoErrorKind::BadField);
    }

    #[test]
    fn response_version_check_diagnoses_skew() {
        assert!(check_response_version(&encode_ok(1, "", 5)).is_ok());
        let err = SoiError::protocol(ProtoErrorKind::QueueFull, "m");
        assert!(check_response_version(&encode_error(Some(1), &err)).is_ok());
        // Wrong version: typed mismatch naming both versions.
        let skew =
            check_response_version(r#"{"v":2,"id":1,"status":"ok"}"#).expect_err("version 2");
        let SoiError::Protocol { kind, message } = &skew else {
            panic!("not protocol: {skew}");
        };
        assert_eq!(*kind, ProtoErrorKind::ProtocolMismatch);
        assert!(
            message.contains("version 2") && message.contains('1'),
            "{message}"
        );
        // JSON object with no version at all: also skew.
        let skew = check_response_version(r#"{"id":1,"status":"ok"}"#).expect_err("no v");
        assert!(matches!(
            skew,
            SoiError::Protocol {
                kind: ProtoErrorKind::ProtocolMismatch,
                ..
            }
        ));
        // Not a JSON object: not this protocol either.
        for garbage in ["not json at all", "[1,2,3]", ""] {
            let err = check_response_version(garbage).expect_err("garbage");
            assert!(matches!(
                err,
                SoiError::Protocol {
                    kind: ProtoErrorKind::ProtocolMismatch,
                    ..
                }
            ));
        }
        // The control plane is stricter: only a version-correct ok counts.
        assert!(parse_ok_response(&encode_ok(1, "", 5)).is_some());
        let typed_error = encode_error(Some(1), &err);
        let skewed = r#"{"v":2,"id":1,"status":"ok"}"#;
        for bad in [&typed_error, skewed, "not json at all", "[1,2,3]", ""] {
            assert!(parse_ok_response(bad).is_none(), "{bad:?}");
        }
        assert_eq!(control_line(7, "stats"), r#"{"v":1,"id":7,"type":"stats"}"#);
    }

    #[test]
    fn injected_faults_encode_as_internal_error() {
        let err = SoiError::Fault {
            site: "server.index.build".into(),
        };
        let line = encode_error(Some(4), &err);
        assert!(line.contains("\"kind\":\"internal-error\""), "{line}");
        assert!(line.contains("server.index.build"), "{line}");
    }

    #[test]
    fn masked_ok_responses_are_deterministic() {
        let a = soi_obs::report::mask_wall_clock(&encode_ok(1, "\"spread\":2.5", 12345));
        let b = soi_obs::report::mask_wall_clock(&encode_ok(1, "\"spread\":2.5", 99999));
        assert_eq!(a, b);
        assert!(a.ends_with("\"wall_ns\":0}"));
    }
}
