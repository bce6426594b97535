//! The shard router: a front-end daemon that fans queries out over a
//! fleet of `soi serve` worker daemons.
//!
//! `soi route` binds a TCP port speaking the exact same versioned
//! line-delimited JSON protocol as a single daemon — clients cannot
//! tell the difference, and `soi query`/`soi stats` work unchanged.
//! Behind the front door, graph names are consistent-hashed onto shards
//! ([`shard::ShardMap`]) and each compute request is relayed verbatim
//! to one replica of the owning shard, so the shard's answer bytes are
//! the answer bytes (byte-identical convergence is inherited, not
//! reimplemented).
//!
//! The robustness surface:
//!
//! * **Replica failover** — a connect failure, mid-request EOF, or
//!   version-skewed answer marks the replica unhealthy and the request
//!   is retried on the next replica (capped deterministic backoff,
//!   [`soi_util::backoff::delay_with_hint`]). Health is advisory:
//!   dark replicas are probed last, never abandoned, so a respawned
//!   daemon heals the fabric.
//! * **Typed `shard-unavailable`** — when the retry budget is spent
//!   with every replica of the owning shard down, the client gets a
//!   typed error naming the shard, never a hang or a dropped line.
//! * **Load shedding** — a shard's structured `queue-full` rejection is
//!   relayed verbatim (the `retry_after_ticks` hint re-emitted by
//!   construction) and additionally arms a deterministic shed window:
//!   the next `hint/16` requests for that shard are answered
//!   `queue-full` at the router without touching the overloaded shard.
//! * **Drain and rebalance** — `shutdown` stops the accept loop and
//!   drains open connections exactly like the single daemon; the
//!   `rebalance` control re-homes one graph without touching in-flight
//!   requests (they complete on the shard they already resolved to).
//!   With `--overrides-file` the override table is persisted through
//!   [`soi_util::ckpt`] (checksummed, atomic rename) after every
//!   accepted rebalance and reloaded at startup, pinned to the shard
//!   layout — a restarted router re-homes every graph identically.
//! * **Aggregated stats** — `stats` answers the v2 payload with the
//!   router's own registry merged with the summed counters of one live
//!   replica per shard, plus a `shards` health array.

pub mod shard;

use crate::daemon;
use crate::json::{self, Value};
use crate::protocol::{self, Request, DEFAULT_MAX_LINE};
use crate::wire::{self, Conn, Listener, Step, Stop};
use shard::{Exchange, ShardMap};
use soi_util::ckpt::{self, ByteReader, Checkpoint, KIND_ROUTER_OVERRIDES};
use soi_util::hash::Mix64Hasher;
use soi_util::{ProtoErrorKind, SoiError};
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Read timeout of every control-plane exchange with a replica (the
/// health probe and the `stats` poll). Both are answered inline by the
/// replica's connection thread, so a live daemon answers in
/// milliseconds; a peer that accepts and then says nothing must not hold
/// the probe thread — and with it the router's drain — hostage.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(2);

/// Router options fixed at startup.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral; announced on
    /// stdout as `listening on HOST:PORT`, same as `soi serve`).
    pub port: u16,
    /// Replica address sets, one per shard (`host:port` each).
    pub shards: Vec<Vec<String>>,
    /// Retry attempts per request across a shard's replicas (the first
    /// attempt is free; `retries` more are allowed).
    pub replica_retries: u32,
    /// Base backoff delay in ticks (1 tick = 1 ms) between replica
    /// attempts; doubles per attempt, capped. 0 disables sleeping.
    pub backoff_ticks: u64,
    /// Request-line length cap in bytes.
    pub max_line: usize,
    /// When set, the rebalance-override table is persisted to this
    /// checkpoint file after every accepted `rebalance` and reloaded at
    /// startup (missing file = empty table; corrupt or layout-mismatched
    /// file = typed startup error).
    pub overrides_path: Option<PathBuf>,
    /// Background liveness-probe period in milliseconds (0 = disabled).
    /// When on, a probe thread sends a `health` request to every
    /// replica each period, so a healed replica is marked healthy
    /// *before* the next client request needs a failover — without it,
    /// recovery is only discovered by spending a retry on the replica.
    pub probe_interval_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            port: 0,
            shards: Vec::new(),
            replica_retries: 2,
            backoff_ticks: 1,
            max_line: DEFAULT_MAX_LINE,
            overrides_path: None,
            probe_interval_ms: 0,
        }
    }
}

/// One control-plane round trip to the replica at `addr` over a fresh
/// connection: the parsed answer when the peer gave a version-correct
/// `ok` within [`CONTROL_TIMEOUT`], `None` for everything else (connect
/// failure, silent close, garbage, skew, typed error, hang).
fn control_exchange(addr: &str, type_name: &str) -> Option<Value> {
    let mut conn = Conn::connect(addr, Some(CONTROL_TIMEOUT)).ok()?;
    let line = conn.exchange(&protocol::control_line(0, type_name)).ok()?;
    protocol::parse_ok_response(&line)
}

/// One background probe sweep: a `health` round-trip to every replica.
/// A replica that answers is marked healthy (a previously-dark one
/// counts as a recovery); one that does not is marked unhealthy, so
/// probing also *detects* silent death instead of leaving it to the next
/// client request. Probes move health only, never the relay tallies.
fn probe_sweep(state: &RouterState) {
    for (shard_idx, replicas) in state.map.health_snapshot().iter().enumerate() {
        for (replica_idx, replica) in replicas.iter().enumerate() {
            soi_obs::counter_add!("router.probe_attempts", 1);
            let alive = control_exchange(&replica.addr, "health").is_some();
            if alive && !replica.healthy {
                soi_obs::counter_add!("router.probe_recoveries", 1);
                soi_obs::event!(
                    soi_obs::Level::Info,
                    "probe re-adopted replica {} of shard {shard_idx}",
                    replica.addr
                );
            }
            let outcome = if alive {
                Exchange::Alive
            } else {
                Exchange::Failed
            };
            state.map.mark(shard_idx, replica_idx, outcome);
        }
    }
}

/// Shared router state: the shard map plus the retry policy.
struct RouterState {
    map: ShardMap,
    replica_retries: u32,
    backoff_ticks: u64,
    /// Persistence target for the override table, when configured:
    /// `(path, layout fingerprint)`.
    persist: Option<(PathBuf, u64)>,
}

/// Fingerprint of the shard layout (count and every replica address, in
/// order). Pins a persisted override file to the fleet that wrote it:
/// shard *indices* only mean something relative to a concrete layout.
fn layout_fingerprint(shards: &[Vec<String>]) -> u64 {
    let mut h = Mix64Hasher::new();
    h.update_u64(shards.len() as u64);
    for replicas in shards {
        h.update_u64(replicas.len() as u64);
        for addr in replicas {
            h.update_u64(addr.len() as u64);
            h.update(addr.as_bytes());
        }
    }
    h.finish()
}

/// Serializes the override table: entry count, then per entry the
/// graph-name length (u32), name bytes, and shard index (u32). BTreeMap
/// iteration order makes the bytes canonical for a given table.
fn encode_overrides(overrides: &BTreeMap<String, usize>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(overrides.len() as u64).to_le_bytes());
    for (graph, &shard) in overrides {
        out.extend_from_slice(&(graph.len() as u32).to_le_bytes());
        out.extend_from_slice(graph.as_bytes());
        out.extend_from_slice(&(shard as u32).to_le_bytes());
    }
    out
}

/// Decodes an override payload written by [`encode_overrides`].
fn decode_overrides(payload: &[u8]) -> Result<BTreeMap<String, usize>, SoiError> {
    let mut r = ByteReader::new(payload);
    let count = r.u64("override count")?;
    let mut overrides = BTreeMap::new();
    for _ in 0..count {
        let name_len = r.u32("override name length")? as usize;
        let name = std::str::from_utf8(r.take(name_len, "override name")?)
            .map_err(|_| SoiError::invalid("override name is not UTF-8"))?
            .to_string();
        let shard = r.u32("override shard")? as usize;
        overrides.insert(name, shard);
    }
    r.expect_end("override table")?;
    Ok(overrides)
}

/// Writes the override table to `path` as a [`KIND_ROUTER_OVERRIDES`]
/// checkpoint (atomic tmp-file + rename, trailing checksum).
fn save_overrides(
    path: &std::path::Path,
    layout_fp: u64,
    overrides: &BTreeMap<String, usize>,
) -> Result<(), SoiError> {
    soi_util::failpoint!("router.overrides.persist");
    let payload = encode_overrides(overrides);
    ckpt::write_checkpoint(
        path,
        &Checkpoint {
            kind: KIND_ROUTER_OVERRIDES,
            graph_fingerprint: layout_fp,
            // The layout fingerprint already covers everything placement
            // depends on; there is no separate run configuration.
            config_fingerprint: layout_fp,
            total_units: overrides.len() as u64,
            done_units: overrides.len() as u64,
            payload,
        },
    )
}

/// Loads a persisted override table. A missing file is an empty table
/// (first boot); a corrupt or layout-mismatched file is a typed error —
/// silently dropping overrides would re-home graphs behind the
/// operator's back.
fn load_overrides_file(
    path: &std::path::Path,
    layout_fp: u64,
) -> Result<BTreeMap<String, usize>, SoiError> {
    if !path.exists() {
        return Ok(BTreeMap::new());
    }
    let loaded = ckpt::read_checkpoint(path, KIND_ROUTER_OVERRIDES)?;
    loaded.validate(KIND_ROUTER_OVERRIDES, layout_fp, layout_fp)?;
    decode_overrides(&loaded.payload)
}

/// `host:port` split, for validating replica addresses at startup.
fn split_addr(addr: &str) -> Option<(&str, u16)> {
    let (host, port) = addr.rsplit_once(':')?;
    Some((host, port.parse().ok()?))
}

/// Relays one raw request line to a replica of `shard_idx`, failing
/// over across replicas, and returns the line to answer with: the
/// shard's raw response, relayed verbatim, or a router-synthesized typed
/// error (shed, dark, or skewed). `conn` caches this client connection's
/// open connection to the shard between requests (one request in flight
/// per client connection, matching the daemon's own discipline).
fn forward(
    state: &RouterState,
    conn: &mut Option<(usize, Conn)>,
    shard_idx: usize,
    id: u64,
    line: &str,
) -> String {
    // Shed window armed by a recent queue-full rejection: answer at the
    // router, re-emitting the shard's own depth and hint.
    if let Some((depth, hint)) = state.map.take_shed(shard_idx) {
        soi_obs::counter_add!("router.requests_shed", 1);
        return protocol::encode_queue_full(id, depth as usize, hint);
    }
    let mut last_skew: Option<String> = None;
    let mut attempt: u32 = 0;
    while attempt <= state.replica_retries {
        let (replica_idx, mut live) = match conn.take() {
            Some(live) => live,
            None => {
                let order = state.map.replica_order(shard_idx);
                let (ridx, addr) = &order[attempt as usize % order.len()];
                let Ok(live) = Conn::connect(addr.as_str(), None) else {
                    retry(state, &mut attempt, shard_idx, *ridx);
                    continue;
                };
                (*ridx, live)
            }
        };
        soi_util::failpoint_crash!("router.forward.write");
        let Ok(response) = live.exchange(line) else {
            retry(state, &mut attempt, shard_idx, replica_idx);
            continue;
        };
        if let Err(skew) = protocol::check_response_version(&response) {
            soi_obs::counter_add!("router.protocol_mismatches", 1);
            last_skew = Some(skew.to_string());
            retry(state, &mut attempt, shard_idx, replica_idx);
            continue;
        }
        state.map.mark(shard_idx, replica_idx, Exchange::Relayed);
        if attempt > 0 {
            soi_obs::counter_add!("router.failovers", 1);
        }
        soi_obs::counter_add!("router.forwarded", 1);
        if let Some((depth, hint)) = queue_full_detail(&response) {
            state.map.arm_shed(shard_idx, depth, hint);
        }
        *conn = Some((replica_idx, live));
        return response;
    }
    // Budget spent. A consistently version-skewed shard is diagnosed as
    // skew; a dark one as shard-unavailable. Either way the client gets
    // a typed line, never a hang.
    if let Some(skew) = last_skew {
        return protocol::encode_error(
            Some(id),
            &SoiError::protocol(ProtoErrorKind::ProtocolMismatch, skew),
        );
    }
    soi_obs::counter_add!("router.shard_unavailable", 1);
    protocol::encode_error(
        Some(id),
        &SoiError::protocol(
            ProtoErrorKind::ShardUnavailable,
            format!("all replicas of shard {shard_idx} are unreachable"),
        ),
    )
}

/// Books one failed attempt: marks the replica unhealthy, sleeps the
/// backoff schedule, and advances the attempt counter.
fn retry(state: &RouterState, attempt: &mut u32, shard_idx: usize, replica_idx: usize) {
    state.map.mark(shard_idx, replica_idx, Exchange::Failed);
    crate::client::backoff_nap(state.backoff_ticks, *attempt, 0);
    *attempt += 1;
}

/// The `(queue_depth, retry_after_ticks)` of a structured `queue-full`
/// rejection, when `line` is one.
fn queue_full_detail(line: &str) -> Option<(u64, u64)> {
    if !line.contains("\"kind\":\"queue-full\"") {
        return None;
    }
    let err = json::parse(line).ok()?.get("error")?.clone();
    Some((
        err.get("queue_depth").and_then(Value::as_u64)?,
        err.get("retry_after_ticks").and_then(Value::as_u64)?,
    ))
}

/// Builds the router's aggregated `stats` payload: summed flat `graphs`
/// and counters over one reachable replica per shard, a `shards` health
/// array, and the router process's own v2 sections with the shard
/// counter sums merged in.
fn stats_payload(state: &RouterState) -> String {
    let snapshot = state.map.health_snapshot();
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    let mut graphs_total: u64 = 0;
    let mut shards_json: Vec<String> = Vec::with_capacity(snapshot.len());
    for (shard_idx, replicas) in snapshot.iter().enumerate() {
        let answer = replicas
            .iter()
            .find_map(|replica| control_exchange(&replica.addr, "stats"));
        if let Some(doc) = answer {
            graphs_total += doc.get("graphs").and_then(Value::as_u64).unwrap_or(0);
            if let Some(counters) = doc.get("counters").and_then(Value::as_obj) {
                for (name, v) in counters {
                    if let Some(v) = v.as_u64() {
                        *agg.entry(name.clone()).or_default() += v;
                    }
                }
            }
        }
        let replicas_json: Vec<String> = replicas
            .iter()
            .map(|r| {
                format!(
                    "{{\"addr\":\"{}\",\"healthy\":{},\"forwarded\":{},\"failures\":{}}}",
                    json::escape(&r.addr),
                    r.healthy,
                    r.forwarded,
                    r.failures
                )
            })
            .collect();
        shards_json.push(format!(
            "{{\"shard\":{shard_idx},\"replicas\":[{}]}}",
            replicas_json.join(",")
        ));
    }
    // Merge the router's own registry counters into the shard sums; the
    // name spaces are disjoint (router.* vs server.*) so `soi stats`
    // against the router sees the whole fabric in one counters map.
    for (name, v) in soi_obs::metrics::registry().counter_values() {
        *agg.entry(name).or_default() += v;
    }
    format!(
        "\"graphs\":{graphs_total},\"shards\":[{}],{},\"stats_version\":{},{}",
        shards_json.join(","),
        daemon::counters_section(&agg),
        daemon::STATS_VERSION,
        daemon::registry_sections()
    )
}

/// Answers a control request at the router: the payload fragment, or a
/// typed error.
fn control_payload(state: &RouterState, req: &Request) -> Result<String, SoiError> {
    match req {
        Request::Health => Ok(format!("\"ok\":true,\"shards\":{}", state.map.len())),
        Request::Stats => Ok(stats_payload(state)),
        Request::Shutdown => Ok("\"draining\":true".to_string()),
        Request::Rebalance { graph, shard } => {
            state
                .map
                .rebalance(graph, *shard)
                .map_err(|message| SoiError::protocol(ProtoErrorKind::BadField, message))?;
            soi_obs::counter_add!("router.rebalances", 1);
            // Persist best-effort: the in-memory override is already
            // live, and failing the rebalance over a disk hiccup
            // would leave the operator unsure which state won. The
            // counter and event make the divergence visible.
            if let Some((path, layout_fp)) = &state.persist {
                if let Err(err) = save_overrides(path, *layout_fp, &state.map.overrides_snapshot())
                {
                    soi_obs::counter_add!("router.override_persist_errors", 1);
                    soi_obs::event!(
                        soi_obs::Level::Warn,
                        "override persist to {} failed: {err}",
                        path.display()
                    );
                }
            }
            Ok(format!(
                "\"rebalanced\":\"{}\",\"shard\":{shard}",
                json::escape(graph)
            ))
        }
        _ => Err(SoiError::protocol(
            ProtoErrorKind::BadField,
            "not a control request",
        )),
    }
}

/// Serves one client connection: answers controls inline, relays
/// compute requests to the owning shard over per-shard cached
/// connections. A `shutdown` requests the listener's stop and the loop
/// keeps reading, same as the daemon.
fn serve_client(
    state: &RouterState,
    stop: &Stop,
    max_line: usize,
    mut reader: BufReader<TcpStream>,
    mut writer: TcpStream,
) {
    let mut conns: Vec<Option<(usize, Conn)>> = (0..state.map.len()).map(|_| None).collect();
    wire::serve_conn(&mut reader, &mut writer, max_line, |line| {
        soi_obs::counter_add!("router.requests_total", 1);
        let (response, shutdown) = protocol::dispatch(
            line,
            |req| control_payload(state, req),
            |envelope, _| {
                // Compute requests always name a graph (the parser
                // enforced it); resolve and relay the raw line so the
                // shard's bytes are the client's bytes.
                let graph = envelope.req.graph().unwrap_or_default();
                let shard_idx = state.map.shard_for(graph);
                forward(state, &mut conns[shard_idx], shard_idx, envelope.id, line)
            },
        );
        soi_util::failpoint_crash!("router.response.write");
        if shutdown {
            stop.request();
        }
        (response, Step::Continue)
    });
}

/// Runs the router until a `shutdown` request arrives. Announces the
/// bound address on `out` as `listening on HOST:PORT`, then routes.
pub fn run_router<W: Write>(config: &RouterConfig, out: &mut W) -> Result<(), SoiError> {
    if config.shards.is_empty() {
        return Err(SoiError::invalid("router needs at least one shard"));
    }
    for replicas in &config.shards {
        for addr in replicas {
            if split_addr(addr).is_none() {
                return Err(SoiError::invalid(format!(
                    "bad replica address {addr:?} (want host:port)"
                )));
            }
        }
    }
    let listener = Listener::bind(config.port)?;
    // Touch every router counter so 0 is reported, not absent.
    soi_obs::counter_add!("router.requests_total", 0);
    soi_obs::counter_add!("router.forwarded", 0);
    soi_obs::counter_add!("router.failovers", 0);
    soi_obs::counter_add!("router.shard_unavailable", 0);
    soi_obs::counter_add!("router.requests_shed", 0);
    soi_obs::counter_add!("router.rebalances", 0);
    soi_obs::counter_add!("router.protocol_mismatches", 0);
    soi_obs::counter_add!("router.override_persist_errors", 0);
    soi_obs::counter_add!("router.probe_attempts", 0);
    soi_obs::counter_add!("router.probe_recoveries", 0);
    let layout_fp = layout_fingerprint(&config.shards);
    let map = ShardMap::new(config.shards.clone());
    if let Some(path) = &config.overrides_path {
        let overrides = load_overrides_file(path, layout_fp)?;
        if !overrides.is_empty() {
            soi_obs::event!(
                soi_obs::Level::Info,
                "restored {} rebalance override(s) from {}",
                overrides.len(),
                path.display()
            );
        }
        map.load_overrides(overrides).map_err(SoiError::invalid)?;
    }
    let state = Arc::new(RouterState {
        map,
        replica_retries: config.replica_retries,
        backoff_ticks: config.backoff_ticks,
        persist: config.overrides_path.clone().map(|path| (path, layout_fp)),
    });
    soi_obs::event!(
        soi_obs::Level::Info,
        "routing {} shard(s) on {}",
        state.map.len(),
        listener.stop.addr
    );
    listener.announce(out)?;

    let stop = Arc::clone(&listener.stop);
    #[expect(
        clippy::disallowed_methods,
        reason = "the probe thread polls `stop` and is joined after the listener drains"
    )]
    let probe_thread = (config.probe_interval_ms > 0).then(|| {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        let interval = Duration::from_millis(config.probe_interval_ms);
        std::thread::spawn(move || {
            while !stop.requested() {
                probe_sweep(&state);
                // Sleep in small slices so shutdown is not delayed by
                // up to a whole probe period.
                let mut slept = Duration::ZERO;
                while slept < interval && !stop.requested() {
                    let step = (interval - slept).min(Duration::from_millis(20));
                    std::thread::sleep(step);
                    slept += step;
                }
            }
        })
    });
    let max_line = config.max_line;
    // Graceful drain: nothing to finish first — in-flight relays have
    // already resolved their shard and complete normally.
    listener.serve(
        move |reader, writer| serve_client(&state, &stop, max_line, reader, writer),
        || {},
    );
    if let Some(thread) = probe_thread {
        let _ = thread.join();
    }
    soi_obs::event!(soi_obs::Level::Info, "router drained; shutting down");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_split_round_trips() {
        assert_eq!(split_addr("127.0.0.1:8080"), Some(("127.0.0.1", 8080)));
        assert_eq!(split_addr("localhost:1"), Some(("localhost", 1)));
        assert_eq!(split_addr("no-port"), None);
        assert_eq!(split_addr("bad:port"), None);
    }

    #[test]
    fn queue_full_detail_reads_the_structured_fields() {
        let line = protocol::encode_queue_full(4, 8, 32);
        assert_eq!(queue_full_detail(&line), Some((8, 32)));
        assert_eq!(queue_full_detail("{\"v\":1,\"status\":\"ok\"}"), None);
    }

    #[test]
    fn overrides_round_trip_through_the_checkpoint_file() {
        let dir = std::env::temp_dir().join(format!("soi-router-ovr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("overrides.ckpt");
        let layout = vec![
            vec!["127.0.0.1:9000".to_string()],
            vec!["127.0.0.1:9010".to_string(), "127.0.0.1:9011".to_string()],
        ];
        let fp = layout_fingerprint(&layout);
        // Missing file reads back as an empty table (first boot).
        assert!(load_overrides_file(&path, fp).unwrap().is_empty());
        let mut table = BTreeMap::new();
        table.insert("net".to_string(), 1usize);
        table.insert("soc-epinions".to_string(), 0usize);
        save_overrides(&path, fp, &table).unwrap();
        assert_eq!(load_overrides_file(&path, fp).unwrap(), table);
        // A different shard layout refuses the file outright.
        let other = layout_fingerprint(&[vec!["127.0.0.1:9000".to_string()]]);
        assert_ne!(fp, other);
        let err = load_overrides_file(&path, other).unwrap_err();
        assert!(matches!(err, SoiError::CkptMismatch { .. }), "{err:?}");
        // Corruption is caught by the checkpoint checksum.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 12;
        bytes[at] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        assert!(load_overrides_file(&path, fp).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn override_decode_rejects_trailing_bytes() {
        let mut table = BTreeMap::new();
        table.insert("g".to_string(), 0usize);
        let mut payload = encode_overrides(&table);
        assert_eq!(decode_overrides(&payload).unwrap(), table);
        payload.push(0);
        assert!(decode_overrides(&payload).is_err(), "trailing byte");
    }

    #[test]
    fn layout_fingerprint_separates_address_boundaries() {
        // Same concatenated bytes, different replica split — must differ.
        let a = layout_fingerprint(&[vec!["ab:1".to_string(), "c:2".to_string()]]);
        let b = layout_fingerprint(&[vec!["ab:1c".to_string(), ":2".to_string()]]);
        assert_ne!(a, b);
    }

    #[test]
    fn bad_configs_are_rejected_before_binding() {
        let mut out = Vec::new();
        let err = run_router(&RouterConfig::default(), &mut out).expect_err("no shards");
        assert!(err.to_string().contains("at least one shard"));
        let config = RouterConfig {
            shards: vec![vec!["nonsense".into()]],
            ..RouterConfig::default()
        };
        let err = run_router(&config, &mut out).expect_err("bad addr");
        assert!(err.to_string().contains("nonsense"), "{err}");
    }
}
