//! The long-lived daemon: what a request line means at `soi serve`, over
//! TCP and over the stdio lane for hermetic tests. Framing, the accept
//! loop and the drain live in [`crate::wire`]; this module supplies the
//! closures from line to answer.
//!
//! One thread per connection reads newline-delimited requests. Control
//! requests (`health`/`stats`/`shutdown`) are answered inline by the
//! connection thread, so the server stays observable and stoppable
//! while every worker is busy; compute requests go through the bounded
//! queue to the worker pool and the connection thread blocks on the
//! reply channel (one request in flight per connection).
//!
//! Shutdown sequence: a `shutdown` request is acknowledged, the accept
//! loop is unblocked with a loop-back connection and exits, the worker
//! pool drains every queued and in-flight job (their responses still
//! reach their clients), read sides of open connections are shut down
//! so their threads observe EOF, and all threads are joined. The CLI
//! then flushes the final metrics report.

use crate::engine::ServerEngine;
use crate::protocol::{self, Envelope, Request, DEFAULT_MAX_LINE};
use crate::trace::{PhaseTrace, SlowLog};
use crate::wire::{self, ConnEnd, Listener, Step, Stop};
use crate::worker::{self, Job, PoolHandle, WorkerPool};
use soi_util::{ProtoErrorKind, SoiError};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};

/// Version tag of the extended `stats` payload: the flat fields are
/// frozen v1 shape, the structured `counters`/`gauges`/`histograms`/
/// `timing_hists`/`threads`/`pool` sections arrived in v2.
pub const STATS_VERSION: u64 = 2;

/// Daemon options fixed at startup.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral; the bound address
    /// is announced on stdout as `listening on HOST:PORT`).
    pub port: u16,
    /// Worker threads (0 = pool default).
    pub workers: usize,
    /// Bounded queue capacity; a full queue rejects with `queue-full`.
    pub queue_cap: usize,
    /// Request-line length cap in bytes.
    pub max_line: usize,
    /// Slow-query threshold in deterministic ticks (0 = disabled).
    pub slow_query_ticks: u64,
    /// Where the slow-query JSONL log appends; both this and a nonzero
    /// threshold are required to activate the log.
    pub slow_query_log: Option<std::path::PathBuf>,
    /// Size cap for the slow-query log in bytes (0 = unbounded). When a
    /// line would push the live file past the cap it rotates to
    /// `<path>.old`, keeping one old generation.
    pub slow_query_log_max_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            workers: 0,
            queue_cap: 64,
            max_line: DEFAULT_MAX_LINE,
            slow_query_ticks: 0,
            slow_query_log: None,
            slow_query_log_max_bytes: 0,
        }
    }
}

/// Answers a control request: the payload fragment, or a typed error.
fn control_payload(
    engine: &ServerEngine,
    req: &Request,
    pool: Option<&PoolHandle>,
) -> Result<String, SoiError> {
    match req {
        Request::Health => Ok(format!(
            "\"ok\":true,\"graphs\":{}",
            engine.graph_names().len()
        )),
        Request::Stats => Ok(stats_payload(engine, pool)),
        Request::Shutdown => Ok("\"draining\":true".to_string()),
        Request::Rebalance { .. } => Err(SoiError::protocol(
            ProtoErrorKind::BadField,
            "rebalance is a router control; this daemon holds no shard map",
        )),
        _ => Err(SoiError::protocol(
            ProtoErrorKind::BadField,
            "not a control request",
        )),
    }
}

/// Builds the full `stats` payload fragment: the original flat fields
/// (frozen for v1 clients) followed by the v2 structured sections — a
/// complete snapshot of every registered counter, gauge, histogram, and
/// wall-timing histogram, plus the per-thread timing plane. Wall-clock
/// values appear only in scalar fields whose names start with `wall_`,
/// so [`soi_obs::report::mask_wall_clock`] keeps masking mechanically;
/// section keys deliberately avoid the prefix (`timing_hists`).
fn stats_payload(engine: &ServerEngine, pool: Option<&PoolHandle>) -> String {
    let (depth, in_flight) = pool.map_or((0, 0), |p| (p.queue_depth(), p.in_flight()));
    let generations = pool.map_or(0, PoolHandle::generations);
    let flat = format!(
        "\"graphs\":{},\"queue_depth\":{depth},\"in_flight\":{in_flight},\
         \"requests_total\":{},\"rejected_queue_full\":{},\"cache_hits\":{},\"cache_misses\":{},\
         \"worker_generations\":{generations},\"worker_panics\":{},\"worker_respawns\":{},\
         \"requests_shed\":{},\"requests_degraded\":{}",
        engine.graph_names().len(),
        soi_obs::counter("server.requests_total").get(),
        soi_obs::counter("server.rejected_queue_full").get(),
        soi_obs::counter("server.cache_hits").get(),
        soi_obs::counter("server.cache_misses").get(),
        soi_obs::counter("server.worker_panics").get(),
        soi_obs::counter("server.worker_respawns").get(),
        soi_obs::counter("server.requests_shed").get(),
        soi_obs::counter("server.requests_degraded").get(),
    );
    format!(
        "{flat},\"stats_version\":{STATS_VERSION},{},{}",
        counters_section(&soi_obs::metrics::registry().counter_values()),
        registry_sections()
    )
}

/// The `counters` section of a v2 `stats` payload over `counters` — this
/// process's registry at a daemon, the fabric-wide merged map at the
/// shard router.
pub(crate) fn counters_section(counters: &BTreeMap<String, u64>) -> String {
    let items: Vec<String> = counters
        .iter()
        .map(|(name, v)| format!("\"{name}\":{v}"))
        .collect();
    format!("\"counters\":{{{}}}", items.join(","))
}

/// The v2 `stats` sections after `counters` — this process's gauges,
/// histograms, wall-timing histograms and per-thread timing plane —
/// shared by the single daemon and the shard router.
pub(crate) fn registry_sections() -> String {
    let registry = soi_obs::metrics::registry();
    let join = |items: Vec<String>| items.join(",");
    let gauges = join(
        registry
            .gauge_values()
            .iter()
            .map(|(name, v)| format!("\"{name}\":{}", crate::json::fmt_num(*v)))
            .collect(),
    );
    let num_list = |vals: &[f64]| join(vals.iter().map(|v| crate::json::fmt_num(*v)).collect());
    let histograms = join(
        registry
            .histogram_values()
            .iter()
            .map(|(name, (bounds, counts))| {
                let counts = join(counts.iter().map(u64::to_string).collect());
                format!(
                    "\"{name}\":{{\"bounds\":[{}],\"counts\":[{counts}]}}",
                    num_list(bounds)
                )
            })
            .collect(),
    );
    let timing_hists = join(
        registry
            .wall_hist_values()
            .iter()
            .map(|(name, stat)| {
                format!(
                    "\"{name}\":{{\"count\":{},\"wall_p50_ns\":{},\"wall_p90_ns\":{},\
                     \"wall_max_ns\":{}}}",
                    stat.count, stat.p50_ns, stat.p90_ns, stat.max_ns
                )
            })
            .collect(),
    );
    let (threads, pool_snap) = soi_obs::perthread::snapshot();
    let threads = join(
        threads
            .iter()
            .map(|t| {
                let name = if t.slot >= soi_obs::perthread::MAX_SLOTS {
                    "thread.coordinator".to_string()
                } else {
                    format!("thread.{}", t.slot)
                };
                format!(
                    "{{\"name\":\"{name}\",\"wall_busy_ns\":{},\"wall_idle_ns\":{},\
                     \"wall_merge_ns\":{},\"wall_lock_wait_ns\":{},\"wall_lifetime_ns\":{},\
                     \"wall_items\":{}}}",
                    t.busy_ns, t.idle_ns, t.merge_ns, t.lock_wait_ns, t.lifetime_ns, t.items
                )
            })
            .collect(),
    );
    format!(
        "\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}},\
         \"timing_hists\":{{{timing_hists}}},\"threads\":[{threads}],\
         \"pool\":{{\"dispatches\":{},\"items\":{},\"workers_max\":{},\
         \"wall_capacity_ns\":{},\"wall_lifetime_ns\":{},\"wall_imbalance_ns\":{}}}",
        pool_snap.dispatches,
        pool_snap.items,
        pool_snap.workers_max,
        pool_snap.capacity_ns,
        pool_snap.lifetime_ns,
        pool_snap.imbalance_ns,
    )
}

/// Answers one framed request line for either daemon lane: count it,
/// parse, answer a control inline or run the compute envelope through
/// `submit` (which carries the phase timeline started here — the `parse`
/// phase: one tick per request-line byte). The flag reports a `shutdown`.
fn answer(
    engine: &ServerEngine,
    pool: Option<&PoolHandle>,
    line: &str,
    submit: impl FnOnce(Envelope, PhaseTrace) -> String,
) -> (String, bool) {
    soi_obs::counter_add!("server.requests_total", 1);
    let result = protocol::dispatch(
        line,
        |req| control_payload(engine, req, pool),
        |envelope, started| {
            let mut trace = PhaseTrace::new();
            trace.record(
                "parse",
                line.len() as u64,
                crate::trace::elapsed_ns(started),
            );
            submit(envelope, trace)
        },
    );
    soi_util::failpoint_crash!("server.response.write");
    result
}

/// Serves one TCP client: controls inline, compute requests through the
/// bounded queue (one request in flight per connection). A `shutdown`
/// requests the listener's stop and the loop keeps reading — the client
/// closes when satisfied.
fn serve_client(
    engine: &ServerEngine,
    pool: &PoolHandle,
    stop: &Stop,
    max_line: usize,
    mut reader: BufReader<TcpStream>,
    mut writer: TcpStream,
) {
    let end = wire::serve_conn(&mut reader, &mut writer, max_line, |line| {
        let (response, shutdown) = answer(engine, Some(pool), line, |envelope, trace| {
            let id = envelope.id;
            let (tx, rx) = mpsc::channel();
            pool.submit(Job::with_trace(envelope, tx, trace));
            rx.recv().unwrap_or_else(|_| {
                protocol::encode_error(
                    Some(id),
                    &SoiError::protocol(ProtoErrorKind::QueueFull, "worker pool unavailable"),
                )
            })
        });
        if shutdown {
            stop.request();
        }
        (response, Step::Continue)
    });
    match end {
        ConnEnd::Eof | ConnEnd::Stopped => {}
        ConnEnd::MidLine => {
            soi_obs::counter_add!("server.client_disconnects", 1);
            soi_obs::event!(soi_obs::Level::Debug, "client disconnected mid-request");
        }
        ConnEnd::ReadFailed(_) | ConnEnd::WriteFailed => {
            soi_obs::counter_add!("server.client_disconnects", 1);
        }
    }
}

/// Runs the daemon until a `shutdown` request arrives. Announces the
/// bound address on `out` as `listening on HOST:PORT`, then serves.
pub fn run_tcp<W: Write>(
    engine: Arc<ServerEngine>,
    config: &ServeConfig,
    out: &mut W,
) -> Result<(), SoiError> {
    let listener = Listener::bind(config.port)?;
    // Touch the self-healing counters so they appear in the metrics
    // report even when nothing failed (0 is an answer, not an absence).
    soi_obs::counter_add!("server.worker_panics", 0);
    soi_obs::counter_add!("server.worker_respawns", 0);
    soi_obs::counter_add!("server.requests_shed", 0);
    soi_obs::counter_add!("server.requests_degraded", 0);
    let built = engine.warm();
    let addr = listener.stop.addr;
    soi_obs::event!(soi_obs::Level::Info, "serving {built} graph(s) on {addr}");
    listener.announce(out)?;

    let workers = soi_util::pool::effective_threads(config.workers, usize::MAX);
    let slow = match (&config.slow_query_log, config.slow_query_ticks) {
        (Some(path), ticks) if ticks > 0 => Some(Arc::new(
            SlowLog::to_file(ticks, path, config.slow_query_log_max_bytes)
                .map_err(|e| SoiError::io("slow-query log", e))?,
        )),
        _ => None,
    };
    let pool = WorkerPool::start_with(Arc::clone(&engine), workers, config.queue_cap, slow);
    let (handle, stop, max_line) = (pool.handle(), Arc::clone(&listener.stop), config.max_line);
    // Graceful drain: finish queued + in-flight jobs (responses still
    // flow to their connections) before idle readers are unblocked.
    listener.serve(
        move |reader, writer| serve_client(&engine, &handle, &stop, max_line, reader, writer),
        || pool.shutdown(),
    );
    soi_obs::event!(soi_obs::Level::Info, "drained; shutting down");
    Ok(())
}

/// Serves the protocol over an arbitrary reader/writer pair, executing
/// compute requests synchronously (no worker pool). This is the
/// hermetic front-end used by `soi serve --stdio` and the protocol
/// tests; semantics match the TCP daemon except for admission control
/// (a single sequential lane cannot overflow) and `shutdown`, which ends
/// the loop.
pub fn run_stdio<R: BufRead, W: Write>(
    engine: &ServerEngine,
    max_line: usize,
    input: &mut R,
    out: &mut W,
) -> Result<(), SoiError> {
    engine.warm();
    let end = wire::serve_conn(input, out, max_line, |line| {
        let (response, shutdown) = answer(engine, None, line, |envelope, mut trace| {
            // No queue on the synchronous lane; the phase is recorded at
            // zero so stdio timelines share the TCP schema.
            trace.record("queue_wait", 0, 0);
            worker::execute_job_traced(engine, &envelope, &mut trace, None)
        });
        let step = if shutdown { Step::Stop } else { Step::Continue };
        (response, step)
    });
    match end {
        ConnEnd::ReadFailed(err) => Err(SoiError::io("stdin", err)),
        ConnEnd::MidLine | ConnEnd::WriteFailed => {
            soi_obs::counter_add!("server.client_disconnects", 1);
            Ok(())
        }
        ConnEnd::Eof | ConnEnd::Stopped => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use soi_graph::{gen, ProbGraph};

    fn engine() -> ServerEngine {
        let pg = ProbGraph::fixed(gen::path(6), 1.0).expect("graph");
        let mut engine = ServerEngine::new(EngineConfig {
            num_worlds: 4,
            ..EngineConfig::default()
        });
        engine.add_graph("g", pg);
        engine
    }

    fn serve_lines(input: &str, max_line: usize) -> Vec<String> {
        // Serialized with the tests that arm server.* failpoints: the
        // registry is process-global and warm() hits the build site.
        let _g = soi_util::failpoint::test_guard();
        let engine = engine();
        let mut reader = BufReader::new(input.as_bytes());
        let mut out = Vec::new();
        run_stdio(&engine, max_line, &mut reader, &mut out).expect("run_stdio");
        String::from_utf8_lossy(&out)
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn stdio_serves_health_and_compute() {
        let lines = serve_lines(
            "{\"v\":1,\"id\":1,\"type\":\"health\"}\n\
             {\"v\":1,\"id\":2,\"type\":\"typical-cascade\",\"graph\":\"g\",\"source\":0}\n",
            DEFAULT_MAX_LINE,
        );
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
        assert!(
            lines[1].contains("\"sphere\":[0,1,2,3,4,5]"),
            "{}",
            lines[1]
        );
    }

    #[test]
    fn stats_payload_has_versioned_sections_and_masks_clean() {
        let lines = serve_lines(
            "{\"v\":1,\"id\":2,\"type\":\"typical-cascade\",\"graph\":\"g\",\"source\":0}\n\
             {\"v\":1,\"id\":1,\"type\":\"stats\"}\n",
            DEFAULT_MAX_LINE,
        );
        let stats = &lines[1];
        for section in [
            "\"stats_version\":2",
            "\"counters\":{",
            "\"gauges\":{",
            "\"histograms\":{",
            "\"timing_hists\":{",
            "\"threads\":[",
            "\"pool\":{\"dispatches\":",
            "\"server.requests_total\":",
            "\"server.request_ns\":{\"count\":",
        ] {
            assert!(stats.contains(section), "missing {section} in {stats}");
        }
        // The snapshot parses as JSON both raw and wall-masked — the
        // wall_ prefix only ever names scalar fields.
        crate::json::parse(stats).expect("raw stats parse");
        let masked = soi_obs::report::mask_wall_clock(stats);
        crate::json::parse(&masked).expect("masked stats parse");
        assert!(masked.contains("\"wall_p50_ns\":0"), "{masked}");
    }

    #[test]
    fn stdio_traced_compute_returns_timeline() {
        let lines = serve_lines(
            "{\"v\":1,\"id\":7,\"type\":\"typical-cascade\",\"graph\":\"g\",\"source\":0,\"trace\":true}\n",
            DEFAULT_MAX_LINE,
        );
        assert_eq!(lines.len(), 1);
        let line = &lines[0];
        assert!(line.contains("\"status\":\"ok\""), "{line}");
        for phase in ["parse", "queue_wait", "cache", "compute", "serialize"] {
            assert!(
                line.contains(&format!("{{\"phase\":\"{phase}\",\"ticks\":")),
                "missing {phase} in {line}"
            );
        }
        // The parse phase bills one tick per request-line byte.
        assert!(
            line.contains("{\"phase\":\"parse\",\"ticks\":75,"),
            "{line}"
        );
    }

    #[test]
    fn stdio_shutdown_stops_the_loop() {
        let lines = serve_lines(
            "{\"v\":1,\"id\":1,\"type\":\"shutdown\"}\n\
             {\"v\":1,\"id\":2,\"type\":\"health\"}\n",
            DEFAULT_MAX_LINE,
        );
        assert_eq!(lines.len(), 1, "requests after shutdown are not served");
        assert!(lines[0].contains("\"draining\":true"));
    }

    #[test]
    fn oversized_line_is_rejected_and_skipped() {
        let big = format!("{{\"v\":1,\"id\":1,\"pad\":\"{}\"}}", "x".repeat(300));
        let input = format!("{big}\n{{\"v\":1,\"id\":2,\"type\":\"health\"}}\n");
        let lines = serve_lines(&input, 128);
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains("\"kind\":\"oversized-line\""),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"id\":null"), "{}", lines[0]);
        assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
    }

    #[test]
    fn malformed_and_unknown_types_answered_inline() {
        let lines = serve_lines(
            "not json at all\n\
             {\"v\":9,\"id\":3,\"type\":\"health\"}\n\
             {\"v\":1,\"id\":4,\"type\":\"frobnicate\"}\n\
             {\"v\":1,\"id\":5,\"type\":\"health\"}\n",
            DEFAULT_MAX_LINE,
        );
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"kind\":\"malformed-json\""));
        assert!(lines[1].contains("\"kind\":\"version-mismatch\""));
        assert!(lines[2].contains("\"kind\":\"unknown-type\""));
        assert!(lines[3].contains("\"ok\":true"), "loop survives bad input");
    }
}
