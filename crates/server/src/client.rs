//! The `soi query` client: sends request lines to a running daemon and
//! prints responses in request order.
//!
//! Requests are distributed round-robin over `concurrency` connections,
//! each pipelining its share sequentially (the server answers one
//! request per connection at a time, so write-then-read per request is
//! exact). Responses are reassembled into the original request order
//! before printing, and `mask_wall` zeroes every `wall_*` field so two
//! identical batches print byte-identical output — the hook the e2e
//! determinism test hangs off.
//!
//! The client is resilient by construction:
//!
//! * **Retries with capped deterministic backoff** — connect failures,
//!   mid-batch EOF, and retryable server errors (`queue-full`,
//!   `internal-error`) are retried up to [`QueryConfig::retries`] times
//!   per request, sleeping `min(backoff_ticks << attempt, cap)`
//!   milliseconds between attempts ([`soi_util::backoff::delay_ticks`]);
//!   a `queue-full` response's `retry_after_ticks` hint is honored when
//!   backoff is enabled.
//! * **No hangs, no holes** — when retries are exhausted (or the server
//!   dies for good), every outstanding request in the lane gets a
//!   synthesized, typed `connection-lost` error line instead of the
//!   batch hanging or aborting; a per-request read timeout
//!   ([`QueryConfig::timeout_ms`]) likewise synthesizes a typed
//!   `timeout` line. The batch always prints one line per request, and
//!   the caller learns how many were lost ([`BatchReport::lost`]) so it
//!   can exit with the partial-result code.

use crate::json;
use crate::protocol;
use crate::wire::Conn;
use soi_util::{ProtoErrorKind, SoiError};
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Largest single backoff sleep (ticks ≈ milliseconds).
const BACKOFF_CAP_TICKS: u64 = 1024;

/// The backoff sleep before retry `attempt` of a client leg (`soi query`
/// lanes, the router's relay): `base_ticks` doubling per attempt, capped,
/// or a server-supplied hint when larger — honored only when backoff is
/// enabled, so a base of 0 keeps retries immediate and tests fast.
pub(crate) fn backoff_nap(base_ticks: u64, attempt: u32, hint_ticks: u64) {
    let ticks =
        soi_util::backoff::delay_with_hint(base_ticks, attempt, BACKOFF_CAP_TICKS, hint_ticks);
    if ticks > 0 {
        std::thread::sleep(Duration::from_millis(ticks));
    }
}

/// Client options.
#[derive(Clone, Debug)]
pub struct QueryConfig {
    /// Server host (the daemon binds 127.0.0.1).
    pub host: String,
    /// Server port.
    pub port: u16,
    /// Concurrent connections (min 1).
    pub concurrency: usize,
    /// Zero `wall_*` fields in printed responses.
    pub mask_wall: bool,
    /// Retry attempts per request for connect failures, mid-batch EOF,
    /// and retryable (`queue-full`/`internal-error`) responses.
    pub retries: u32,
    /// Base backoff delay in ticks (1 tick = 1 ms); doubles per attempt,
    /// capped. 0 disables sleeping (retries stay immediate).
    pub backoff_ticks: u64,
    /// Per-request read timeout in milliseconds (0 = wait forever). An
    /// expired timeout yields a typed `timeout` line for that request.
    pub timeout_ms: u64,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            concurrency: 1,
            mask_wall: false,
            retries: 0,
            backoff_ticks: 1,
            timeout_ms: 0,
        }
    }
}

/// What a finished batch looked like, beyond the printed lines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Lines with `status: error` (server-reported and synthesized).
    pub errors: usize,
    /// Requests no compute daemon ever answered: client-synthesized
    /// `connection-lost`/`timeout`/`protocol-mismatch` lines, plus
    /// router-answered `shard-unavailable` lines (the router spoke, but
    /// the request reached no shard). The CLI maps a non-zero count to
    /// the partial-result exit code.
    pub lost: usize,
}

/// Sends one request line over a fresh connection and returns the raw
/// response line (used by tests and one-shot queries). A peer that
/// closes without answering is an error.
pub fn send_one(host: &str, port: u16, line: &str) -> Result<String, SoiError> {
    Conn::connect((host, port), None)
        .map_err(|e| SoiError::io(format!("connect {host}:{port}"), e))?
        .exchange(line)
        .map_err(|e| SoiError::io(format!("exchange with {host}:{port}"), e))
}

/// Sends a pre-composed multi-line byte stream over one connection,
/// half-closes the write side, and collects every response line until
/// the server closes the connection. The payload is raw bytes, not
/// text: the differential fuzzer drives the real daemon with
/// deliberately invalid UTF-8 and oversized lines through this path,
/// which a `&str` API could not carry.
pub fn send_stream(host: &str, port: u16, payload: &[u8]) -> Result<Vec<String>, SoiError> {
    Conn::connect((host, port), None)
        .map_err(|e| SoiError::io(format!("connect {host}:{port}"), e))?
        .stream(payload)
        .map_err(|e| SoiError::io(format!("stream to {host}:{port}"), e))
}

/// A synthesized error line for a request the server never answered.
fn synth_error(request_line: &str, kind: ProtoErrorKind, message: &str) -> String {
    protocol::encode_rejection(request_line, &SoiError::protocol(kind, message))
}

/// When `line` is a retryable error response (`queue-full`,
/// `internal-error`, or `shard-unavailable`), the suggested extra wait
/// in ticks (`queue-full` rejections carry an explicit
/// `retry_after_ticks` hint, re-emitted verbatim by the router;
/// otherwise 0).
fn retryable_after(line: &str) -> Option<u64> {
    let doc = json::parse(line).ok()?;
    if doc.get("status")?.as_str()? != "error" {
        return None;
    }
    let err = doc.get("error")?;
    match err.get("kind")?.as_str()? {
        "queue-full" => Some(
            err.get("retry_after_ticks")
                .and_then(json::Value::as_u64)
                .unwrap_or(0),
        ),
        // A dead shard may come back (replica respawn, rebalance);
        // retrying through the router is how a healing fabric converges.
        "internal-error" | "shard-unavailable" => Some(0),
        _ => None,
    }
}

/// One lane's connection state.
struct Lane {
    host: String,
    port: u16,
    retries: u32,
    backoff_ticks: u64,
    timeout_ms: u64,
    conn: Option<Conn>,
    /// Set once retries are exhausted: every later request in the lane
    /// is lost without further connection attempts.
    dead: bool,
}

/// How one request in a lane ended.
enum LaneAnswer {
    /// A server response line.
    Server(String),
    /// A synthesized error line (no server response); counts as lost.
    Synthesized(String),
}

impl Lane {
    fn connect(&mut self) -> std::io::Result<()> {
        let timeout = (self.timeout_ms > 0).then(|| Duration::from_millis(self.timeout_ms));
        self.conn = Some(Conn::connect((self.host.as_str(), self.port), timeout)?);
        Ok(())
    }

    /// Runs one request to a response line, retrying per the config.
    fn run_request(&mut self, request: &str) -> LaneAnswer {
        let mut attempt: u32 = 0;
        loop {
            if self.dead {
                return LaneAnswer::Synthesized(synth_error(
                    request,
                    ProtoErrorKind::ConnectionLost,
                    "server connection lost with the request outstanding",
                ));
            }
            if self.conn.is_none() && self.connect().is_err() {
                self.retry_or_die(&mut attempt, 0);
                continue;
            }
            // Take the live connection for one write-then-read cycle;
            // it is only put back after a successful exchange.
            let Some(mut conn) = self.conn.take() else {
                continue;
            };
            let line = match conn.exchange(request) {
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // The response may still arrive later on this
                    // connection; it stays dropped so a stale line can
                    // never be paired with the next request.
                    return LaneAnswer::Synthesized(synth_error(
                        request,
                        ProtoErrorKind::Timeout,
                        "no response within the request timeout",
                    ));
                }
                Err(_) => {
                    // Failed send, mid-batch EOF or reset: the server (or
                    // just this connection) died before answering.
                    self.retry_or_die(&mut attempt, 0);
                    continue;
                }
                Ok(line) => line,
            };
            // Version-skew handshake: a response speaking a different
            // protocol version — or none: not a protocol line at all —
            // gets a typed protocol-mismatch diagnosis, not a generic
            // parse failure downstream.
            if let Err(SoiError::Protocol { kind, message }) =
                protocol::check_response_version(&line)
            {
                return LaneAnswer::Synthesized(synth_error(request, kind, &message));
            }
            // Either way the connection is still good: keep it for the
            // retry of a retryable server error, or the next request.
            self.conn = Some(conn);
            match retryable_after(&line) {
                Some(hint) if attempt < self.retries => self.retry_or_die(&mut attempt, hint),
                _ => return LaneAnswer::Server(line),
            }
        }
    }

    /// Consumes one retry attempt (sleeping the backoff schedule) or
    /// marks the lane dead when the budget is spent.
    fn retry_or_die(&mut self, attempt: &mut u32, hint_ticks: u64) {
        if *attempt >= self.retries {
            self.dead = true;
            return;
        }
        backoff_nap(self.backoff_ticks, *attempt, hint_ticks);
        *attempt += 1;
    }
}

/// Runs a batch of request lines against the daemon, printing one
/// response line per request to `out`, in request order. Requests the
/// server never answered print synthesized typed errors
/// (`connection-lost`/`timeout`) and are tallied in
/// [`BatchReport::lost`]; the batch neither hangs nor aborts on a
/// mid-batch server death.
pub fn run_queries<W: Write>(
    requests: &[String],
    config: &QueryConfig,
    out: &mut W,
) -> Result<BatchReport, SoiError> {
    let lanes = config.concurrency.max(1).min(requests.len().max(1));
    let slots: Mutex<Vec<Option<String>>> = Mutex::new(vec![None; requests.len()]);
    let lost = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for lane_idx in 0..lanes {
            let slots = &slots;
            let lost = &lost;
            let mut lane = Lane {
                host: config.host.clone(),
                port: config.port,
                retries: config.retries,
                backoff_ticks: config.backoff_ticks,
                timeout_ms: config.timeout_ms,
                conn: None,
                dead: false,
            };
            s.spawn(move || {
                for idx in (lane_idx..requests.len()).step_by(lanes) {
                    let line = match lane.run_request(&requests[idx]) {
                        LaneAnswer::Server(line) => line,
                        LaneAnswer::Synthesized(line) => {
                            // ordering: lane-local counting; the scope
                            // join below publishes the total, so
                            // Relaxed RMW is exact.
                            lost.fetch_add(1, Ordering::Relaxed);
                            line
                        }
                    };
                    slots.lock().unwrap_or_else(PoisonError::into_inner)[idx] = Some(line);
                }
            });
        }
    });
    let mut report = BatchReport {
        errors: 0,
        // ordering: read after `thread::scope` returns; the implicit
        // join already supplies the happens-before edge.
        lost: lost.load(Ordering::Relaxed),
    };
    let slots = slots.lock().unwrap_or_else(PoisonError::into_inner);
    for slot in slots.iter() {
        let Some(line) = slot else {
            return Err(SoiError::invalid("missing response for a request"));
        };
        if line.contains("\"status\":\"error\"") {
            report.errors += 1;
            // A shard-unavailable answer is a router response, but the
            // request never reached a compute daemon — the batch is as
            // partial as if the line had been synthesized client-side.
            if line.contains("\"kind\":\"shard-unavailable\"") {
                report.lost += 1;
            }
        }
        let printed = if config.mask_wall {
            soi_obs::report::mask_wall_clock(line)
        } else {
            line.clone()
        };
        writeln!(out, "{printed}").map_err(|e| SoiError::io("stdout", e))?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    #[test]
    fn lane_partition_covers_all_requests() {
        // The round-robin partition used by run_queries: every index in
        // exactly one lane.
        let n = 13;
        let lanes = 4;
        let mut seen = vec![0u32; n];
        for lane in 0..lanes {
            for idx in (lane..n).step_by(lanes) {
                seen[idx] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn masking_applies_to_printed_lines() {
        let line = "{\"v\":1,\"id\":1,\"status\":\"ok\",\"wall_ns\":98765}";
        assert_eq!(
            soi_obs::report::mask_wall_clock(line),
            "{\"v\":1,\"id\":1,\"status\":\"ok\",\"wall_ns\":0}"
        );
    }

    #[test]
    fn retryable_classification_reads_the_hint() {
        let full = protocol::encode_queue_full(1, 8, 32);
        assert_eq!(retryable_after(&full), Some(32));
        let internal = protocol::encode_error(
            Some(1),
            &SoiError::protocol(ProtoErrorKind::Internal, "worker panicked"),
        );
        assert_eq!(retryable_after(&internal), Some(0));
        let ok = protocol::encode_ok(1, "", 5);
        assert_eq!(retryable_after(&ok), None);
        let bad = protocol::encode_error(
            Some(1),
            &SoiError::protocol(ProtoErrorKind::BadField, "k must be >= 1"),
        );
        assert_eq!(retryable_after(&bad), None, "client mistakes never retry");
        let shard = protocol::encode_error(
            Some(1),
            &SoiError::protocol(ProtoErrorKind::ShardUnavailable, "all replicas down"),
        );
        assert_eq!(retryable_after(&shard), Some(0), "shards may come back");
    }

    /// A server that answers with a future protocol version: the client
    /// diagnoses skew with a typed protocol-mismatch, not a parse error.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a scripted peer, joined before the test ends"
    )]
    fn version_skewed_server_yields_typed_protocol_mismatch() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let port = listener.local_addr().expect("addr").port();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            writeln!(writer, "{{\"v\":9,\"id\":0,\"status\":\"ok\"}}").expect("write");
            writer.flush().expect("flush");
            let _ = reader.read_line(&mut String::new());
        });
        let requests = vec!["{\"v\":1,\"id\":0,\"type\":\"health\"}".to_string()];
        let config = QueryConfig {
            port,
            retries: 0,
            backoff_ticks: 0,
            ..QueryConfig::default()
        };
        let mut out = Vec::new();
        let report = run_queries(&requests, &config, &mut out).expect("typed, not fatal");
        server.join().expect("server thread");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("\"kind\":\"protocol-mismatch\""), "{text}");
        assert!(
            text.contains("version 9") && text.contains('1'),
            "both versions named: {text}"
        );
        assert_eq!(report.lost, 1, "a skewed answer is no answer");
    }

    /// A scripted server: answers the first request, then slams the
    /// connection and stops listening — the mid-batch-death scenario.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a scripted peer, joined before the test ends"
    )]
    fn mid_batch_disconnect_synthesizes_typed_lines() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let port = listener.local_addr().expect("addr").port();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            let id = protocol::request_id(&line).expect("id");
            writeln!(writer, "{}", protocol::encode_ok(id, "", 7)).expect("write");
            writer.flush().expect("flush");
            // Connection and listener drop here: requests 1 and 2 are
            // outstanding forever.
        });
        let requests: Vec<String> = (0..3)
            .map(|id| format!("{{\"v\":1,\"id\":{id},\"type\":\"health\"}}"))
            .collect();
        let config = QueryConfig {
            port,
            retries: 1,
            backoff_ticks: 0,
            ..QueryConfig::default()
        };
        let mut out = Vec::new();
        let report = run_queries(&requests, &config, &mut out).expect("no hang, no abort");
        server.join().expect("server thread");
        let lines: Vec<&str> = std::str::from_utf8(&out).expect("utf8").lines().collect();
        assert_eq!(lines.len(), 3, "one line per request: {lines:?}");
        assert!(lines[0].contains("\"status\":\"ok\""), "{}", lines[0]);
        for (id, line) in lines.iter().enumerate().skip(1) {
            assert!(line.contains("\"kind\":\"connection-lost\""), "{line}");
            assert!(line.contains(&format!("\"id\":{id}")), "{line}");
        }
        assert_eq!(report.lost, 2);
        assert_eq!(report.errors, 2);
    }

    #[test]
    fn unreachable_server_loses_every_request() {
        // Bind-then-drop reserves a port with no listener behind it.
        let port = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").port()
        };
        let requests: Vec<String> = (0..2)
            .map(|id| format!("{{\"v\":1,\"id\":{id},\"type\":\"health\"}}"))
            .collect();
        let config = QueryConfig {
            port,
            retries: 0,
            backoff_ticks: 0,
            concurrency: 2,
            ..QueryConfig::default()
        };
        let mut out = Vec::new();
        let report = run_queries(&requests, &config, &mut out).expect("typed, not fatal");
        assert_eq!(report.lost, 2);
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(
            text.matches("\"kind\":\"connection-lost\"").count(),
            2,
            "{text}"
        );
    }
}
