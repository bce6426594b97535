//! Protocol-robustness tests against a real in-process TCP daemon:
//! every malformed input gets a distinct typed error, no input kills a
//! worker or the accept loop, deadlines produce well-formed partials,
//! admission control rejects deterministically, and shutdown drains.

mod common;

use common::FrontEnd;
use soi_server::{json, QueryConfig, Request, ServeConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// One persistent client connection with line-at-a-time round trips.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(port: u16) -> Conn {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        let writer = stream.try_clone().expect("clone");
        Conn {
            writer,
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> String {
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("recv");
        resp.trim_end().to_string()
    }

    fn round_trip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

fn field_u64(resp: &str, key: &str) -> Option<u64> {
    json::parse(resp).ok()?.get(key)?.as_u64()
}

#[test]
fn malformed_inputs_get_distinct_kinds_and_never_kill_the_server() {
    let daemon = FrontEnd::daemon(ServeConfig::default());
    let mut conn = Conn::open(daemon.port);

    let resp = conn.round_trip("this is { not json");
    assert!(resp.contains("\"kind\":\"malformed-json\""), "{resp}");
    assert!(resp.contains("\"id\":null"), "{resp}");

    // A line that parses as an object answers with its own id, whatever
    // field is wrong.
    let resp = conn.round_trip(r#"{"v":1,"id":2,"type":"launch-missiles"}"#);
    assert!(resp.contains("\"kind\":\"unknown-type\""), "{resp}");
    assert_eq!(field_u64(&resp, "id"), Some(2), "{resp}");

    let resp = conn.round_trip(r#"{"v":1,"id":21,"type":"infmax-tc","graph":"g","k":0}"#);
    assert!(resp.contains("\"kind\":\"bad-field\""), "{resp}");
    assert_eq!(field_u64(&resp, "id"), Some(21), "{resp}");

    let resp = conn.round_trip(
        r#"{"v":1,"id":22,"type":"typical-cascade","graph":"g","source":0,"dedline_ticks":5}"#,
    );
    assert!(resp.contains("\"kind\":\"bad-field\""), "{resp}");
    assert_eq!(field_u64(&resp, "id"), Some(22), "{resp}");

    let resp = conn.round_trip(r#"{"v":3,"id":3,"type":"health"}"#);
    assert!(resp.contains("\"kind\":\"version-mismatch\""), "{resp}");

    let resp =
        conn.round_trip(r#"{"v":1,"id":4,"type":"typical-cascade","graph":"nope","source":0}"#);
    assert!(resp.contains("\"kind\":\"unknown-graph\""), "{resp}");

    let resp =
        conn.round_trip(r#"{"v":1,"id":5,"type":"typical-cascade","graph":"g","source":1000}"#);
    assert!(resp.contains("\"kind\":\"bad-field\""), "{resp}");

    // The same connection still computes after seven straight errors.
    let resp = conn.round_trip(r#"{"v":1,"id":6,"type":"typical-cascade","graph":"g","source":0}"#);
    assert!(resp.contains("\"status\":\"ok\""), "{resp}");
    daemon.stop();
}

#[test]
fn oversize_sketch_k_is_refused_before_any_build() {
    // A failed allocation of 10^12 entries per node aborts the process
    // instead of unwinding, so the cap must refuse it before any build.
    let daemon = FrontEnd::daemon(ServeConfig::default());
    let mut conn = Conn::open(daemon.port);
    let resp = conn.round_trip(
        r#"{"v":1,"id":1,"type":"spread-estimate","graph":"g","seeds":[0],"samples":1,"backend":"sketch","sketch_k":1000000000000}"#,
    );
    assert!(resp.contains("\"kind\":\"bad-field\""), "{resp}");
    let resp = conn.round_trip(r#"{"v":1,"id":2,"type":"health"}"#);
    assert!(resp.contains("\"status\":\"ok\""), "{resp}");
    daemon.stop();
}

#[test]
fn oversized_line_is_rejected_without_dropping_the_connection() {
    let daemon = FrontEnd::daemon(ServeConfig {
        max_line: 256,
        ..ServeConfig::default()
    });
    let mut conn = Conn::open(daemon.port);
    let huge = format!(
        r#"{{"v":1,"id":1,"type":"health","pad":"{}"}}"#,
        "x".repeat(1000)
    );
    let resp = conn.round_trip(&huge);
    assert!(resp.contains("\"kind\":\"oversized-line\""), "{resp}");
    let resp = conn.round_trip(r#"{"v":1,"id":2,"type":"health"}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    daemon.stop();
}

#[test]
fn mid_request_disconnect_is_counted_and_survived() {
    let daemon = FrontEnd::daemon(ServeConfig::default());
    {
        // Write half a request, then drop the connection.
        let mut stream = TcpStream::connect(("127.0.0.1", daemon.port)).expect("connect");
        stream
            .write_all(br#"{"v":1,"id":7,"type":"typ"#)
            .expect("partial write");
        stream.flush().expect("flush");
    } // closed here, mid-line
      // The daemon keeps serving fresh connections afterwards.
    let resp = daemon.send(r#"{"v":1,"id":8,"type":"health"}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    daemon.stop();
}

#[test]
fn deadline_limited_query_returns_well_formed_partial() {
    let daemon = FrontEnd::daemon(ServeConfig::default());
    let resp = daemon.send(
        r#"{"v":1,"id":1,"type":"spread-estimate","graph":"g","seeds":[0],"samples":64,"seed":3,"deadline_ticks":8}"#,
    );
    assert!(resp.contains("\"status\":\"partial\""), "{resp}");
    assert!(resp.contains("\"reason\":\"deadline-expired\""), "{resp}");
    assert_eq!(field_u64(&resp, "total"), Some(64), "{resp}");
    let done = field_u64(&resp, "done").expect("done field");
    assert!(done < 64, "{resp}");
    // Same budget, same prefix: byte-identical after masking wall time.
    let again = daemon.send(
        r#"{"v":1,"id":1,"type":"spread-estimate","graph":"g","seeds":[0],"samples":64,"seed":3,"deadline_ticks":8}"#,
    );
    assert_eq!(
        soi_obs::report::mask_wall_clock(&resp),
        soi_obs::report::mask_wall_clock(&again)
    );
    daemon.stop();
}

#[test]
fn queue_overflow_returns_typed_rejection() {
    // One worker, queue capacity one: occupy the worker with a slow
    // query, fill the queue with a second, then watch the third bounce.
    let daemon = FrontEnd::daemon(ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    });
    let slow = r#"{"v":1,"id":100,"type":"spread-estimate","graph":"g","seeds":[0],"samples":3000000,"seed":1}"#;

    let mut occupier = Conn::open(daemon.port);
    occupier.send(slow);
    let mut control = Conn::open(daemon.port);
    // Deterministic sequencing via the inline stats channel: wait until
    // the slow job is actually executing.
    loop {
        let stats = control.round_trip(r#"{"v":1,"id":1,"type":"stats"}"#);
        if field_u64(&stats, "in_flight") == Some(1) {
            break;
        }
        std::thread::yield_now();
    }
    let mut filler = Conn::open(daemon.port);
    filler.send(slow);
    loop {
        let stats = control.round_trip(r#"{"v":1,"id":2,"type":"stats"}"#);
        if field_u64(&stats, "queue_depth") == Some(1) {
            break;
        }
        std::thread::yield_now();
    }
    // Worker busy + queue full: the next compute request must bounce
    // immediately with the typed rejection.
    let mut bouncer = Conn::open(daemon.port);
    let resp = bouncer.round_trip(
        r#"{"v":1,"id":3,"type":"spread-estimate","graph":"g","seeds":[0],"samples":4,"seed":1}"#,
    );
    assert!(resp.contains("\"kind\":\"queue-full\""), "{resp}");
    assert!(resp.contains("\"id\":3"), "{resp}");
    // Control plane stays responsive throughout.
    let resp = control.round_trip(r#"{"v":1,"id":4,"type":"health"}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    // Graceful shutdown drains both slow jobs; their clients get real
    // responses, not resets.
    let shutdown = daemon.send(r#"{"v":1,"id":999,"type":"shutdown"}"#);
    assert!(shutdown.contains("\"draining\":true"), "{shutdown}");
    let drained = occupier.recv();
    assert!(drained.contains("\"status\":\"ok\""), "{drained}");
    let drained = filler.recv();
    assert!(drained.contains("\"status\":\"ok\""), "{drained}");
    daemon.thread.join().expect("daemon thread");
}

#[test]
fn client_batch_is_ordered_and_deterministic_under_masking() {
    let daemon = FrontEnd::daemon(ServeConfig::default());
    let mut requests = Vec::new();
    for i in 0..30u64 {
        requests.push(match i % 3 {
            0 => format!(
                r#"{{"v":1,"id":{i},"type":"typical-cascade","graph":"g","source":{}}}"#,
                i % 30
            ),
            1 => format!(
                r#"{{"v":1,"id":{i},"type":"spread-estimate","graph":"g","seeds":[{}],"samples":8,"seed":7}}"#,
                i % 30
            ),
            _ => format!(r#"{{"v":1,"id":{i},"type":"health"}}"#),
        });
    }
    let config = QueryConfig {
        port: daemon.port,
        concurrency: 4,
        mask_wall: true,
        ..QueryConfig::default()
    };
    let mut out_a = Vec::new();
    let report = soi_server::run_queries(&requests, &config, &mut out_a).expect("batch a");
    assert_eq!(report.errors, 0);
    assert_eq!(report.lost, 0);
    let mut out_b = Vec::new();
    soi_server::run_queries(&requests, &config, &mut out_b).expect("batch b");
    assert_eq!(
        String::from_utf8_lossy(&out_a),
        String::from_utf8_lossy(&out_b),
        "masked batches must be byte-identical"
    );
    // Responses come back in request order: id i on line i.
    for (i, line) in String::from_utf8_lossy(&out_a).lines().enumerate() {
        assert_eq!(field_u64(line, "id"), Some(i as u64), "{line}");
    }
    daemon.stop();
}

#[test]
fn shutdown_drains_and_closes_idle_connections() {
    let daemon = FrontEnd::daemon(ServeConfig::default());
    // An idle connection that never sends anything.
    let mut idle = TcpStream::connect(("127.0.0.1", daemon.port)).expect("connect");
    daemon.stop();
    // After drain the server shuts the read side down and exits; the
    // idle client observes EOF rather than a hang.
    let mut buf = Vec::new();
    let n = idle.read_to_end(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "idle connection sees clean EOF");
}

#[test]
fn infmax_roundtrip_over_tcp() {
    let daemon = FrontEnd::daemon(ServeConfig::default());
    let resp = daemon.send(r#"{"v":1,"id":1,"type":"infmax-tc","graph":"g","k":2}"#);
    assert!(resp.contains("\"status\":\"ok\""), "{resp}");
    assert!(resp.contains("\"seeds\":["), "{resp}");
    assert!(resp.contains("\"coverage\":["), "{resp}");
    let _ = Request::Health; // keep the re-export exercised
    daemon.stop();
}
