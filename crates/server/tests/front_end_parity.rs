//! The two front doors from outside, both in-process over real sockets:
//!
//! * **parity** — one hostile byte stream sent to a `run_tcp` daemon and
//!   to a `run_router` in front of it gets the same answers, line for
//!   line (the same protocol at both doors: framing, caps, parse errors,
//!   controls, relayed compute);
//! * **the router's view of its replicas** — a peer that closes silently,
//!   one that answers garbage and one that accepts and hangs are each
//!   judged unhealthy by the health probe, and none of them can hold the
//!   router's drain past the control-plane timeout; a replica's garbage
//!   answer to a relayed request is a failed exchange, never relayed.

mod common;

use common::FrontEnd;
use soi_server::{RouterConfig, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[test]
fn daemon_and_router_answer_one_stream_identically() {
    const MAX_LINE: usize = 256;
    let daemon = FrontEnd::daemon(ServeConfig {
        max_line: MAX_LINE,
        ..ServeConfig::default()
    });
    let router = FrontEnd::router(RouterConfig {
        shards: vec![vec![format!("127.0.0.1:{}", daemon.port)]],
        max_line: MAX_LINE,
        backoff_ticks: 0,
        ..RouterConfig::default()
    });

    let mut payload: Vec<u8> = Vec::new();
    let mut push = |bytes: &[u8]| {
        payload.extend_from_slice(bytes);
        payload.push(b'\n');
    };
    push(br#"{"v":1,"id":1,"type":"typical-cascade","graph":"g","source":3}"#);
    push(b"");
    push(br#"{"v":1,"id":2,"type":"spread-estimate","graph":"g","seeds":[0,7],"samples":16,"seed":7}"#);
    push(b"   \r");
    push(
        format!(
            r#"{{"v":1,"id":3,"type":"health","pad":"{}"}}"#,
            "x".repeat(400)
        )
        .as_bytes(),
    );
    push(b"{\"v\":1,\"id\":4,\"type\":\"\xff\xfe\"}");
    push(br#"{"v":1,"v":1,"id":5,"type":"health"}"#);
    push(br#"{"v":1,"id":6,"type":"typical-cascade","graph":"g","source":0,"dedline_ticks":4}"#);
    push(br#"{"v":1,"id":7,"type":"frobnicate"}"#);
    push(br#"{"v":2,"id":8,"type":"health"}"#);
    push(br#"{"v":1,"id":9,"type":"health"}"#);
    push(br#"{"v":1,"id":11,"type":"typical-cascade","graph":"nope","source":0}"#);
    push(br#"{"v":1,"id":12,"type":"spread-estimate","graph":"g","seeds":[2],"samples":64,"seed":3,"deadline_ticks":8}"#);
    push(br#"{"v":1,"id":13,"type":"spread-estimate","graph":"g","seeds":[1],"samples":4,"backend":"sketch","sketch_k":8}"#);
    push(br#"{"v":1,"id":14,"type":"infmax-tc","graph":"g","k":2,"trace":true}"#);
    // The final line never gets its newline: neither door serves it.
    payload.extend_from_slice(br#"{"v":1,"id":15,"type":"typ"#);

    let answers = |front: &FrontEnd| -> Vec<String> {
        soi_server::send_stream("127.0.0.1", front.port, &payload)
            .expect("stream")
            .iter()
            .map(|line| soi_obs::report::mask_wall_clock(line))
            .collect()
    };
    let direct = answers(&daemon);
    let routed = answers(&router);

    // Two blank lines and the unterminated tail are not answered.
    assert_eq!(direct.len(), 13, "{direct:#?}");
    assert_eq!(routed.len(), direct.len(), "{routed:#?}");
    for (i, (d, r)) in direct.iter().zip(&routed).enumerate() {
        if i == 8 {
            // `health` reports what each door holds.
            assert!(d.contains("\"ok\":true,\"graphs\":1"), "{d}");
            assert_eq!(r, &d.replace("\"graphs\":1", "\"shards\":1"));
        } else {
            assert_eq!(d, r, "answer {i} differs between the doors");
        }
    }
    // The doors agree on real answers, not on a common failure.
    assert!(
        direct[0].contains("\"status\":\"ok\",\"sphere\":["),
        "{}",
        direct[0]
    );
    assert!(
        direct[2].contains("\"kind\":\"oversized-line\""),
        "{}",
        direct[2]
    );
    assert!(direct[12].contains("\"trace\":["), "{}", direct[12]);

    router.stop();
    daemon.stop();
}

/// A scripted peer: accepts connections and runs `script` on each until
/// stopped.
struct Peer {
    addr: String,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Peer {
    #[expect(
        clippy::disallowed_methods,
        reason = "the peer's accept thread; `stop` joins it"
    )]
    fn start(script: impl Fn(TcpStream) + Send + 'static) -> Peer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stopped.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    script(stream);
                }
            }
        });
        Peer { addr, stop, thread }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&self.addr);
        self.thread.join().expect("peer thread");
    }
}

/// Reads the request, answers something that is not this protocol.
fn garbage_peer() -> Peer {
    Peer::start(|stream| {
        let mut line = String::new();
        let _ = BufReader::new(&stream).read_line(&mut line);
        let _ = (&stream).write_all(b"HTTP/1.1 400 Bad Request\r\n\r\n");
    })
}

#[test]
fn replica_garbage_is_a_failed_exchange_never_relayed() {
    let request = r#"{"v":1,"id":41,"type":"typical-cascade","graph":"g","source":3}"#;
    let daemon = FrontEnd::daemon(ServeConfig::default());
    let garbage = garbage_peer();
    let mismatches = soi_obs::counter("router.protocol_mismatches");
    let before = mismatches.get();

    // Beside a real replica: the router fails over and the client sees
    // the daemon's own answer.
    let mixed = FrontEnd::router(RouterConfig {
        shards: vec![vec![
            garbage.addr.clone(),
            format!("127.0.0.1:{}", daemon.port),
        ]],
        backoff_ticks: 0,
        ..RouterConfig::default()
    });
    let masked = |line: String| soi_obs::report::mask_wall_clock(&line);
    assert_eq!(masked(mixed.send(request)), masked(daemon.send(request)));
    assert!(mismatches.get() > before);
    let stats = mixed.send(r#"{"v":1,"id":1,"type":"stats"}"#);
    assert!(
        stats.contains(&format!("\"addr\":\"{}\",\"healthy\":false", garbage.addr)),
        "{stats}"
    );

    // Alone: the retries run out and the answer is the typed mismatch
    // under the request's id, not the peer's bytes.
    let alone = FrontEnd::router(RouterConfig {
        shards: vec![vec![garbage.addr.clone()]],
        backoff_ticks: 0,
        ..RouterConfig::default()
    });
    let answer = alone.send(request);
    assert!(
        answer
            .starts_with(r#"{"v":1,"id":41,"status":"error","error":{"kind":"protocol-mismatch""#),
        "{answer}"
    );

    alone.stop();
    mixed.stop();
    garbage.stop();
    daemon.stop();
}

#[test]
fn silent_garbage_and_hung_peers_are_unhealthy_and_cannot_hold_the_drain() {
    // Closes without a byte.
    let silent = Peer::start(drop);
    let garbage = garbage_peer();
    // Accepts (the kernel completes the handshake into the backlog) and
    // never answers: a stopped process with a listening socket.
    let hung = TcpListener::bind("127.0.0.1:0").expect("bind");
    let hung_addr = hung.local_addr().expect("addr").to_string();

    let attempts = soi_obs::counter("router.probe_attempts");
    let before = attempts.get();
    let router = FrontEnd::router(RouterConfig {
        shards: vec![
            vec![silent.addr.clone()],
            vec![garbage.addr.clone()],
            vec![hung_addr.clone()],
        ],
        probe_interval_ms: 10,
        ..RouterConfig::default()
    });

    // The sixth attempt is the second probe of the hung peer: by then the
    // silent and the garbage peer have each been probed twice and the
    // hung one has timed out once. Without a read timeout the first sweep
    // never gets past the hung peer.
    let deadline = Instant::now() + Duration::from_secs(20);
    while attempts.get() - before < 6 {
        assert!(
            Instant::now() < deadline,
            "the probe is stuck: {} attempts",
            attempts.get() - before
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = router.send(r#"{"v":1,"id":1,"type":"stats"}"#);
    for addr in [&silent.addr, &garbage.addr, &hung_addr] {
        assert!(
            stats.contains(&format!("\"addr\":\"{addr}\",\"healthy\":false")),
            "{addr} must be unhealthy: {stats}"
        );
    }
    assert!(stats.contains("\"router.probe_recoveries\":0"), "{stats}");

    // The probe thread may be inside its exchange with the hung peer:
    // the drain waits for that one timeout at most.
    router.stop_within(Duration::from_secs(5));
    silent.stop();
    garbage.stop();
    drop(hung);
}
