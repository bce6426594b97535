//! Chaos matrix for the serving daemon: the real `soi` binary run under
//! `SOI_FAILPOINTS` crash/panic schedules (see `docs/ROBUSTNESS.md` §3
//! and `docs/SERVING.md`).
//!
//! Two invariants hold across every schedule:
//!
//! 1. no request ends without a typed response — every id in the batch
//!    gets exactly one line, either a real result or a typed error
//!    (`internal-error`, `connection-lost`), never silence;
//! 2. a retrying client converges — with `--retries`, the masked batch
//!    output is byte-identical to a fault-free run, because every
//!    injected failure is either retried to success or the daemon
//!    answers deterministically around it.
//!
//! The matrix (one test per schedule):
//!
//! * `server.response.write=panic@K` — a connection thread dies mid
//!   write; the daemon keeps serving, the client reconnects and resends.
//! * `server.worker.dispatch=panic@1` — a worker panics mid request;
//!   the in-flight request answers typed `internal-error`, the worker is
//!   respawned, and the daemon serves every subsequent request.
//! * `server.index.build=error` — index builds fail persistently; every
//!   compute request answers a typed `internal-error`, control requests
//!   stay healthy, and the drain is clean.
//! * `server.response.write=exit(N)@K` — the daemon process dies mid
//!   batch; the client synthesizes typed `connection-lost` lines for
//!   every outstanding request and exits 3 instead of hanging.
//! * `server.cache.insert=panic@2` — a worker dies between building an
//!   oracle and publishing it (hit 1 is the startup index warm); the
//!   request answers typed `internal-error`, nothing half-published is
//!   served, and the next lookup builds again.
//!
//! Masked transcripts and the metrics report land in
//! `target/chaos-artifacts/` for CI upload.
//!
//! Every test arms a failpoint, and the sites compile out of release
//! builds, so the whole matrix runs in the debug profile only.
#![cfg(debug_assertions)]

mod common;

use common::{
    assert_all_answered, fresh_dir, make_graph, save_artifact, stdout_str, write_batch,
    Proc as Daemon,
};

#[test]
fn connection_thread_panic_is_survived_and_converges() {
    let dir = fresh_dir("conn-panic");
    let graph = make_graph(&dir, 16);
    let reqs = write_batch(&dir, 10);

    // Fault-free baseline.
    let clean = Daemon::serve(&graph, &[], None);
    let expected = stdout_str(&clean.query_batch(&reqs, "0"));
    clean.shutdown();

    // The 5th response write panics, killing that connection thread
    // mid-batch. The retrying client reconnects and resends; the daemon
    // keeps serving other connections.
    let chaos = Daemon::serve(&graph, &[], Some("server.response.write=panic@5"));
    let got = stdout_str(&chaos.query_batch(&reqs, "2"));
    save_artifact("conn-panic.transcript.jsonl", &got);
    assert_all_answered(&got, 10);
    assert_eq!(got, expected, "masked output must converge to fault-free");
    // The daemon survived the thread death: it still drains cleanly.
    chaos.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_panic_answers_typed_respawns_and_keeps_serving() {
    let dir = fresh_dir("worker-panic");
    let graph = make_graph(&dir, 16);
    let reqs = write_batch(&dir, 10);

    let clean = Daemon::serve(&graph, &["--workers", "1"], None);
    let expected = stdout_str(&clean.query_batch(&reqs, "0"));
    clean.shutdown();

    // The first dispatched job panics its (only) worker. Without
    // retries the client must still see a typed internal-error line —
    // never silence — and the respawned worker serves the rest.
    let metrics = dir.join("metrics.jsonl").to_string_lossy().into_owned();
    let chaos = Daemon::serve(
        &graph,
        &["--workers", "1", "--metrics-out", &metrics],
        Some("server.worker.dispatch=panic@1"),
    );
    let bare = stdout_str(&chaos.query_batch(&reqs, "0"));
    assert_all_answered(&bare, 10);
    assert!(
        bare.contains("\"kind\":\"internal-error\""),
        "panicked request must answer typed:\n{bare}"
    );

    // With retries, the internal-error is retried against the respawned
    // worker and the batch converges byte-for-byte.
    let got = stdout_str(&chaos.query_batch(&reqs, "2"));
    save_artifact("worker-panic.transcript.jsonl", &got);
    assert_all_answered(&got, 10);
    assert_eq!(got, expected, "masked output must converge to fault-free");

    // Supervision is visible: the panic and respawn are counted, and the
    // daemon serves requests after the panic (the whole second batch).
    let stats = stdout_str(&chaos.query_one("{\"v\":1,\"id\":77,\"type\":\"stats\"}"));
    for needle in [
        "\"worker_panics\":1",
        "\"worker_respawns\":1",
        "\"worker_generations\":2",
    ] {
        assert!(stats.contains(needle), "missing {needle}: {stats}");
    }

    chaos.shutdown();
    let report = std::fs::read_to_string(&metrics).expect("metrics report written");
    save_artifact("worker-panic.metrics.jsonl", &report);
    for counter in [
        "server.worker_panics",
        "server.worker_respawns",
        "server.requests_shed",
        "server.requests_degraded",
    ] {
        assert!(
            report.contains(&format!("\"name\":\"{counter}\"")),
            "missing {counter} in:\n{report}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persistent_build_faults_answer_typed_and_drain_cleanly() {
    let dir = fresh_dir("build-fault");
    let graph = make_graph(&dir, 16);
    let reqs = write_batch(&dir, 6);

    let chaos = Daemon::serve(&graph, &[], Some("server.index.build=error"));
    let got = stdout_str(&chaos.query_batch(&reqs, "0"));
    save_artifact("build-fault.transcript.jsonl", &got);
    assert_all_answered(&got, 6);
    for (i, line) in got.lines().enumerate() {
        let id = i as u64 + 1;
        if id % 3 == 1 {
            // typical-cascade needs the index: fails typed, with the
            // fault's site named so operators can trace it.
            assert!(line.contains("\"kind\":\"internal-error\""), "{line}");
            assert!(line.contains("server.index.build"), "{line}");
        } else {
            // spread-estimate samples the graph directly and health is
            // control-plane: both keep working around the broken index.
            assert!(line.contains("\"status\":\"ok\""), "{line}");
        }
    }
    chaos.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn daemon_death_yields_typed_connection_lost_and_exit_3() {
    let dir = fresh_dir("daemon-death");
    let graph = make_graph(&dir, 16);
    let reqs = write_batch(&dir, 8);

    // The 4th response write exits the process: a hard crash mid-batch.
    let mut chaos = Daemon::serve(&graph, &[], Some("server.response.write=exit(41)@4"));
    let out = chaos.query_batch(&reqs, "1");
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    save_artifact("daemon-death.transcript.jsonl", &text);

    // Invariant 1 even across process death: every id answers exactly
    // once — real results before the crash, typed connection-lost after.
    assert_all_answered(&text, 8);
    let lines: Vec<&str> = text.lines().collect();
    for line in &lines[..3] {
        assert!(line.contains("\"status\":\"ok\""), "{line}");
    }
    for line in &lines[3..] {
        assert!(line.contains("\"kind\":\"connection-lost\""), "{line}");
    }
    assert_eq!(
        out.status.code(),
        Some(3),
        "lost responses must exit 3: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        chaos.child.wait().expect("wait for daemon").code(),
        Some(41),
        "daemon simulated-crash status"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn panic_before_cache_insert_answers_typed_and_rebuilds() {
    let dir = fresh_dir("cache-insert");
    let graph = make_graph(&dir, 16);
    let sketch = "{\"v\":1,\"id\":1,\"type\":\"spread-estimate\",\"graph\":\"net\",\
                  \"seeds\":[3],\"samples\":1,\"backend\":\"sketch\"}";
    let infmax = "{\"v\":1,\"id\":2,\"type\":\"infmax-tc\",\"graph\":\"net\",\"k\":3,\
                  \"backend\":\"sketch\"}";
    let ask = |d: &Daemon| stdout_str(&d.query(&["--mask-wall", sketch, infmax]));

    let clean = Daemon::serve(&graph, &["--workers", "1"], None);
    let expected = ask(&clean);
    clean.shutdown();

    // Hit 1 is the startup warm of the index; hit 2 is the first sketch
    // build, whose worker panics before the cache holds it.
    let chaos = Daemon::serve(
        &graph,
        &["--workers", "1"],
        Some("server.cache.insert=panic@2"),
    );
    let bare = ask(&chaos);
    save_artifact("cache-insert.transcript.jsonl", &bare);
    let lines: Vec<&str> = bare.lines().collect();
    assert_eq!(lines.len(), 2, "{bare}");
    assert!(
        lines[0].contains("\"id\":1") && lines[0].contains("\"kind\":\"internal-error\""),
        "{bare}"
    );
    assert_eq!(Some(lines[1]), expected.lines().nth(1), "{bare}");
    // The panicked build was never served: the next request built the
    // sketches again (misses: warm, panicked build, rebuild), and from
    // then on every answer is the fault-free one.
    assert_eq!(ask(&chaos), expected);
    let stats = stdout_str(&chaos.query_one("{\"v\":1,\"id\":77,\"type\":\"stats\"}"));
    for needle in ["\"cache_misses\":3", "\"worker_panics\":1"] {
        assert!(stats.contains(needle), "missing {needle}: {stats}");
    }
    chaos.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
