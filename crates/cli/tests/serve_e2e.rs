//! End-to-end tests of the serving daemon over the real `soi` binary.
//!
//! Everything here goes through subprocesses — `soi serve` for the
//! daemon and `soi query` for the client — because the hermeticity lint
//! confines `std::net` to `crates/server`; this file proves the whole
//! stack works from the shell, exactly as CI's `serve-e2e` job drives
//! it. Covered end to end:
//!
//! * a mixed batch of 100+ concurrent queries whose masked responses
//!   are byte-identical across two runs (determinism modulo wall-clock);
//! * a deadline-limited query returning a well-formed `partial`;
//! * admission control: a saturated one-worker daemon answers a typed
//!   `queue-full` rejection while control requests stay responsive;
//! * graceful drain on `shutdown` — queued work still answers, the
//!   process exits 0, and the `--metrics-out` report is complete;
//! * the introspection plane: masked `soi stats` snapshots with exact
//!   request/hit counts around the mixed batch, `--watch` counter
//!   deltas, the Prometheus exposition, `"trace":true` phase timelines,
//!   and the slow-query log;
//! * batch/serving agreement: `soi infmax --method tc` and the daemon's
//!   `infmax-tc` select the same seeds from the same worlds.

mod common;

use common::{fresh_dir, make_graph, soi, stdout_str, Proc as Daemon};
use std::io::Read;
use std::process::Stdio;
use std::time::{Duration, Instant};

/// Builds the mixed batch: typical-cascade, spread-estimate, and health
/// requests over every node, one deadline-limited query, one infmax-tc.
fn mixed_requests(nodes: usize) -> Vec<String> {
    let mut reqs = Vec::new();
    let mut id = 0u64;
    let mut next = |body: String| {
        id += 1;
        format!("{{\"v\":1,\"id\":{id},{body}}}")
    };
    for source in 0..nodes {
        reqs.push(next(format!(
            "\"type\":\"typical-cascade\",\"graph\":\"net\",\"source\":{source}"
        )));
        reqs.push(next(format!(
            "\"type\":\"spread-estimate\",\"graph\":\"net\",\"seeds\":[{source}],\
             \"samples\":64,\"seed\":7"
        )));
        reqs.push(next("\"type\":\"health\"".to_string()));
    }
    // Deadline shorter than the sample budget: answers `partial` with
    // the deterministic 16-sample prefix.
    reqs.push(next(
        "\"type\":\"spread-estimate\",\"graph\":\"net\",\"seeds\":[0],\
         \"samples\":64,\"seed\":7,\"deadline_ticks\":16"
            .to_string(),
    ));
    reqs.push(next(
        "\"type\":\"infmax-tc\",\"graph\":\"net\",\"k\":3".to_string(),
    ));
    reqs
}

#[test]
fn concurrent_mixed_batch_is_deterministic_and_drains_cleanly() {
    let dir = fresh_dir("mixed");
    let graph = make_graph(&dir, 40);
    let metrics = dir
        .join("serve-metrics.jsonl")
        .to_string_lossy()
        .into_owned();
    let daemon = Daemon::spawn(
        &format!("net={graph}"),
        &[
            "--worlds",
            "64",
            "--queue-cap",
            "128",
            "--metrics-out",
            &metrics,
        ],
    );

    // Golden masked stats before any traffic: the warm-up build is the
    // one cache miss, and the poll counts itself in `requests_total`.
    let before = stdout_str(&daemon.stats_with(&[]));
    for needle in [
        "\"stats_version\":2",
        "\"requests_total\":1,\"rejected_queue_full\":0,\"cache_hits\":0,\"cache_misses\":1",
    ] {
        assert!(before.contains(needle), "missing {needle} in:\n{before}");
    }

    let requests = mixed_requests(40);
    assert!(requests.len() >= 100, "batch too small: {}", requests.len());
    let reqs_file = dir.join("reqs.jsonl").to_string_lossy().into_owned();
    std::fs::write(&reqs_file, requests.join("\n") + "\n").unwrap();

    let batch_args = [
        "--file",
        reqs_file.as_str(),
        "--concurrency",
        "8",
        "--mask-wall",
    ];
    let first = stdout_str(&daemon.query(&batch_args));
    let second = stdout_str(&daemon.query(&batch_args));
    assert_eq!(
        first, second,
        "masked responses must be byte-identical across runs"
    );

    let lines: Vec<&str> = first.lines().collect();
    assert_eq!(lines.len(), requests.len(), "one response per request");
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.contains(&format!("\"id\":{}", i + 1)),
            "responses out of order at {i}: {line}"
        );
        assert!(
            line.contains("\"wall_ns\":0"),
            "unmasked wall clock: {line}"
        );
    }
    // Every compute line is ok except the deadline-limited one, which
    // must be a well-formed partial covering exactly its tick budget.
    let partial = lines[lines.len() - 2];
    for check in [
        "\"status\":\"partial\"",
        "\"reason\":\"deadline-expired\"",
        "\"done\":",
        "\"total\":64",
        "\"spread\":",
    ] {
        assert!(partial.contains(check), "missing {check}: {partial}");
    }
    let oks = lines
        .iter()
        .filter(|l| l.contains("\"status\":\"ok\""))
        .count();
    assert_eq!(oks, lines.len() - 1, "everything else answers ok");
    let infmax = lines[lines.len() - 1];
    assert!(infmax.contains("\"seeds\":["), "{infmax}");

    // Golden masked stats after the known mix: 1 before-poll + 2×122
    // batch requests + this poll; index fetches are the 40 cascades and
    // the one infmax per batch (spread estimates bypass the cache); the
    // request/queue-wait wall histograms saw the 2×82 compute requests.
    let after = stdout_str(&daemon.stats_with(&[]));
    for needle in [
        "\"requests_total\":246,\"rejected_queue_full\":0,\"cache_hits\":82,\"cache_misses\":1",
        "\"server.requests_total\":246",
        "\"server.request_ns\":{\"count\":164,\"wall_p50_ns\":0",
        "\"server.queue_wait_ns\":{\"count\":164,",
        "\"threads\":[{\"name\":\"thread.",
        "\"pool\":{\"dispatches\":",
    ] {
        assert!(after.contains(needle), "missing {needle} in:\n{after}");
    }

    daemon.shutdown();

    // The final metrics report flushed on drain and covers the serving
    // counters plus the request-latency wall histogram.
    let report = std::fs::read_to_string(&metrics).expect("metrics report written");
    for needle in [
        "\"name\":\"server.requests_total\"",
        "\"type\":\"wall_hist\",\"name\":\"server.request_ns\"",
        "\"name\":\"server.cache_misses\"",
    ] {
        assert!(report.contains(needle), "missing {needle} in:\n{report}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Polls `stats` until `pred` matches the response, or panics.
fn await_stats(daemon: &Daemon, what: &str, pred: impl Fn(&str) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let out = daemon.query(&["{\"v\":1,\"id\":1,\"type\":\"stats\"}"]);
        let text = stdout_str(&out);
        if pred(&text) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}: {text}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn saturated_daemon_rejects_typed_and_still_drains() {
    let dir = fresh_dir("overflow");
    let graph = make_graph(&dir, 16);
    let daemon = Daemon::spawn(
        &format!("net={graph}"),
        &["--worlds", "8", "--workers", "1", "--queue-cap", "1"],
    );

    // A long-running estimate pins the single worker; a second one
    // fills the queue (capacity 1); a third must bounce with the typed
    // `queue-full` rejection. Stats are answered inline by connection
    // threads, so polling them makes each step deterministic.
    let slow = |id: u64| {
        format!(
            "{{\"v\":1,\"id\":{id},\"type\":\"spread-estimate\",\"graph\":\"net\",\
             \"seeds\":[0],\"samples\":10000000,\"seed\":3}}"
        )
    };
    let spawn_slow = |id: u64| {
        soi()
            .arg("query")
            .args(["--port", &daemon.port, &slow(id)])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn slow query")
    };
    let mut pinned = spawn_slow(101);
    await_stats(&daemon, "worker pinned", |s| s.contains("\"in_flight\":1"));
    let mut queued = spawn_slow(102);
    await_stats(&daemon, "queue full", |s| s.contains("\"queue_depth\":1"));

    let bounced = stdout_str(&daemon.query(&[&slow(103)]));
    assert!(bounced.contains("\"kind\":\"queue-full\""), "{bounced}");
    assert!(bounced.contains("\"id\":103"), "{bounced}");

    // Control plane stays responsive while every lane is saturated.
    let health = stdout_str(&daemon.query(&["{\"v\":1,\"id\":104,\"type\":\"health\"}"]));
    assert!(health.contains("\"ok\":true"), "{health}");

    // Graceful drain answers both accepted slow queries with real
    // results before the daemon exits.
    daemon.shutdown();
    for (child, id) in [(&mut pinned, 101), (&mut queued, 102)] {
        let mut text = String::new();
        child
            .stdout
            .take()
            .expect("slow query stdout")
            .read_to_string(&mut text)
            .unwrap();
        assert!(child.wait().unwrap().success(), "slow query {id} exit");
        assert!(text.contains("\"status\":\"ok\""), "{id}: {text}");
        assert!(text.contains(&format!("\"id\":{id}")), "{id}: {text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn introspection_trace_stats_watch_prom_and_slow_log() {
    let dir = fresh_dir("introspect");
    let graph = make_graph(&dir, 12);
    let slow_log = dir.join("slow.jsonl").to_string_lossy().into_owned();
    let daemon = Daemon::spawn(
        &format!("net={graph}"),
        &[
            "--worlds",
            "8",
            "--workers",
            "2",
            "--slow-query-ticks",
            "1",
            "--slow-query-log",
            &slow_log,
        ],
    );

    // Opting in with `"trace":true` answers with the full phase
    // timeline; masking zeroes the wall field of every phase entry.
    let traced = stdout_str(&daemon.query(&[
        "--mask-wall",
        "{\"v\":1,\"id\":1,\"type\":\"typical-cascade\",\"graph\":\"net\",\
         \"source\":0,\"trace\":true}",
    ]));
    assert!(traced.contains("\"status\":\"ok\""), "{traced}");
    assert!(
        traced.contains("\"trace\":[{\"phase\":\"parse\",\"ticks\":"),
        "{traced}"
    );
    for phase in ["parse", "queue_wait", "cache", "compute", "serialize"] {
        assert!(
            traced.contains(&format!("{{\"phase\":\"{phase}\",\"ticks\":")),
            "missing {phase} phase: {traced}"
        );
    }
    assert!(
        !traced.contains("\"wall_ns\":1"),
        "unmasked trace: {traced}"
    );

    // Without the opt-in the response carries no timeline.
    let plain = stdout_str(&daemon.query(&[
        "{\"v\":1,\"id\":2,\"type\":\"spread-estimate\",\"graph\":\"net\",\
         \"seeds\":[0],\"samples\":16,\"seed\":7}",
    ]));
    assert!(plain.contains("\"status\":\"ok\""), "{plain}");
    assert!(!plain.contains("\"trace\":["), "unrequested trace: {plain}");

    // `--watch N` prints one snapshot per poll plus a counter-delta
    // line from the second poll on; between idle polls the only moving
    // counter is each poll counting itself.
    let watch = stdout_str(&daemon.stats_with(&["--watch", "3", "--interval-ms", "40"]));
    let lines: Vec<&str> = watch.lines().collect();
    assert_eq!(lines.len(), 5, "3 snapshots + 2 deltas:\n{watch}");
    for delta in [lines[2], lines[4]] {
        assert!(delta.starts_with("{\"stats_delta\":{"), "{delta}");
        assert!(
            delta.contains("\"server.requests_total\":1"),
            "poll self-count missing: {delta}"
        );
    }

    // The Prometheus rendering exposes counters, histogram buckets,
    // wall-summary quantiles, and the per-thread/pool series.
    let prom = stdout_str(&daemon.stats_with(&["--format", "prom"]));
    for needle in [
        "# TYPE soi_server_requests_total counter",
        "soi_server_requests_total ",
        "soi_sampling_cascade_size_bucket{le=\"+Inf\"} 16",
        "soi_server_request_ns_ns{quantile=\"0.5\"} 0",
        "soi_thread_busy_ns{thread=\"thread.",
        "soi_pool_dispatches ",
    ] {
        assert!(prom.contains(needle), "missing {needle} in:\n{prom}");
    }

    // Threshold 1 tick makes every compute request slow: after drain
    // the log holds one JSONL record per compute request, timeline
    // included.
    daemon.shutdown();
    let logged = std::fs::read_to_string(&slow_log).expect("slow-query log written");
    let records: Vec<&str> = logged.lines().collect();
    assert_eq!(
        records.len(),
        2,
        "one record per compute request:\n{logged}"
    );
    assert!(
        records[0].contains("\"type_name\":\"typical-cascade\",\"id\":1,"),
        "{logged}"
    );
    assert!(
        records[1].contains("\"type_name\":\"spread-estimate\",\"id\":2,"),
        "{logged}"
    );
    for record in records {
        assert!(record.contains("\"ticks_total\":"), "{record}");
        assert!(
            record.contains("\"trace\":[{\"phase\":\"parse\""),
            "{record}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stdio_front_end_serves_through_the_binary() {
    let dir = fresh_dir("stdio");
    let graph = make_graph(&dir, 12);
    let mut child = soi()
        .args(["serve", &format!("net={graph}"), "--stdio", "--worlds", "8"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn soi serve --stdio");
    use std::io::Write as _;
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(
            b"{\"v\":1,\"id\":1,\"type\":\"health\"}\n\
              {\"v\":1,\"id\":2,\"type\":\"typical-cascade\",\"graph\":\"net\",\"source\":0}\n\
              {\"v\":1,\"id\":3,\"type\":\"shutdown\"}\n",
        )
        .unwrap();
    let out = child.wait_with_output().expect("wait for stdio serve");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    assert!(lines[0].contains("\"ok\":true"));
    assert!(lines[1].contains("\"sphere\":["));
    assert!(lines[2].contains("\"draining\":true"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_infmax_tc_and_the_daemon_select_the_same_seeds() {
    // Both front-ends run one typical-cascade engine and one max-cover
    // loop, so the same worlds (count, seed) must give the same seeds —
    // 150 nodes is one block for the batch command, three for the daemon.
    let dir = fresh_dir("one-path");
    let graph = make_graph(&dir, 150);
    let batch = soi()
        .args(["infmax", &graph])
        .args("--method tc --k 4 --samples 24 --seed 13".split(' '))
        .output()
        .expect("spawn soi infmax");
    let batch = stdout_str(&batch);
    let seeds = batch.lines().next().and_then(|l| l.strip_prefix("seeds\t"));
    let seeds = seeds.unwrap_or_else(|| panic!("no seeds line: {batch}"));

    let mut child = soi()
        .args(["serve", &format!("net={graph}"), "--stdio"])
        .args(["--worlds", "24", "--seed", "13"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn soi serve --stdio");
    use std::io::Write as _;
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(
            b"{\"v\":1,\"id\":1,\"type\":\"infmax-tc\",\"graph\":\"net\",\"k\":4}\n\
              {\"v\":1,\"id\":2,\"type\":\"shutdown\"}\n",
        )
        .unwrap();
    let out = child.wait_with_output().expect("wait for stdio serve");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.starts_with("{") && text.contains(&format!("\"seeds\":[{seeds}],")),
        "daemon answered {text}, batch selected {seeds}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
