//! Chaos matrix for the shard router: the real `soi` binary run as one
//! `soi route` front-end over several `soi serve` shard daemons, with
//! replicas killed, panicked, and darkened mid-batch (see
//! `docs/ROBUSTNESS.md` §3 and the Topology section of
//! `docs/SERVING.md`).
//!
//! The single-daemon chaos invariants carry over to the fabric:
//!
//! 1. no request ends without a typed response — a dark shard answers
//!    typed `shard-unavailable`, never silence or a hang;
//! 2. a retrying client converges — when any replica of the owning
//!    shard survives, the masked batch output is byte-identical to a
//!    fault-free run, because the router relays raw shard bytes and
//!    fails over deterministically.
//!
//! The matrix (one test per schedule):
//!
//! * replica crash mid-batch (`server.response.write=exit(41)@K` on one
//!   replica) — the router fails over to the sibling replica and the
//!   batch converges byte-for-byte;
//! * whole shard dark (only replica killed) — typed `shard-unavailable`
//!   per compute request, router controls stay healthy, `soi query`
//!   exits 3;
//! * shard worker panic (`server.worker.dispatch=panic@1`) — the typed
//!   `internal-error` is relayed verbatim and a retrying client
//!   converges against the respawned worker;
//! * `rebalance` re-homes one graph and rejects out-of-range shards;
//! * aggregated stats — `soi stats` against the router reports the v2
//!   payload with fabric-summed counters and per-shard replica health.
//!
//! Masked transcripts and stats payloads land in
//! `target/chaos-artifacts/` for CI upload.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

fn soi() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_soi"));
    c.env_remove(soi_util::failpoint::ENV_VAR);
    c
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soi-route-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Where CI picks up transcripts and stats payloads.
fn artifacts_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/chaos-artifacts");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn save_artifact(name: &str, contents: &str) {
    std::fs::write(artifacts_dir().join(name), contents).unwrap();
}

fn make_graph(dir: &Path) -> String {
    let g = dir.join("net.tsv").to_string_lossy().into_owned();
    let out = soi()
        .args([
            "generate", "--model", "gnm", "--nodes", "16", "--edges", "64", "--prob", "wc",
            "--seed", "11", "--out", &g,
        ])
        .output()
        .expect("spawn soi generate");
    assert!(out.status.success(), "generate failed");
    g
}

/// A deterministic mixed batch of `n` compute/control requests,
/// ids 1..=n. Controls answer at the router; computes relay to the
/// shard owning `net`.
fn batch(n: u64) -> String {
    let mut reqs = String::new();
    for id in 1..=n {
        let body = match id % 3 {
            0 => "\"type\":\"health\"".to_string(),
            1 => format!(
                "\"type\":\"typical-cascade\",\"graph\":\"net\",\"source\":{}",
                id % 16
            ),
            _ => format!(
                "\"type\":\"spread-estimate\",\"graph\":\"net\",\"seeds\":[{}],\
                 \"samples\":16,\"seed\":7",
                id % 16
            ),
        };
        reqs.push_str(&format!("{{\"v\":1,\"id\":{id},{body}}}\n"));
    }
    reqs
}

/// One spawned `soi serve` or `soi route` process plus the port it
/// announced on stdout.
struct Proc {
    child: Child,
    port: String,
}

impl Proc {
    fn announce(mut child: Child, what: &str) -> Proc {
        let stdout = child.stdout.take().expect("child stdout");
        let announce = BufReader::new(stdout)
            .lines()
            .next()
            .unwrap_or_else(|| panic!("{what} announced nothing"))
            .expect("read announce line");
        let port = announce
            .rsplit(':')
            .next()
            .unwrap_or_default()
            .trim()
            .to_string();
        assert!(
            announce.starts_with("listening on") && !port.is_empty(),
            "bad {what} announce line: {announce:?}"
        );
        Proc { child, port }
    }

    /// Spawns one shard daemon serving `net`, optionally with
    /// failpoints armed.
    fn serve(graph: &str, extra: &[&str], failpoints: Option<&str>) -> Proc {
        let mut cmd = soi();
        cmd.arg("serve")
            .arg(format!("net={graph}"))
            .args(["--worlds", "16"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(spec) = failpoints {
            cmd.env(soi_util::failpoint::ENV_VAR, spec);
        }
        Proc::announce(cmd.spawn().expect("spawn soi serve"), "shard daemon")
    }

    /// Spawns the router over `shards` (each entry one shard's
    /// comma-joined replica list).
    fn route(shards: &[String]) -> Proc {
        Proc::route_with(shards, &[])
    }

    /// Spawns the router with extra flags (e.g. `--overrides-file`).
    fn route_with(shards: &[String], extra: &[&str]) -> Proc {
        let mut cmd = soi();
        cmd.arg("route")
            .args(shards)
            .args(["--backoff-ticks", "0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        Proc::announce(cmd.spawn().expect("spawn soi route"), "router")
    }

    fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }

    /// Runs the batch through `soi query` with retries enabled. The
    /// failpoint variable is never inherited: faults live server-side.
    fn query_batch(&self, reqs_file: &str, retries: &str) -> Output {
        soi()
            .arg("query")
            .args(["--port", &self.port, "--file", reqs_file])
            .args(["--retries", retries, "--backoff-ticks", "0"])
            .args(["--concurrency", "1", "--mask-wall"])
            .output()
            .expect("spawn soi query")
    }

    fn query_one(&self, request: &str) -> Output {
        soi()
            .arg("query")
            .args(["--port", &self.port, request])
            .output()
            .expect("spawn soi query")
    }

    /// One `soi stats` snapshot against this process.
    fn stats(&self) -> String {
        let out = soi()
            .arg("stats")
            .args(["--port", &self.port, "--watch", "1", "--mask-wall"])
            .output()
            .expect("spawn soi stats");
        assert!(
            out.status.success(),
            "stats failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    }

    /// Pins `net` onto `shard` so the tests know which daemons own the
    /// batch traffic (placement is deterministic but opaque).
    fn rebalance_net_to(&self, shard: usize) {
        let req = format!(
            "{{\"v\":1,\"id\":900,\"type\":\"rebalance\",\"graph\":\"net\",\"shard\":{shard}}}"
        );
        let out = stdout_str(&self.query_one(&req));
        assert!(
            out.contains("\"rebalanced\":\"net\"") && out.contains(&format!("\"shard\":{shard}")),
            "rebalance not acknowledged: {out}"
        );
    }

    fn shutdown(mut self) {
        let out = self.query_one("{\"v\":1,\"id\":9999,\"type\":\"shutdown\"}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("\"draining\":true"),
            "shutdown not acknowledged"
        );
        let status = self.child.wait().expect("wait for process");
        assert_eq!(status.code(), Some(0), "exit code after drain");
    }
}

fn stdout_str(out: &Output) -> String {
    assert!(
        out.status.success(),
        "query failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Invariant 1: ids 1..=n each answered exactly once, in request order.
fn assert_all_answered(text: &str, n: u64) {
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), n as usize, "one response per request:\n{text}");
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.contains(&format!("\"id\":{}", i + 1)),
            "response {i} out of order: {line}"
        );
    }
}

fn write_batch(dir: &Path, n: u64) -> String {
    let reqs_file = dir.join("reqs.jsonl").to_string_lossy().into_owned();
    std::fs::write(&reqs_file, batch(n)).unwrap();
    reqs_file
}

#[test]
fn replica_crash_mid_batch_fails_over_and_converges() {
    let dir = fresh_dir("failover");
    let graph = make_graph(&dir);
    let reqs = write_batch(&dir, 12);

    // Fault-free baseline over the same 3-shard topology (one replica
    // per shard suffices: the baseline never loses one).
    let base: Vec<Proc> = (0..3).map(|_| Proc::serve(&graph, &[], None)).collect();
    let base_router = Proc::route(&base.iter().map(Proc::addr).collect::<Vec<_>>());
    base_router.rebalance_net_to(0);
    let expected = stdout_str(&base_router.query_batch(&reqs, "0"));
    base_router.shutdown();
    for d in base {
        d.shutdown();
    }

    // Chaos topology: shard 0 has two replicas, and the first one
    // simulated-crashes on its 4th response write — mid-batch, with the
    // batch pinned onto shard 0. The router must fail over to the
    // sibling replica without the client noticing.
    let doomed = Proc::serve(&graph, &[], Some("server.response.write=exit(41)@4"));
    let sibling = Proc::serve(&graph, &[], None);
    let s1 = Proc::serve(&graph, &[], None);
    let s2 = Proc::serve(&graph, &[], None);
    let router = Proc::route(&[
        format!("{},{}", doomed.addr(), sibling.addr()),
        s1.addr(),
        s2.addr(),
    ]);
    router.rebalance_net_to(0);
    let got = stdout_str(&router.query_batch(&reqs, "0"));
    save_artifact("route-failover.transcript.jsonl", &got);
    assert_all_answered(&got, 12);
    assert_eq!(got, expected, "masked output must converge to fault-free");

    // The doomed replica really died mid-batch …
    let mut doomed = doomed;
    assert_eq!(
        doomed.child.wait().expect("wait for doomed replica").code(),
        Some(41),
        "replica simulated-crash status"
    );
    // … and the router knows: the failover is counted and the dead
    // replica is marked unhealthy in the per-shard health array.
    let stats = router.stats();
    save_artifact("route-failover.stats.json", &stats);
    assert!(stats.contains("\"router.failovers\":"), "{stats}");
    assert!(!stats.contains("\"router.failovers\":0"), "{stats}");
    assert!(
        stats.contains(&format!("\"addr\":\"{}\",\"healthy\":false", doomed.addr())),
        "dead replica not reported unhealthy: {stats}"
    );

    router.shutdown();
    for d in [sibling, s1, s2] {
        d.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dark_shard_answers_typed_shard_unavailable_and_exits_3() {
    let dir = fresh_dir("dark-shard");
    let graph = make_graph(&dir);
    let reqs = write_batch(&dir, 6);

    let doomed = Proc::serve(&graph, &[], None);
    let survivor = Proc::serve(&graph, &[], None);
    let router = Proc::route(&[doomed.addr(), survivor.addr()]);
    router.rebalance_net_to(0);

    // Kill shard 0's only replica outright: the shard is dark.
    let mut doomed = doomed;
    doomed.child.kill().expect("kill shard 0");
    doomed.child.wait().expect("reap shard 0");

    // Every compute request must end in a typed shard-unavailable line
    // (the retrying client probes the healing fabric, then reports the
    // loss); router-side controls keep answering.
    let out = router.query_batch(&reqs, "1");
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    save_artifact("route-dark-shard.transcript.jsonl", &text);
    assert_all_answered(&text, 6);
    for (i, line) in text.lines().enumerate() {
        let id = i as u64 + 1;
        if id.is_multiple_of(3) {
            assert!(line.contains("\"ok\":true"), "control must stay up: {line}");
        } else {
            assert!(
                line.contains("\"kind\":\"shard-unavailable\"") && line.contains("shard 0"),
                "compute must answer typed shard-unavailable: {line}"
            );
        }
    }
    assert_eq!(
        out.status.code(),
        Some(3),
        "lost responses must exit 3: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The fabric stays operable around the dark shard: stats aggregates
    // the survivor and counts the typed answers, and the drain is clean.
    let stats = router.stats();
    save_artifact("route-dark-shard.stats.json", &stats);
    assert!(stats.contains("\"router.shard_unavailable\":"), "{stats}");
    assert!(!stats.contains("\"router.shard_unavailable\":0"), "{stats}");
    router.shutdown();
    survivor.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_worker_panic_relays_typed_and_converges() {
    let dir = fresh_dir("worker-panic");
    let graph = make_graph(&dir);
    let reqs = write_batch(&dir, 10);

    let base = Proc::serve(&graph, &["--workers", "1"], None);
    let base_router = Proc::route(&[base.addr()]);
    let expected = stdout_str(&base_router.query_batch(&reqs, "0"));
    base_router.shutdown();
    base.shutdown();

    // The first dispatched job panics the shard's only worker. The
    // shard answers typed internal-error, the router relays it
    // verbatim, and the client without retries still sees a typed line.
    let shard = Proc::serve(
        &graph,
        &["--workers", "1"],
        Some("server.worker.dispatch=panic@1"),
    );
    let router = Proc::route(&[shard.addr()]);
    let bare = stdout_str(&router.query_batch(&reqs, "0"));
    assert_all_answered(&bare, 10);
    assert!(
        bare.contains("\"kind\":\"internal-error\""),
        "panicked request must relay typed:\n{bare}"
    );

    // With retries the respawned worker serves the resent request and
    // the batch converges byte-for-byte through the router.
    let got = stdout_str(&router.query_batch(&reqs, "2"));
    save_artifact("route-worker-panic.transcript.jsonl", &got);
    assert_all_answered(&got, 10);
    assert_eq!(got, expected, "masked output must converge to fault-free");

    router.shutdown();
    shard.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rebalance_rehomes_one_graph_and_rejects_out_of_range() {
    let dir = fresh_dir("rebalance");
    let graph = make_graph(&dir);

    let s0 = Proc::serve(&graph, &[], None);
    let s1 = Proc::serve(&graph, &[], None);
    let router = Proc::route(&[s0.addr(), s1.addr()]);

    // Re-home `net` onto each shard in turn; traffic follows.
    for shard in [1usize, 0] {
        router.rebalance_net_to(shard);
        let out = stdout_str(&router.query_one(
            "{\"v\":1,\"id\":5,\"type\":\"typical-cascade\",\"graph\":\"net\",\"source\":3}",
        ));
        assert!(out.contains("\"status\":\"ok\""), "{out}");
    }
    let stats = router.stats();
    assert!(stats.contains("\"router.rebalances\":2"), "{stats}");

    // Out-of-range shard: typed bad-field, router keeps serving.
    let out = stdout_str(
        &router
            .query_one("{\"v\":1,\"id\":6,\"type\":\"rebalance\",\"graph\":\"net\",\"shard\":9}"),
    );
    assert!(
        out.contains("\"kind\":\"bad-field\"") && out.contains("out of range"),
        "{out}"
    );

    router.shutdown();
    s0.shutdown();
    s1.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn router_restart_rehomes_from_persisted_overrides() {
    let dir = fresh_dir("override-persist");
    let graph = make_graph(&dir);
    let ovr = dir.join("overrides.ckpt").to_string_lossy().into_owned();
    let compute = "{\"v\":1,\"id\":5,\"type\":\"typical-cascade\",\"graph\":\"net\",\"source\":3}";

    let s0 = Proc::serve(&graph, &[], None);
    let s1 = Proc::serve(&graph, &[], None);
    let shards = [s0.addr(), s1.addr()];

    // Discover `net`'s ring home (placement is deterministic but
    // opaque): one compute through a throwaway router, then read which
    // replica forwarded it.
    let probe = Proc::route(&shards);
    assert!(stdout_str(&probe.query_one(compute)).contains("\"status\":\"ok\""));
    let home = usize::from(probe.stats().contains(&format!(
        "\"addr\":\"{}\",\"healthy\":true,\"forwarded\":1",
        s1.addr()
    )));
    probe.shutdown();
    let target = 1 - home;
    let target_addr = &shards[target];

    // First router life: re-home `net` off its ring shard, serve some
    // traffic, drain. The override lands in the checkpoint file.
    let router = Proc::route_with(&shards, &["--overrides-file", &ovr]);
    router.rebalance_net_to(target);
    for _ in 0..3 {
        assert!(stdout_str(&router.query_one(compute)).contains("\"status\":\"ok\""));
    }
    let stats = router.stats();
    assert!(
        stats.contains(&format!(
            "\"addr\":\"{target_addr}\",\"healthy\":true,\"forwarded\":3"
        )),
        "traffic did not follow the rebalance: {stats}"
    );
    router.shutdown();
    assert!(Path::new(&ovr).exists(), "override file not written");

    // Second life: same shards, same file, NO rebalance call. The
    // restored override must route `net` to the same shard — and the
    // ring home must see zero forwarded traffic.
    let reborn = Proc::route_with(&shards, &["--overrides-file", &ovr]);
    for _ in 0..3 {
        assert!(stdout_str(&reborn.query_one(compute)).contains("\"status\":\"ok\""));
    }
    let stats = reborn.stats();
    save_artifact("route-override-restart.stats.json", &stats);
    assert!(
        stats.contains(&format!(
            "\"addr\":\"{target_addr}\",\"healthy\":true,\"forwarded\":3"
        )),
        "restart lost the persisted override: {stats}"
    );
    assert!(
        stats.contains(&format!(
            "\"addr\":\"{}\",\"healthy\":true,\"forwarded\":0",
            shards[home]
        )),
        "ring home should see no traffic after restart: {stats}"
    );
    assert!(
        stats.contains("\"router.override_persist_errors\":0"),
        "{stats}"
    );
    reborn.shutdown();

    // A differently shaped fleet must refuse the file outright — shard
    // indices only mean something relative to the layout that wrote it.
    let refused = soi()
        .args(["route", &shards[0], "--overrides-file", &ovr])
        .output()
        .expect("spawn mismatched router");
    assert!(
        !refused.status.success(),
        "mismatched layout must refuse to start"
    );
    assert!(
        String::from_utf8_lossy(&refused.stderr).contains("graph_fingerprint"),
        "want a typed fingerprint mismatch: {}",
        String::from_utf8_lossy(&refused.stderr)
    );

    s0.shutdown();
    s1.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn background_probe_readopts_a_restarted_replica() {
    let dir = fresh_dir("probe-readopt");
    let graph = make_graph(&dir);
    let reqs = write_batch(&dir, 9);

    // Shard 0: a replica that dies before serving anything, plus a live
    // sibling. The doomed replica is killed before any connection
    // reaches it, so its port can be re-bound by the replacement.
    let mut doomed = Proc::serve(&graph, &[], None);
    let doomed_port = doomed.port.clone();
    let doomed_addr = doomed.addr();
    doomed.child.kill().expect("kill replica");
    doomed.child.wait().expect("reap replica");

    let sibling = Proc::serve(&graph, &[], None);
    let router = Proc::route_with(
        &[format!("{doomed_addr},{}", sibling.addr())],
        &["--probe-interval-ms", "50"],
    );
    router.rebalance_net_to(0);

    // Traffic flows through the sibling (internal failover, no
    // client-visible error), and the probe marks the dead replica dark.
    let got = stdout_str(&router.query_batch(&reqs, "0"));
    assert_all_answered(&got, 9);
    assert!(!got.contains("\"status\":\"error\""), "{got}");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let stats = router.stats();
        if stats.contains(&format!("\"addr\":\"{doomed_addr}\",\"healthy\":false")) {
            assert!(!stats.contains("\"router.probe_attempts\":0"), "{stats}");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "probe never marked the dead replica dark: {stats}"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    // Respawn the replica on the same port. The background probe must
    // re-adopt it — marked healthy again, recovery counted — with no
    // client traffic needed to discover the healing.
    let replacement = Proc::serve(&graph, &["--port", &doomed_port], None);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let stats = router.stats();
        if stats.contains(&format!("\"addr\":\"{doomed_addr}\",\"healthy\":true"))
            && !stats.contains("\"router.probe_recoveries\":0")
        {
            save_artifact("route-probe-readopt.stats.json", &stats);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "probe never re-adopted the restarted replica: {stats}"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    // The healed fabric serves the batch with zero client-visible
    // errors — the re-adopted replica answers real traffic again.
    let got = stdout_str(&router.query_batch(&reqs, "0"));
    assert_all_answered(&got, 9);
    assert!(!got.contains("\"status\":\"error\""), "{got}");

    // Dozens of probes later, the per-replica `forwarded` tallies still
    // count relayed client requests only: they sum to the counter.
    let stats = router.stats();
    let number_after = |rest: &str| -> u64 {
        let digits = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..digits].parse().expect("a number")
    };
    let per_replica: u64 = stats
        .split(",\"forwarded\":")
        .skip(1)
        .map(number_after)
        .sum();
    let relayed = stats
        .split("\"router.forwarded\":")
        .nth(1)
        .map(number_after);
    assert_eq!(relayed, Some(12), "6 compute lines per batch: {stats}");
    assert_eq!(per_replica, 12, "probes counted as relays: {stats}");

    router.shutdown();
    replacement.shutdown();
    sibling.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn router_stats_aggregate_the_fabric() {
    let dir = fresh_dir("stats");
    let graph = make_graph(&dir);
    let reqs = write_batch(&dir, 9);

    let s0 = Proc::serve(&graph, &[], None);
    let s1 = Proc::serve(&graph, &[], None);
    let router = Proc::route(&[s0.addr(), s1.addr()]);
    router.rebalance_net_to(0);
    let got = stdout_str(&router.query_batch(&reqs, "0"));
    assert_all_answered(&got, 9);

    // `soi stats` against the router sees the whole fabric: the v2
    // payload shape, shard-summed flat fields (each shard daemon serves
    // one graph), the merged counters map holding both namespaces, and
    // the per-shard replica health array.
    let stats = router.stats();
    save_artifact("route-stats.json", &stats);
    for needle in [
        "\"stats_version\":2",
        "\"graphs\":2",
        "\"shard\":0",
        "\"shard\":1",
        "\"healthy\":true",
        "\"router.forwarded\":6",
        "\"router.requests_total\":",
        "\"server.requests_total\":",
        "\"router.shard_unavailable\":0",
    ] {
        assert!(stats.contains(needle), "missing {needle} in: {stats}");
    }

    router.shutdown();
    s0.shutdown();
    s1.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
