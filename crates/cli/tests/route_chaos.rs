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
//!   its override survives a router restart, and a failed override
//!   write (`router.overrides.persist=error`) keeps it in memory only;
//! * aggregated stats — `soi stats` against the router reports the v2
//!   payload with fabric-summed counters and per-shard replica health;
//! * hop cost — a near-free request through all four socket legs takes
//!   what it computes, not a Nagle × delayed-ACK stall per hop.
//!
//! Masked transcripts and stats payloads land in
//! `target/chaos-artifacts/` for CI upload.

mod common;

use common::{
    assert_all_answered, fresh_dir, make_graph, save_artifact, soi, stdout_str, write_batch, Proc,
};
use std::path::Path;

#[cfg(debug_assertions)] // arms a failpoint; the sites compile out in release
#[test]
fn replica_crash_mid_batch_fails_over_and_converges() {
    let dir = fresh_dir("failover");
    let graph = make_graph(&dir, 16);
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
    let graph = make_graph(&dir, 16);
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

#[cfg(debug_assertions)] // arms a failpoint; the sites compile out in release
#[test]
fn shard_worker_panic_relays_typed_and_converges() {
    let dir = fresh_dir("worker-panic");
    let graph = make_graph(&dir, 16);
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

const COMPUTE: &str =
    "{\"v\":1,\"id\":5,\"type\":\"typical-cascade\",\"graph\":\"net\",\"source\":3}";

#[test]
fn rebalance_rehomes_one_graph_and_rejects_out_of_range() {
    let dir = fresh_dir("rebalance");
    let graph = make_graph(&dir, 16);

    let s0 = Proc::serve(&graph, &[], None);
    let s1 = Proc::serve(&graph, &[], None);
    let router = Proc::route(&[s0.addr(), s1.addr()]);

    // Re-home `net` onto each shard in turn; traffic follows.
    for shard in [1usize, 0] {
        router.rebalance_net_to(shard);
        let out = stdout_str(&router.query_one(COMPUTE));
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

/// `net`'s ring home among two single-replica shards (placement is
/// deterministic but opaque): one compute through a throwaway router,
/// then read which replica forwarded it.
fn ring_home(shards: &[String; 2]) -> usize {
    let probe = Proc::route(shards);
    assert!(stdout_str(&probe.query_one(COMPUTE)).contains("\"status\":\"ok\""));
    let home = usize::from(probe.stats().contains(&format!(
        "\"addr\":\"{}\",\"healthy\":true,\"forwarded\":1",
        shards[1]
    )));
    probe.shutdown();
    home
}

/// Asserts that the stats list the replica at `addr` as healthy with
/// `n` forwarded requests.
fn assert_forwarded(stats: &str, addr: &str, n: u32) {
    let row = format!("\"addr\":\"{addr}\",\"healthy\":true,\"forwarded\":{n}");
    assert!(stats.contains(&row), "want {row} in {stats}");
}

#[test]
fn router_restart_rehomes_from_persisted_overrides() {
    let dir = fresh_dir("override-persist");
    let graph = make_graph(&dir, 16);
    let ovr = dir.join("overrides.ckpt").to_string_lossy().into_owned();

    let s0 = Proc::serve(&graph, &[], None);
    let s1 = Proc::serve(&graph, &[], None);
    let shards = [s0.addr(), s1.addr()];

    let home = ring_home(&shards);
    let target = 1 - home;
    let target_addr = &shards[target];

    // First router life: re-home `net` off its ring shard, serve some
    // traffic, drain. The override lands in the checkpoint file.
    let router = Proc::route_with(&shards, &["--overrides-file", &ovr], None);
    router.rebalance_net_to(target);
    for _ in 0..3 {
        assert!(stdout_str(&router.query_one(COMPUTE)).contains("\"status\":\"ok\""));
    }
    let stats = router.stats();
    assert_forwarded(&stats, target_addr, 3);
    router.shutdown();
    assert!(Path::new(&ovr).exists(), "override file not written");

    // Second life: same shards, same file, NO rebalance call. The
    // restored override must route `net` to the same shard — and the
    // ring home must see zero forwarded traffic.
    let reborn = Proc::route_with(&shards, &["--overrides-file", &ovr], None);
    for _ in 0..3 {
        assert!(stdout_str(&reborn.query_one(COMPUTE)).contains("\"status\":\"ok\""));
    }
    let stats = reborn.stats();
    save_artifact("route-override-restart.stats.json", &stats);
    assert_forwarded(&stats, target_addr, 3);
    assert_forwarded(&stats, &shards[home], 0);
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

/// A failed override write leaves the rebalance live in memory only:
/// the answer is still `ok`, the miss is counted, no file lands, and a
/// restarted router routes by the ring again.
#[cfg(debug_assertions)] // arms a failpoint; the sites compile out in release
#[test]
fn failed_override_persist_keeps_the_rebalance_in_memory() {
    let dir = fresh_dir("override-persist-error");
    let graph = make_graph(&dir, 16);
    let ovr = dir.join("overrides.ckpt").to_string_lossy().into_owned();
    let s0 = Proc::serve(&graph, &[], None);
    let s1 = Proc::serve(&graph, &[], None);
    let shards = [s0.addr(), s1.addr()];
    let home = ring_home(&shards);
    let target = 1 - home;

    let fault = Some("router.overrides.persist=error");
    let armed = Proc::route_with(&shards, &["--overrides-file", &ovr], fault);
    // Answers `ok` (only an `ok` line says `"rebalanced"`): the miss is
    // the router's disk, not the client's request.
    armed.rebalance_net_to(target);
    assert!(stdout_str(&armed.query_one(COMPUTE)).contains("\"status\":\"ok\""));
    let stats = armed.stats();
    assert!(
        stats.contains("\"router.override_persist_errors\":1"),
        "{stats}"
    );
    assert_forwarded(&stats, &shards[target], 1);
    armed.shutdown();
    assert!(!Path::new(&ovr).exists(), "a failed persist wrote the file");

    // Restarted without the failpoint, the router finds no file and
    // routes `net` by the ring again.
    let reborn = Proc::route_with(&shards, &["--overrides-file", &ovr], None);
    assert!(stdout_str(&reborn.query_one(COMPUTE)).contains("\"status\":\"ok\""));
    let stats = reborn.stats();
    assert_forwarded(&stats, &shards[home], 1);
    assert_forwarded(&stats, &shards[target], 0);
    reborn.shutdown();

    s0.shutdown();
    s1.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn background_probe_readopts_a_restarted_replica() {
    let dir = fresh_dir("probe-readopt");
    let graph = make_graph(&dir, 16);
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
        None,
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
    let graph = make_graph(&dir, 16);
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

/// 44 ms per hop is what a line split over two writes costs on a socket
/// without `TCP_NODELAY`: Nagle holds the second write until the peer's
/// delayed ACK of the first. The request is a one-sample spread estimate
/// so it crosses all four legs (a control would be answered at the
/// router) and a debug build's kernels cannot matter; the line sits two
/// orders of magnitude from either side (88 ms stalled, < 1 ms not).
#[test]
fn routed_round_trip_does_not_stall_on_the_sockets() {
    use std::io::{BufRead, BufReader, Write};
    let dir = fresh_dir("hop-cost");
    let graph = make_graph(&dir, 16);
    let shard = Proc::serve(&graph, &[], None);
    let router = Proc::route(&[shard.addr()]);

    // One connection held open and each line timed, as a closed-loop
    // client does. xtask-allow: hermeticity — timing a line needs the socket
    let mut stream = std::net::TcpStream::connect(router.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut trips: Vec<std::time::Duration> = (0..50)
        .map(|id| {
            let request = format!(
                "{{\"v\":1,\"id\":{id},\"type\":\"spread-estimate\",\"graph\":\"net\",\
                 \"seeds\":[1],\"samples\":1,\"seed\":7}}\n"
            );
            let sent = std::time::Instant::now();
            stream.write_all(request.as_bytes()).expect("send");
            let mut answer = String::new();
            reader.read_line(&mut answer).expect("answer");
            let took = sent.elapsed();
            assert!(answer.contains("\"status\":\"ok\",\"spread\":"), "{answer}");
            took
        })
        .collect();
    trips.sort_unstable();
    let median = trips[trips.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(20),
        "median routed round trip {median:?}; all: {trips:?}"
    );

    drop((stream, reader));
    router.shutdown();
    shard.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
