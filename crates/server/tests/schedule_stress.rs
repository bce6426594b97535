//! Schedule-stress: the mixed-query e2e under 32 seeded schedules.
//!
//! The static `concurrency` lint pass proves lock discipline on paper;
//! this test attacks the same property at runtime. Every failpoint site
//! in the serving pipeline (dispatch, index build, cache insert,
//! response write) doubles as a schedule-perturbation point: arming
//! `soi_util::schedule` with a seed injects yields and micro-sleeps
//! there, pushing the OS scheduler into interleavings an unperturbed
//! run never visits. A correct pipeline produces byte-identical
//! (wall-masked) responses under *every* schedule — any divergence
//! means ordering of concurrent work leaked into an answer.
//!
//! The workload is the same 122-request mix the `serve-e2e` CI job
//! drives through the real binary (typical-cascade + spread-estimate +
//! health per node over 40 nodes, one deadline-limited query, one
//! infmax), here run in-process against [`soi_server::run_tcp`] so the
//! schedule shim can be re-armed per run without respawning a daemon.
//! Debug builds only in effect: release builds compile the failpoint
//! macros — and with them the perturbation hook — to nothing.

use soi_graph::{gen, ProbGraph};
use soi_server::{run_tcp, EngineConfig, QueryConfig, ServeConfig, ServerEngine};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Seeded schedules to replay on top of the unperturbed baseline.
const SEEDS: u64 = 32;

/// A `Write` sink the spawning thread can poll for the announce line.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
    }
}

fn engine() -> ServerEngine {
    let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(11);
    let pg = ProbGraph::fixed(gen::gnm(40, 160, &mut rng), 0.15).expect("graph");
    let mut engine = ServerEngine::new(EngineConfig {
        num_worlds: 64,
        seed: 2,
        ..EngineConfig::default()
    });
    engine.add_graph("net", pg);
    engine
}

/// The serve-e2e mixed batch: typical-cascade, spread-estimate, and
/// health per node, one deadline-limited query, one infmax — 122
/// requests over 40 nodes, ids 1..=122.
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

/// Runs the full batch against the daemon and returns its masked,
/// request-ordered response block.
fn run_batch(requests: &[String], port: u16) -> String {
    let config = QueryConfig {
        port,
        concurrency: 8,
        mask_wall: true,
        retries: 2,
        timeout_ms: 60_000,
        ..QueryConfig::default()
    };
    let mut out = Vec::new();
    let report = soi_server::run_queries(requests, &config, &mut out).expect("batch run");
    assert_eq!(report.lost, 0, "requests lost mid-batch");
    String::from_utf8(out).expect("utf8 responses")
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the daemon's thread, joined after its shutdown"
)]
fn mixed_batch_is_schedule_invariant_across_32_seeds() {
    // One daemon serves every run: arming happens per batch, so a
    // single warm index answers all 33 batches and the test measures
    // schedule sensitivity, not build time.
    let announce = SharedBuf::default();
    let daemon = {
        let engine = Arc::new(engine());
        let mut sink = announce.clone();
        std::thread::spawn(move || {
            let config = ServeConfig {
                port: 0,
                workers: 4,
                queue_cap: 256,
                ..ServeConfig::default()
            };
            run_tcp(engine, &config, &mut sink).expect("daemon run");
        })
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    let port: u16 = loop {
        let text = announce.contents();
        if let Some(line) = text.lines().find(|l| l.starts_with("listening on")) {
            break line
                .rsplit(':')
                .next()
                .and_then(|p| p.trim().parse().ok())
                .unwrap_or_else(|| panic!("bad announce line: {line:?}"));
        }
        assert!(Instant::now() < deadline, "daemon never announced");
        std::thread::sleep(Duration::from_millis(5));
    };

    let requests = mixed_requests(40);
    assert_eq!(requests.len(), 122, "the canonical e2e mix");

    // Unperturbed baseline, plus sanity checks that the workload really
    // exercises the pipeline it claims to (ordering, masking, partial).
    soi_util::schedule::clear();
    let baseline = run_batch(&requests, port);
    let lines: Vec<&str> = baseline.lines().collect();
    assert_eq!(lines.len(), requests.len(), "one response per request");
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.contains(&format!("\"id\":{}", i + 1)),
            "responses out of order at {i}: {line}"
        );
        assert!(line.contains("\"wall_ns\":0"), "unmasked wall: {line}");
    }
    let partial = lines[lines.len() - 2];
    assert!(
        partial.contains("\"status\":\"partial\"") && partial.contains("\"total\":64"),
        "deadline query not partial: {partial}"
    );

    for seed in 0..SEEDS {
        soi_util::schedule::install(seed);
        let run = run_batch(&requests, port);
        soi_util::schedule::clear();
        assert_eq!(
            run, baseline,
            "masked output diverged under schedule seed {seed}"
        );
    }

    // Graceful drain: the shutdown request is acknowledged and the
    // daemon thread exits cleanly.
    let shutdown = vec![r#"{"v":1,"id":9999,"type":"shutdown"}"#.to_string()];
    let ack = run_batch(&shutdown, port);
    assert!(ack.contains("\"draining\":true"), "no drain ack: {ack}");
    daemon.join().expect("daemon thread panicked");
}
