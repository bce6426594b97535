//! LRU cache correctness under concurrent access through the worker
//! pool (loom-free: determinism comes from comparing every concurrent
//! answer against a serial baseline, over enough interleavings that a
//! torn publish would be caught).
//!
//! The hazard under test: with `cache_cap: 1` and several graphs served
//! round-robin by parallel workers, every request evicts the index some
//! other worker may still be building or querying. A correct engine
//! publishes an index `Arc` only after the build completes and lets
//! evicted indexes live while referenced, so *every* response must be
//! byte-identical (modulo wall clock) to the one a single-threaded
//! engine produces — a partially built or aliased index would answer
//! differently. The same holds for the spheres an index entry keeps:
//! cold `infmax-tc` requests racing to solve and publish them must each
//! answer what a serial engine answers.

use soi_graph::{gen, ProbGraph};
use soi_server::worker::{Job, WorkerPool};
use soi_server::{json, EngineConfig, Envelope, Request, ServerEngine};
use std::sync::{mpsc, Arc};

fn graph(seed: u64, nodes: usize, edges: usize) -> ProbGraph {
    let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(seed);
    ProbGraph::fixed(gen::gnm(nodes, edges, &mut rng), 0.5).expect("graph")
}

fn engine() -> ServerEngine {
    // cache_cap 1: every index build evicts whatever is cached.
    let mut engine = ServerEngine::new(EngineConfig {
        num_worlds: 8,
        seed: 5,
        cache_cap: 1,
        ..EngineConfig::default()
    });
    engine.add_graph("g0", graph(10, 24, 72));
    engine.add_graph("g1", graph(11, 24, 72));
    engine.add_graph("g2", graph(12, 24, 72));
    engine
}

fn request(i: u64) -> Envelope {
    let graph = format!("g{}", i % 3);
    let req = match i % 2 {
        0 => Request::TypicalCascade {
            graph,
            source: (i % 24) as u32,
            deadline_ticks: None,
        },
        _ => Request::SpreadEstimate {
            graph,
            seeds: vec![(i % 24) as u32],
            samples: 4,
            seed: 9,
            deadline_ticks: None,
            degrade: false,
            backend: soi_influence::BackendKind::Cascade,
            sketch_k: None,
        },
    };
    Envelope {
        id: i,
        req,
        trace: false,
    }
}

#[test]
fn eviction_during_concurrent_builds_never_serves_a_torn_index() {
    let n: u64 = 48;
    // Serial baseline: one request at a time, fresh engine.
    let baseline_engine = engine();
    let mut expected: Vec<String> = Vec::new();
    for i in 0..n {
        let line = soi_server::worker::execute_job(&baseline_engine, &request(i));
        expected.push(soi_obs::report::mask_wall_clock(&line));
    }

    // Concurrent run: 4 workers race builds and evictions on a shared
    // cache of capacity 1.
    let pool = WorkerPool::start(Arc::new(engine()), 4, 64);
    let handle = pool.handle();
    let (tx, rx) = mpsc::channel();
    for i in 0..n {
        handle.submit(Job::new(request(i), tx.clone()));
    }
    drop(tx);
    pool.shutdown();

    let mut got: Vec<Option<String>> = vec![None; n as usize];
    for line in rx.iter() {
        let id = json::parse(&line)
            .expect("well-formed response")
            .get("id")
            .and_then(json::Value::as_u64)
            .expect("response id");
        assert!(got[id as usize].is_none(), "duplicate response for {id}");
        got[id as usize] = Some(soi_obs::report::mask_wall_clock(&line));
    }
    for (i, slot) in got.iter().enumerate() {
        let line = slot.as_ref().expect("every request answered");
        assert!(line.contains("\"status\":\"ok\""), "{line}");
        assert_eq!(line, &expected[i], "request {i} diverged from serial");
    }
}

/// Cold `infmax-tc` requests racing on one graph: every worker may solve
/// the spheres, the first complete solve is kept, and budgeted requests
/// may read them mid-race. Each answer must be the serial one.
#[test]
fn racing_cold_infmax_requests_answer_identically() {
    let engine = || {
        let mut engine = ServerEngine::new(EngineConfig {
            num_worlds: 8,
            seed: 5,
            ..EngineConfig::default()
        });
        engine.add_graph("g", graph(13, 150, 450));
        engine
    };
    let request = |i: u64| Envelope {
        id: i,
        req: Request::InfmaxTc {
            graph: "g".into(),
            k: 5,
            // Every third request stops after the first block of nodes.
            deadline_ticks: (i % 3 == 2).then_some(64),
            backend: soi_influence::BackendKind::Cascade,
            sketch_k: None,
        },
        // A timeline would differ: which worker's lookup built the index
        // is the race itself.
        trace: false,
    };
    let n: u64 = 12;
    let serial = engine();
    let expected: Vec<String> = (0..n)
        .map(|i| {
            let line = soi_server::worker::execute_job(&serial, &request(i));
            soi_obs::report::mask_wall_clock(&line)
        })
        .collect();
    assert!(
        expected[2].contains("\"status\":\"partial\""),
        "{}",
        expected[2]
    );

    let pool = WorkerPool::start(Arc::new(engine()), 4, 64);
    let handle = pool.handle();
    let (tx, rx) = mpsc::channel();
    for i in 0..n {
        handle.submit(Job::new(request(i), tx.clone()));
    }
    drop(tx);
    pool.shutdown();
    let mut answered = 0;
    for line in rx.iter() {
        let id = json::parse(&line)
            .expect("well-formed response")
            .get("id")
            .and_then(json::Value::as_u64)
            .expect("response id");
        let line = soi_obs::report::mask_wall_clock(&line);
        assert_eq!(line, expected[id as usize], "request {id} diverged");
        answered += 1;
    }
    assert_eq!(answered, n);
}
