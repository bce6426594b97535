//! A warm `infmax-tc` answers as a cold one does.
//!
//! The daemon keeps the spheres of all n nodes in the index's cache
//! entry once one request has solved them, and a sketch entry keeps its
//! worlds' masks. A later request spends the same deadline ticks over
//! the kept state, so its answer — `partial` progress and `"trace":true`
//! timeline included — must be the bytes a cold engine prints, and the
//! bytes of [`ReferenceEngine`], which recomputes everything. The graph
//! has more than `2 · TC_BLOCK` nodes, so budgets cut after the first,
//! second and third block; the fuzzer's graphs (at most 16 nodes) never
//! cut an `infmax-tc` block at all.

use soi_graph::{gen, ProbGraph};
use soi_server::engine::TC_BLOCK;
use soi_server::protocol::parse_request;
use soi_server::worker::execute_job;
use soi_server::{EngineConfig, ServerEngine, DEFAULT_MAX_LINE};
use soi_verify::fuzz::mask_response;
use soi_verify::ReferenceEngine;

const NODES: usize = 200;
const _: () = assert!(NODES > 2 * TC_BLOCK);

fn graph() -> ProbGraph {
    let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(11);
    ProbGraph::weighted_cascade(gen::gnm(NODES, 4 * NODES, &mut rng))
}

fn config() -> EngineConfig {
    EngineConfig {
        num_worlds: 16,
        seed: 3,
        threads: 2,
        sketch_k: 16,
        ..EngineConfig::default()
    }
}

/// An engine whose index and sketches are built, but no sphere solved
/// and no mask drawn: its `cache` phase costs what a warm engine's does,
/// so traces compare.
fn fresh_engine() -> ServerEngine {
    let mut engine = ServerEngine::new(config());
    engine.add_graph("g", graph());
    assert_eq!(engine.warm(), 1);
    let sketches = "{\"v\":1,\"id\":0,\"type\":\"spread-estimate\",\"graph\":\"g\",\
                    \"seeds\":[0],\"samples\":1,\"backend\":\"sketch\"}";
    assert!(answer(&engine, sketches).contains("\"status\":\"ok\""));
    engine
}

/// Every budget that matters around the block boundaries, for each k,
/// with a trace on every third request; then sketch-backed requests.
fn lines() -> Vec<String> {
    let mut lines = Vec::new();
    for k in [1, 10, 50] {
        for deadline in [
            None,
            Some(1),
            Some(64),
            Some(65),
            Some(128),
            Some(NODES - 1),
        ] {
            let id = lines.len();
            let deadline = deadline.map_or(String::new(), |d| format!(",\"deadline_ticks\":{d}"));
            let trace = if id % 3 == 0 { ",\"trace\":true" } else { "" };
            lines.push(format!(
                "{{\"v\":1,\"id\":{id},\"type\":\"infmax-tc\",\"graph\":\"g\",\"k\":{k}{deadline}{trace}}}"
            ));
        }
    }
    for (k, deadline) in [
        (5, ""),
        (5, ",\"deadline_ticks\":2"),
        (12, ",\"trace\":true"),
    ] {
        let id = lines.len();
        lines.push(format!(
            "{{\"v\":1,\"id\":{id},\"type\":\"infmax-tc\",\"graph\":\"g\",\"k\":{k},\"backend\":\"sketch\"{deadline}}}"
        ));
    }
    lines
}

fn answer(engine: &ServerEngine, line: &str) -> String {
    let envelope = parse_request(line).expect("well-formed request");
    soi_obs::report::mask_wall_clock(&execute_job(engine, &envelope))
}

/// Typical cascades fitted and worlds drawn so far, process-wide.
fn work() -> (u64, u64) {
    let counter = |name| soi_obs::metrics::counter(name).get();
    (counter("median.calls"), counter("sampling.worlds_sampled"))
}

#[test]
fn warm_infmax_answers_equal_cold_and_reference_answers() {
    let lines = lines();
    let cold: Vec<String> = lines
        .iter()
        .map(|line| answer(&fresh_engine(), line))
        .collect();
    // Every budgeted cascade request stops short of n, and so does the
    // sketch request allowed 2 of its 5 rounds.
    let partial = cold.iter().filter(|a| a.contains("\"status\":\"partial\""));
    assert_eq!(partial.count(), 3 * 5 + 1, "{cold:#?}");
    assert!(cold.iter().any(|a| a.contains("\"trace\":[")), "{cold:#?}");

    // One engine warmed by an unbudgeted request on each backend; after
    // them no request fits a typical cascade or draws a world again.
    let warm = fresh_engine();
    let before = work();
    let _ = answer(&warm, &lines[0]);
    let _ = answer(&warm, &lines[3 * 6]);
    let (fitted, drawn) = work();
    assert_eq!(
        fitted - before.0,
        NODES as u64,
        "the warm-up solves every node"
    );
    assert_eq!(
        drawn - before.1,
        config().num_worlds as u64,
        "the warm-up draws every world's masks"
    );
    let before = work();
    for (line, cold) in lines.iter().zip(&cold) {
        assert_eq!(&answer(&warm, line), cold, "warm answer to {line}");
    }
    assert_eq!(work(), before, "a warm request fitted or sampled again");

    let mut reference = ReferenceEngine::new(config(), DEFAULT_MAX_LINE);
    reference.add_graph("g", graph());
    for (line, cold) in lines.iter().zip(&cold) {
        let want = reference.answer_line(line.as_bytes()).response;
        assert_eq!(
            want.as_deref().map(mask_response),
            Some(mask_response(cold)),
            "reference answer to {line}"
        );
    }
}
