//! Parse-hardening regressions: hostile request lines — oversized,
//! invalid UTF-8, duplicate keys, unknown fields, non-finite numbers —
//! must each produce a typed `bad-request`-class error and leave the
//! connection serving. Found (invalid UTF-8) and pinned by the
//! differential fuzzer in `soi-verify`.

use soi_graph::{gen, ProbGraph};
use soi_server::{run_stdio, EngineConfig, ServerEngine, DEFAULT_MAX_LINE};
use std::io::BufReader;

fn engine() -> ServerEngine {
    let pg = ProbGraph::fixed(gen::path(8), 0.5).expect("graph");
    let mut engine = ServerEngine::new(EngineConfig {
        num_worlds: 4,
        ..EngineConfig::default()
    });
    engine.add_graph("g", pg);
    engine
}

/// Serves raw bytes (not necessarily UTF-8) through the stdio daemon,
/// which shares the connection loop (`wire::serve_conn`) with the TCP path.
fn serve_bytes(input: &[u8], max_line: usize) -> Vec<String> {
    let _g = soi_util::failpoint::test_guard();
    let engine = engine();
    let mut reader = BufReader::new(input);
    let mut out = Vec::new();
    run_stdio(&engine, max_line, &mut reader, &mut out).expect("run_stdio");
    String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

const HEALTH: &str = "{\"v\":1,\"id\":99,\"type\":\"health\"}\n";

/// Each case: hostile bytes, the expected error kind, and a message
/// fragment. After every case a health probe must still answer — the
/// daemon responds, it never disconnects or panics.
#[test]
fn hostile_lines_get_typed_errors_and_the_loop_survives() {
    let oversized = format!("{{\"v\":1,\"id\":1,\"pad\":\"{}\"}}\n", "x".repeat(400));
    let cases: Vec<(Vec<u8>, &str, &str)> = vec![
        (oversized.into_bytes(), "oversized-line", "exceeds"),
        (
            b"{\"v\":1,\"id\":2,\xff\xfe}\n".to_vec(),
            "malformed-json",
            "not valid UTF-8",
        ),
        (
            b"{\"v\":1,\"v\":1,\"id\":3,\"type\":\"health\"}\n".to_vec(),
            "malformed-json",
            "duplicate object key",
        ),
        (
            b"{\"v\":1,\"id\":4,\"type\":\"health\",\"bogus\":true}\n".to_vec(),
            "bad-field",
            "unknown field \\\"bogus\\\"",
        ),
        (
            b"{\"v\":1,\"id\":5,\"type\":\"spread-estimate\",\"graph\":\"g\",\"seeds\":[0],\"samples\":1e999}\n"
                .to_vec(),
            "malformed-json",
            "non-finite",
        ),
        (
            b"{\"v\":1,\"id\":6,\"type\":\"typical-cascade\",\"graph\":\"g\",\"source\":0,\"dedline_ticks\":4}\n"
                .to_vec(),
            "bad-field",
            "dedline_ticks",
        ),
        // 2^53 + 1 parses to the f64 2^53: refused, never rounded. A bad
        // id answers with a null one rather than someone else's.
        (
            b"{\"v\":1,\"id\":9007199254740993,\"type\":\"health\"}\n".to_vec(),
            "bad-field",
            "\"id\":null",
        ),
        (
            b"{\"v\":1,\"id\":8,\"type\":\"spread-estimate\",\"graph\":\"g\",\"seeds\":[0],\"samples\":1,\"seed\":9007199254740993}\n"
                .to_vec(),
            "bad-field",
            "\"seed\\\" must be a non-negative integer",
        ),
    ];
    for (bytes, kind, fragment) in cases {
        let mut input = bytes.clone();
        input.extend_from_slice(HEALTH.as_bytes());
        let lines = serve_bytes(&input, 256);
        assert_eq!(lines.len(), 2, "{}", lines.join("\n"));
        assert!(
            lines[0].contains(&format!("\"kind\":\"{kind}\"")),
            "want {kind} for {:?}, got {}",
            String::from_utf8_lossy(&bytes),
            lines[0]
        );
        assert!(
            lines[0].contains(fragment),
            "{fragment} not in {}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"ok\":true"),
            "daemon must keep serving after {kind}: {}",
            lines[1]
        );
    }
}

/// Invalid UTF-8 must answer with a null id (the line never parsed far
/// enough to recover one) and never be lossily decoded into a
/// different well-formed request.
#[test]
fn invalid_utf8_is_not_lossily_decoded() {
    // 0xFF 0xFE inside what would otherwise decode (with replacement
    // characters) as an unknown-type request.
    let mut input = b"{\"v\":1,\"id\":7,\"type\":\"\xff\xfe\"}\n".to_vec();
    input.extend_from_slice(HEALTH.as_bytes());
    let lines = serve_bytes(&input, DEFAULT_MAX_LINE);
    assert_eq!(lines.len(), 2);
    assert!(lines[0].contains("\"id\":null"), "{}", lines[0]);
    assert!(
        lines[0].contains("\"kind\":\"malformed-json\""),
        "must not decode to unknown-type: {}",
        lines[0]
    );
    assert!(!lines[0].contains("unknown request type"), "{}", lines[0]);
    assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
}

/// NaN and infinity spellings are not JSON and must be malformed-json,
/// not a crash or a silently-absorbed number.
#[test]
fn non_finite_numbers_are_rejected() {
    for bad in [
        "{\"v\":1,\"id\":8,\"type\":\"spread-estimate\",\"graph\":\"g\",\"seeds\":[0],\"samples\":NaN}",
        "{\"v\":1,\"id\":9,\"type\":\"spread-estimate\",\"graph\":\"g\",\"seeds\":[0],\"samples\":-1e999}",
        "{\"v\":1,\"id\":10,\"type\":\"spread-estimate\",\"graph\":\"g\",\"seeds\":[0],\"samples\":Infinity}",
    ] {
        let mut input = bad.as_bytes().to_vec();
        input.push(b'\n');
        input.extend_from_slice(HEALTH.as_bytes());
        let lines = serve_bytes(&input, DEFAULT_MAX_LINE);
        assert_eq!(lines.len(), 2, "{bad}");
        assert!(
            lines[0].contains("\"kind\":\"malformed-json\""),
            "{bad} -> {}",
            lines[0]
        );
        assert!(lines[1].contains("\"ok\":true"));
    }
}
