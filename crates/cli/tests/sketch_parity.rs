//! Dual-backend serving parity: one `soi serve` daemon answering the
//! same influence questions through the cascade index and the bottom-k
//! sketch oracle (`"backend":"sketch"`), driven end-to-end through the
//! real binary exactly as CI's `sketch-parity` job runs it.
//!
//! Proven here:
//!
//! * a mixed dual-backend batch is byte-identical across two masked
//!   runs — sketch answers are as deterministic as cascade answers;
//! * sketch responses carry the `"backend":"sketch"` tag, cascade
//!   responses stay byte-for-byte what they were before the backend
//!   existed;
//! * the LRU keeps one entry per (graph, backend, parameters): two
//!   sketch-k values and the cascade index coexist without evicting or
//!   aliasing each other (satellite: cache keyed on backend + params).

mod common;

use common::{fresh_dir, make_graph, stdout_str, Proc as Daemon};

#[test]
fn both_backends_answer_deterministically_from_one_daemon() {
    let dir = fresh_dir("dual");
    let graph = make_graph(&dir, 24);
    let daemon = Daemon::spawn(&format!("net={graph}"), &["--worlds", "64"]);

    // The same questions through both oracles, plus a second sketch-k
    // so three distinct oracle cache entries are live at once.
    let requests = [
        "{\"v\":1,\"id\":1,\"type\":\"spread-estimate\",\"graph\":\"net\",\
         \"seeds\":[0,3],\"samples\":64,\"seed\":7}",
        "{\"v\":1,\"id\":2,\"type\":\"spread-estimate\",\"graph\":\"net\",\
         \"seeds\":[0,3],\"samples\":64,\"seed\":7,\"backend\":\"sketch\"}",
        "{\"v\":1,\"id\":3,\"type\":\"spread-estimate\",\"graph\":\"net\",\
         \"seeds\":[0,3],\"samples\":64,\"seed\":7,\"backend\":\"sketch\",\"sketch_k\":32}",
        "{\"v\":1,\"id\":4,\"type\":\"infmax-tc\",\"graph\":\"net\",\"k\":3}",
        "{\"v\":1,\"id\":5,\"type\":\"infmax-tc\",\"graph\":\"net\",\"k\":3,\
         \"backend\":\"sketch\"}",
        "{\"v\":1,\"id\":6,\"type\":\"health\"}",
    ];
    let reqs_file = dir.join("reqs.jsonl").to_string_lossy().into_owned();
    std::fs::write(&reqs_file, requests.join("\n").to_string() + "\n").unwrap();
    let batch_args = [
        "--file",
        reqs_file.as_str(),
        "--concurrency",
        "1",
        "--mask-wall",
    ];

    let first = stdout_str(&daemon.query(&batch_args));
    let second = stdout_str(&daemon.query(&batch_args));
    assert_eq!(
        first, second,
        "masked dual-backend responses must be byte-identical across runs"
    );

    let lines: Vec<&str> = first.lines().collect();
    assert_eq!(lines.len(), requests.len(), "one response per request");
    for line in &lines {
        assert!(line.contains("\"status\":\"ok\""), "{line}");
    }
    // Sketch answers are tagged; cascade answers are untouched by the
    // new backend's existence.
    for sketch_line in [lines[1], lines[2], lines[4]] {
        assert!(
            sketch_line.contains("\"backend\":\"sketch\""),
            "missing sketch tag: {sketch_line}"
        );
    }
    for cascade_line in [lines[0], lines[3]] {
        assert!(
            !cascade_line.contains("\"backend\""),
            "cascade payload grew a backend field: {cascade_line}"
        );
    }
    // Both backends answer the same question in the same ballpark (they
    // share the sampled-world semantics, not the estimator).
    let spread = |line: &str| -> f64 {
        let at = line.find("\"spread\":").expect("spread field") + "\"spread\":".len();
        line[at..]
            .split([',', '}'])
            .next()
            .unwrap()
            .parse()
            .expect("spread value")
    };
    let cascade = spread(lines[0]);
    let sketch = spread(lines[1]);
    assert!(
        (cascade - sketch).abs() / cascade < 0.35,
        "backends disagree wildly: cascade {cascade} vs sketch {sketch}"
    );
    // Both selections return k seeds; the sketch one also reports its
    // coverage curve.
    assert!(lines[3].contains("\"seeds\":["), "{}", lines[3]);
    assert!(lines[4].contains("\"seeds\":["), "{}", lines[4]);
    assert!(lines[4].contains("\"coverage\":["), "{}", lines[4]);

    // Cache discipline: the warm-up index build plus one build per
    // sketch parameterization — three distinct entries, never aliased,
    // and the whole second batch served from cache.
    let stats =
        stdout_str(&daemon.query(&["--mask-wall", "{\"v\":1,\"id\":7,\"type\":\"stats\"}"]));
    assert!(
        stats.contains("\"cache_hits\":6,\"cache_misses\":3"),
        "want 3 distinct oracle entries (cascade, sketch k=64, sketch k=32) \
         and a fully warm second batch: {stats}"
    );

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_backend_is_a_typed_bad_field() {
    let dir = fresh_dir("badfield");
    let graph = make_graph(&dir, 24);
    let daemon = Daemon::spawn(&format!("net={graph}"), &["--worlds", "16"]);
    let out = daemon.query(&[
        "{\"v\":1,\"id\":1,\"type\":\"spread-estimate\",\"graph\":\"net\",\
         \"seeds\":[0],\"samples\":16,\"seed\":7,\"backend\":\"quantum\"}",
    ]);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("\"kind\":\"bad-field\""), "{text}");
    assert!(text.contains("quantum"), "{text}");
    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
