//! End-to-end checks of `--metrics-out` / `--trace`: the run report must
//! cover every pipeline phase and be byte-identical across two runs with
//! the same seed once wall-clock fields are masked. Each run spawns the
//! real binary so the process-global registry starts clean.

mod common;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("soi-metrics-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn soi(args: &[&str]) -> std::process::Output {
    common::soi().args(args).output().expect("spawn soi")
}

fn generate_graph(name: &str) -> PathBuf {
    let gnm = "--model gnm --nodes 40 --edges 160 --prob wc --seed 3";
    let path = tmp(name);
    common::generate(
        path.parent().unwrap(),
        name,
        &gnm.split(' ').collect::<Vec<_>>(),
    );
    path
}

fn run_infmax_tc(graph: &Path, report: &Path) {
    run_infmax(graph, report, &["--method", "tc", "--samples", "32"]);
}

fn run_infmax(graph: &Path, report: &Path, method: &[&str]) {
    let (graph, report) = (graph.to_str().unwrap(), report.to_str().unwrap());
    let mut args = vec!["infmax", graph, "--k", "3", "--seed", "5"];
    args.extend_from_slice(method);
    args.extend_from_slice(&["--metrics-out", report]);
    let out = soi(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("expected_spread"), "stdout: {stdout}");
}

#[test]
fn report_covers_all_phases_and_is_deterministic_masked() {
    let graph = generate_graph("golden.tsv");
    let (r1, r2) = (tmp("run1.jsonl"), tmp("run2.jsonl"));
    run_infmax_tc(&graph, &r1);
    run_infmax_tc(&graph, &r2);

    let a = std::fs::read_to_string(&r1).unwrap();
    let b = std::fs::read_to_string(&r2).unwrap();

    // Every line is a self-describing JSON object.
    for line in a.lines() {
        assert!(
            line.starts_with("{\"type\":\"") && line.ends_with('}'),
            "malformed line: {line}"
        );
    }

    // One infmax --method tc run exercises the whole pipeline: worlds are
    // sampled into the index, typical cascades fit medians per node, the
    // max-cover greedy selects seeds, and the final spread estimate runs
    // direct cascades. Each phase keeps the counters something reads, and
    // only those; the index draws each of its ℓ = 32 worlds once.
    let counters = values(&a, "counter");
    let names: Vec<&str> = counters.keys().map(String::as_str).collect();
    assert_eq!(
        names,
        [
            "engine.hub_hits",
            "index.worlds_built",
            "influence.tc_runs",
            "median.calls",
            "median.input_set_evals",
            "median.local_search_rounds",
            "median.local_search_toggles",
            "median.prefix_evals",
            "median.sample_classes",
            "sampling.worlds_sampled",
        ],
        "{a}"
    );
    assert_eq!(counters["sampling.worlds_sampled"], 32.0);
    assert_eq!(counters["index.worlds_built"], 32.0);
    assert_eq!(counters["influence.tc_runs"], 1.0);
    // The lazy cover fits the 22 of 40 spheres its heap reads; `spheres`
    // fits every node.
    assert_eq!(counters["median.calls"], 22.0, "fits the cover asked for");
    let spheres = tmp("spheres.jsonl");
    let out = soi(&[
        "spheres",
        graph.to_str().unwrap(),
        "--samples",
        "32",
        "--seed",
        "5",
        "--out",
        tmp("spheres.tsv").to_str().unwrap(),
        "--metrics-out",
        spheres.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let spheres = std::fs::read_to_string(&spheres).unwrap();
    assert_eq!(
        values(&spheres, "counter")["median.calls"],
        40.0,
        "one fit per node"
    );
    let classes = counters["median.sample_classes"];
    assert!((22.0..=32.0 * 22.0).contains(&classes), "{classes} classes");
    assert!(values(&a, "gauge")["index.memory_bytes"] > 0.0, "{a}");
    assert!(a.contains("\"type\":\"span\""), "no spans in report");
    assert!(
        a.contains("\"wall_ns_total\":"),
        "spans must carry wall time"
    );
    assert!(
        a.contains("\"type\":\"histogram\""),
        "no histograms in report"
    );

    // Golden determinism: identical seeds, identical counts. Only the
    // wall_ns_* fields may differ between the runs.
    let (ma, mb) = (
        soi_obs::report::mask_wall_clock(&a),
        soi_obs::report::mask_wall_clock(&b),
    );
    assert!(
        ma.contains("\"wall_ns_total\":0"),
        "masking left wall time intact"
    );
    assert_eq!(ma, mb, "masked reports differ between same-seed runs");
}

/// The `value` of every `kind` line of a report, by name.
fn values(report: &str, kind: &str) -> BTreeMap<String, f64> {
    let prefix = format!("{{\"type\":\"{kind}\",\"name\":\"");
    report
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .map(|rest| {
            let (name, value) = rest.split_once("\",\"value\":").expect(rest);
            let value = value.trim_end_matches('}').parse().expect(rest);
            (name.to_string(), value)
        })
        .collect()
}

#[test]
fn the_sketch_backend_draws_every_world_twice() {
    // The build and `select_seeds` each draw all ℓ = 24 worlds.
    let graph = generate_graph("sketch.tsv");
    let report = tmp("sketch.jsonl");
    run_infmax(&graph, &report, &["--backend", "sketch", "--samples", "24"]);
    let report = std::fs::read_to_string(&report).unwrap();
    assert_eq!(values(&report, "counter")["sampling.worlds_sampled"], 48.0);
}

#[test]
fn trace_info_prints_summary_table_on_stderr() {
    let graph = generate_graph("trace.tsv");
    let out = soi(&[
        "infmax",
        graph.to_str().unwrap(),
        "--k",
        "2",
        "--method",
        "tc",
        "--samples",
        "16",
        "--trace",
        "info",
    ]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("index built:"),
        "info event missing: {stderr}"
    );
    assert!(
        stderr.contains("engine.median_fit"),
        "summary missing: {stderr}"
    );
    // The lookup splits into its reachability walk and the evaluator load.
    for child in ["engine.reach", "engine.load"] {
        assert!(
            stderr.contains(&format!("engine.index_lookup/{child}")),
            "{child} not nested under engine.index_lookup: {stderr}"
        );
    }
    // stdout stays reserved for command output.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("seeds\t"), "stdout polluted: {stdout}");
}

/// `engine.hub_hits` as a share of the run's (node, world) walks: the
/// worlds whose walk reached the largest SCC and took its whole closure as
/// one precomputed chunk.
fn hub_hit_share(model: &str, prob: &str) -> f64 {
    let name = format!("hub_{model}.tsv");
    let args = format!("--model {model} --nodes 200 --m 3 --edges 1000 --prob {prob} --seed 3");
    let graph = tmp(&name);
    common::generate(
        graph.parent().unwrap(),
        &name,
        &args.split(' ').collect::<Vec<_>>(),
    );
    let report = tmp(&format!("hub_{model}.jsonl"));
    run_infmax_tc(&graph, &report);
    let report = std::fs::read_to_string(&report).unwrap();
    values(&report, "counter")["engine.hub_hits"] / (200.0 * 32.0)
}

#[test]
fn hub_hits_explain_the_lookup() {
    // Supercritical G(n, 5n) at p = 0.3: most walks reach the largest SCC.
    let dense = hub_hit_share("gnm", "fixed:0.3");
    assert!(dense > 0.25, "supercritical hub-hit share {dense}");
    // Directed BA worlds are acyclic: the largest SCC is one node that
    // reaches nothing else, so there is no closure to share.
    let wc = hub_hit_share("ba", "wc");
    assert_eq!(wc, 0.0, "weighted-cascade hub-hit share");
}

#[test]
fn bad_trace_level_is_rejected() {
    let out = soi(&["stats", "/nonexistent", "--trace", "loud"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown level"), "stderr: {stderr}");
}
