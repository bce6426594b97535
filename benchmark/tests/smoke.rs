//! Drives the built driver against the real `soi` binary at smoke size:
//! every workload, both passes, then `compare` of the result set with
//! itself. Needs the release `soi` next to the driver binary, which is
//! where `benchmark/run.sh` builds both, so the test is ignored by a plain
//! `cargo test`; `benchmark/run.sh --selftest` builds and then runs it,
//! and it fails — never passes silently — when `soi` is missing.

use std::path::{Path, PathBuf};
use std::process::Command;

fn driver(soi: &Path, out_dir: &Path, args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_soi-benchmark"))
        .arg("--soi")
        .arg(soi)
        .arg("--out-dir")
        .arg(out_dir)
        .args(args)
        .output()
        .expect("driver runs");
    (
        output.status.success(),
        String::from_utf8(output.stdout).expect("utf-8 stdout"),
    )
}

#[test]
#[ignore = "needs the built soi binary: run benchmark/run.sh --selftest"]
fn smoke_run_prints_every_metric_and_agrees_with_itself() {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_soi-benchmark"));
    let soi = exe.parent().expect("target dir").join("soi");
    assert!(
        soi.is_file(),
        "{} not built: run benchmark/run.sh --selftest",
        soi.display()
    );
    let out_dir = std::env::temp_dir().join(format!("soi-benchmark-smoke-{}", std::process::id()));

    // One contract-shaped run: the result line is last and complete.
    let (ok, stdout) = driver(
        &soi,
        &out_dir,
        &[
            "--workload",
            "batch-dense",
            "--seed",
            "2",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ],
    );
    assert!(ok, "{stdout}");
    let last = stdout.lines().last().expect("output");
    let result = soi_server::json::parse(last).expect("result line is JSON");
    assert_eq!(
        result.get("correct"),
        Some(&soi_server::json::Value::Bool(true))
    );
    assert_eq!(result.get("failed").and_then(|v| v.as_u64()), Some(0));
    let metrics = result
        .get("metrics")
        .and_then(|m| m.as_obj())
        .expect("metrics");
    for name in [
        "setup_s",
        "time_to_seeds_s",
        "peak_rss_mb",
        "seed_spread_vs_ris",
        "req_per_s",
        "latency_p50_ms",
        "latency_p90_ms",
    ] {
        let value = metrics[name].get("value").and_then(|v| v.as_f64());
        assert!(value.is_some_and(|v| v > 0.0), "{name}: {value:?}");
    }

    // The whole set, then the comparison a `--twice` run ends with.
    let (ok, stdout) = driver(&soi, &out_dir, &["all", "--smoke", "--seconds", "1"]);
    let results = out_dir.join("results.json");
    let results = results.to_str().expect("utf-8 path");
    assert!(ok, "{stdout}");
    assert!(!stdout.contains("FAILED"), "{stdout}");
    for w in ["batch-wc", "batch-dense", "batch-sketch", "serve-fabric"] {
        assert!(
            out_dir.join(format!("trace-{w}.jsonl")).is_file(),
            "no trace for {w}"
        );
    }
    let (agree, report) = driver(&soi, &out_dir, &["compare", results, results]);
    assert!(agree, "{report}");

    std::fs::remove_dir_all(&out_dir).expect("cleanup");
}
