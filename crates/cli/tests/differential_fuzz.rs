//! CI entry point for the differential fuzzer: a pinned-seed batch of
//! randomized protocol streams replayed through the naive reference
//! engine, the in-process server engine, AND this very binary over a
//! real TCP socket — every arm must produce byte-identical masked
//! responses for every stream (`docs/ROBUSTNESS.md`, "Differential
//! testing"). Divergence artifacts (replay file + transcript) land in
//! `target/fuzz-artifacts/` for CI upload.

mod common;

use common::{artifacts_dir, soi};
use std::process::Output;

fn run_fuzz(extra: &[&str]) -> Output {
    let mut cmd = soi();
    cmd.arg("fuzz").args(extra);
    cmd.output().expect("spawn soi fuzz")
}

#[test]
fn pinned_seed_batch_of_32_streams_passes_both_engines() {
    let artifacts = artifacts_dir("fuzz-artifacts");
    let out = run_fuzz(&[
        "--seed",
        "1",
        "--streams",
        "32",
        "--tcp",
        "--artifacts",
        artifacts.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "fuzz batch diverged\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("fuzz: 32 stream(s), 0 divergence(s)"),
        "{stdout}"
    );
}

#[test]
fn fuzz_run_is_deterministic_in_the_seed() {
    // Same seed, same flags → byte-identical report. `soi fuzz --seed N`
    // must reproduce exactly, or the printed repro instructions are a lie.
    let first = run_fuzz(&["--seed", "5", "--streams", "4"]);
    let second = run_fuzz(&["--seed", "5", "--streams", "4"]);
    assert!(first.status.success(), "{:?}", first);
    assert_eq!(first.status.code(), second.status.code());
    assert_eq!(
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&second.stdout),
        "same seed produced different reports"
    );
}

#[test]
fn failpoint_streams_never_crash_the_engines() {
    // Under a deterministic error-injection schedule both real arms must
    // keep answering (typed errors allowed, crashes and divergence not).
    // The spec is stateless (no @K) so the long-lived in-process arm and
    // each fresh TCP child see the same fault on every hit.
    let out = run_fuzz(&[
        "--seed",
        "11",
        "--streams",
        "4",
        "--tcp",
        "--failpoints",
        "server.index.build=error",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "failpoint fuzz diverged or crashed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("fuzz: 4 stream(s), 0 divergence(s)"),
        "{stdout}"
    );
}
