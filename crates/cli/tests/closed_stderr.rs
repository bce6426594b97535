//! `soi` keeps its documented exit codes when stderr is a pipe nobody
//! reads (`soi ... 2>&1 | head -c0`): writing a diagnostic then fails
//! with `EPIPE`, and that failure must not become a panic's exit 101.

mod common;

use common::{fresh_dir, generate, soi};
use std::process::Command;

/// Runs `cmd` with stderr on a pipe whose read end is already closed.
fn exit_code_with_closed_stderr(mut cmd: Command) -> Option<i32> {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    cmd.stdout(std::process::Stdio::null()).stderr(writer);
    let status = cmd.status().expect("spawn soi");
    status.code()
}

#[test]
fn closed_stderr_keeps_the_exit_code_contract() {
    let dir = fresh_dir("closed-stderr");
    let g = generate(
        &dir,
        "g.tsv",
        &["--model", "gnm", "--nodes", "200", "--edges", "800"],
    );
    let mut usage = soi();
    usage.args(["infmax", &g, "--k", "0"]);
    assert_eq!(exit_code_with_closed_stderr(usage), Some(2), "usage error");
    let mut partial = soi();
    partial.args([
        "infmax",
        &g,
        "--k",
        "3",
        "--method",
        "tc",
        "--samples",
        "16",
        "--deadline-ticks",
        "1",
    ]);
    assert_eq!(
        exit_code_with_closed_stderr(partial),
        Some(3),
        "partial run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
