//! Command-line entry point for workspace tasks: `cargo xtask lint`.
//!
//! `lint [--root <dir>]` runs the four static-analysis passes (see the
//! crate docs and `docs/STATIC_ANALYSIS.md`) and exits nonzero when any
//! finding is reported. `--root` defaults to the current directory,
//! which under the `cargo xtask` alias is the workspace root; the flag
//! exists so the fixture tests can point the linter at deliberately
//! broken trees.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some(other) => {
            eprintln!("unknown task `{other}`");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: cargo xtask lint [--root <dir>]";

fn lint(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    match xtask::run_lint(&root) {
        Ok(findings) if findings.is_empty() => {
            eprintln!("xtask lint: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            eprintln!("xtask lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: cannot read `{}`: {e}", root.display());
            ExitCode::from(2)
        }
    }
}
