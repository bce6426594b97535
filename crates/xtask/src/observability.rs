//! Observability pass: library crates log through `soi-obs`, never
//! straight to stdout/stderr.
//!
//! Flags `println!`, `print!`, `eprintln!`, `eprint!`, and `dbg!` in
//! library sources. Direct console writes bypass the level filter and the
//! run report (the event counter misses them), and they interleave with
//! command output. The `cli`, `bench`, and `xtask` crates are exempt —
//! printing *is* their job — as are binary roots, tests, benches, and
//! examples (all excluded by [`is_library_source`] or the test tracking
//! in [`crate::source`]).
//!
//! The remedy is `soi_obs::event!(Level::…, ...)`, which costs one atomic
//! load when disabled, or — for a `Write` sink the caller supplied —
//! `writeln!` to that sink. A justified direct write is acknowledged with
//! `// xtask-allow: observability`.

use crate::report::{Finding, Pass};
use crate::source::{find_ident, SourceFile};
use crate::walk::is_library_source;
use std::path::Path;

/// Crates whose whole purpose is console output.
const EXEMPT_CRATES: &[&str] = &["cli", "bench", "xtask"];

/// Console-writing macros, ident-boundary matched before a `!`.
const MACROS: &[(&str, &str)] = &[
    (
        "println",
        "`println!` in library code; emit through `soi_obs::event!` or write to a caller-supplied sink",
    ),
    (
        "print",
        "`print!` in library code; emit through `soi_obs::event!` or write to a caller-supplied sink",
    ),
    (
        "eprintln",
        "`eprintln!` in library code; emit through `soi_obs::event!` so the level filter applies",
    ),
    (
        "eprint",
        "`eprint!` in library code; emit through `soi_obs::event!` so the level filter applies",
    ),
    ("dbg", "`dbg!` left in library code; remove it or emit a `soi_obs::event!` at debug level"),
];

/// Runs the observability pass over one file.
pub fn check(path: &Path, file: &SourceFile) -> Vec<Finding> {
    if !is_library_source(path) || in_exempt_crate(path) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || line.allows(Pass::Observability.name()) {
            continue;
        }
        for &(needle, msg) in MACROS {
            // At an ident boundary, so `println!` does not match inside
            // `eprintln!` and `print!` does not match inside `println!`.
            if find_ident(&line.code, needle, |rest| rest.starts_with('!')).is_some() {
                findings.push(Finding {
                    pass: Pass::Observability,
                    path: path.to_path_buf(),
                    line: idx + 1,
                    message: msg.to_string(),
                });
            }
        }
    }
    findings
}

fn in_exempt_crate(rel: &Path) -> bool {
    rel.components()
        .any(|c| EXEMPT_CRATES.contains(&c.as_os_str().to_string_lossy().as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Finding> {
        check(&PathBuf::from("crates/x/src/lib.rs"), &scan(src))
    }

    #[test]
    fn console_macros_flagged() {
        let f = run(
            "fn a() { println!(\"x\"); }\nfn b() { eprintln!(\"y\"); }\n\
             fn c() { print!(\"z\"); }\nfn d() { eprint!(\"w\"); }\nfn e() { dbg!(1); }\n",
        );
        assert_eq!(f.len(), 5);
        assert_eq!(f[0].line, 1);
        assert!(f[1].message.contains("eprintln"));
    }

    #[test]
    fn each_macro_matches_itself_only() {
        // One eprintln must be exactly one finding, not also println/print.
        let f = run("fn a() { eprintln!(\"x\"); }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        let f = run("fn a() { println!(\"x\"); }\n");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn writeln_and_format_pass() {
        let ok = "fn f(w: &mut impl std::io::Write) { writeln!(w, \"x\").ok(); \
                  let s = format!(\"{}\", 1); log(&s); }\n";
        assert!(run(ok).is_empty());
    }

    #[test]
    fn test_code_and_comments_exempt() {
        let src = "/// println! is forbidden here.\n\
                   #[cfg(test)]\nmod tests {\n fn t() { println!(\"dbg\"); }\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn cli_bench_xtask_exempt_by_path() {
        let src = "fn f() { println!(\"progress\"); }\n";
        for p in [
            "crates/cli/src/commands.rs",
            "crates/bench/src/microbench.rs",
            "crates/xtask/src/report.rs",
        ] {
            assert!(check(&PathBuf::from(p), &scan(src)).is_empty(), "{p}");
        }
        assert_eq!(
            check(&PathBuf::from("crates/graph/src/io.rs"), &scan(src)).len(),
            1
        );
    }

    #[test]
    fn binaries_exempt_by_path() {
        let src = "fn main() { println!(\"out\"); }\n";
        assert!(check(&PathBuf::from("crates/x/src/main.rs"), &scan(src)).is_empty());
        assert!(check(&PathBuf::from("crates/x/src/bin/tool.rs"), &scan(src)).is_empty());
    }

    #[test]
    fn allow_with_justification_suppresses() {
        let src = "// Fatal-path diagnostic before abort.\n\
                   // xtask-allow: observability\n\
                   fn f() { eprintln!(\"fatal\"); }\n";
        assert!(run(src).is_empty());
    }
}
