//! Panic-policy pass: library code returns errors, it does not abort.
//!
//! Flags `.unwrap()`, `.expect(..)`, `panic!`, `todo!`, and
//! `unimplemented!` in *library* sources (`src/*.rs` excluding `main.rs`
//! and `src/bin/`). Binary roots, integration tests, benches, examples,
//! and `#[cfg(test)]`/`#[test]` items are exempt — a test that unwraps
//! is asserting, a `main` that unwraps is reporting.
//!
//! `assert!`/`debug_assert!` are deliberately permitted: they state
//! invariants, not control flow. Combinators like `.unwrap_or(..)` are
//! never matched (the pattern requires the exact call `unwrap()`).
//!
//! A justified panic — e.g. an infallible-by-construction `expect` — is
//! acknowledged with `// xtask-allow: panic_policy` plus a comment
//! explaining why it cannot fire.
//!
//! `catch_unwind` is the inverse hazard: instead of aborting, it lets a
//! bug masquerade as a handled condition. It is permitted only in the
//! supervised-worker loops (`CATCH_UNWIND_ALLOWED`) whose entire job
//! is converting a panic into a typed `internal-error` response and
//! respawning; anywhere else it must be flagged.

use crate::report::{Finding, Pass};
use crate::source::{find_ident, SourceFile};
use crate::walk::is_library_source;
use std::path::Path;

/// `(needle, must_follow, description)` patterns, ident-boundary matched.
const PATTERNS: &[(&str, &str, &str)] = &[
    (
        "unwrap",
        "()",
        "`.unwrap()` panics on None/Err; propagate with `?` or handle the case",
    ),
    (
        "expect",
        "(",
        "`.expect(..)` panics; return a typed error instead",
    ),
    ("panic", "!", "`panic!` in library code; return an error"),
    ("todo", "!", "`todo!` left in library code"),
    (
        "unimplemented",
        "!",
        "`unimplemented!` left in library code",
    ),
    (
        "unreachable",
        "!",
        "`unreachable!` aborts if the invariant ever breaks; return a typed \
         error or justify why the arm cannot be reached",
    ),
    (
        "unwrap_unchecked",
        "(",
        "`.unwrap_unchecked(..)` is undefined behavior when wrong; use a \
         checked form and propagate the error",
    ),
];

/// The only library files (relative to the lint root) permitted to call
/// `catch_unwind`: the supervision points that turn a worker panic into
/// a typed `internal-error` response and respawn the worker. Everywhere
/// else, swallowing an unwind hides the bug — return an error instead.
const CATCH_UNWIND_ALLOWED: &[&str] = &["crates/server/src/worker.rs", "crates/util/src/pool.rs"];

/// Runs the panic-policy pass over one file.
pub fn check(path: &Path, file: &SourceFile) -> Vec<Finding> {
    if !is_library_source(path) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || line.allows(Pass::PanicPolicy.name()) {
            continue;
        }
        if find_ident(&line.code, "catch_unwind", |rest| rest.starts_with('(')).is_some()
            && !CATCH_UNWIND_ALLOWED.iter().any(|p| path == Path::new(p))
        {
            findings.push(Finding {
                pass: Pass::PanicPolicy,
                path: path.to_path_buf(),
                line: idx + 1,
                message: "`catch_unwind` outside a supervised worker loop hides bugs; \
                          propagate the panic or return a typed error"
                    .to_string(),
            });
        }
        for &(needle, follow, msg) in PATTERNS {
            if let Some(at) = find_ident(&line.code, needle, |rest| rest.starts_with(follow)) {
                // `.unwrap()`/`.expect(` must be method calls; the macro
                // patterns must not be part of a longer path like
                // `core::panic::Location`.
                let is_method = matches!(needle, "unwrap" | "expect" | "unwrap_unchecked");
                if is_method && !preceded_by_dot(&line.code, at) {
                    continue;
                }
                findings.push(Finding {
                    pass: Pass::PanicPolicy,
                    path: path.to_path_buf(),
                    line: idx + 1,
                    message: msg.to_string(),
                });
            }
        }
    }
    findings
}

fn preceded_by_dot(code: &str, at: usize) -> bool {
    code[..at].trim_end().ends_with('.')
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
    fn unwrap_and_expect_flagged() {
        let f = run("fn f() { x.unwrap(); }\nfn g() { y.expect(\"msg\"); }\n");
        assert_eq!(f.len(), 2);
        assert_eq!((f[0].line, f[1].line), (1, 2));
    }

    #[test]
    fn combinators_and_lookalikes_pass() {
        let ok = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); z.unwrap_or_default(); \
                  e.expect_err(\"x\"); assert!(true); debug_assert_eq!(1, 1); }\n";
        assert!(run(ok).is_empty());
    }

    #[test]
    fn macros_flagged() {
        assert_eq!(run("fn f() { panic!(\"boom\"); }\n").len(), 1);
        assert_eq!(run("fn f() { todo!() }\n").len(), 1);
        assert_eq!(run("fn f() { unimplemented!() }\n").len(), 1);
        assert_eq!(
            run("fn f(x: u8) { match x { 0 => {} _ => unreachable!() } }\n").len(),
            1
        );
    }

    #[test]
    fn unchecked_unwrap_flagged_but_suffixed_idents_pass() {
        assert_eq!(run("fn f() { unsafe { x.unwrap_unchecked() } }\n").len(), 1);
        // A local named like the method is not a method call.
        assert!(run("fn f() { let unwrap_unchecked = 1; g(unwrap_unchecked); }\n").is_empty());
        // `unreachable_patterns` (the lint name) is not the macro.
        assert!(run("#[allow(unreachable_patterns)]\nfn f() {}\n").is_empty());
    }

    #[test]
    fn test_code_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); panic!(); }\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn binaries_and_tests_exempt_by_path() {
        let src = "fn main() { run().unwrap(); }\n";
        assert!(check(&PathBuf::from("crates/cli/src/main.rs"), &scan(src)).is_empty());
        assert!(check(&PathBuf::from("tests/e2e.rs"), &scan(src)).is_empty());
        assert!(check(&PathBuf::from("examples/demo.rs"), &scan(src)).is_empty());
    }

    #[test]
    fn allow_with_justification_suppresses() {
        let src = "// Component ids are < nc by construction.\n\
                   // xtask-allow: panic_policy\n\
                   let dag = from_edges(nc, &arcs).expect(\"in range\");\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn catch_unwind_flagged_outside_supervision_points() {
        let src = "fn f() { let _ = std::panic::catch_unwind(|| {}); }\n";
        assert_eq!(run(src).len(), 1);
        for allowed in super::CATCH_UNWIND_ALLOWED {
            assert!(
                check(&PathBuf::from(allowed), &scan(src)).is_empty(),
                "{allowed} is a sanctioned supervision point"
            );
        }
        // A lookalike identifier is not the call.
        assert!(run("fn f() { let catch_unwind_count = 1; g(catch_unwind_count); }\n").is_empty());
    }

    #[test]
    fn mentions_in_comments_and_strings_pass() {
        let src = "/// Panics: never — see panic! docs.\n\
                   fn f() { let s = \"panic!\"; log(s); }\n";
        assert!(run(src).is_empty());
    }
}
