//! # xtask
//!
//! Workspace static analysis for the Spheres-of-Influence repo, run as
//! `cargo xtask lint` (alias for `cargo run -p xtask -- lint`). Four
//! passes check the contracts clippy cannot state:
//!
//! | pass               | contract                                              |
//! |--------------------|-------------------------------------------------------|
//! | `hermeticity`      | `std::net` only in `server`; `connect` only in `wire` |
//! | `concurrency`      | one global lock order; no guard across blocking calls;|
//! |                    | justified atomic orderings                            |
//! | `metric_catalog`   | registered metrics ↔ docs/OBSERVABILITY.md catalog   |
//! | `failpoint_catalog`| planted failpoints ↔ docs/ROBUSTNESS.md catalog      |
//!
//! Findings can be suppressed per line with `// xtask-allow: <pass>`,
//! which is expected to sit next to a justification. The runtime
//! counterpart of these static checks lives in `soi_util::invariant`.
//! See `docs/STATIC_ANALYSIS.md` for the full policy.
//!
//! The rest of the policy is clippy's and cargo's, with each list written
//! once: the panic policy in `.github/workflows/ci.yml`; the determinism
//! rule (no `HashMap`, `HashSet` or `RandomState`), `catch_unwind` and raw
//! `thread::spawn` in the root `clippy.toml`; module docs as rustc's
//! `missing_docs`; and "no registry dependencies" as a `cargo metadata
//! --offline --locked` step. A justified site is marked
//! `#[expect(clippy::…, reason = "…")]`.

pub mod catalog;
pub mod concurrency;
pub mod hermeticity;
pub mod report;
pub mod source;
pub mod walk;

use report::Finding;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Runs every lint pass over the tree rooted at `root`.
///
/// Returns findings sorted in canonical order; empty means the tree is
/// clean. I/O errors (unreadable root) surface as `Err`.
pub fn run_lint(root: &Path) -> std::io::Result<Vec<Finding>> {
    // Scan every source once; the concurrency pass's lock-order check
    // is cross-file, so the scanned forms are kept for a second walk.
    let mut scanned: BTreeMap<PathBuf, source::SourceFile> = BTreeMap::new();
    for rel in walk::rust_files(root)? {
        let text = std::fs::read_to_string(root.join(&rel))?;
        scanned.insert(rel, source::scan(&text));
    }

    let mut findings = Vec::new();
    for (path, file) in &scanned {
        findings.extend(hermeticity::check_source(path, file));
        findings.extend(concurrency::check_source(path, file));
    }
    findings.extend(concurrency::check_lock_order(&scanned));
    findings.extend(catalog::check(&catalog::METRICS, root, &scanned));
    findings.extend(catalog::check(&catalog::FAILPOINTS, root, &scanned));

    report::sort_findings(&mut findings);
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_runs_over_a_tiny_clean_tree() {
        let root = std::env::temp_dir().join(format!("xtask-lint-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("src")).unwrap();
        std::fs::write(
            root.join("src/lib.rs"),
            "//! Tiny.\npub fn two() -> u32 { 2 }\n#[cfg(test)]\nmod t {\n    #[test]\n    fn works() { assert_eq!(super::two(), 2); }\n}\n",
        )
        .unwrap();
        let findings = run_lint(&root).unwrap();
        assert!(findings.is_empty(), "unexpected: {findings:?}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn lint_aggregates_across_passes() {
        let root = std::env::temp_dir().join(format!("xtask-lint-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("src")).unwrap();
        // A socket outside the serving crate, and an unjustified ordering.
        std::fs::write(
            root.join("src/lib.rs"),
            "use std::net::TcpListener;\npub fn f(a: &AtomicBool) { a.store(true, Ordering::Relaxed); }\n",
        )
        .unwrap();
        let findings = run_lint(&root).unwrap();
        let passes: Vec<&str> = findings.iter().map(|f| f.pass.name()).collect();
        for expect in ["hermeticity", "concurrency"] {
            assert!(passes.contains(&expect), "missing {expect}: {findings:?}");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
