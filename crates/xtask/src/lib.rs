//! # xtask
//!
//! Workspace static analysis for the Spheres-of-Influence repo, run as
//! `cargo xtask lint` (alias for `cargo run -p xtask -- lint`). Six
//! passes enforce the contracts the experiments depend on:
//!
//! | pass               | contract                                              |
//! |--------------------|-------------------------------------------------------|
//! | `determinism`      | no entropy-seeded RNGs; no unordered-map emission     |
//! | `hermeticity`      | no registry dependencies; `std::net` only in `server` |
//! | `hygiene`          | `//!` docs on every `src/*.rs`; ≥ 1 test per package  |
//! | `concurrency`      | one global lock order; no guard across blocking calls;|
//! |                    | justified atomic orderings                            |
//! | `metric_catalog`   | registered metrics ↔ docs/OBSERVABILITY.md catalog   |
//! | `failpoint_catalog`| planted failpoints ↔ docs/ROBUSTNESS.md catalog      |
//!
//! Findings can be suppressed per line with `// xtask-allow: <pass>`
//! (`#` comments in manifests), which is expected to sit next to a
//! justification. The runtime counterpart of these static checks lives
//! in `soi_util::invariant`. See `docs/STATIC_ANALYSIS.md` for the full
//! policy.
//!
//! The panic policy (no `unwrap`, `expect`, `panic!`, `todo!`,
//! `unimplemented!` or `unreachable!` outside test code, no `unsafe`,
//! `catch_unwind` only at a supervision point) is not a pass here:
//! clippy's restriction lints enforce it, with the list written once in
//! `.github/workflows/ci.yml` and each justified site marked
//! `#[expect(clippy::…, reason = "…")]`.

pub mod catalog;
pub mod concurrency;
pub mod determinism;
pub mod hermeticity;
pub mod hygiene;
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
    let tree = walk::Tree::discover(root)?;

    let mut sources: BTreeMap<PathBuf, String> = BTreeMap::new();
    for rel in &tree.rust_files {
        sources.insert(rel.clone(), std::fs::read_to_string(root.join(rel))?);
    }
    let mut manifests: BTreeMap<PathBuf, String> = BTreeMap::new();
    for rel in &tree.manifests {
        manifests.insert(rel.clone(), std::fs::read_to_string(root.join(rel))?);
    }

    // Scan every source once; the concurrency pass's lock-order check
    // is cross-file, so the scanned forms are kept for a second walk.
    let scanned: BTreeMap<PathBuf, source::SourceFile> = sources
        .iter()
        .map(|(path, text)| (path.clone(), source::scan(text)))
        .collect();

    let mut findings = Vec::new();
    for (path, file) in &scanned {
        findings.extend(determinism::check(path, file));
        findings.extend(hermeticity::check_source(path, file));
        findings.extend(concurrency::check_source(path, file));
    }
    findings.extend(concurrency::check_lock_order(&scanned));
    findings.extend(catalog::check(&catalog::METRICS, root, &scanned));
    findings.extend(catalog::check(&catalog::FAILPOINTS, root, &scanned));
    for (path, text) in &manifests {
        findings.extend(hermeticity::check(path, text));
    }
    findings.extend(hygiene::check(&manifests, &sources));

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
            root.join("Cargo.toml"),
            "[package]\nname = \"tiny\"\n\n[dependencies]\n",
        )
        .unwrap();
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
        std::fs::write(
            root.join("Cargo.toml"),
            "[package]\nname = \"bad\"\n\n[dependencies]\nrand = \"0.8\"\n",
        )
        .unwrap();
        // Missing //! docs, an entropy RNG, and no tests.
        std::fs::write(
            root.join("src/lib.rs"),
            "pub fn f() { let r = thread_rng(); r.x().unwrap(); }\n",
        )
        .unwrap();
        let findings = run_lint(&root).unwrap();
        let passes: Vec<&str> = findings.iter().map(|f| f.pass.name()).collect();
        for expect in ["determinism", "hermeticity", "hygiene"] {
            assert!(passes.contains(&expect), "missing {expect}: {findings:?}");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
