//! End-to-end tests of the `xtask lint` binary against fixture trees.
//!
//! Each fixture under `tests/fixtures/` seeds exactly one violation; the
//! tests assert that the right pass fires at the right file and line and
//! that the process exits nonzero. The `clean` fixture and the real
//! workspace tree must both exit 0 — the latter keeps the repo honest:
//! if a lint regression slips into any crate, this suite fails.

use std::path::{Path, PathBuf};
use std::process::Output;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn run_lint(root: &Path) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root"])
        .arg(root)
        .output()
        .expect("spawn xtask binary")
}

/// Runs the linter on a fixture and asserts a nonzero exit plus a
/// finding at `location` (a `path:line: [pass]` prefix).
fn assert_flags(fixture: &str, location: &str) {
    let out = run_lint(&fixtures_dir().join(fixture));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "{fixture}: expected nonzero exit; stdout:\n{stdout}"
    );
    assert!(
        stdout.lines().any(|l| l.starts_with(location)),
        "{fixture}: no finding starting with `{location}`; got:\n{stdout}"
    );
}

#[test]
fn determinism_flags_entropy_rng() {
    assert_flags("determinism_rng", "src/lib.rs:4: [determinism]");
}

#[test]
fn determinism_flags_unordered_emission() {
    assert_flags("determinism_hashmap", "src/lib.rs:8: [determinism]");
}

#[test]
fn hermeticity_flags_registry_dependency() {
    assert_flags("hermeticity", "Cargo.toml:7: [hermeticity]");
}

#[test]
fn hermeticity_flags_net_outside_server() {
    assert_flags("hermeticity_net", "src/lib.rs:3: [hermeticity]");
}

#[test]
fn hermeticity_flags_connect_outside_wire() {
    assert_flags(
        "hermeticity_connect",
        "crates/server/src/lib.rs:8: [hermeticity]",
    );
}

#[test]
fn hermeticity_net_allowed_in_server_crate() {
    let out = run_lint(&fixtures_dir().join("hermeticity_net_allow"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "server-crate net use flagged:\n{stdout}"
    );
    assert!(stdout.trim().is_empty(), "unexpected output:\n{stdout}");
}

#[test]
fn hygiene_flags_missing_module_docs() {
    assert_flags("hygiene_docs", "src/lib.rs:1: [hygiene]");
}

#[test]
fn hygiene_flags_missing_tests() {
    assert_flags("hygiene_tests", "Cargo.toml:1: [hygiene]");
}

#[test]
fn concurrency_flags_lock_order_inversion() {
    assert_flags("concurrency_lock_order", "src/lib.rs:26: [concurrency]");
}

#[test]
fn concurrency_flags_guard_across_blocking_call() {
    assert_flags("concurrency_guard_blocking", "src/lib.rs:9: [concurrency]");
}

#[test]
fn concurrency_flags_unjustified_ordering() {
    assert_flags("concurrency_ordering", "src/lib.rs:14: [concurrency]");
}

#[test]
fn metric_catalog_flags_undocumented_registration() {
    assert_flags(
        "metric_catalog_undocumented",
        "src/lib.rs:5: [metric_catalog]",
    );
}

#[test]
fn metric_catalog_flags_stale_doc_row() {
    assert_flags(
        "metric_catalog_stale",
        "docs/OBSERVABILITY.md:7: [metric_catalog]",
    );
}

#[test]
fn metric_catalog_flags_row_no_reader_names() {
    assert_flags(
        "metric_catalog_unread",
        "docs/OBSERVABILITY.md:7: [metric_catalog]",
    );
}

#[test]
fn metric_catalog_clean_fixture_passes() {
    let out = run_lint(&fixtures_dir().join("metric_catalog_clean"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "clean catalog flagged:\n{stdout}");
    assert!(stdout.trim().is_empty(), "unexpected output:\n{stdout}");
}

#[test]
fn failpoint_catalog_flags_undocumented_plant() {
    assert_flags(
        "failpoint_catalog_undocumented",
        "src/lib.rs:5: [failpoint_catalog]",
    );
}

#[test]
fn failpoint_catalog_flags_stale_doc_row() {
    assert_flags(
        "failpoint_catalog_stale",
        "docs/ROBUSTNESS.md:7: [failpoint_catalog]",
    );
}

#[test]
fn failpoint_catalog_clean_fixture_passes() {
    let out = run_lint(&fixtures_dir().join("failpoint_catalog_clean"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "clean catalog flagged:\n{stdout}");
    assert!(stdout.trim().is_empty(), "unexpected output:\n{stdout}");
}

#[test]
fn concurrency_allow_fixtures_pass_clean() {
    for fixture in [
        // Consistent nesting order everywhere.
        "concurrency_lock_order_allow",
        // The guard's scope closes before the blocking receive.
        "concurrency_guard_blocking_allow",
        // `// ordering:` justification plus whitelisted counter RMW.
        "concurrency_ordering_allow",
    ] {
        let out = run_lint(&fixtures_dir().join(fixture));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{fixture} flagged:\n{stdout}");
        assert!(
            stdout.trim().is_empty(),
            "{fixture}: unexpected output:\n{stdout}"
        );
    }
}

#[test]
fn each_bad_fixture_reports_exactly_one_finding() {
    for fixture in [
        "determinism_rng",
        "determinism_hashmap",
        "hermeticity",
        "hermeticity_net",
        "hermeticity_connect",
        "hygiene_docs",
        "hygiene_tests",
        "concurrency_lock_order",
        "concurrency_guard_blocking",
        "concurrency_ordering",
        "metric_catalog_undocumented",
        "metric_catalog_stale",
        "metric_catalog_unread",
        "failpoint_catalog_undocumented",
        "failpoint_catalog_stale",
    ] {
        let out = run_lint(&fixtures_dir().join(fixture));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let findings = stdout.lines().filter(|l| l.contains(": [")).count();
        assert_eq!(
            findings, 1,
            "{fixture}: expected exactly the seeded violation; got:\n{stdout}"
        );
    }
}

#[test]
fn clean_fixture_exits_zero() {
    let out = run_lint(&fixtures_dir().join("clean"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "clean fixture flagged:\n{stdout}");
    assert!(stdout.trim().is_empty(), "clean fixture output:\n{stdout}");
}

#[test]
fn real_workspace_tree_is_clean() {
    // crates/xtask/../.. is the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let out = run_lint(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "workspace tree has lint findings:\n{stdout}"
    );
}
