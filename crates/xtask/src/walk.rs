//! Deterministic workspace file discovery for the lint passes.
//!
//! Walks the lint root recursively, skipping build output (`target/`),
//! VCS metadata, and lint-test fixture trees (`fixtures/` directories
//! contain *deliberately* broken crates). Results are sorted so every
//! run reports findings in the same order regardless of readdir order.

use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".cargo", "fixtures"];

/// All files discovered under a lint root, pre-classified.
#[derive(Clone, Debug, Default)]
pub struct Tree {
    /// Every `.rs` file, sorted, relative to the root.
    pub rust_files: Vec<PathBuf>,
    /// Every `Cargo.toml`, sorted, relative to the root.
    pub manifests: Vec<PathBuf>,
}

impl Tree {
    /// Walks `root` and classifies its files.
    pub fn discover(root: &Path) -> std::io::Result<Tree> {
        let mut tree = Tree::default();
        walk(root, Path::new(""), &mut tree)?;
        tree.rust_files.sort();
        tree.manifests.sort();
        Ok(tree)
    }
}

fn walk(root: &Path, rel: &Path, tree: &mut Tree) -> std::io::Result<()> {
    let dir = root.join(rel);
    let mut entries: Vec<_> = std::fs::read_dir(&dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.file_name())
        .collect();
    entries.sort();
    for name in entries {
        let rel_child = rel.join(&name);
        let abs = root.join(&rel_child);
        let name = name.to_string_lossy().into_owned();
        if abs.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(root, &rel_child, tree)?;
        } else if name == "Cargo.toml" {
            tree.manifests.push(rel_child);
        } else if name.ends_with(".rs") {
            tree.rust_files.push(rel_child);
        }
    }
    Ok(())
}

/// True for library sources: files under a `src/` directory that are not
/// binary roots (`main.rs`, anything under `src/bin/`). The concurrency
/// pass's guard and ordering checks apply only to these.
pub fn is_library_source(rel: &Path) -> bool {
    let comps: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    let Some(src_at) = comps.iter().position(|c| c == "src") else {
        return false;
    };
    let rest = &comps[src_at + 1..];
    if rest.is_empty() || rest[0] == "bin" {
        return false;
    }
    rest.last().map(String::as_str) != Some("main.rs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_source_classification() {
        assert!(is_library_source(Path::new("crates/graph/src/csr.rs")));
        assert!(is_library_source(Path::new("src/lib.rs")));
        assert!(is_library_source(Path::new("crates/x/src/passes/a.rs")));
        assert!(!is_library_source(Path::new("crates/cli/src/main.rs")));
        assert!(!is_library_source(Path::new(
            "crates/bench/src/bin/run_all.rs"
        )));
        assert!(!is_library_source(Path::new("tests/end_to_end.rs")));
        assert!(!is_library_source(Path::new("examples/quickstart.rs")));
        assert!(!is_library_source(Path::new("crates/x/benches/b.rs")));
    }

    #[test]
    fn discover_skips_fixture_and_target_trees() {
        let root = std::env::temp_dir().join(format!("xtask-walk-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for d in ["src", "target/debug", "tests/fixtures/bad/src"] {
            std::fs::create_dir_all(root.join(d)).unwrap();
        }
        std::fs::write(root.join("Cargo.toml"), "[package]\n").unwrap();
        std::fs::write(root.join("src/lib.rs"), "//! x\n").unwrap();
        std::fs::write(root.join("target/debug/gen.rs"), "").unwrap();
        std::fs::write(root.join("tests/fixtures/bad/src/lib.rs"), "").unwrap();
        std::fs::write(root.join("tests/fixtures/bad/Cargo.toml"), "").unwrap();

        let tree = Tree::discover(&root).unwrap();
        assert_eq!(tree.rust_files, vec![PathBuf::from("src/lib.rs")]);
        assert_eq!(tree.manifests, vec![PathBuf::from("Cargo.toml")]);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
