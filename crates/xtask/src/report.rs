//! Finding representation and deterministic rendering for `xtask lint`.
//!
//! Every pass reports [`Finding`]s; the driver sorts them by
//! `(path, line, pass)` so output is stable across filesystem iteration
//! order, then renders one `path:line: [pass] message` row per finding —
//! the same shape compilers use, so editors can jump to the location.

use std::fmt;
use std::path::PathBuf;

/// The lint pass that produced a finding. Names double as the tokens
/// accepted by `// xtask-allow: <pass>` comments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pass {
    /// Unseeded randomness or unordered-container emission.
    Determinism,
    /// External registry dependencies in a Cargo manifest, or network
    /// primitives outside the serving crate.
    Hermeticity,
    /// Missing module docs or missing tests.
    Hygiene,
    /// Lock-order inversions, guards held across blocking calls, or
    /// unjustified atomic orderings.
    Concurrency,
    /// Registered metrics and the docs/OBSERVABILITY.md catalog drifted
    /// apart (either direction).
    MetricCatalog,
    /// Planted failpoint sites and the docs/ROBUSTNESS.md catalog
    /// drifted apart (either direction).
    FailpointCatalog,
}

impl Pass {
    /// The pass name as written in reports and allow comments.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Determinism => "determinism",
            Pass::Hermeticity => "hermeticity",
            Pass::Hygiene => "hygiene",
            Pass::Concurrency => "concurrency",
            Pass::MetricCatalog => "metric_catalog",
            Pass::FailpointCatalog => "failpoint_catalog",
        }
    }

    /// All passes, in report order.
    pub fn all() -> [Pass; 6] {
        [
            Pass::Determinism,
            Pass::Hermeticity,
            Pass::Hygiene,
            Pass::Concurrency,
            Pass::MetricCatalog,
            Pass::FailpointCatalog,
        ]
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint violation, anchored to a file and 1-based line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which pass flagged it.
    pub pass: Pass,
    /// Path relative to the lint root.
    pub path: PathBuf,
    /// 1-based line number (1 for whole-file findings).
    pub line: usize,
    /// Human-readable explanation, including the remedy.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.pass,
            self.message
        )
    }
}

/// Sorts findings into the canonical report order.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.pass)
            .cmp(&(&b.path, b.line, b.pass))
            .then_with(|| a.message.cmp(&b.message))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_render_compiler_style() {
        let f = Finding {
            pass: Pass::Determinism,
            path: PathBuf::from("crates/x/src/lib.rs"),
            line: 7,
            message: "entropy-seeded `thread_rng()`".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/x/src/lib.rs:7: [determinism] entropy-seeded `thread_rng()`"
        );
    }

    #[test]
    fn sort_is_by_path_then_line_then_pass() {
        let mk = |p: &str, l: usize, pass: Pass| Finding {
            pass,
            path: PathBuf::from(p),
            line: l,
            message: String::new(),
        };
        let mut v = vec![
            mk("b.rs", 1, Pass::Hygiene),
            mk("a.rs", 9, Pass::Determinism),
            mk("a.rs", 2, Pass::Hygiene),
            mk("a.rs", 2, Pass::Determinism),
        ];
        sort_findings(&mut v);
        let order: Vec<(String, usize, Pass)> = v
            .iter()
            .map(|f| (f.path.display().to_string(), f.line, f.pass))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a.rs".into(), 2, Pass::Determinism),
                ("a.rs".into(), 2, Pass::Hygiene),
                ("a.rs".into(), 9, Pass::Determinism),
                ("b.rs".into(), 1, Pass::Hygiene),
            ]
        );
    }

    #[test]
    fn pass_names_match_allow_tokens() {
        for p in Pass::all() {
            assert!(p.name().chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }
}
