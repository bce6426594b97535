//! Determinism pass: same seed, same bytes.
//!
//! Two families of violations:
//!
//! 1. **Entropy-seeded randomness.** Any use of `thread_rng`,
//!    `rand::rng()`, `from_entropy`, or `seed_from_entropy` makes output
//!    depend on process entropy. The workspace RNG
//!    (`soi_util::rng::Xoshiro256pp`) is constructed from explicit seeds
//!    only; experiment binaries take `--seed`.
//!
//! 2. **Unordered-container emission.** Iterating a `HashMap`/`HashSet`
//!    in a file that writes program output (TSV rows, `println!`) makes
//!    row order depend on `RandomState`. The pass tracks identifiers
//!    bound or typed as `HashMap`/`HashSet` within each file and flags
//!    iteration over them (`.iter()`, `.keys()`, `.values()`,
//!    `.into_iter()`, `for .. in`) when the file also emits output.
//!    Sort into a `Vec` first, use `BTreeMap`/`BTreeSet`, or — when the
//!    iteration provably cannot reach the output — annotate with
//!    `// xtask-allow: determinism`.
//!
//! The scan runs on comment- and string-stripped code, so mentioning a
//! forbidden name in docs is fine. Unlike the panic policy, test
//! code is *not* exempt: tests assert on golden output, so they must be
//! deterministic too.

use crate::report::{Finding, Pass};
use crate::source::{ident_match, SourceFile};
use std::path::Path;

/// Entropy sources that are always forbidden (identifier-boundary match).
const FORBIDDEN_ENTROPY: &[&str] = &["thread_rng", "from_entropy", "seed_from_entropy"];

/// Substring markers that a file writes program output.
const EMIT_MARKERS: &[&str] = &["println!", "print!(", "TsvWriter", "stdout("];

/// Method suffixes that iterate a tracked container.
const ITER_CALLS: &[&str] = &[
    ".iter()",
    ".keys()",
    ".values()",
    ".into_iter()",
    ".drain()",
];

/// Runs the determinism pass over one file.
pub fn check(path: &Path, file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();

    let emits = file
        .lines
        .iter()
        .any(|l| EMIT_MARKERS.iter().any(|m| l.code.contains(m)));

    // Identifiers bound or typed as HashMap/HashSet anywhere in the file.
    let mut unordered: Vec<String> = Vec::new();
    for line in &file.lines {
        if line.code.contains("HashMap") || line.code.contains("HashSet") {
            if let Some(name) = binding_name(&line.code) {
                if !unordered.contains(&name) {
                    unordered.push(name);
                }
            }
        }
    }

    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        if line.allows(Pass::Determinism.name()) {
            continue;
        }
        for pat in FORBIDDEN_ENTROPY {
            if ident_match(&line.code, pat).is_some() {
                findings.push(Finding {
                    pass: Pass::Determinism,
                    path: path.to_path_buf(),
                    line: lineno,
                    message: format!(
                        "`{pat}` seeds from process entropy; construct the RNG from an \
                         explicit seed (soi_util::rng::Xoshiro256pp::seed_from_u64)"
                    ),
                });
            }
        }
        if line.code.contains("rand::rng(") {
            findings.push(Finding {
                pass: Pass::Determinism,
                path: path.to_path_buf(),
                line: lineno,
                message: "`rand::rng()` is entropy-seeded; use an explicit seed".into(),
            });
        }
        if emits {
            for name in &unordered {
                if iterates(&line.code, name) {
                    findings.push(Finding {
                        pass: Pass::Determinism,
                        path: path.to_path_buf(),
                        line: lineno,
                        message: format!(
                            "iteration over unordered container `{name}` in a file that \
                             emits output; sort into a Vec or use BTreeMap/BTreeSet \
                             (or annotate `// xtask-allow: determinism`)"
                        ),
                    });
                }
            }
        }
    }
    findings
}

/// Extracts the identifier bound on a line that mentions `HashMap`/`HashSet`:
/// `let [mut] name[: T] = ...` or a struct field / parameter `name: HashMap<..>`.
fn binding_name(code: &str) -> Option<String> {
    let take_ident = |s: &str| -> Option<String> {
        let t: String = s
            .trim_start()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if t.is_empty() || t.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            None
        } else {
            Some(t)
        }
    };
    if let Some(at) = ident_match(code, "let") {
        let mut rest = &code[at + 3..];
        let trimmed = rest.trim_start();
        if let Some(stripped) = trimmed.strip_prefix("mut ") {
            rest = stripped;
        } else {
            rest = trimmed;
        }
        return take_ident(rest);
    }
    // `name: HashMap<..>` (field or parameter) — identifier before the
    // first `:` that precedes the container type.
    let ty_at = code.find("HashMap").or_else(|| code.find("HashSet"))?;
    let before = &code[..ty_at];
    let colon = before.rfind(':')?;
    let ident_end = before[..colon].trim_end();
    let start = ident_end
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map(|p| p + 1)
        .unwrap_or(0);
    let name = &ident_end[start..];
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(name.to_string())
    }
}

/// Whether the line iterates the container `name`.
fn iterates(code: &str, name: &str) -> bool {
    for call in ITER_CALLS {
        let pat = format!("{name}{call}");
        if ident_match(code, &pat).is_some() {
            return true;
        }
    }
    if let Some(in_at) = ident_match(code, "in") {
        if code.contains("for ") {
            let after = code[in_at + 2..].trim_start().trim_start_matches('&');
            let head: String = after
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            return head == name;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Finding> {
        check(&PathBuf::from("x.rs"), &scan(src))
    }

    #[test]
    fn entropy_sources_flagged() {
        let f = run("let mut rng = thread_rng();\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
        assert!(run("let mut rng = rand::rng();\n").len() == 1);
        assert!(run("let r = SmallRng::from_entropy();\n").len() == 1);
    }

    #[test]
    fn seeded_rng_and_docs_mentions_pass() {
        assert!(run("let rng = Xoshiro256pp::seed_from_u64(7);\n").is_empty());
        assert!(run("// thread_rng is forbidden here\n").is_empty());
        assert!(run("let s = \"thread_rng\";\n").is_empty());
    }

    #[test]
    fn allow_comment_suppresses() {
        let f = run("let r = thread_rng(); // xtask-allow: determinism\n");
        assert!(f.is_empty());
    }

    #[test]
    fn hashmap_iteration_with_emission_flagged() {
        let src = "use std::collections::HashMap;\n\
                   fn dump() {\n\
                   let mut counts: HashMap<u32, u32> = HashMap::new();\n\
                   for (k, v) in counts.iter() {\n\
                   println!(\"{k}\\t{v}\");\n\
                   }\n\
                   }\n";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 4);
        assert!(f[0].message.contains("counts"));
    }

    #[test]
    fn for_loop_over_ref_is_flagged() {
        let src = "fn dump(seen: HashSet<u32>) {\n\
                   for v in &seen { println!(\"{v}\"); }\n\
                   }\n";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn hashmap_without_emission_is_fine() {
        let src = "fn count() -> usize {\n\
                   let m: HashMap<u32, u32> = HashMap::new();\n\
                   m.iter().count()\n\
                   }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn sorted_snapshot_passes() {
        let src = "fn dump(m: HashMap<u32, u32>) {\n\
                   let mut rows: Vec<_> = m.iter().collect(); // xtask-allow: determinism\n\
                   rows.sort();\n\
                   for (k, v) in rows { println!(\"{k}\\t{v}\"); }\n\
                   }\n";
        assert!(run(src).is_empty());
    }
}
