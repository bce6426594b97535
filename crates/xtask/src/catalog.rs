//! The two catalog passes: every name the code plants is documented,
//! and every documented name is still planted.
//!
//! * `failpoint_catalog` — fault-injection sites (the first string
//!   literal of `failpoint!("…")`, `failpoint_crash!("…")` and
//!   `trigger("…")` calls) against `docs/ROBUSTNESS.md`;
//! * `metric_catalog` — metric names (the first string literal of
//!   `counter("…")`, `gauge("…")`, `histogram("…")`, `wall_hist("…")`,
//!   `counter_add!("…")` and `hist_observe!("…")` calls) against
//!   `docs/OBSERVABILITY.md`.
//!
//! They are one check run over two [`Spec`]s. The doc carries its
//! catalog between `<!-- NOUN-catalog:begin -->` and
//! `<!-- NOUN-catalog:end -->` markers: markdown table rows whose first
//! backtick span is the name. Both directions are checked:
//!
//! * a name in source missing from the catalog flags the source line
//!   (the doc rotted behind the code);
//! * a cataloged name found nowhere in source flags the catalog row (the
//!   code rotted behind the doc).
//!
//! The metric catalog's last column lists, in backticks, the files that
//! read each name: a row is flagged when a listed path does not exist or
//! none of the listed files names the metric, as a whole word or in its
//! `soi_…` Prometheus form (`docs/STATIC_ANALYSIS.md`).
//!
//! Names are matched in the **raw** line text because [`crate::source`]
//! blanks string-literal contents in the lexed form; test lines are
//! skipped, as are metric names starting `test.` (unit-test scratch is
//! not part of the public surface). Dynamically built names cannot be
//! extracted and are exempt by construction. Suppress a deliberate
//! undocumented name with `// xtask-allow: <pass>`.
//!
//! Fixture trees have no catalog document; a missing doc skips the pass
//! entirely rather than flagging every name in a tree that never
//! promised a catalog.

use crate::report::{Finding, Pass};
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// What tells one catalog pass from the other.
pub struct Spec {
    /// The pass findings are reported under.
    pub pass: Pass,
    /// What a cataloged name is ("failpoint", "metric"); also the stem
    /// of the doc markers.
    pub noun: &'static str,
    /// What the code does to one ("planted", "registered").
    pub verb: &'static str,
    /// What the code has to restore for a stale row ("site", "metric").
    pub thing: &'static str,
    /// What the markers wrap ("site table", "catalog table").
    pub table: &'static str,
    /// The catalog's home, relative to the lint root.
    pub doc_path: &'static str,
    /// Call forms whose first string literal is a cataloged name.
    pub calls: &'static [&'static str],
    /// Names with this prefix are scratch, never cataloged.
    pub scratch_prefix: Option<&'static str>,
    /// Whether each row's last column lists the files that read it.
    pub readers: bool,
}

/// Planted failpoints ↔ the `docs/ROBUSTNESS.md` catalog.
pub const FAILPOINTS: Spec = Spec {
    pass: Pass::FailpointCatalog,
    noun: "failpoint",
    verb: "planted",
    thing: "site",
    table: "site table",
    doc_path: "docs/ROBUSTNESS.md",
    calls: &["failpoint!(\"", "failpoint_crash!(\"", "trigger(\""],
    scratch_prefix: None,
    readers: false,
};

/// Registered metrics ↔ the `docs/OBSERVABILITY.md` catalog.
pub const METRICS: Spec = Spec {
    pass: Pass::MetricCatalog,
    noun: "metric",
    verb: "registered",
    thing: "metric",
    table: "catalog table",
    doc_path: "docs/OBSERVABILITY.md",
    calls: &[
        "counter(\"",
        "gauge(\"",
        "histogram(\"",
        "wall_hist(\"",
        "counter_add!(\"",
        "hist_observe!(\"",
    ],
    scratch_prefix: Some("test."),
    readers: true,
};

impl Spec {
    fn begin_marker(&self) -> String {
        format!("<!-- {}-catalog:begin -->", self.noun)
    }

    fn end_marker(&self) -> String {
        format!("<!-- {}-catalog:end -->", self.noun)
    }
}

/// Runs one catalog pass over the whole tree. `root` locates the catalog
/// document; `scanned` are the lexed sources.
pub fn check(spec: &Spec, root: &Path, scanned: &BTreeMap<PathBuf, SourceFile>) -> Vec<Finding> {
    let Spec {
        pass,
        noun,
        verb,
        thing,
        doc_path,
        ..
    } = *spec;
    let doc_text = match std::fs::read_to_string(root.join(doc_path)) {
        Ok(text) => text,
        // No doc, no catalog contract (lint-test fixture trees).
        Err(_) => return Vec::new(),
    };
    let finding = |path: PathBuf, line: usize, message: String| Finding {
        pass,
        path,
        line,
        message,
    };
    let Some(catalog) = parse_catalog(spec, &doc_text) else {
        let message = format!(
            "{noun} catalog markers missing; wrap the {} in `{}` / `{}`",
            spec.table,
            spec.begin_marker(),
            spec.end_marker()
        );
        return vec![finding(PathBuf::from(doc_path), 1, message)];
    };

    let mut findings = Vec::new();
    let in_source = names_in_source(spec, scanned);
    for (name, sites) in &in_source {
        if !catalog.contains_key(name) {
            let (path, line) = &sites[0];
            let message = format!(
                "{noun} `{name}` is {verb} here but missing from the \
                 {doc_path} catalog; add a row (or `// xtask-allow: {}`)",
                pass.name()
            );
            findings.push(finding(path.clone(), *line, message));
        }
    }
    for (name, (line, readers)) in &catalog {
        let message = if !in_source.contains_key(name) {
            Some(format!(
                "cataloged {noun} `{name}` is not {verb} anywhere in the \
                 tree; delete the row or restore the {thing}"
            ))
        } else if spec.readers {
            unread(root, doc_path, name, readers)
        } else {
            None
        };
        findings.extend(message.map(|m| finding(PathBuf::from(doc_path), *line, m)));
    }
    findings
}

/// Why the row of metric `name` shows no reader, if it does not: a listed
/// path does not exist, or no listed file but the catalog's `doc_path`
/// [`mentions`] it.
fn unread(root: &Path, doc_path: &str, name: &str, readers: &[String]) -> Option<String> {
    let mut read = false;
    for path in readers {
        let Ok(text) = std::fs::read_to_string(root.join(path)) else {
            return Some(format!(
                "metric `{name}` lists reader `{path}`, which does not exist"
            ));
        };
        read |= path != doc_path && mentions(&text, name);
    }
    (!read).then(|| {
        format!("no listed reader names metric `{name}`; list the file that reads it, or delete the metric")
    })
}

/// Whether `text` names the metric `name` as a whole word (`a.b` is not
/// named by `a.b_c`), or in the Prometheus form `soi stats --format prom`
/// renders: `soi_` + the name with `.`/`-` as `_`, bare or with a
/// `_bucket`, `_count` or `_ns` series suffix.
fn mentions(text: &str, name: &str) -> bool {
    let prom = format!("soi_{}", name.replace(['.', '-'], "_"));
    word_in(text, name, &[""]) || word_in(text, &prom, &["", "_bucket", "_count", "_ns"])
}

/// Whether `word` occurs in `text` with no name character before it and,
/// after one of `suffixes`, none after it.
fn word_in(text: &str, word: &str, suffixes: &[&str]) -> bool {
    let inner = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(word).any(|(at, _)| {
        let (before, rest) = (&text[..at], &text[at + word.len()..]);
        !before.ends_with(|c| inner(c) || c == '.')
            && suffixes
                .iter()
                .any(|s| rest.strip_prefix(s).is_some_and(|r| !r.starts_with(inner)))
    })
}

/// Extracts the catalog as `name -> (1-based doc line, listed readers)`.
/// `None` when the marker pair is absent or inverted.
fn parse_catalog(spec: &Spec, doc: &str) -> Option<BTreeMap<String, (usize, Vec<String>)>> {
    let (begin, end) = (spec.begin_marker(), spec.end_marker());
    let mut catalog = BTreeMap::new();
    let mut inside = false;
    let mut saw_region = false;
    for (idx, line) in doc.lines().enumerate() {
        if line.contains(&begin) {
            inside = true;
            saw_region = true;
            continue;
        }
        if line.contains(&end) {
            if !inside {
                return None;
            }
            inside = false;
            continue;
        }
        if !inside {
            continue;
        }
        if let Some(name) = table_row_name(line) {
            catalog.entry(name).or_insert((idx + 1, readers_of(line)));
        }
    }
    if !saw_region || inside {
        return None;
    }
    Some(catalog)
}

/// Whether `name` is spelled like a cataloged name.
fn is_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || ".-_".contains(c))
}

/// The first backtick span of a markdown table row, when it looks like
/// a name. Header and separator rows have no backtick span.
fn table_row_name(line: &str) -> Option<String> {
    let trimmed = line.trim();
    if !trimmed.starts_with('|') {
        return None;
    }
    let open = trimmed.find('`')?;
    let rest = &trimmed[open + 1..];
    let close = rest.find('`')?;
    let name = &rest[..close];
    is_name(name).then(|| name.to_string())
}

/// The backtick spans of a table row's last cell.
fn readers_of(line: &str) -> Vec<String> {
    let cell = line.trim().trim_end_matches('|').rsplit('|').next();
    let spans = cell.unwrap_or_default().split('`').skip(1).step_by(2);
    spans.map(str::to_string).collect()
}

/// Every name in non-test code, with the lines where it appears (sorted
/// by the BTreeMap walk, so the first is the canonical anchor for
/// findings).
fn names_in_source(
    spec: &Spec,
    scanned: &BTreeMap<PathBuf, SourceFile>,
) -> BTreeMap<String, Vec<(PathBuf, usize)>> {
    let mut found: BTreeMap<String, Vec<(PathBuf, usize)>> = BTreeMap::new();
    for (path, file) in scanned {
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test || line.allows(spec.pass.name()) {
                continue;
            }
            for name in names_in(spec, &line.raw) {
                if spec.scratch_prefix.is_some_and(|p| name.starts_with(p)) {
                    continue;
                }
                found.entry(name).or_default().push((path.clone(), idx + 1));
            }
        }
    }
    found
}

/// Name literals in one raw source line.
fn names_in(spec: &Spec, raw: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for call in spec.calls {
        let mut from = 0;
        while let Some(rel) = raw[from..].find(call) {
            let at = from + rel;
            // Ident boundary on the left, so a call never rides along on
            // a longer identifier ending in its name (`wall_hist(` is not
            // also a `hist(`-style match, nor `retrigger(` a `trigger(`).
            let boundary = at == 0
                || !raw[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            let start = at + call.len();
            if let Some(close) = raw[start..].find('"') {
                let name = &raw[start..start + close];
                // The charset filter also discards false positives where
                // the call text appears inside a longer string literal
                // (the extracted span then crosses `)`, spaces, …).
                if boundary && is_name(name) {
                    names.insert(name.to_string());
                }
            }
            from = at + call.len();
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan;

    const SPECS: [&Spec; 2] = [&FAILPOINTS, &METRICS];

    fn doc(spec: &Spec, rows: &str) -> String {
        format!(
            "# Doc\n\n{}\n| name | notes |\n|---|---|\n{rows}{}\n",
            spec.begin_marker(),
            spec.end_marker()
        )
    }

    /// A statement using `call` (one of `spec.calls`) on `name`.
    fn stmt(call: &str, name: &str) -> String {
        format!("fn f() {{ lib::{call}{name}\"); }}\n")
    }

    fn tree(src: &str) -> BTreeMap<PathBuf, SourceFile> {
        [(PathBuf::from("crates/x/src/lib.rs"), scan(src))]
            .into_iter()
            .collect()
    }

    /// Runs the pass over a temporary tree holding `doc_text` as the
    /// catalog and `files` as `(path, text)` beside it.
    fn check_in(spec: &Spec, doc_text: &str, files: &[(&str, &str)], src: &str) -> Vec<Finding> {
        let root = std::env::temp_dir().join(format!(
            "xtask-{}-catalog-{}-{:p}",
            spec.noun,
            std::process::id(),
            &doc_text
        ));
        std::fs::create_dir_all(root.join("docs")).unwrap();
        std::fs::write(root.join(spec.doc_path), doc_text).unwrap();
        for (path, text) in files {
            std::fs::write(root.join(path), text).unwrap();
        }
        let findings = check(spec, &root, &tree(src));
        std::fs::remove_dir_all(&root).unwrap();
        findings
    }

    /// [`check_in`] with one reader, `reads.md`, that names every row.
    fn check_with(spec: &Spec, doc_text: &str, src: &str) -> Vec<Finding> {
        check_in(spec, doc_text, &[("reads.md", doc_text)], src)
    }

    /// A catalog row for `name`, read by `reads.md`.
    fn row(name: &str) -> String {
        format!("| `{name}` | notes | `reads.md` |\n")
    }

    #[test]
    fn documented_names_pass_both_directions_for_every_call_form() {
        for spec in SPECS {
            let (mut rows, mut src) = (String::new(), String::new());
            for (i, call) in spec.calls.iter().enumerate() {
                rows.push_str(&row(&format!("app.name{i}")));
                src.push_str(&stmt(call, &format!("app.name{i}")));
            }
            let findings = check_with(spec, &doc(spec, &rows), &src);
            assert!(findings.is_empty(), "{}: {findings:?}", spec.noun);
            assert_eq!(
                names_in_source(spec, &tree(&src)).len(),
                spec.calls.len(),
                "{}: one name per call form",
                spec.noun
            );
        }
    }

    #[test]
    fn stale_catalog_row_and_undocumented_name_both_flag() {
        for spec in SPECS {
            let findings = check_with(
                spec,
                &doc(spec, &row("app.gone")),
                &stmt(spec.calls[0], "app.fresh"),
            );
            assert_eq!(findings.len(), 2, "{findings:?}");
            assert!(findings.iter().all(|f| f.pass == spec.pass));
            let in_source = findings
                .iter()
                .find(|f| f.path == Path::new("crates/x/src/lib.rs"))
                .unwrap();
            assert_eq!(
                in_source.message,
                format!(
                    "{} `app.fresh` is {} here but missing from the {} catalog; \
                     add a row (or `// xtask-allow: {}`)",
                    spec.noun,
                    spec.verb,
                    spec.doc_path,
                    spec.pass.name()
                )
            );
            let in_doc = findings
                .iter()
                .find(|f| f.path == Path::new(spec.doc_path))
                .unwrap();
            assert!(in_doc.message.contains("`app.gone`"), "{in_doc:?}");
            assert_eq!(in_doc.line, 6, "row line within the doc");
        }
    }

    #[test]
    fn test_lines_scratch_names_and_allows_are_skipped() {
        for spec in SPECS {
            let call = spec.calls[0];
            let mut src = format!(
                "// scratch for a bench harness, intentionally uncataloged\n\
                 // xtask-allow: {}\n{}#[cfg(test)]\nmod t {{\n    {}}}\n",
                spec.pass.name(),
                stmt(call, "bench.scratch"),
                stmt(call, "app.only_in_test"),
            );
            if let Some(prefix) = spec.scratch_prefix {
                src.insert_str(0, &stmt(call, &format!("{prefix}scratch")));
            }
            let findings = check_with(spec, &doc(spec, ""), &src);
            assert!(findings.is_empty(), "{}: {findings:?}", spec.noun);
        }
    }

    #[test]
    fn call_text_inside_a_longer_string_literal_is_not_a_name() {
        // e.g. a lint pass matching on `code.contains("failpoint!(")` —
        // the extracted span crosses `)`/spaces and fails the charset.
        for spec in SPECS {
            for call in spec.calls {
                let open = call.trim_end_matches('"');
                let line = format!("let hit = code.contains(\"{open}\") || code.contains(\"x\");");
                let names = names_in(spec, &line);
                assert!(names.is_empty(), "{call}: {names:?}");
            }
        }
    }

    #[test]
    fn a_call_is_not_matched_inside_a_longer_identifier() {
        let names = names_in(
            &METRICS,
            "soi_obs::wall_hist(\"app.latency\").observe_ns(5);",
        );
        assert_eq!(names.len(), 1);
        assert!(names.contains("app.latency"));
        assert!(names_in(&FAILPOINTS, "retrigger(\"app.site\");").is_empty());
    }

    #[test]
    fn missing_markers_flag_the_doc_once() {
        for spec in SPECS {
            let findings = check_with(spec, "# Doc\nno markers here\n", "fn f() {}\n");
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert!(findings[0].message.starts_with(&format!(
                "{} catalog markers missing; wrap the {} in `<!-- {}-catalog:begin -->`",
                spec.noun, spec.table, spec.noun
            )));
            assert_eq!(findings[0].path, PathBuf::from(spec.doc_path));
        }
    }

    #[test]
    fn missing_doc_skips_the_pass() {
        for spec in SPECS {
            let root = std::env::temp_dir().join(format!(
                "xtask-{}-nodoc-{}",
                spec.noun,
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            std::fs::create_dir_all(&root).unwrap();
            let findings = check(spec, &root, &tree(&stmt(spec.calls[0], "app.x")));
            assert!(findings.is_empty(), "{findings:?}");
            std::fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn a_metric_row_needs_an_existing_reader_that_names_it() {
        let spec = &METRICS;
        let src = stmt(spec.calls[0], "app.hits");
        let flagged = |rows: &str, files: &[(&str, &str)]| {
            let findings = check_in(spec, &doc(spec, rows), files, &src);
            assert!(findings.len() <= 1, "{findings:?}");
            findings.first().map(|f| {
                assert_eq!((f.pass, f.line), (spec.pass, 6), "{f:?}");
                f.message.clone()
            })
        };
        let reads = [("reads.md", "assert app.hits > 0")];
        assert_eq!(flagged("| `app.hits` | c | `reads.md` |\n", &reads), None);
        // Listing the catalog itself, or a file naming only a longer
        // metric, is no read.
        let longer = [("reads.md", "app.hits_total and my.app.hits")];
        for (rows, files) in [
            ("| `app.hits` | c | `docs/OBSERVABILITY.md` |\n", &reads[..]),
            ("| `app.hits` | c | `reads.md` |\n", &longer[..]),
            ("| `app.hits` | c | no reader |\n", &reads[..]),
        ] {
            let message = flagged(rows, files).expect(rows);
            assert!(
                message.starts_with("no listed reader names metric `app.hits`"),
                "{message}"
            );
        }
        let message = flagged("| `app.hits` | c | `reads.md`, `gone.rs` |\n", &reads).unwrap();
        assert_eq!(
            message,
            "metric `app.hits` lists reader `gone.rs`, which does not exist"
        );
        // The failpoint catalog has no reader column.
        let fp = check_in(
            &FAILPOINTS,
            &doc(&FAILPOINTS, "| `app.site` | no reader |\n"),
            &[],
            &stmt(FAILPOINTS.calls[0], "app.site"),
        );
        assert!(fp.is_empty(), "{fp:?}");
    }

    #[test]
    fn a_reader_may_name_the_prometheus_form() {
        for (text, read) in [
            ("soi_app_cascade_size_bucket{le=\"+Inf\"} 16", true),
            ("soi_app_cascade_size_count 3", true),
            ("# TYPE soi_app_cascade_size_ns summary", true),
            ("soi_app_cascade_size 3", true),
            ("soi_app_cascade_size_at_enqueue 3", false),
            ("xsoi_app_cascade_size 3", false),
            ("`app.cascade_size`.", true),
            ("app.cascade_sizes", false),
            ("my.app.cascade_size", false),
        ] {
            assert_eq!(mentions(text, "app.cascade_size"), read, "{text}");
        }
    }

    #[test]
    fn catalog_rows_parse_names_from_backtick_spans() {
        assert_eq!(
            table_row_name("| `server.response.write` | before the response write |"),
            Some("server.response.write".to_string())
        );
        assert_eq!(table_row_name("|---|---|"), None);
        assert_eq!(table_row_name("| site | planted in |"), None);
        assert_eq!(table_row_name("plain prose `code`"), None);
        assert_eq!(table_row_name("| `Not A Site` |"), None);
        assert_eq!(
            readers_of("| `a.b` | counter | `x.rs`, `docs/Y.md` |"),
            ["x.rs", "docs/Y.md"]
        );
        assert!(readers_of("| `a.b` | counter | none |").is_empty());
    }
}
