//! Concurrency pass: mechanical checks over the workspace's lock,
//! atomic, and thread usage, so the parallel-scaling refactors promised
//! in ROADMAP.md can proceed without eyeball-only review.
//!
//! Three checks share one source-level model:
//!
//! 1. **Lock order** ([`check_lock_order`], workspace-wide): tracks
//!    `let`-bound `.lock()` guards per file by brace depth and records a
//!    directed edge `outer → inner` whenever a lock is acquired while
//!    another guard is live. Any pair of lock names ever acquired in
//!    *both* orders anywhere in the tree is a deadlock candidate and is
//!    flagged once, naming both sites.
//! 2. **Guard held across a blocking call**: a live `MutexGuard` on a
//!    line that parks the thread — channel `recv`, socket
//!    `accept`/`connect`, buffered `read_line`, `thread::scope`/`join`,
//!    or a failpoint site (failpoints may sleep or yield under
//!    `SOI_SCHEDULE`). `Condvar::wait` is deliberately *not* a blocking
//!    marker: it releases the guard while parked.
//! 3. **Atomic-ordering audit**: every `Ordering::*` literal in library
//!    code must either match a whitelisted idiom (monotonic-counter
//!    read-modify-writes may be `Relaxed`) or carry a `// ordering:`
//!    justification comment — on the same line, or on the comment
//!    line(s) immediately above, like `xtask-allow`. Findings name the
//!    atomic's declaration when it is visible in the same file.
//!
//! Raw `thread::spawn` is clippy's rule, not this pass's: the root
//! `clippy.toml` disallows it, and each site that owns its join carries
//! an `#[expect(clippy::disallowed_methods, reason = "…")]`.
//!
//! **Approximation contract** (same spirit as the determinism pass):
//! the model over-approximates lock identity — a lock is named by the
//! final path segment of the receiver (`self.state.lock()` is `state`),
//! so same-named fields on different types alias — and under-
//! approximates acquisitions hidden behind function calls (a helper
//! that locks internally contributes no edge at its call site) and
//! guards returned from helpers (`let g = lock_helper();` is not
//! tracked). Temporaries (`m.lock().unwrap().push(x)`) die at the end
//! of the statement, so they contribute edges but never a live guard.
//! The runtime schedule-stress harness (`soi_util::schedule`) and the
//! sanitizer CI jobs back these static checks up.

use crate::report::{Finding, Pass};
use crate::source::{ident_match, SourceFile};
use crate::walk::is_library_source;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Atomic read-modify-write methods that make `Relaxed` a whitelisted
/// idiom on the same line: counters whose value is only read for
/// reporting (or after a join) need atomicity, not ordering.
const RELAXED_RMW_OK: &[&str] = &["fetch_add", "fetch_sub", "fetch_max", "fetch_min"];

/// Atomic methods that take an `Ordering` argument; used to locate the
/// receiver so a finding can name the atomic.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Atomic type names recognized in declarations (`name: AtomicU64`).
const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
];

/// The memory-ordering variants audited. Matching `Ordering::<variant>`
/// (not bare variants) keeps `std::cmp::Ordering::{Less, Equal,
/// Greater}` — common in the algorithm crates — out of scope.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// A nested lock acquisition: `inner` was taken while a guard of
/// `outer` was live, at `path:line`.
#[derive(Clone, Debug)]
struct LockEdge {
    outer: String,
    inner: String,
    path: PathBuf,
    line: usize,
}

/// A live `let`-bound guard inside the per-file walk.
#[derive(Clone, Debug)]
struct Guard {
    /// Binding name, so `drop(name)` can kill it.
    var: String,
    /// Lock name: last path segment of the `.lock()` receiver.
    lock: String,
    /// 1-based line where the guard was bound.
    line: usize,
    /// Brace depth the binding lives at; the guard dies when the walk
    /// dips below it.
    depth: i64,
}

/// Per-file checks 2 and 3. Check 1 needs the whole tree; see
/// [`check_lock_order`].
pub fn check_source(path: &Path, file: &SourceFile) -> Vec<Finding> {
    let mut findings = guard_blocking(path, file);
    findings.extend(ordering_audit(path, file));
    findings
}

/// Check 1: flags every pair of locks acquired in both orders anywhere
/// in the workspace (one finding per unordered pair, anchored at the
/// later of the two first-occurrence sites).
pub fn check_lock_order(files: &BTreeMap<PathBuf, SourceFile>) -> Vec<Finding> {
    // First occurrence of each directed edge wins; BTreeMap iteration
    // keeps the scan deterministic.
    let mut edges: BTreeMap<(String, String), (PathBuf, usize)> = BTreeMap::new();
    for (path, file) in files {
        for e in lock_edges(path, file) {
            edges.entry((e.outer, e.inner)).or_insert((e.path, e.line));
        }
    }
    let mut findings = Vec::new();
    for ((a, b), ab_site) in &edges {
        if a >= b {
            continue; // visit each unordered pair once, from (a, b) with a < b
        }
        if let Some(ba_site) = edges.get(&(b.clone(), a.clone())) {
            // Anchor at the later site so the finding points at the
            // acquisition that completed the cycle in a sorted report.
            let (anchor, other) = if ab_site >= ba_site {
                (ab_site, ba_site)
            } else {
                (ba_site, ab_site)
            };
            findings.push(Finding {
                pass: Pass::Concurrency,
                path: anchor.0.clone(),
                line: anchor.1,
                message: format!(
                    "locks `{a}` and `{b}` are acquired in both orders (other order at \
                     {}:{}); nested acquisition must follow one global order",
                    other.0.display(),
                    other.1
                ),
            });
        }
    }
    findings
}

/// Walks one file and returns every nested-acquisition edge.
fn lock_edges(path: &Path, file: &SourceFile) -> Vec<LockEdge> {
    let mut edges = Vec::new();
    walk_guards(file, |event| {
        if let GuardEvent::Acquire {
            live,
            lock,
            line,
            allowed,
            ..
        } = event
        {
            if allowed {
                return;
            }
            for g in live {
                if g.lock != lock {
                    edges.push(LockEdge {
                        outer: g.lock.clone(),
                        inner: lock.to_string(),
                        path: path.to_path_buf(),
                        line,
                    });
                }
            }
        }
    });
    edges
}

/// Check 2: a live guard across a blocking call, in library code.
fn guard_blocking(path: &Path, file: &SourceFile) -> Vec<Finding> {
    if !is_library_source(path) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    walk_guards(file, |event| {
        if let GuardEvent::Line {
            idx,
            live,
            in_test,
            allowed,
        } = event
        {
            if in_test || allowed || live.is_empty() {
                return;
            }
            if let Some(marker) = blocking_marker(&file.lines[idx].code) {
                let g = &live[0];
                findings.push(Finding {
                    pass: Pass::Concurrency,
                    path: path.to_path_buf(),
                    line: idx + 1,
                    message: format!(
                        "a `MutexGuard` of `{}` (held since line {}) is live across \
                         {marker}; drop the guard before blocking",
                        g.lock, g.line
                    ),
                });
            }
        }
    });
    findings
}

/// Check 3: unjustified memory-ordering literals in library code.
fn ordering_audit(path: &Path, file: &SourceFile) -> Vec<Finding> {
    if !is_library_source(path) {
        return Vec::new();
    }
    let decls = atomic_decls(file);
    let mut findings = Vec::new();
    // `// ordering:` on comment-only lines carries forward to the next
    // code line, mirroring `xtask-allow` placement.
    let mut pending_justification = false;
    for (idx, line) in file.lines.iter().enumerate() {
        let has_marker = line.raw.contains("ordering:");
        if line.code.trim().is_empty() {
            if has_marker {
                pending_justification = true;
            }
            continue;
        }
        let justified = has_marker || pending_justification;
        pending_justification = false;
        if line.in_test || line.allows(Pass::Concurrency.name()) || justified {
            continue;
        }
        let offending: Vec<&str> = ORDERINGS
            .iter()
            .filter(|v| line.code.contains(&format!("Ordering::{v}")))
            .filter(|v| {
                !(**v == "Relaxed"
                    && RELAXED_RMW_OK
                        .iter()
                        .any(|m| ident_match(&line.code, m).is_some()))
            })
            .copied()
            .collect();
        let Some(first) = offending.first() else {
            continue;
        };
        let atom = atomic_receiver(&line.code).map(|name| {
            let decl = decls.get(&name).copied();
            (name, decl)
        });
        let target = match &atom {
            Some((name, Some(decl_line))) => {
                format!(" on atomic `{name}` (declared at line {decl_line})")
            }
            Some((name, None)) => format!(" on atomic `{name}`"),
            None => String::new(),
        };
        findings.push(Finding {
            pass: Pass::Concurrency,
            path: path.to_path_buf(),
            line: idx + 1,
            message: format!(
                "`Ordering::{first}`{target} lacks a `// ordering:` justification; \
                 monotonic-counter RMW may be Relaxed, published-then-read data needs \
                 Acquire/Release — annotate the reasoning"
            ),
        });
    }
    findings
}

/// Events emitted by the guard walker, in per-line order: one
/// `Acquire` per `.lock(` occurrence, then one `Line` summarizing the
/// guards live on that line.
enum GuardEvent<'a> {
    Acquire {
        /// Guards live at the moment of acquisition.
        live: &'a [Guard],
        /// Name of the lock being acquired.
        lock: &'a str,
        /// 1-based line of the acquisition.
        line: usize,
        /// The line carries `xtask-allow: concurrency`.
        allowed: bool,
    },
    Line {
        /// 0-based line index.
        idx: usize,
        /// Guards live while this line executes.
        live: &'a [Guard],
        in_test: bool,
        allowed: bool,
    },
}

/// Tracks `let`-bound `.lock()` guards through a file by brace depth
/// and reports acquisitions and per-line liveness to `visit`.
fn walk_guards(file: &SourceFile, mut visit: impl FnMut(GuardEvent<'_>)) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: i64 = 0;
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        let allowed = line.allows(Pass::Concurrency.name());
        let (min_depth, exit_depth) = brace_geometry(code, depth);

        // Acquisitions: every `.lock(` occurrence, in order.
        let mut from = 0;
        while let Some(rel) = code[from..].find(".lock(") {
            let at = from + rel;
            let lock = ident_before(code, at).unwrap_or_else(|| "<expr>".to_string());
            visit(GuardEvent::Acquire {
                live: &guards,
                lock: &lock,
                line: idx + 1,
                allowed,
            });
            if let Some(var) = let_binding(code, at) {
                guards.retain(|g| g.var != var); // rebinding drops the old guard
                                                 // A binding whose enclosing block closes on the same
                                                 // line (`{ let g = m.lock(); }`) is already dead; an
                                                 // open brace after the binding (`if let Ok(g) = .. {`)
                                                 // scopes the guard to that block.
                let (_, depth_at_bind) = brace_geometry(&code[..at], depth);
                if exit_depth >= depth_at_bind {
                    guards.push(Guard {
                        var,
                        lock,
                        line: idx + 1,
                        depth: exit_depth,
                    });
                }
            }
            from = at + 1;
        }

        visit(GuardEvent::Line {
            idx,
            live: &guards,
            in_test: line.in_test,
            allowed,
        });

        // Deaths: explicit `drop(var)`, then scope exit. A guard bound
        // on this very line is exempt from the depth rule — braces
        // *before* its binding (e.g. `if let .. {`) must not kill it.
        guards.retain(|g| !code.contains(&format!("drop({})", g.var)));
        guards.retain(|g| g.line == idx + 1 || min_depth >= g.depth);
        depth = exit_depth;
    }
}

/// `(min depth reached, exit depth)` of a line's code given its entry
/// depth. Comments and string contents are already blanked, so brace
/// counting is safe.
fn brace_geometry(code: &str, entry: i64) -> (i64, i64) {
    let mut d = entry;
    let mut min = entry;
    for c in code.chars() {
        match c {
            '{' => d += 1,
            '}' => {
                d -= 1;
                min = min.min(d);
            }
            _ => {}
        }
    }
    (min, d)
}

/// The identifier immediately before byte `at` (e.g. the receiver
/// segment before `.lock(`).
fn ident_before(code: &str, at: usize) -> Option<String> {
    let head = &code[..at];
    let start = head
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map_or(0, |p| p + c_len(head, p));
    if start >= head.len() {
        return None;
    }
    Some(head[start..].to_string())
}

fn c_len(s: &str, at: usize) -> usize {
    s[at..].chars().next().map_or(1, char::len_utf8)
}

/// If the `.lock(` at `at` sits on the right-hand side of a `let`
/// binding on the same line, returns the bound variable (the last
/// identifier in the pattern, so `let Ok(mut g) = ..` yields `g`).
/// Returns `None` for `_` (immediately dropped) and for temporaries.
fn let_binding(code: &str, at: usize) -> Option<String> {
    let let_pos = ident_match(&code[..at], "let")?;
    let seg = &code[let_pos + 3..at];
    let eq = seg.find('=')?;
    let mut var: Option<&str> = None;
    for tok in seg[..eq].split(|c: char| !(c.is_alphanumeric() || c == '_')) {
        if tok.is_empty() || tok == "mut" || tok == "ref" {
            continue;
        }
        var = Some(tok);
    }
    var.filter(|v| *v != "_").map(str::to_string)
}

/// A call that parks the thread while any held guard stays held.
/// `Condvar::wait` is excluded: it releases the guard while parked.
fn blocking_marker(code: &str) -> Option<&'static str> {
    if code.contains("thread::scope") {
        return Some("`thread::scope` (blocks until every spawned thread joins)");
    }
    if code.contains("TcpStream::connect") {
        return Some("`TcpStream::connect`");
    }
    if code.contains("failpoint!(") || code.contains("failpoint_crash!(") {
        return Some("a failpoint site (may sleep or yield under `SOI_SCHEDULE`)");
    }
    const METHODS: &[(&str, &str, &str)] = &[
        ("recv", "(", "`.recv()`"),
        ("recv_timeout", "(", "`.recv_timeout()`"),
        ("accept", "(", "`.accept()`"),
        ("read_line", "(", "`.read_line()`"),
        ("read_until", "(", "`.read_until()`"),
        ("join", "()", "`.join()`"),
    ];
    for &(name, follow, label) in METHODS {
        if method_call(code, name, follow) {
            return Some(label);
        }
    }
    None
}

/// True when `code` contains `.name` immediately followed by `follow`
/// at an identifier boundary (a method call, not a path or local).
fn method_call(code: &str, name: &str, follow: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = code[from..].find(name) {
        let at = from + rel;
        let before_ok = code[..at].trim_end().ends_with('.');
        let end = at + name.len();
        if before_ok && code[end..].starts_with(follow) {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Declared atomics in a file: `name: AtomicX` (struct fields and
/// statics alike) mapped to the 1-based declaration line.
fn atomic_decls(file: &SourceFile) -> BTreeMap<String, usize> {
    let mut decls = BTreeMap::new();
    for (idx, line) in file.lines.iter().enumerate() {
        for ty in ATOMIC_TYPES {
            let Some(at) = ident_match(&line.code, ty) else {
                continue;
            };
            let head = line.code[..at].trim_end();
            let Some(name_end) = head.strip_suffix(':') else {
                continue;
            };
            if let Some(name) = ident_before(name_end, name_end.len()) {
                decls.entry(name).or_insert(idx + 1);
            }
        }
    }
    decls
}

/// The receiver of the first atomic method call on a line
/// (`self.in_flight.fetch_add(..)` yields `in_flight`).
fn atomic_receiver(code: &str) -> Option<String> {
    for m in ATOMIC_METHODS {
        let mut from = 0;
        while let Some(rel) = code[from..].find(m) {
            let at = from + rel;
            let end = at + m.len();
            let head = code[..at].trim_end();
            if head.ends_with('.') && code[end..].starts_with('(') {
                // Tuple-struct receivers (`self.0.load(..)`) have no
                // usable name; fall back to the generic message.
                return ident_before(head, head.len() - 1)
                    .filter(|name| !name.chars().all(|c| c.is_ascii_digit()));
            }
            from = at + 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan;
    use std::path::PathBuf;

    fn lib(src: &str) -> Vec<Finding> {
        check_source(&PathBuf::from("crates/x/src/lib.rs"), &scan(src))
    }

    fn order(files: &[(&str, &str)]) -> Vec<Finding> {
        let map: BTreeMap<PathBuf, SourceFile> = files
            .iter()
            .map(|(p, s)| (PathBuf::from(p), scan(s)))
            .collect();
        check_lock_order(&map)
    }

    #[test]
    fn both_order_lock_pair_flagged_once_across_files() {
        let f = order(&[
            (
                "crates/a/src/lib.rs",
                "fn f(x: &S) {\n    let a = x.alpha.lock().unwrap();\n    let b = x.beta.lock().unwrap();\n}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "fn g(x: &S) {\n    let b = x.beta.lock().unwrap();\n    let a = x.alpha.lock().unwrap();\n}\n",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`alpha`") && f[0].message.contains("`beta`"));
        assert!(
            f[0].message.contains("crates/a/src/lib.rs:3"),
            "{}",
            f[0].message
        );
        assert_eq!(
            (f[0].path.clone(), f[0].line),
            (PathBuf::from("crates/b/src/lib.rs"), 3)
        );
    }

    #[test]
    fn consistent_nesting_and_disjoint_scopes_pass() {
        let consistent = "fn f(x: &S) {\n    let a = x.alpha.lock().unwrap();\n    let b = x.beta.lock().unwrap();\n}\nfn g(x: &S) {\n    let a = x.alpha.lock().unwrap();\n    let b = x.beta.lock().unwrap();\n}\n";
        assert!(order(&[("crates/a/src/lib.rs", consistent)]).is_empty());
        // Scopes close between acquisitions: no nesting, no edge.
        let disjoint = "fn f(x: &S) {\n    { let a = x.alpha.lock().unwrap(); }\n    { let b = x.beta.lock().unwrap(); }\n}\nfn g(x: &S) {\n    { let b = x.beta.lock().unwrap(); }\n    { let a = x.alpha.lock().unwrap(); }\n}\n";
        assert!(order(&[("crates/a/src/lib.rs", disjoint)]).is_empty());
    }

    #[test]
    fn explicit_drop_ends_the_guard() {
        let src = "fn f(x: &S) {\n    let a = x.alpha.lock().unwrap();\n    drop(a);\n    let b = x.beta.lock().unwrap();\n}\nfn g(x: &S) {\n    let b = x.beta.lock().unwrap();\n    drop(b);\n    let a = x.alpha.lock().unwrap();\n}\n";
        assert!(order(&[("crates/a/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn temporary_lock_contributes_an_edge_but_no_live_guard() {
        // `beta` is locked as a temporary inside `alpha`'s guard (edge),
        // and the reverse order appears via temporaries elsewhere.
        let f = order(&[(
            "crates/a/src/lib.rs",
            "fn f(x: &S) {\n    let a = x.alpha.lock().unwrap();\n    x.beta.lock().unwrap().push(1);\n}\nfn g(x: &S) {\n    let b = x.beta.lock().unwrap();\n    x.alpha.lock().unwrap().push(1);\n}\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        // But a temporary never stays live: no guard across later lines.
        let ok = "fn f(x: &S) {\n    x.alpha.lock().unwrap().push(1);\n    let b = x.beta.lock().unwrap();\n}\nfn g(x: &S) {\n    let b = x.beta.lock().unwrap();\n}\n";
        assert!(order(&[("crates/a/src/lib.rs", ok)]).is_empty());
    }

    #[test]
    fn guard_across_recv_flagged() {
        let f = lib("fn f(x: &S) {\n    let g = x.state.lock().unwrap();\n    let msg = x.rx.recv().unwrap();\n}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("`state`"), "{}", f[0].message);
        assert!(f[0].message.contains("held since line 2"));
    }

    #[test]
    fn condvar_wait_is_not_blocking() {
        let src = "fn f(x: &S) {\n    let mut g = x.state.lock().unwrap();\n    while g.empty() {\n        g = x.cond.wait(g).unwrap();\n    }\n}\n";
        assert!(lib(src).is_empty());
    }

    #[test]
    fn guard_dropped_or_scoped_out_before_blocking_passes() {
        let dropped = "fn f(x: &S) {\n    let g = x.state.lock().unwrap();\n    drop(g);\n    let m = x.rx.recv().unwrap();\n}\n";
        assert!(lib(dropped).is_empty());
        let scoped = "fn f(x: &S) {\n    let batch = {\n        let mut g = x.state.lock().unwrap();\n        g.drain()\n    };\n    for h in batch { h.join().ok(); }\n}\n";
        assert!(lib(scoped).is_empty());
    }

    #[test]
    fn guard_across_scope_join_and_failpoint_flagged() {
        assert_eq!(
            lib("fn f(x: &S) {\n    let g = x.state.lock().unwrap();\n    std::thread::scope(|s| {});\n}\n").len(),
            1
        );
        assert_eq!(
            lib("fn f(x: &S) {\n    let g = x.state.lock().unwrap();\n    failpoint!(\"site\");\n}\n").len(),
            1
        );
        // `h.join()` blocks; `path.join("x")` does not.
        assert_eq!(
            lib("fn f(x: &S) {\n    let g = x.state.lock().unwrap();\n    x.handle.join().ok();\n}\n").len(),
            1
        );
        assert!(lib("fn f(x: &S) {\n    let g = x.state.lock().unwrap();\n    let p = x.dir.join(\"file\");\n}\n").is_empty());
    }

    #[test]
    fn blocking_checks_skip_tests_and_allows() {
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t(x: &S) {\n        let g = x.state.lock().unwrap();\n        let m = x.rx.recv().unwrap();\n    }\n}\n";
        assert!(lib(test_src).is_empty());
        let allowed = "fn f(x: &S) {\n    let g = x.state.lock().unwrap();\n    // shutdown path: single-threaded by then\n    // xtask-allow: concurrency\n    let m = x.rx.recv().unwrap();\n}\n";
        assert!(lib(allowed).is_empty());
    }

    #[test]
    fn unjustified_orderings_flagged_with_declaration() {
        let src = "pub struct S {\n    flag: AtomicBool,\n}\nimpl S {\n    fn f(&self) -> bool {\n        self.flag.load(Ordering::Acquire)\n    }\n}\n";
        let f = lib(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
        assert!(
            f[0].message
                .contains("`Ordering::Acquire` on atomic `flag` (declared at line 2)"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn relaxed_rmw_counter_is_whitelisted_but_relaxed_load_is_not() {
        assert!(lib("fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n").is_empty());
        assert_eq!(
            lib("fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n").len(),
            1
        );
        assert_eq!(
            lib("fn f(c: &AtomicU64) { c.store(1, Ordering::SeqCst); }\n").len(),
            1
        );
    }

    #[test]
    fn ordering_comment_justifies_same_line_and_carried() {
        let same = "fn f(c: &AtomicU64) -> u64 {\n    c.load(Ordering::Relaxed) // ordering: config value, no data published through it\n}\n";
        assert!(lib(same).is_empty());
        let carried = "fn f(c: &AtomicU64) -> u64 {\n    // ordering: stats counter read only for reporting; no\n    // happens-before edge is needed.\n    c.load(Ordering::Relaxed)\n}\n";
        assert!(lib(carried).is_empty());
        // The justification attaches to the next code line only.
        let stale = "fn f(c: &AtomicU64) -> u64 {\n    // ordering: covers only the line below\n    let x = 1;\n    c.load(Ordering::Relaxed)\n}\n";
        assert_eq!(lib(stale).len(), 1);
    }

    #[test]
    fn cmp_ordering_is_out_of_scope() {
        let src = "fn f(a: u32, b: u32) -> std::cmp::Ordering {\n    match a.cmp(&b) {\n        Ordering::Less => Ordering::Less,\n        o => o,\n    }\n}\n";
        assert!(lib(src).is_empty());
    }

    #[test]
    fn mentions_in_comments_and_strings_pass() {
        let src = "//! Discusses .lock() and Ordering::SeqCst in docs.\nfn f() -> &'static str {\n    \"Ordering::Relaxed .lock() .recv()\"\n}\n";
        assert!(lib(src).is_empty());
    }
}
