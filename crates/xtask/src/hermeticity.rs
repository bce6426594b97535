//! Hermeticity pass: the workspace builds with zero registry access and
//! computes with zero network access.
//!
//! **Manifests.** Parses every `Cargo.toml` and rejects dependency
//! entries that would be fetched from an external registry — anything
//! that is neither a `path` dependency nor `workspace = true`
//! inheritance. The allowlist of permitted external crates is empty by
//! default: the build is fully vendored-free and offline. A manifest
//! line may also be acknowledged explicitly with
//! `# xtask-allow: hermeticity`.
//!
//! **Sources.** Flags `std::net` (and the socket types it exports) in
//! every Rust file outside `crates/server/` — the serving daemon is the
//! single sanctioned network boundary, so algorithms, pipelines, and
//! their tests stay runnable in a fully sandboxed environment. Applies
//! to test code too: integration tests elsewhere must drive the daemon
//! through the `soi` binary, not open sockets of their own. Inside
//! `crates/server/src/`, `TcpStream::connect` is allowed in `wire.rs`
//! only: `Conn::connect` there configures the socket (`TCP_NODELAY`), so
//! a connection opened anywhere else is an unconfigured one.
//!
//! The manifest parser is a minimal line-oriented TOML reader covering
//! the shapes used here: `[.*dependencies]` sections with inline
//! entries (`name = "1.0"`, `name = { .. }`, `name.workspace = true`)
//! and expanded `[dependencies.name]` tables.

use crate::report::{Finding, Pass};
use crate::source::{ident_match, SourceFile};
use std::path::Path;

/// External crates permitted from a registry. Empty: the build is
/// hermetic. Add names here (with a comment why) to open the gate.
const ALLOWED_EXTERNAL: &[&str] = &[];

/// The one path prefix where `std::net` is sanctioned: the query-serving
/// daemon (`soi-server`) and its tests.
const NET_ALLOWED_PREFIX: &str = "crates/server";

/// Where the serving crate's product sources live, and the one file in
/// there that may open a client socket.
const SERVER_SRC_PREFIX: &str = "crates/server/src";
const CONNECT_ALLOWED_FILE: &str = "crates/server/src/wire.rs";

/// Socket-type identifiers flagged even when imported without a
/// `std::net` path in sight (`use std::net::*` or re-exports).
const NET_IDENTS: &[&str] = &["TcpListener", "TcpStream", "UdpSocket", "SocketAddr"];

/// Runs the source half of the hermeticity pass over one Rust file:
/// no network primitives outside the serving crate, and inside it no
/// client socket opened by hand.
pub fn check_source(path: &Path, file: &SourceFile) -> Vec<Finding> {
    if path.starts_with(NET_ALLOWED_PREFIX) {
        return check_connect(path, file);
    }
    let mut findings = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.allows(Pass::Hermeticity.name()) {
            continue;
        }
        let hit = if line.code.contains("std::net") {
            Some("std::net")
        } else {
            NET_IDENTS
                .iter()
                .find(|ident| ident_match(&line.code, ident).is_some())
                .copied()
        };
        if let Some(what) = hit {
            findings.push(Finding {
                pass: Pass::Hermeticity,
                path: path.to_path_buf(),
                line: idx + 1,
                message: format!(
                    "`{what}` outside `{NET_ALLOWED_PREFIX}/`; networking is confined to \
                     the soi-server crate — talk to the daemon through the `soi` binary \
                     instead, or justify with `xtask-allow: hermeticity`"
                ),
            });
        }
    }
    findings
}

/// Inside the serving crate's sources, `TcpStream::connect` belongs to
/// [`CONNECT_ALLOWED_FILE`] alone.
fn check_connect(path: &Path, file: &SourceFile) -> Vec<Finding> {
    if !path.starts_with(SERVER_SRC_PREFIX) || path == Path::new(CONNECT_ALLOWED_FILE) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.code.contains("TcpStream::connect") && !line.allows(Pass::Hermeticity.name()) {
            findings.push(Finding {
                pass: Pass::Hermeticity,
                path: path.to_path_buf(),
                line: idx + 1,
                message: format!(
                    "`TcpStream::connect` outside `{CONNECT_ALLOWED_FILE}`; open client \
                     sockets through `wire::Conn::connect`, which sets `TCP_NODELAY`"
                ),
            });
        }
    }
    findings
}

/// Runs the hermeticity pass over one manifest's text.
pub fn check(path: &Path, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut in_dep_section = false;
    // An expanded `[dependencies.<name>]` table: (name, header line,
    // saw path/workspace key).
    let mut dep_table: Option<(String, usize, bool)> = None;

    let flush_table = |table: &mut Option<(String, usize, bool)>, out: &mut Vec<Finding>| {
        if let Some((name, header, hermetic)) = table.take() {
            if !hermetic && !ALLOWED_EXTERNAL.contains(&name.as_str()) {
                out.push(external_finding(path, header, &name));
            }
        }
    };

    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            flush_table(&mut dep_table, &mut findings);
            let section = line.trim_matches(['[', ']']);
            if let Some((kind, name)) = section.split_once('.') {
                // `[dependencies.foo]` or `[workspace.dependencies]` or
                // `[target.'cfg(..)'.dependencies]`.
                if kind.ends_with("dependencies") && !raw.contains("xtask-allow: hermeticity") {
                    dep_table = Some((name.to_string(), idx + 1, false));
                    in_dep_section = false;
                    continue;
                }
                in_dep_section = section.ends_with("dependencies");
            } else {
                in_dep_section = section.ends_with("dependencies");
            }
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((_, _, hermetic)) = dep_table.as_mut() {
            if let Some((key, _)) = line.split_once('=') {
                let key = key.trim();
                if key == "path" || key == "workspace" {
                    *hermetic = true;
                }
            }
            continue;
        }
        if !in_dep_section {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        if raw.contains("xtask-allow: hermeticity") {
            continue;
        }
        let key = key.trim().trim_matches('"');
        // `name.workspace = true` inherits from the workspace table.
        let name = key.split('.').next().unwrap_or(key).to_string();
        if key.ends_with(".workspace") {
            continue;
        }
        let value = value.trim();
        if value.contains("path") && value.contains('=') && value_has_key(value, "path") {
            continue;
        }
        if value_has_key(value, "workspace") {
            continue;
        }
        if ALLOWED_EXTERNAL.contains(&name.as_str()) {
            continue;
        }
        findings.push(external_finding(path, idx + 1, &name));
    }
    flush_table(&mut dep_table, &mut findings);
    findings
}

fn external_finding(path: &Path, line: usize, name: &str) -> Finding {
    Finding {
        pass: Pass::Hermeticity,
        path: path.to_path_buf(),
        line,
        message: format!(
            "dependency `{name}` resolves from an external registry; use a `path` \
             dependency, inherit via `workspace = true`, or add it to the xtask \
             allowlist with a justification"
        ),
    }
}

/// Whether an inline table value contains `key =` as a real key.
fn value_has_key(value: &str, key: &str) -> bool {
    value
        .trim_matches(['{', '}'])
        .split(',')
        .any(|part| part.split_once('=').is_some_and(|(k, _)| k.trim() == key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(text: &str) -> Vec<Finding> {
        check(&PathBuf::from("Cargo.toml"), text)
    }

    #[test]
    fn registry_dep_flagged_with_line() {
        let text = "[package]\nname = \"x\"\n\n[dependencies]\nrand = \"0.10\"\n";
        let f = run(text);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 5);
        assert!(f[0].message.contains("rand"));
    }

    #[test]
    fn path_and_workspace_deps_pass() {
        let text = "[dependencies]\n\
                    soi-util = { path = \"../util\" }\n\
                    soi-graph.workspace = true\n\
                    soi-core = { workspace = true }\n";
        assert!(run(text).is_empty());
    }

    #[test]
    fn workspace_dependencies_table_checked() {
        let text = "[workspace.dependencies]\n\
                    soi-util = { path = \"crates/util\" }\n\
                    criterion = \"0.8\"\n";
        let f = run(text);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("criterion"));
    }

    #[test]
    fn dev_and_build_deps_checked() {
        let text = "[dev-dependencies]\nproptest = \"1\"\n\n[build-dependencies]\ncc = \"1\"\n";
        assert_eq!(run(text).len(), 2);
    }

    #[test]
    fn expanded_dep_table_checked() {
        let bad = "[dependencies.serde]\nversion = \"1\"\nfeatures = [\"derive\"]\n";
        let f = run(bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
        let good = "[dependencies.soi-util]\npath = \"../util\"\n";
        assert!(run(good).is_empty());
    }

    #[test]
    fn allow_comment_suppresses() {
        let text = "[dependencies]\nlibm = \"0.2\" # xtask-allow: hermeticity\n";
        assert!(run(text).is_empty());
    }

    #[test]
    fn non_dependency_sections_ignored() {
        let text = "[package]\nversion = \"0.1.0\"\n[features]\ndefault = []\n";
        assert!(run(text).is_empty());
    }

    fn run_src(path: &str, src: &str) -> Vec<Finding> {
        check_source(&PathBuf::from(path), &crate::source::scan(src))
    }

    #[test]
    fn net_use_flagged_outside_server() {
        let src = "//! Doc.\nuse std::net::TcpListener;\nfn f() {}\n";
        let f = run_src("crates/graph/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("std::net"), "{}", f[0].message);
    }

    #[test]
    fn socket_idents_flagged_without_a_path() {
        let src = "fn f(l: TcpStream) {}\n";
        let f = run_src("crates/cli/tests/e2e.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("TcpStream"));
    }

    #[test]
    fn server_crate_is_exempt() {
        let src = "use std::net::{TcpListener, TcpStream};\n";
        assert!(run_src("crates/server/src/daemon.rs", src).is_empty());
        assert!(run_src("crates/server/tests/robustness.rs", src).is_empty());
    }

    #[test]
    fn server_sources_connect_through_wire_only() {
        let src = "fn f() { let _ = std::net::TcpStream::connect(\"127.0.0.1:1\"); }\n";
        let f = run_src("crates/server/src/client.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("Conn::connect"), "{}", f[0].message);
        assert_eq!(run_src("crates/server/src/router/mod.rs", src).len(), 1);
        assert!(run_src("crates/server/src/wire.rs", src).is_empty());
        // Scripted peers in the crate's integration tests dial directly.
        assert!(run_src("crates/server/tests/front_end_parity.rs", src).is_empty());
    }

    #[test]
    fn net_in_comments_strings_and_allows_passes() {
        let src = "//! Talks about std::net in docs only.\n\
                   // a TcpListener comment\n\
                   fn f() -> &'static str { \"std::net\" }\n\
                   use std::net::UdpSocket; // xtask-allow: hermeticity — justified\n";
        assert!(run_src("crates/graph/src/lib.rs", src).is_empty());
    }

    #[test]
    fn net_applies_to_test_code_too() {
        let src = "//! Doc.\n#[cfg(test)]\nmod tests {\n    use std::net::TcpStream;\n}\n";
        assert_eq!(run_src("crates/core/src/lib.rs", src).len(), 1);
    }
}
