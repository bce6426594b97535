//! Hermeticity pass, source half: the workspace computes with zero
//! network access.
//!
//! Flags `std::net` (and the socket types it exports) in every Rust file
//! outside `crates/server/` — the serving daemon is the single sanctioned
//! network boundary, so algorithms, pipelines, and their tests stay
//! runnable in a fully sandboxed environment. Applies to test code too:
//! integration tests elsewhere must drive the daemon through the `soi`
//! binary, not open sockets of their own. Inside `crates/server/src/`,
//! `TcpStream::connect` is allowed in `wire.rs` only: `Conn::connect`
//! there configures the socket (`TCP_NODELAY`), so a connection opened
//! anywhere else is an unconfigured one.
//!
//! The manifest half (no registry dependencies) is cargo's: CI runs
//! `cargo metadata --offline` under an empty `CARGO_HOME`, which fails
//! on any registry or `git` dependency a package uses.

use crate::report::{Finding, Pass};
use crate::source::{ident_match, SourceFile};
use std::path::Path;

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

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
