//! The workspace error type.
//!
//! [`SoiError`] replaces ad-hoc `Result<_, String>` plumbing across the
//! CLI and the persistence/runtime layers. Variants are deliberately
//! flat and specific — checkpoint corruption modes each get their own
//! variant so tests (and operators) can tell a truncated file from a
//! bit flip from a checkpoint taken on a different graph.
//!
//! Library crates that own a richer domain error (`soi_graph::GraphError`,
//! `soi_index::io::LoadError`) keep it and provide `From` conversions
//! into `SoiError` at their boundary.

use crate::failpoint::Fault;

/// Classifies a serving-protocol violation. Each kind has a stable
/// kebab-case wire code ([`ProtoErrorKind::code`]) that `soi serve`
/// embeds in error responses, so clients and tests can distinguish a
/// malformed request from an overloaded server without string-matching
/// free-form messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoErrorKind {
    /// The request line is not a well-formed JSON object.
    MalformedJson,
    /// The `type` field names no known request type.
    UnknownType,
    /// The request line exceeds the server's line-length cap.
    OversizedLine,
    /// The `v` field does not match the server's protocol version.
    VersionMismatch,
    /// The bounded request queue is full (admission control rejected
    /// the request rather than letting it wait unboundedly).
    QueueFull,
    /// The request names a graph the server has not loaded.
    UnknownGraph,
    /// A request field is missing, has the wrong type, or holds an
    /// out-of-range value.
    BadField,
    /// The server failed internally while executing the request (e.g. a
    /// worker panicked); the request may be retried.
    Internal,
    /// The server connection was lost with the request still
    /// outstanding (client-side synthesized error).
    ConnectionLost,
    /// The request exceeded the client-side per-request timeout.
    Timeout,
    /// Every replica of the shard owning the requested graph is down
    /// (router-side answer: the request reached no compute daemon).
    ShardUnavailable,
    /// The peer speaks a different protocol version (detected on the
    /// response `v` field, or relayed by the router when a shard skews).
    ProtocolMismatch,
}

impl ProtoErrorKind {
    /// The stable kebab-case wire code for this kind.
    pub fn code(self) -> &'static str {
        match self {
            ProtoErrorKind::MalformedJson => "malformed-json",
            ProtoErrorKind::UnknownType => "unknown-type",
            ProtoErrorKind::OversizedLine => "oversized-line",
            ProtoErrorKind::VersionMismatch => "version-mismatch",
            ProtoErrorKind::QueueFull => "queue-full",
            ProtoErrorKind::UnknownGraph => "unknown-graph",
            ProtoErrorKind::BadField => "bad-field",
            ProtoErrorKind::Internal => "internal-error",
            ProtoErrorKind::ConnectionLost => "connection-lost",
            ProtoErrorKind::Timeout => "timeout",
            ProtoErrorKind::ShardUnavailable => "shard-unavailable",
            ProtoErrorKind::ProtocolMismatch => "protocol-mismatch",
        }
    }
}

/// Unified error for CLI plumbing, checkpoints, and runtime persistence.
#[derive(Debug)]
pub enum SoiError {
    /// Bad command-line usage (unknown flag, missing argument, bad
    /// value). The CLI maps this to exit code 2 plus the usage text.
    Usage(String),
    /// An underlying I/O failure, with what was being touched.
    Io {
        /// What was being read/written (usually a path).
        context: String,
        /// The OS-level error.
        source: std::io::Error,
    },
    /// A parse failure in a text input, with its location.
    Parse {
        /// The file (or stream description) being parsed.
        context: String,
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A semantically invalid input or state (validation failures that
    /// are not parse or I/O errors).
    Invalid(String),
    /// Checkpoint file ends before the declared structure does.
    CkptTruncated {
        /// Which read hit the end.
        context: String,
    },
    /// Checkpoint stream does not start with the checkpoint magic.
    CkptBadMagic,
    /// Checkpoint format version is not supported.
    CkptBadVersion {
        /// Version byte found in the file.
        found: u8,
        /// Version this build writes and reads.
        expected: u8,
    },
    /// Checkpoint is of a different kind (e.g. a greedy checkpoint fed
    /// to the typical-cascade pipeline).
    CkptBadKind {
        /// Kind byte found in the file.
        found: u8,
        /// Kind the caller required.
        expected: u8,
    },
    /// Checkpoint checksum mismatch: the payload was altered (bit flip,
    /// partial overwrite) after it was written.
    CkptChecksum {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the file contents.
        computed: u64,
    },
    /// Checkpoint header field does not match the resuming run (wrong
    /// graph, different seed/config).
    CkptMismatch {
        /// Which header field disagreed.
        field: &'static str,
        /// Value stored in the checkpoint.
        stored: u64,
        /// Value the resuming run expects.
        expected: u64,
    },
    /// A deterministic fault injected through a failpoint site.
    Fault {
        /// The failpoint site that fired.
        site: String,
    },
    /// A serving-protocol violation (`soi serve` / `soi query`).
    Protocol {
        /// What class of violation this is.
        kind: ProtoErrorKind,
        /// Human-readable detail (offending field, limit value, …).
        message: String,
    },
}

impl SoiError {
    /// Wraps an I/O error with context (usually the path involved).
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        SoiError::Io {
            context: context.into(),
            source,
        }
    }

    /// Builds a usage error (CLI exit code 2).
    pub fn usage(message: impl Into<String>) -> Self {
        SoiError::Usage(message.into())
    }

    /// Builds a semantic-validation error.
    pub fn invalid(message: impl Into<String>) -> Self {
        SoiError::Invalid(message.into())
    }

    /// Builds a serving-protocol error of the given kind.
    pub fn protocol(kind: ProtoErrorKind, message: impl Into<String>) -> Self {
        SoiError::Protocol {
            kind,
            message: message.into(),
        }
    }

    /// `true` for errors the CLI should report as bad usage (exit 2 with
    /// the usage text) rather than as a runtime failure (exit 1).
    pub fn is_usage(&self) -> bool {
        matches!(self, SoiError::Usage(_))
    }

    /// Fills an empty `context` field (on [`SoiError::Io`] /
    /// [`SoiError::Parse`]) with `context` — typically the path of the
    /// file whose processing produced the error. An already-set context
    /// is preserved.
    pub fn with_context(self, context: &str) -> Self {
        match self {
            SoiError::Io { context: c, source } if c.is_empty() => SoiError::io(context, source),
            SoiError::Parse {
                context: c,
                line,
                message,
            } if c.is_empty() => SoiError::Parse {
                context: context.to_string(),
                line,
                message,
            },
            other => other,
        }
    }
}

impl std::fmt::Display for SoiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SoiError::Usage(m) => write!(f, "{m}"),
            SoiError::Io { context, source } if context.is_empty() => write!(f, "{source}"),
            SoiError::Io { context, source } => write!(f, "{context}: {source}"),
            SoiError::Parse {
                context,
                line,
                message,
            } => write!(f, "{context}:{line}: {message}"),
            SoiError::Invalid(m) => write!(f, "{m}"),
            SoiError::CkptTruncated { context } => {
                write!(f, "checkpoint truncated ({context})")
            }
            SoiError::CkptBadMagic => write!(f, "not a checkpoint file (bad magic)"),
            SoiError::CkptBadVersion { found, expected } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads {expected})"
            ),
            SoiError::CkptBadKind { found, expected } => write!(
                f,
                "checkpoint kind {found} does not match pipeline kind {expected}"
            ),
            SoiError::CkptChecksum { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            SoiError::CkptMismatch {
                field,
                stored,
                expected,
            } => write!(
                f,
                "checkpoint {field} mismatch (stored {stored:#018x}, this run {expected:#018x})"
            ),
            SoiError::Fault { site } => write!(f, "injected fault at {site}"),
            SoiError::Protocol { kind, message } => {
                write!(f, "protocol error [{}]: {message}", kind.code())
            }
        }
    }
}

impl std::error::Error for SoiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SoiError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SoiError {
    fn from(e: std::io::Error) -> Self {
        SoiError::Io {
            context: String::new(),
            source: e,
        }
    }
}

impl From<Fault> for SoiError {
    fn from(fault: Fault) -> Self {
        SoiError::Fault { site: fault.site }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms_are_informative() {
        let e = SoiError::io("net.tsv", std::io::Error::other("boom"));
        assert_eq!(e.to_string(), "net.tsv: boom");
        let e = SoiError::Parse {
            context: "net.tsv".into(),
            line: 7,
            message: "bad probability".into(),
        };
        assert_eq!(e.to_string(), "net.tsv:7: bad probability");
        let e = SoiError::CkptBadVersion {
            found: 9,
            expected: 1,
        };
        assert!(e.to_string().contains("version 9"));
        let e = SoiError::CkptMismatch {
            field: "graph_fingerprint",
            stored: 1,
            expected: 2,
        };
        assert!(e.to_string().contains("graph_fingerprint"));
    }

    #[test]
    fn usage_classification() {
        assert!(SoiError::usage("--k is required").is_usage());
        assert!(!SoiError::invalid("source out of range").is_usage());
    }

    #[test]
    fn fault_converts() {
        let e: SoiError = Fault { site: "s".into() }.into();
        assert!(matches!(e, SoiError::Fault { ref site } if site == "s"));
    }

    #[test]
    fn protocol_kinds_have_distinct_codes() {
        let kinds = [
            ProtoErrorKind::MalformedJson,
            ProtoErrorKind::UnknownType,
            ProtoErrorKind::OversizedLine,
            ProtoErrorKind::VersionMismatch,
            ProtoErrorKind::QueueFull,
            ProtoErrorKind::UnknownGraph,
            ProtoErrorKind::BadField,
            ProtoErrorKind::Internal,
            ProtoErrorKind::ConnectionLost,
            ProtoErrorKind::Timeout,
            ProtoErrorKind::ShardUnavailable,
            ProtoErrorKind::ProtocolMismatch,
        ];
        let codes: std::collections::BTreeSet<&str> = kinds.iter().map(|k| k.code()).collect();
        assert_eq!(codes.len(), kinds.len(), "wire codes must be distinct");
        for code in codes {
            assert!(
                code.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "non-kebab code {code}"
            );
        }
        let e = SoiError::protocol(ProtoErrorKind::QueueFull, "cap 8 reached");
        assert_eq!(e.to_string(), "protocol error [queue-full]: cap 8 reached");
        assert!(!e.is_usage());
    }

    #[test]
    fn io_source_is_chained() {
        use std::error::Error;
        let e = SoiError::io("f", std::io::Error::other("inner"));
        assert!(e.source().is_some());
    }
}
