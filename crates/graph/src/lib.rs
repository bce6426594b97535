//! # soi-graph
//!
//! Graph substrate for the *Spheres of Influence* workspace:
//!
//! * [`DiGraph`] — compressed-sparse-row directed graphs with `u32` node ids,
//!   built via [`GraphBuilder`];
//! * [`ProbGraph`] — the paper's probabilistic graph `G = (V, E, p)` with an
//!   independent existence probability per arc (§2.1), including the
//!   *weighted cascade*, *fixed* and *trivalency* assignment models (§6.2);
//! * [`scc`] — iterative Tarjan strongly-connected components and the
//!   condensation DAG (§4); the cascade index keeps each world as a
//!   live-arc mask and runs Tarjan only to find a world's hub SCC;
//! * [`transitive`] — topological order and transitive reduction of DAGs
//!   (Aho–Garey–Ullman), which the index's `mean_dag_edges` diagnostic
//!   applies to each world's condensation;
//! * [`reach`] — reachability with reusable scratch space (cascades in a
//!   possible world are exactly reachability sets, §2.2);
//! * [`gen`] — synthetic graph generators standing in for the paper's
//!   benchmark networks;
//! * [`io`] — plain-text edge-list serialization.

pub mod builder;
pub mod csr;
pub mod gen;
pub mod io;
pub mod pagerank;
pub mod prob;
pub mod reach;
pub mod scc;
pub mod stats;
pub mod transitive;

pub use builder::GraphBuilder;
pub use csr::DiGraph;
pub use prob::ProbGraph;
pub use reach::Reachability;
pub use scc::{Condensation, SccResult};

/// Node identifier. Graphs in this workspace are bounded to `u32::MAX`
/// nodes, which halves index memory versus `usize` on 64-bit targets.
pub type NodeId = u32;

/// Errors produced by graph construction and I/O.
#[derive(Debug, PartialEq)]
pub enum GraphError {
    /// An edge endpoint is `>= num_nodes`.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// The graph's node count.
        num_nodes: usize,
    },
    /// More arcs than a graph's `u32` CSR offsets can index
    /// ([`csr::MAX_ARCS`]).
    TooManyArcs {
        /// The arc count asked for.
        arcs: usize,
    },
    /// An edge probability is outside `(0, 1]` or not finite.
    InvalidProbability {
        /// Edge position in input order.
        edge_index: usize,
        /// The offending value.
        value: f64,
    },
    /// The probability vector length differs from the edge count.
    ProbabilityArityMismatch {
        /// Number of edges in the graph.
        edges: usize,
        /// Number of probabilities supplied.
        probs: usize,
    },
    /// A parse error in edge-list input.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An underlying I/O failure (message form; `std::io::Error` is not
    /// `PartialEq`).
    Io(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node {node} out of range for graph with {num_nodes} nodes"
                )
            }
            GraphError::TooManyArcs { arcs } => {
                write!(f, "{arcs} arcs exceed the limit of {}", csr::MAX_ARCS)
            }
            GraphError::InvalidProbability { edge_index, value } => {
                write!(f, "edge #{edge_index}: probability {value} not in (0, 1]")
            }
            GraphError::ProbabilityArityMismatch { edges, probs } => {
                write!(f, "{edges} edges but {probs} probabilities")
            }
            GraphError::Parse { line, message } => write!(f, "line {line}: {message}"),
            GraphError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

impl From<soi_util::failpoint::Fault> for GraphError {
    fn from(fault: soi_util::failpoint::Fault) -> Self {
        GraphError::Io(fault.to_string())
    }
}

impl From<GraphError> for soi_util::SoiError {
    fn from(e: GraphError) -> Self {
        match e {
            GraphError::Parse { line, message } => soi_util::SoiError::Parse {
                context: String::new(),
                line,
                message,
            },
            GraphError::Io(m) => soi_util::SoiError::Io {
                context: String::new(),
                source: std::io::Error::other(m),
            },
            other => soi_util::SoiError::Invalid(other.to_string()),
        }
    }
}
