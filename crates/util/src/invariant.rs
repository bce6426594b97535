//! Runtime invariant checkers for the workspace's core data structures.
//!
//! The static side of the determinism contract is enforced by
//! `cargo xtask lint`; this module is the *runtime* counterpart: cheap,
//! `debug_assertions`-gated structural checks wired into the hot
//! constructors (`soi-graph` CSR builders, `soi-sampling` world
//! generation). Release builds compile the `debug_*` wrappers to no-ops,
//! so production throughput is unaffected, while every debug/test run
//! revalidates the invariants end-to-end.
//!
//! Each checker also exists as a pure `check_*` function returning
//! `Result<(), InvariantViolation>` so tests (and tools) can assert both
//! acceptance and rejection in any build profile.

/// A structural invariant violation, with enough context to locate it.
#[derive(Clone, Debug, PartialEq)]
pub enum InvariantViolation {
    /// CSR `offsets` is empty, does not start at 0, does not end at
    /// `targets.len()`, or decreases somewhere.
    BadOffsets {
        /// Explanation of the specific offset defect.
        detail: String,
    },
    /// A per-node adjacency slice is not sorted ascending.
    UnsortedAdjacency {
        /// The node whose out-list is unsorted.
        node: usize,
    },
    /// An adjacency target is `>= num_nodes`.
    TargetOutOfBounds {
        /// The node whose out-list holds the bad target.
        node: usize,
        /// The out-of-bounds target id.
        target: u32,
        /// Number of nodes in the graph.
        num_nodes: usize,
    },
    /// An edge probability lies outside `[0, 1]` (or is NaN).
    ProbabilityOutOfRange {
        /// Index into the probability array.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A supposed DAG (e.g. a condensation) contains a cycle.
    CycleDetected {
        /// A node on the detected cycle.
        node: usize,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::BadOffsets { detail } => write!(f, "bad CSR offsets: {detail}"),
            InvariantViolation::UnsortedAdjacency { node } => {
                write!(f, "adjacency of node {node} is not sorted")
            }
            InvariantViolation::TargetOutOfBounds {
                node,
                target,
                num_nodes,
            } => write!(
                f,
                "node {node} has target {target} out of bounds (num_nodes = {num_nodes})"
            ),
            InvariantViolation::ProbabilityOutOfRange { index, value } => {
                write!(f, "edge probability [{index}] = {value} outside [0, 1]")
            }
            InvariantViolation::CycleDetected { node } => {
                write!(f, "graph is not a DAG: node {node} lies on a cycle")
            }
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Checks CSR well-formedness: `offsets` non-empty, starting at 0,
/// ending at `targets.len()`, monotone non-decreasing; every per-node
/// target slice sorted ascending with ids `< offsets.len() - 1`.
pub fn check_csr(offsets: &[u32], targets: &[u32]) -> Result<(), InvariantViolation> {
    if offsets.is_empty() {
        return Err(InvariantViolation::BadOffsets {
            detail: "offsets array is empty".into(),
        });
    }
    if offsets[0] != 0 {
        return Err(InvariantViolation::BadOffsets {
            detail: format!("offsets[0] = {}, expected 0", offsets[0]),
        });
    }
    let last = offsets[offsets.len() - 1];
    if last as usize != targets.len() {
        return Err(InvariantViolation::BadOffsets {
            detail: format!(
                "offsets ends at {last}, expected targets.len() = {}",
                targets.len()
            ),
        });
    }
    if let Some(pos) = offsets.windows(2).position(|w| w[0] > w[1]) {
        return Err(InvariantViolation::BadOffsets {
            detail: format!(
                "offsets decreases at {pos}: {} > {}",
                offsets[pos],
                offsets[pos + 1]
            ),
        });
    }
    let n = offsets.len() - 1;
    for v in 0..n {
        let slice = &targets[offsets[v] as usize..offsets[v + 1] as usize];
        if slice.windows(2).any(|w| w[0] > w[1]) {
            return Err(InvariantViolation::UnsortedAdjacency { node: v });
        }
        if let Some(&bad) = slice.iter().find(|&&t| t as usize >= n) {
            return Err(InvariantViolation::TargetOutOfBounds {
                node: v,
                target: bad,
                num_nodes: n,
            });
        }
    }
    Ok(())
}

/// Checks that every probability is finite and within `[0, 1]`.
pub fn check_probabilities(probs: &[f64]) -> Result<(), InvariantViolation> {
    for (index, &value) in probs.iter().enumerate() {
        if !(0.0..=1.0).contains(&value) {
            return Err(InvariantViolation::ProbabilityOutOfRange { index, value });
        }
    }
    Ok(())
}

/// Checks that a CSR graph is acyclic (Kahn's algorithm). Used on
/// condensation DAGs, where a cycle means SCC contraction went wrong.
pub fn check_acyclic(offsets: &[u32], targets: &[u32]) -> Result<(), InvariantViolation> {
    check_csr(offsets, targets)?;
    let n = offsets.len() - 1;
    let mut in_deg = vec![0usize; n];
    for &t in targets {
        in_deg[t as usize] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&v| in_deg[v] == 0).collect();
    let mut seen = 0usize;
    while let Some(v) = queue.pop() {
        seen += 1;
        for &t in &targets[offsets[v] as usize..offsets[v + 1] as usize] {
            in_deg[t as usize] -= 1;
            if in_deg[t as usize] == 0 {
                queue.push(t as usize);
            }
        }
    }
    if seen != n {
        // Any node with residual in-degree lies on (or downstream of) a
        // cycle; report the smallest for determinism.
        let node = (0..n).find(|&v| in_deg[v] > 0).unwrap_or(0);
        return Err(InvariantViolation::CycleDetected { node });
    }
    Ok(())
}

/// Debug-build CSR validation; compiles to nothing in release builds.
#[inline]
pub fn debug_check_csr(offsets: &[u32], targets: &[u32]) {
    #[cfg(debug_assertions)]
    {
        if let Err(e) = check_csr(offsets, targets) {
            unreachable_violation(&e);
        }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (offsets, targets);
    }
}

/// Debug-build probability validation; no-op in release builds.
#[inline]
pub fn debug_check_probabilities(probs: &[f64]) {
    #[cfg(debug_assertions)]
    {
        if let Err(e) = check_probabilities(probs) {
            unreachable_violation(&e);
        }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = probs;
    }
}

/// Debug-build acyclicity validation; no-op in release builds.
#[inline]
pub fn debug_check_acyclic(offsets: &[u32], targets: &[u32]) {
    #[cfg(debug_assertions)]
    {
        if let Err(e) = check_acyclic(offsets, targets) {
            unreachable_violation(&e);
        }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (offsets, targets);
    }
}

/// Aborts on a violated internal invariant (debug builds only). A
/// violation here is always a bug in the constructor that called the
/// checker, never a data error, so failing loudly is correct.
#[cfg(debug_assertions)]
#[cold]
#[expect(
    clippy::panic,
    reason = "debug-only guard; a structural invariant violation is an internal bug, not a recoverable error"
)]
fn unreachable_violation(e: &InvariantViolation) -> ! {
    panic!("internal invariant violated: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_csr_accepted() {
        // Diamond: 0 -> {1, 2}, 1 -> {3}, 2 -> {3}.
        let offsets = [0u32, 2, 3, 4, 4];
        let targets = [1u32, 2, 3, 3];
        assert_eq!(check_csr(&offsets, &targets), Ok(()));
        debug_check_csr(&offsets, &targets);
        // Empty graph.
        assert_eq!(check_csr(&[0], &[]), Ok(()));
    }

    #[test]
    fn unsorted_adjacency_rejected() {
        let offsets = [0u32, 2, 2];
        let targets = [1u32, 0]; // node 0's list [1, 0] not sorted
        assert_eq!(
            check_csr(&offsets, &targets),
            Err(InvariantViolation::UnsortedAdjacency { node: 0 })
        );
    }

    #[test]
    fn out_of_bounds_target_rejected() {
        let offsets = [0u32, 1, 1];
        let targets = [7u32];
        assert_eq!(
            check_csr(&offsets, &targets),
            Err(InvariantViolation::TargetOutOfBounds {
                node: 0,
                target: 7,
                num_nodes: 2
            })
        );
    }

    #[test]
    fn malformed_offsets_rejected() {
        assert!(matches!(
            check_csr(&[], &[]),
            Err(InvariantViolation::BadOffsets { .. })
        ));
        assert!(matches!(
            check_csr(&[1, 1], &[]),
            Err(InvariantViolation::BadOffsets { .. })
        ));
        assert!(matches!(
            check_csr(&[0, 2], &[0u32]),
            Err(InvariantViolation::BadOffsets { .. })
        ));
        assert!(matches!(
            check_csr(&[0, 1, 0, 2], &[0u32, 0]),
            Err(InvariantViolation::BadOffsets { .. })
        ));
    }

    #[test]
    fn probabilities_checked() {
        assert_eq!(check_probabilities(&[0.0, 0.5, 1.0]), Ok(()));
        assert_eq!(
            check_probabilities(&[0.3, 1.5]),
            Err(InvariantViolation::ProbabilityOutOfRange {
                index: 1,
                value: 1.5
            })
        );
        assert_eq!(
            check_probabilities(&[-0.1]),
            Err(InvariantViolation::ProbabilityOutOfRange {
                index: 0,
                value: -0.1
            })
        );
        assert!(matches!(
            check_probabilities(&[f64::NAN]),
            Err(InvariantViolation::ProbabilityOutOfRange { index: 0, .. })
        ));
    }

    #[test]
    fn dag_accepted_cycle_rejected() {
        // Chain 2 -> 1 -> 0 (a condensation in Tarjan id order).
        let offsets = [0u32, 0, 1, 2];
        let targets = [0u32, 1];
        assert_eq!(check_acyclic(&offsets, &targets), Ok(()));
        // 2-cycle: 0 -> 1 -> 0.
        let offsets = [0u32, 1, 2];
        let targets = [1u32, 0];
        assert_eq!(
            check_acyclic(&offsets, &targets),
            Err(InvariantViolation::CycleDetected { node: 0 })
        );
        // Self-loop is a cycle.
        let offsets = [0u32, 1];
        let targets = [0u32];
        assert!(matches!(
            check_acyclic(&offsets, &targets),
            Err(InvariantViolation::CycleDetected { .. })
        ));
    }

    #[test]
    fn violations_render_usefully() {
        let msg = InvariantViolation::TargetOutOfBounds {
            node: 3,
            target: 9,
            num_nodes: 5,
        }
        .to_string();
        assert!(msg.contains("node 3") && msg.contains('9') && msg.contains('5'));
        let msg = InvariantViolation::CycleDetected { node: 2 }.to_string();
        assert!(msg.contains("node 2"));
    }
}
