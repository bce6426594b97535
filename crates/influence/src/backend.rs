//! The spread-oracle backend a request or CLI run selects: cascade index
//! vs bottom-k sketches.
//!
//! The repo grew two precomputed structures that can answer spread
//! queries over the same ℓ sampled worlds:
//!
//! * the **cascade** index (`soi_index::CascadeIndex`) — exact
//!   per-world reachability over ℓ live-arc masks, the paper's structure
//!   and the default;
//! * the **sketch** backend (`soi_sketch::ReachSketches`) — bottom-k
//!   combined reachability sketches (Cohen et al.), `O(k·n)` memory with
//!   estimator guarantees instead of exactness.
//!
//! [`BackendKind`] is the wire/flag name both the serving and CLI layers
//! parse. Both backends are deterministic in their build seed, so either
//! answer is byte-stable across runs, replicas, and thread counts.

/// Which spread-oracle backend a request or CLI run selects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum BackendKind {
    /// The paper's cascade index (exact per-world reachability). Default.
    #[default]
    Cascade,
    /// Bottom-k combined reachability sketches (estimates).
    Sketch,
}

impl BackendKind {
    /// Parses the wire/flag name (`"cascade"` | `"sketch"`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "cascade" => Some(BackendKind::Cascade),
            "sketch" => Some(BackendKind::Sketch),
            _ => None,
        }
    }

    /// The wire/flag name of this backend.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Cascade => "cascade",
            BackendKind::Sketch => "sketch",
        }
    }

    /// A stable one-byte tag folded into cache keys so entries from
    /// different backends can never alias, whatever their inner keys.
    pub fn tag(self) -> u8 {
        match self {
            BackendKind::Cascade => 1,
            BackendKind::Sketch => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_names_and_tags_differ() {
        for kind in [BackendKind::Cascade, BackendKind::Sketch] {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::parse("bogus"), None);
        assert_eq!(BackendKind::default(), BackendKind::Cascade);
        assert_ne!(BackendKind::Cascade.tag(), BackendKind::Sketch.tag());
    }
}
