//! # Spheres of Influence
//!
//! A from-scratch Rust implementation of *“Spheres of Influence for More
//! Effective Viral Marketing”* (Mehmood, Bonchi, García-Soriano — SIGMOD
//! 2016): typical cascades over probabilistic graphs, the sampling +
//! Jaccard-median solver with its cascade index, and the `InfMax_TC`
//! approach to influence maximization, together with every substrate the
//! paper depends on.
//!
//! ## Quick start
//!
//! ```
//! use spheres_of_influence::prelude::*;
//!
//! // A probabilistic graph: a hub pointing at five friends, p = 0.8 each.
//! let mut b = GraphBuilder::new(6);
//! for leaf in 1..6 {
//!     b.add_weighted_edge(0, leaf, 0.8);
//! }
//! let graph = b.build_prob().unwrap();
//!
//! // The hub's sphere of influence: the set closest (in expected Jaccard
//! // distance) to all its possible cascades.
//! let sphere = typical_cascade(&graph, 0, &TypicalCascadeConfig::default());
//! assert_eq!(sphere.median, vec![0, 1, 2, 3, 4, 5]);
//! assert!(sphere.expected_cost < 0.35); // stability: lower = more reliable
//! ```
//!
//! ## Crate map
//!
//! | module | contents | paper section |
//! |---|---|---|
//! | [`graph`] | CSR digraphs, probabilistic graphs, SCC, transitive reduction, generators | §2.1, §4 |
//! | [`sampling`] | possible worlds, cascade sampling, IC simulation, spread | §2–3 |
//! | [`jaccard`] | Jaccard distance/median, cost estimation, sample bounds | §3, Thm 2 |
//! | [`index`] | the cascade index (Algorithm 1) | §4 |
//! | [`core`] | typical cascades (Algorithm 2), stability | §2, §5 |
//! | [`problog`] | Saito-EM and Goyal learners, action logs, assignment models | §6.2 |
//! | [`influence`] | `InfMax_std` (greedy/CELF), `InfMax_TC` (Algorithm 3), RIS, saturation | §5, §6.4 |
//! | [`datasets`] | the 12 synthetic benchmark configurations | §6.1 |
//! | [`obs`] | spans, metrics, event log, run reports (see `docs/OBSERVABILITY.md`) | §6 instrumentation |

pub use soi_core as core;
pub use soi_datasets as datasets;
pub use soi_graph as graph;
pub use soi_index as index;
pub use soi_influence as influence;
pub use soi_jaccard as jaccard;
pub use soi_obs as obs;
pub use soi_problog as problog;
pub use soi_sampling as sampling;
pub use soi_util as util;

/// The most commonly used items in one import.
pub mod prelude {
    pub use soi_core::{
        all_typical_cascades, expected_cost, expected_cost_of_seed_set, typical_cascade,
        typical_cascade_of_set, TypicalCascade, TypicalCascadeConfig,
    };
    pub use soi_graph::{gen, DiGraph, GraphBuilder, NodeId, ProbGraph};
    pub use soi_index::{CascadeIndex, IndexConfig};
    pub use soi_influence::{
        infmax_ris, infmax_std, infmax_std_mc, infmax_tc, infmax_tc_budgeted, infmax_tc_weighted,
        SpreadOracle,
    };
    pub use soi_jaccard::{empirical_cost, jaccard_distance, jaccard_median};
    pub use soi_sampling::{estimate_spread, CascadeSampler, WorldSampler};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        use crate::prelude::*;
        let g = gen::path(3);
        assert_eq!(g.num_edges(), 2);
        let pg = ProbGraph::fixed(g, 0.5).unwrap();
        let s = estimate_spread(&pg, &[0], 100, 1);
        assert!(s >= 1.0);
    }
}
