//! # soi-datasets
//!
//! Synthetic stand-ins for the paper's twelve dataset configurations
//! (§6.1–6.2, Table 1). The original datasets (Digg, Flixster, Twitter
//! crawls; SNAP NetHEPT/Epinions/Slashdot) are not redistributable, so
//! each is replaced by a generator preserving its *structural role* in the
//! evaluation — see DESIGN.md §2 for the substitution rationale. Scales
//! default to ~1–4K nodes so the full suite runs in CI time; every
//! experiment binary exposes `--scale` to grow them.
//!
//! Naming follows the paper: `-S` (Saito-learnt), `-G` (Goyal-learnt),
//! `-W` (weighted cascade), `-F` (fixed `p = 0.1`).

use soi_graph::{gen, DiGraph, ProbGraph};
use soi_problog::generate::LogGenConfig;
use soi_problog::{assign, generate_log, learn_goyal, learn_saito, to_prob_graph, SaitoConfig};
use soi_util::rng::derive_seed;
use soi_util::rng::Xoshiro256pp;

/// How a configuration's probabilities are produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbSource {
    /// Learnt from a synthetic action log with Saito et al.'s EM (`-S`).
    Saito,
    /// Learnt from a synthetic action log with Goyal et al.'s
    /// frequentist estimator (`-G`).
    Goyal,
    /// Assigned: weighted cascade `1/inDeg(v)` (`-W`).
    WeightedCascade,
    /// Assigned: fixed `p = 0.1` (`-F`).
    Fixed,
}

impl ProbSource {
    /// The paper's dataset-name suffix.
    pub fn suffix(self) -> &'static str {
        match self {
            ProbSource::Saito => "S",
            ProbSource::Goyal => "G",
            ProbSource::WeightedCascade => "W",
            ProbSource::Fixed => "F",
        }
    }

    /// Whether probabilities are learnt from a log (vs assigned).
    pub fn is_learnt(self) -> bool {
        matches!(self, ProbSource::Saito | ProbSource::Goyal)
    }
}

/// One of the six base networks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Network {
    /// Stand-in for Digg: directed preferential-attachment fan network.
    DiggSyn,
    /// Stand-in for Flixster: large symmetrized preferential attachment.
    FlixsterSyn,
    /// Stand-in for Twitter: dense symmetrized power-law graph.
    TwitterSyn,
    /// Stand-in for NetHEPT: sparse small-world (symmetrized) network.
    NethepSyn,
    /// Stand-in for Epinions: directed power-law configuration model.
    EpinionsSyn,
    /// Stand-in for Slashdot: dense directed preferential attachment.
    SlashdotSyn,
}

impl Network {
    /// All six networks, in the paper's Table 1 order.
    pub fn all() -> [Network; 6] {
        [
            Network::DiggSyn,
            Network::FlixsterSyn,
            Network::TwitterSyn,
            Network::NethepSyn,
            Network::EpinionsSyn,
            Network::SlashdotSyn,
        ]
    }

    /// Display name (e.g. `digg-syn`).
    pub fn name(self) -> &'static str {
        match self {
            Network::DiggSyn => "digg-syn",
            Network::FlixsterSyn => "flixster-syn",
            Network::TwitterSyn => "twitter-syn",
            Network::NethepSyn => "nethept-syn",
            Network::EpinionsSyn => "epinions-syn",
            Network::SlashdotSyn => "slashdot-syn",
        }
    }

    /// Whether the original dataset is directed (Table 1).
    pub fn directed(self) -> bool {
        matches!(
            self,
            Network::DiggSyn | Network::EpinionsSyn | Network::SlashdotSyn
        )
    }

    /// Probability sources evaluated on this network in the paper:
    /// learnt (`-S`, `-G`) for the activity-log datasets, assigned
    /// (`-W`, `-F`) for the SNAP ones.
    pub fn sources(self) -> [ProbSource; 2] {
        if self.has_activity_log() {
            [ProbSource::Saito, ProbSource::Goyal]
        } else {
            [ProbSource::WeightedCascade, ProbSource::Fixed]
        }
    }

    /// Whether this network comes with a (synthetic) activity log.
    pub fn has_activity_log(self) -> bool {
        matches!(
            self,
            Network::DiggSyn | Network::FlixsterSyn | Network::TwitterSyn
        )
    }

    /// Base node count at `scale = 1.0`.
    fn base_nodes(self) -> usize {
        match self {
            Network::DiggSyn => 2000,
            Network::FlixsterSyn => 3000,
            Network::TwitterSyn => 1200,
            Network::NethepSyn => 1500,
            Network::EpinionsSyn => 2000,
            Network::SlashdotSyn => 2000,
        }
    }

    /// Builds the topology at the given scale. Deterministic in `seed`.
    pub fn build_graph(self, scale: f64, seed: u64) -> DiGraph {
        assert!(scale > 0.0, "scale must be positive");
        let n = ((self.base_nodes() as f64 * scale) as usize).max(32);
        let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(seed, self as u64));
        match self {
            // Directed fan network, heavy-tailed in-degree.
            Network::DiggSyn => gen::barabasi_albert(n, 6, true, &mut rng),
            // Undirected (symmetrized), denser.
            Network::FlixsterSyn => gen::barabasi_albert(n, 4, false, &mut rng),
            // Dense reshare network, undirected.
            Network::TwitterSyn => gen::barabasi_albert(n, 12, false, &mut rng),
            // Sparse citation network: heavy-tailed degrees (hubs make the
            // fixed-p model supercritical, as on the real NetHEPT).
            Network::NethepSyn => gen::barabasi_albert(n, 4, false, &mut rng),
            // Directed heavy-tailed trust network.
            Network::EpinionsSyn => gen::powerlaw_configuration(n, 1.7, n / 5, &mut rng),
            // Dense directed social news network.
            Network::SlashdotSyn => gen::barabasi_albert(n, 20, true, &mut rng),
        }
    }
}

/// A fully-built dataset configuration (network + probabilities).
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Network identity.
    pub network: Network,
    /// How probabilities were produced.
    pub source: ProbSource,
    /// The probabilistic graph experiments run on.
    pub graph: ProbGraph,
    /// For learnt configurations: the planted ground-truth probabilities
    /// (aligned with the *topology's* CSR edges) for learner diagnostics.
    pub ground_truth: Option<Vec<f64>>,
}

impl Dataset {
    /// Paper-style display name, e.g. `digg-syn-S`.
    pub fn name(&self) -> String {
        format!("{}-{}", self.network.name(), self.source.suffix())
    }
}

/// Builds one configuration. Deterministic in `(scale, seed)`.
///
/// For learnt sources the full pipeline runs: plant heterogeneous
/// ground-truth probabilities, simulate an action log, learn from the log
/// only (the paper's observational setting), and drop zero-evidence arcs.
pub fn build(network: Network, source: ProbSource, scale: f64, seed: u64) -> Dataset {
    let topology = network.build_graph(scale, seed);
    match source {
        ProbSource::WeightedCascade => Dataset {
            network,
            source,
            graph: assign::weighted_cascade(topology),
            ground_truth: None,
        },
        ProbSource::Fixed => Dataset {
            network,
            source,
            // xtask-allow: panic_policy — 0.1 is a valid probability.
            graph: assign::fixed(topology, 0.1).expect("0.1 is valid"),
            ground_truth: None,
        },
        ProbSource::Saito | ProbSource::Goyal => {
            let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(seed, 0x6c6f67));
            // Ground truth: weighted-cascade-proportional with a random
            // per-arc factor. Realistic influence strengths scale inversely
            // with the target's attention (in-degree) — planting uniform
            // probabilities instead makes dense networks trivially
            // supercritical and every sphere the whole graph, unlike the
            // paper's learnt datasets (Table 2).
            use soi_util::rng::Rng;
            let in_deg = topology.in_degrees();
            let truth = ProbGraph::from_fn(topology, |_, v| {
                let factor = 0.3 + 1.7 * rng.random::<f64>();
                (factor / in_deg[v as usize] as f64).clamp(1e-6, 1.0)
            })
            // xtask-allow: panic_policy — clamped to [1e-6, 1] above.
            .expect("valid probabilities");
            let items = ((300.0 * scale) as usize).clamp(100, 3000);
            let log = generate_log(
                &truth,
                &LogGenConfig {
                    num_items: items,
                    seeds_per_item: 2,
                    seed: derive_seed(seed, 0x6974656d),
                },
            );
            let learned = if matches!(source, ProbSource::Saito) {
                learn_saito(truth.graph(), &log, &SaitoConfig::default())
            } else {
                learn_goyal(truth.graph(), &log, Some(1))
            };
            let graph = to_prob_graph(truth.graph(), &learned, 1e-4)
                // xtask-allow: panic_policy — to_prob_graph floors at
                // 1e-4 and both learners emit probabilities in [0, 1].
                .expect("learner outputs valid probabilities");
            Dataset {
                network,
                source,
                graph,
                ground_truth: Some(truth.probs().to_vec()),
            }
        }
    }
}

/// The paper's twelve configurations: the three activity-log networks
/// × {S, G} plus the three SNAP-style networks × {W, F}.
pub fn all_configs() -> Vec<(Network, ProbSource)> {
    Network::all()
        .into_iter()
        .flat_map(|n| n.sources().into_iter().map(move |s| (n, s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_configs_matching_the_paper() {
        let configs = all_configs();
        assert_eq!(configs.len(), 12);
        let names: Vec<String> = configs
            .iter()
            .map(|&(n, s)| format!("{}-{}", n.name(), s.suffix()))
            .collect();
        for expect in [
            "digg-syn-S",
            "digg-syn-G",
            "flixster-syn-S",
            "flixster-syn-G",
            "twitter-syn-S",
            "twitter-syn-G",
            "nethept-syn-W",
            "nethept-syn-F",
            "epinions-syn-W",
            "epinions-syn-F",
            "slashdot-syn-W",
            "slashdot-syn-F",
        ] {
            assert!(names.contains(&expect.to_string()), "missing {expect}");
        }
    }

    #[test]
    fn topology_shapes_match_roles() {
        let scale = 0.1;
        // Undirected networks are symmetric.
        for net in [
            Network::FlixsterSyn,
            Network::TwitterSyn,
            Network::NethepSyn,
        ] {
            let g = net.build_graph(scale, 1);
            assert!(!net.directed());
            for (u, v) in g.edges() {
                assert!(g.has_edge(v, u), "{}: asymmetric arc", net.name());
            }
        }
        // NetHEPT-like is much sparser than Twitter-like.
        let hep = Network::NethepSyn.build_graph(scale, 1);
        let tw = Network::TwitterSyn.build_graph(scale, 1);
        let hep_density = hep.num_edges() as f64 / hep.num_nodes() as f64;
        let tw_density = tw.num_edges() as f64 / tw.num_nodes() as f64;
        assert!(
            tw_density > 2.0 * hep_density,
            "twitter {tw_density} vs nethept {hep_density}"
        );
    }

    #[test]
    fn assigned_configs_have_expected_probabilities() {
        let d = build(Network::NethepSyn, ProbSource::Fixed, 0.05, 2);
        assert!(d.graph.probs().iter().all(|&p| p == 0.1));
        assert!(d.ground_truth.is_none());

        let d = build(Network::EpinionsSyn, ProbSource::WeightedCascade, 0.05, 2);
        let in_deg = d.graph.graph().in_degrees();
        for u in d.graph.graph().nodes() {
            for (v, p) in d.graph.out_arcs(u) {
                assert!((p - 1.0 / in_deg[v as usize] as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn learnt_configs_recover_signal() {
        let d = build(Network::DiggSyn, ProbSource::Saito, 0.05, 3);
        assert!(d.ground_truth.is_some());
        assert!(d.graph.num_edges() > 0, "some arcs carry evidence");
        // Learned arcs are a subset of the topology with valid probs.
        assert!(d.graph.probs().iter().all(|&p| p > 0.0 && p <= 1.0));
        let g = build(Network::DiggSyn, ProbSource::Goyal, 0.05, 3);
        assert!(g.graph.num_edges() > 0);
    }

    #[test]
    fn goyal_probabilities_dominate_saito_on_average() {
        // §6.3 observes Goyal-learnt probabilities run larger than
        // Saito-learnt ones (Figure 3), driving bigger cascades. Our
        // synthetic pipeline reproduces that ordering: the frequentist
        // estimator credits any later action, EM discounts shared credit.
        let s = build(Network::TwitterSyn, ProbSource::Saito, 0.05, 4);
        let g = build(Network::TwitterSyn, ProbSource::Goyal, 0.05, 4);
        let mean = |pg: &ProbGraph| pg.probs().iter().sum::<f64>() / pg.num_edges() as f64;
        assert!(
            mean(&g.graph) > mean(&s.graph) * 0.8,
            "goyal {} vs saito {}",
            mean(&g.graph),
            mean(&s.graph)
        );
    }

    #[test]
    fn determinism_and_scaling() {
        let a = build(Network::SlashdotSyn, ProbSource::Fixed, 0.05, 5);
        let b = build(Network::SlashdotSyn, ProbSource::Fixed, 0.05, 5);
        assert_eq!(a.graph, b.graph);
        let small = Network::SlashdotSyn.build_graph(0.05, 5);
        let big = Network::SlashdotSyn.build_graph(0.2, 5);
        assert!(big.num_nodes() > 2 * small.num_nodes());
    }
}
