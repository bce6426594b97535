//! Learning influence probabilities from an activity log (§6.2).
//!
//! The paper's learnt datasets pair a social graph with a log of user
//! actions. This example plants ground-truth influence probabilities,
//! simulates a log of cascades, then recovers the probabilities with both
//! learners — Saito et al.'s EM and Goyal et al.'s frequentist estimator —
//! and reports how faithfully each recovers the truth and how the choice
//! changes the downstream spheres of influence.
//!
//! Run with: `cargo run --release --example learn_probabilities`

use spheres_of_influence::prelude::*;
use spheres_of_influence::problog::{
    assign, eval, generate::LogGenConfig, generate_log, learn_goyal, learn_saito, to_prob_graph,
};

fn main() {
    let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(5);

    // Ground truth: heterogeneous probabilities on a social graph.
    let topology = gen::barabasi_albert(400, 4, true, &mut rng);
    let truth = assign::uniform_random(topology, 0.05, 0.6, &mut rng).unwrap();
    println!(
        "ground truth: {} nodes, {} arcs, probabilities in [0.05, 0.6]",
        truth.num_nodes(),
        truth.num_edges()
    );

    // Simulate the observational data: 2000 items cascading over the net.
    let log = generate_log(
        &truth,
        &LogGenConfig {
            num_items: 2000,
            seeds_per_item: 2,
            seed: 17,
        },
    );
    println!(
        "simulated log: {} items, {} actions",
        log.num_items(),
        log.num_actions()
    );

    // Learn with both methods (they see only the topology and the log).
    let saito = learn_saito(truth.graph(), &log);
    let goyal = learn_goyal(truth.graph(), &log, Some(1));

    println!("\nrecovery quality (vs planted truth):");
    for (name, learned) in [("saito-EM  ", &saito), ("goyal-freq", &goyal)] {
        println!(
            "  {name}: MAE {:.4}  RMSE {:.4}  Pearson r {:.3}",
            eval::mae(learned, truth.probs()),
            eval::rmse(learned, truth.probs()),
            eval::pearson(learned, truth.probs()),
        );
    }

    // Downstream effect: sphere-of-influence sizes under each learner.
    let config = TypicalCascadeConfig {
        median_samples: 300,
        cost_samples: 0,
        ..TypicalCascadeConfig::default()
    };
    let truth_sphere = typical_cascade(&truth, 0, &config);
    for (name, learned) in [("saito", &saito), ("goyal", &goyal)] {
        let pg = to_prob_graph(truth.graph(), learned, 1e-4).unwrap();
        let sphere = typical_cascade(&pg, 0, &config);
        println!(
            "sphere of node 0 under {name}-learnt graph: {} nodes \
             (truth: {})",
            sphere.size(),
            truth_sphere.size()
        );
    }
    println!(
        "\n(§6.3 of the paper: the probability-assignment method strongly \
         shapes typical-cascade sizes — Figure 3 / Table 2.)"
    );
}
