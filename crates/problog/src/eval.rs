//! Learned-vs-truth diagnostics.
//!
//! When logs are generated from a known ground-truth graph (our stand-in
//! for the paper's crawled datasets), learner quality is measurable
//! directly: mean absolute error, root-mean-square error, and Pearson
//! correlation between the learned and planted probabilities over the
//! arcs of the shared topology.

/// Mean absolute error between two aligned probability vectors.
pub fn mae(learned: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(learned.len(), truth.len(), "misaligned");
    if learned.is_empty() {
        return 0.0;
    }
    learned
        .iter()
        .zip(truth)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / learned.len() as f64
}

/// Root-mean-square error between two aligned probability vectors.
pub fn rmse(learned: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(learned.len(), truth.len(), "misaligned");
    if learned.is_empty() {
        return 0.0;
    }
    (learned
        .iter()
        .zip(truth)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        / learned.len() as f64)
        .sqrt()
}

/// Pearson correlation coefficient; 0 when either side has zero variance.
pub fn pearson(learned: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(learned.len(), truth.len(), "misaligned");
    let n = learned.len() as f64;
    if learned.is_empty() {
        return 0.0;
    }
    let mean_a = learned.iter().sum::<f64>() / n;
    let mean_b = truth.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for (a, b) in learned.iter().zip(truth) {
        let da = a - mean_a;
        let db = b - mean_b;
        cov += da * db;
        var_a += da * da;
        var_b += db * db;
    }
    if var_a == 0.0 || var_b == 0.0 {
        return 0.0;
    }
    cov / (var_a.sqrt() * var_b.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_recovery() {
        let p = [0.1, 0.5, 0.9];
        assert_eq!(mae(&p, &p), 0.0);
        assert_eq!(rmse(&p, &p), 0.0);
        assert!((pearson(&p, &p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_errors() {
        let a = [0.0, 1.0];
        let b = [0.5, 0.5];
        assert!((mae(&a, &b) - 0.5).abs() < 1e-12);
        assert!((rmse(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn anticorrelation() {
        let a = [0.1, 0.2, 0.3];
        let b = [0.3, 0.2, 0.1];
        assert!((pearson(&a, &b) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(pearson(&[], &[]), 0.0);
        assert_eq!(pearson(&[0.5, 0.5], &[0.1, 0.9]), 0.0, "zero variance");
        assert_eq!(mae(&[], &[]), 0.0);
    }

    #[test]
    fn end_to_end_learner_comparison() {
        // Plant heterogeneous truth, generate a log, learn with both
        // methods, and check the learned values correlate with truth.
        use crate::generate::{generate_log, LogGenConfig};
        use crate::{learn_goyal, learn_saito};
        use soi_graph::gen;
        use soi_util::rng::Xoshiro256pp;

        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let truth =
            crate::assign::uniform_random(gen::gnm(40, 200, &mut rng), 0.1, 0.9, &mut rng).unwrap();
        let log = generate_log(
            &truth,
            &LogGenConfig {
                num_items: 2500,
                seeds_per_item: 2,
                seed: 22,
            },
        );
        let saito = learn_saito(truth.graph(), &log);
        let goyal = learn_goyal(truth.graph(), &log, Some(1));
        let r_saito = pearson(&saito, truth.probs());
        let r_goyal = pearson(&goyal, truth.probs());
        assert!(r_saito > 0.6, "Saito correlation {r_saito}");
        assert!(r_goyal > 0.3, "Goyal correlation {r_goyal}");
        // The EM learner models the process and should recover truth at
        // least as faithfully as the frequentist heuristic here.
        assert!(
            mae(&saito, truth.probs()) <= mae(&goyal, truth.probs()) + 0.05,
            "saito mae {} vs goyal mae {}",
            mae(&saito, truth.probs()),
            mae(&goyal, truth.probs())
        );
    }
}
