//! Sample-size bounds from Theorem 2 of the paper.
//!
//! The striking result of §3: a *constant* number of samples — independent
//! of the graph size — suffices for a multiplicative approximation. For
//! any `α > ε*` (the optimal cost), `ℓ = log(1/α)/α²` samples give a
//! `(1 + O(α))`-approximate median with high probability; to make the
//! guarantee hold simultaneously for every vertex of an `n`-node graph,
//! `ℓ = O(log(n/α)/α²)`.

/// Samples sufficient for a `(1 + O(alpha))`-approximate median of one
/// source node (Theorem 2). `alpha` must be in `(0, 1)`.
pub fn samples_for_alpha(alpha: f64) -> usize {
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
    ((1.0 / alpha).ln() / (alpha * alpha)).ceil().max(1.0) as usize
}

/// The approximation slack `O(sqrt(log(ℓ/δ)/ℓ))` appearing in Theorem 2,
/// up to its constant: useful for reporting expected accuracy of a run.
pub fn sampling_slack(num_samples: usize, delta: f64) -> f64 {
    assert!(num_samples >= 1);
    assert!(delta > 0.0 && delta < 1.0);
    ((num_samples as f64 / delta).ln() / num_samples as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_counts_are_sane() {
        // α = 0.1 → ln(10)/0.01 ≈ 230.
        let l = samples_for_alpha(0.1);
        assert!((225..=235).contains(&l), "{l}");
        // Coarser α needs fewer samples.
        assert!(samples_for_alpha(0.3) < samples_for_alpha(0.1));
        assert!(samples_for_alpha(0.01) > samples_for_alpha(0.1));
    }

    #[test]
    fn slack_shrinks_with_samples() {
        let s1 = sampling_slack(100, 0.05);
        let s2 = sampling_slack(10_000, 0.05);
        assert!(s2 < s1);
        assert!(s2 > 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1)")]
    fn rejects_bad_alpha() {
        samples_for_alpha(1.5);
    }
}
