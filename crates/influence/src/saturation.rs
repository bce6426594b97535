//! The saturation analysis of §6.4 (Figure 7).
//!
//! At greedy iteration `j`, let `MG_i^j` be the `i`-th largest marginal
//! gain over the remaining candidates. The ratio `MG₁₀^j / MG₁^j` measures
//! how distinguishable the chosen seed is from its runners-up: near 0 the
//! winner is clearly better; near 1 the algorithm is effectively picking
//! at random among equivalent candidates ("the point of saturation").
//!
//! Both greedies (`InfMax_std` and `InfMax_TC`, each with `capture_top`)
//! record every round's exact top gains through the lazy heap
//! ([`soi_util::LazyGreedy::pop_ranked`]); this module turns one ranking
//! into a ratio.

/// The `MG_rank / MG_1` ratio for one iteration's descending gain ranking.
/// Returns `None` when the ranking is too short or the top gain is 0.
pub fn gain_ratio(ranking: &[f64], rank: usize) -> Option<f64> {
    assert!(rank >= 1, "rank is 1-based");
    let top = *ranking.first()?;
    let other = *ranking.get(rank - 1)?;
    if top <= 0.0 {
        return None;
    }
    Some((other / top).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_basics() {
        assert_eq!(gain_ratio(&[10.0, 8.0, 5.0], 3), Some(0.5));
        assert_eq!(gain_ratio(&[10.0, 8.0], 2), Some(0.8));
        assert_eq!(gain_ratio(&[10.0], 2), None, "ranking too short");
        assert_eq!(gain_ratio(&[0.0, 0.0], 2), None, "zero top gain");
        assert_eq!(gain_ratio(&[], 1), None);
    }

    #[test]
    fn end_to_end_ratios_rise_with_iterations() {
        // On a graph of many near-identical nodes the standard greedy
        // saturates: ratios should be high from early on.
        use soi_graph::{gen, ProbGraph};
        use soi_index::{CascadeIndex, IndexConfig};
        let pg = ProbGraph::fixed(gen::cycle(40), 0.2).unwrap();
        let index = CascadeIndex::build(
            &pg,
            IndexConfig {
                num_worlds: 64,
                seed: 1,
                ..IndexConfig::default()
            },
        );
        let run = crate::infmax_std(&index, 8, 10);
        let ratios: Vec<f64> = run
            .gain_rankings
            .iter()
            .filter_map(|r| gain_ratio(r, 10))
            .collect();
        assert_eq!(ratios.len(), 8);
        // A symmetric cycle has indistinguishable candidates: ratios ≈ 1.
        assert!(ratios.iter().all(|&r| r > 0.5), "{ratios:?}");
    }
}
