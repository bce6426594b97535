//! Jaccard distance over canonical sorted sets.
//!
//! `d_J(A, B) = 1 - |A ∩ B| / |A ∪ B|` (§2.2). We adopt the standard
//! convention `d_J(∅, ∅) = 0` (two identical sets are at distance zero).
//! Jaccard distance is a metric; a property test below exercises the
//! triangle inequality, which the paper's Theorem 1/2 proofs lean on.

/// `|A ∩ B|` for sorted, deduplicated slices, by linear merge.
pub fn intersection_size(a: &[u32], b: &[u32]) -> usize {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "a not canonical");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "b not canonical");
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// `|A ∪ B|` for sorted, deduplicated slices.
pub fn union_size(a: &[u32], b: &[u32]) -> usize {
    a.len() + b.len() - intersection_size(a, b)
}

/// Jaccard distance between two canonical sets; `0.0` for two empty sets.
pub fn jaccard_distance(a: &[u32], b: &[u32]) -> f64 {
    let union = union_size(a, b);
    if union == 0 {
        return 0.0;
    }
    let inter = a.len() + b.len() - union;
    1.0 - inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_distances() {
        assert_eq!(jaccard_distance(&[], &[]), 0.0);
        assert_eq!(jaccard_distance(&[1], &[]), 1.0);
        assert_eq!(jaccard_distance(&[1, 2], &[1, 2]), 0.0);
        assert_eq!(jaccard_distance(&[1, 2], &[3, 4]), 1.0);
        assert!((jaccard_distance(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_counts() {
        assert_eq!(intersection_size(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]), 2);
        assert_eq!(union_size(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]), 7);
        assert_eq!(intersection_size(&[], &[1, 2]), 0);
        assert_eq!(union_size(&[], &[]), 0);
    }

    /// Random canonical set over a 50-element universe, from a derived
    /// per-(case, slot) stream.
    fn random_set(case: u64, slot: u64) -> Vec<u32> {
        use soi_util::rng::{Rng, Xoshiro256pp};
        use std::collections::BTreeSet;
        let mut rng = Xoshiro256pp::from_stream(0xD157 ^ slot, case);
        let len = rng.random_range(0usize..20);
        let set: BTreeSet<u32> = (0..len).map(|_| rng.random_range(0u32..50)).collect();
        set.into_iter().collect()
    }

    /// Metric-space properties over 64 seeded random (a, b, c) triples.
    #[test]
    fn distance_is_a_bounded_metric() {
        for case in 0..64u64 {
            let a = random_set(case, 1);
            let b = random_set(case, 2);
            let c = random_set(case, 3);

            // Symmetric and bounded.
            let d = jaccard_distance(&a, &b);
            assert!((0.0..=1.0).contains(&d), "case {case}");
            assert_eq!(d, jaccard_distance(&b, &a), "case {case}");

            // Identity of indiscernibles.
            assert_eq!(d == 0.0, a == b, "case {case}");

            // Triangle inequality.
            let ab = d;
            let bc = jaccard_distance(&b, &c);
            let ac = jaccard_distance(&a, &c);
            assert!(
                ac <= ab + bc + 1e-12,
                "case {case}: d(a,c)={ac} > {ab}+{bc}"
            );
        }
    }

    /// Intersection/union size identities over 64 seeded random pairs.
    #[test]
    fn sizes_consistent() {
        for case in 0..64u64 {
            let a = random_set(case, 4);
            let b = random_set(case, 5);
            let i = intersection_size(&a, &b);
            let u = union_size(&a, &b);
            assert_eq!(i + u, a.len() + b.len(), "case {case}");
            assert!(i <= a.len().min(b.len()), "case {case}");
            assert!(u >= a.len().max(b.len()), "case {case}");
        }
    }
}
