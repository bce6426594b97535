//! The rule behind every comparison the median fit makes: decide `x < t`
//! from an estimate `x̃` with a proven margin `m ≥ |x − x̃|`, and compute
//! the in-order `x` only when `[x̃ − m, x̃ + m]` straddles `t`.
//!
//! Margins rest on one fact: with `u = 2⁻⁵³` and `γₙ = n·u/(1 − n·u)`, any
//! association of a floating-point sum of `n` terms lies within
//! `γₙ₋₁·Σ|tᵢ|` of the real sum (Higham, *Accuracy and Stability of
//! Numerical Algorithms*, §4.2), so two associations of the same terms
//! differ by at most `2γₙ·Σ|tᵢ|`. Every value compared here — a cost, a
//! cost change, a threshold — lies in `[−1, 1]` up to rounding, so each
//! division by ℓ, subtraction of a tolerance, and the comparison itself
//! add at most a few `u`. An estimate sums one product `w_c·t_c` per class
//! of equal samples where the in-order value sums `t_c` once per sample;
//! each product adds one rounding, which `crate::cost` derives per site:
//! the cost's and an input set's margin (`mean_distance_bounded`) and a
//! toggle's (`IncrementalCost::toggle_delta_bounded`).

/// Unit roundoff of `f64`.
pub(crate) const U: f64 = f64::EPSILON / 2.0;

/// `γₙ = n·u/(1 − n·u)`.
pub(crate) fn gamma(n: usize) -> f64 {
    let nu = n as f64 * U;
    nu / (1.0 - nu)
}

/// A value whose in-order result lies in `[value − margin, value +
/// margin]`; margin 0 means `value` is that result.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Bounded {
    pub(crate) value: f64,
    pub(crate) margin: f64,
}

impl Bounded {
    pub(crate) fn exact(value: f64) -> Self {
        Bounded { value, margin: 0.0 }
    }

    /// `sum / ℓ` for a sum within `err · ℓ` of the in-order sum: the two
    /// divisions round by at most `u` each on means of magnitude at most
    /// 1, plus `u` of slack for the margin's own rounding.
    pub(crate) fn mean(sum: f64, ell: usize, err: f64) -> Self {
        Bounded {
            value: sum / ell.max(1) as f64,
            margin: err + 3.0 * U,
        }
    }

    /// `x − d` as the in-order code rounds it: each side's subtraction
    /// rounds by at most `u·|x − d|`.
    pub(crate) fn minus(self, d: f64) -> Self {
        let rounding = 2.0 * U * (self.value.abs() + self.margin + d.abs());
        Bounded {
            value: self.value - d,
            margin: self.margin + rounding,
        }
    }

    /// `x < t` for the in-order values, or `None` when the bounds
    /// straddle. The gap `t̃ − x̃` (at most 2 in magnitude) rounds by at
    /// most `2u`, which the `4u` slack covers with the margins' sum.
    pub(crate) fn lt(self, t: Bounded) -> Option<bool> {
        let gap = t.value - self.value;
        let reach = self.margin + t.margin + 4.0 * U;
        (gap.abs() > reach).then_some(gap > 0.0)
    }
}

/// The fit's comparisons: a prefix against the best prefix, an input set
/// against the sweep's winner, a toggle's cost change against its
/// tolerance.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Site {
    Sweep,
    InputSet,
    Toggle,
}

/// `x < t` from the bounds when they settle it, otherwise from `exact`,
/// which compares the in-order values.
pub(crate) fn decide(site: Site, x: Bounded, t: Bounded, exact: impl FnOnce() -> bool) -> bool {
    site.settle(x, t).unwrap_or_else(exact)
}

#[cfg(test)]
thread_local! {
    /// Per site, comparisons the bounds settled (`[0]`) and comparisons
    /// left to the in-order values (`[1]`), on this thread.
    pub(crate) static DECISIONS: std::cell::Cell<[[u64; 2]; 3]> =
        const { std::cell::Cell::new([[0; 2]; 3]) };
    /// A factor on every estimate's margin, so a test can drive the
    /// in-order fallback at every site.
    pub(crate) static WIDEN: std::cell::Cell<f64> = const { std::cell::Cell::new(1.0) };
}

impl Site {
    #[cfg(not(test))]
    fn settle(self, x: Bounded, t: Bounded) -> Option<bool> {
        x.lt(t)
    }

    #[cfg(test)]
    fn settle(self, x: Bounded, t: Bounded) -> Option<bool> {
        let margin = x.margin * WIDEN.get();
        let settled = Bounded { margin, ..x }.lt(t);
        let mut counts = DECISIONS.get();
        counts[self as usize][usize::from(settled.is_none())] += 1;
        DECISIONS.set(counts);
        settled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settles_only_outside_the_margins() {
        let x = Bounded {
            value: 0.5,
            margin: 1e-13,
        };
        assert_eq!(x.lt(Bounded::exact(0.6)), Some(true));
        assert_eq!(x.lt(Bounded::exact(0.4)), Some(false));
        assert_eq!(x.lt(Bounded::exact(0.5 + 5e-14)), None);
        assert_eq!(x.lt(Bounded::exact(0.5 - 5e-14)), None);
        assert_eq!(x.lt(x.minus(1e-15)), None);
        // Two exact values settle unless they are within a few ulps.
        assert_eq!(
            Bounded::exact(0.5).lt(Bounded::exact(0.5 - 1e-15)),
            Some(false)
        );
        assert_eq!(Bounded::exact(0.5).lt(Bounded::exact(0.5)), None);
    }
}
