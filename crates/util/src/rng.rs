//! Deterministic seed derivation and the workspace's only random
//! number generator.
//!
//! Every public entry point in the workspace takes a single `u64` seed.
//! Internally, components that need independent randomness (one RNG per
//! sampled world, per thread, per experiment arm) derive sub-seeds with
//! [`derive_seed`] so that runs are reproducible regardless of thread
//! scheduling, and so that no two components accidentally share a stream.
//!
//! [`Xoshiro256pp`] (xoshiro256++, seeded through a SplitMix64 expansion)
//! is the sole generator; there is no ambient/thread-local entropy source
//! anywhere in the workspace, so a run is a pure function of its seed.
//! The workspace has no external crate (so no `rand`), and the root
//! `clippy.toml` disallows `std::hash::RandomState`, std's one entropy
//! source.

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
///
/// Used to turn `(seed, stream-id)` pairs into statistically independent
/// sub-seeds.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the `stream`-th sub-seed of `seed`.
///
/// Distinct `(seed, stream)` pairs map to distinct outputs with
/// overwhelming probability; the mapping is stable across runs and
/// platforms.
#[inline]
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    mix64(seed ^ mix64(stream.wrapping_mul(0xA24B_AED4_963E_E407)))
}

/// Draws one SplitMix64 output and advances the stream.
///
/// `mix64(state)` is the SplitMix64 finalizer applied to the
/// pre-incremented state, so emitting first and advancing after yields
/// the reference output sequence.
#[inline]
fn splitmix64_next(state: &mut u64) -> u64 {
    let out = mix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    out
}

/// xoshiro256++ — the workspace's pseudo-random generator.
///
/// 256 bits of state, period `2^256 − 1`, seeded by expanding a `u64`
/// through SplitMix64 (the seeding procedure recommended by the xoshiro
/// authors). Construction *requires* an explicit seed; there is no
/// `from_entropy`-style constructor on purpose — every random stream in
/// the workspace must be derivable from the run seed via [`derive_seed`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator whose state is the SplitMix64 expansion of
    /// `seed`. Distinct seeds give statistically independent streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut st = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64_next(&mut st);
        }
        // xoshiro's one forbidden state; unreachable in practice from the
        // SplitMix64 expansion, but cheap to rule out entirely.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256pp { s }
    }

    /// Convenience: the generator for the `stream`-th sub-stream of
    /// `seed`, i.e. `seed_from_u64(derive_seed(seed, stream))`.
    pub fn from_stream(seed: u64, stream: u64) -> Self {
        Xoshiro256pp::seed_from_u64(derive_seed(seed, stream))
    }
}

impl Rng for Xoshiro256pp {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// The random-source trait every sampler in the workspace is generic
/// over. One required method ([`Rng::next_u64`]); everything else is
/// derived, so alternative generators (e.g. counter-based ones for
/// per-edge hashing) only implement the core step.
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// A sample from `T`'s standard distribution: `f64` uniform in
    /// `[0, 1)` with 53-bit precision, integers uniform over their full
    /// range, `bool` a fair coin.
    #[inline]
    fn random<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Uniform sample from a half-open integer range.
    ///
    /// Uses Lemire's widening-multiply rejection method: unbiased, and
    /// one multiply in the common (non-rejecting) case. The range must
    /// be non-empty.
    #[inline]
    fn random_range<T: UniformInt>(&mut self, range: core::ops::Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range)
    }

    /// `true` with probability `p` (`p` is clamped to `[0, 1]`).
    #[inline]
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        debug_assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.random::<f64>() < p
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types with a canonical "standard" distribution for [`Rng::random`].
pub trait StandardSample: Sized {
    /// Draws one standard-distributed value.
    fn sample<R: Rng>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    #[inline]
    fn sample<R: Rng>(rng: &mut R) -> f64 {
        // 53 high bits → uniform multiples of 2^-53 in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    #[inline]
    fn sample<R: Rng>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for u64 {
    #[inline]
    fn sample<R: Rng>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    #[inline]
    fn sample<R: Rng>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl StandardSample for bool {
    #[inline]
    fn sample<R: Rng>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// Unbiased uniform range sampling for [`Rng::random_range`].
///
/// The sample is drawn from `u64` bits via Lemire's method, so for a
/// given generator state the value drawn for `0..n` is identical across
/// all implementing integer types — streams do not shift when a call
/// site changes `NodeId` width.
pub trait UniformInt: Copy {
    /// Draws uniformly from `range`; the range must be non-empty.
    fn sample_range<R: Rng>(rng: &mut R, range: core::ops::Range<Self>) -> Self;
}

/// Uniform `u64` in `[0, n)` by widening multiply with rejection.
#[inline]
fn uniform_u64_below<R: Rng>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    let mut m = (rng.next_u64() as u128) * (n as u128);
    let mut lo = m as u64;
    if lo < n {
        // Threshold = 2^64 mod n; rejecting lo below it de-biases.
        let t = n.wrapping_neg() % n;
        while lo < t {
            m = (rng.next_u64() as u128) * (n as u128);
            lo = m as u64;
        }
    }
    (m >> 64) as u64
}

macro_rules! impl_uniform_int {
    ($($ty:ty),*) => {$(
        impl UniformInt for $ty {
            #[inline]
            fn sample_range<R: Rng>(rng: &mut R, range: core::ops::Range<$ty>) -> $ty {
                assert!(
                    range.start < range.end,
                    "random_range on empty range {}..{}",
                    range.start,
                    range.end
                );
                let span = (range.end as u64).wrapping_sub(range.start as u64);
                range.start + uniform_u64_below(rng, span) as $ty
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn mix64_is_not_identity_and_spreads() {
        assert_ne!(mix64(0), 0);
        assert_ne!(mix64(1), mix64(2));
        // Single-bit input changes flip roughly half the output bits.
        let a = mix64(0x1234);
        let b = mix64(0x1235);
        let flipped = (a ^ b).count_ones();
        assert!(
            (20..=44).contains(&flipped),
            "avalanche too weak: {flipped}"
        );
    }

    #[test]
    fn derived_seeds_are_distinct() {
        let mut seen = BTreeSet::new();
        for seed in 0..16u64 {
            for stream in 0..256u64 {
                assert!(seen.insert(derive_seed(seed, stream)), "collision");
            }
        }
    }

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        assert_ne!(derive_seed(42, 7), derive_seed(42, 8));
        assert_ne!(derive_seed(42, 7), derive_seed(43, 7));
    }

    #[test]
    fn generator_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256pp::seed_from_u64(12345);
        let mut b = Xoshiro256pp::seed_from_u64(12345);
        let mut c = Xoshiro256pp::seed_from_u64(12346);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys, "same seed, same stream");
        assert_ne!(xs, zs, "adjacent seeds diverge");
    }

    #[test]
    fn f64_samples_lie_in_unit_interval_with_sane_mean() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x), "{x} outside [0, 1)");
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_samples_stay_in_bounds_and_cover() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.random_range(3u32..13);
            assert!((3..13).contains(&v));
            seen[(v - 3) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "1000 draws cover all 10 values");
        // usize and u64 draws agree with u32 for the same state (the
        // sample is taken in u64 space, so type width is irrelevant).
        let mut r1 = Xoshiro256pp::seed_from_u64(5);
        let mut r2 = Xoshiro256pp::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(r1.random_range(0u32..97) as u64, r2.random_range(0u64..97));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let _ = rng.random_range(5u32..5);
    }

    #[test]
    fn random_bool_tracks_probability() {
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.3)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
        let mut rng = Xoshiro256pp::seed_from_u64(22);
        assert!((0..100).all(|_| !rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
    }

    #[test]
    fn derived_streams_are_pairwise_independent_looking() {
        // Cross-stream independence: streams derived from the same base
        // seed share no prefix and are uncorrelated at lag 0.
        let base = 99;
        let streams: Vec<Vec<u64>> = (0..8)
            .map(|i| {
                let mut rng = Xoshiro256pp::from_stream(base, i);
                (0..256).map(|_| rng.next_u64()).collect()
            })
            .collect();
        for i in 0..streams.len() {
            for j in i + 1..streams.len() {
                assert_ne!(streams[i][0], streams[j][0], "streams {i},{j} collide");
                // Bitwise correlation of the XOR of paired outputs should
                // hover around half the bits.
                let mismatched: u32 = streams[i]
                    .iter()
                    .zip(&streams[j])
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum();
                let total = 256 * 64;
                let frac = f64::from(mismatched) / f64::from(total);
                assert!(
                    (0.47..0.53).contains(&frac),
                    "streams {i},{j}: xor density {frac}"
                );
            }
        }
    }

    #[test]
    fn mut_ref_forwarding_matches_direct_use() {
        let mut a = Xoshiro256pp::seed_from_u64(3);
        let mut b = Xoshiro256pp::seed_from_u64(3);
        fn draw<R: Rng>(mut rng: R) -> u64 {
            rng.next_u64()
        }
        assert_eq!(draw(&mut a), b.next_u64());
    }
}
