//! Offline stand-in for `rand` 0.9.
//!
//! Provides exactly the API surface this workspace uses — `Rng::random`,
//! `Rng::random_range`, `SeedableRng::seed_from_u64`, `rngs::StdRng` —
//! backed by xoshiro256++ (Blackman & Vigna), a small, fast,
//! statistically solid generator. The stream differs from the real
//! crate's ChaCha12-based `StdRng`, which is fine: the workspace's
//! generators are documented as deterministic in *(config, seed)* for a
//! fixed toolchain, not as reproducing any particular rand version.

pub mod rngs;

/// Low-level entropy source: everything derives from `next_u64`.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types samplable uniformly over their "standard" domain (`[0, 1)` for
/// floats, the full range for integers), mirroring rand's
/// `StandardUniform` distribution.
pub trait StandardSample: Sized {
    /// Draws one standard sample from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

/// Types samplable uniformly from a caller-supplied interval.
pub trait SampleUniform: Sized {
    /// Uniform draw from `[lo, hi)`, or `[lo, hi]` when `inclusive`.
    fn sample_interval<R: RngCore + ?Sized>(
        rng: &mut R,
        lo: Self,
        hi: Self,
        inclusive: bool,
    ) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),+) => {$(
        impl SampleUniform for $t {
            fn sample_interval<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                let span = (hi as i128 - lo as i128 + i128::from(inclusive)) as u128;
                assert!(span > 0, "empty random_range");
                // 64 fresh bits per draw; modulo bias is < 2^-60 for the
                // simulation-sized spans used here.
                let offset = (u128::from(rng.next_u64()) % span) as i128;
                (lo as i128 + offset) as $t
            }
        }
    )+};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_interval<R: RngCore + ?Sized>(
        rng: &mut R,
        lo: Self,
        hi: Self,
        _inclusive: bool,
    ) -> Self {
        assert!(lo < hi, "empty random_range: {lo}..{hi}");
        lo + f64::sample_standard(rng) * (hi - lo)
    }
}

impl SampleUniform for f32 {
    fn sample_interval<R: RngCore + ?Sized>(
        rng: &mut R,
        lo: Self,
        hi: Self,
        _inclusive: bool,
    ) -> Self {
        assert!(lo < hi, "empty random_range: {lo}..{hi}");
        lo + f32::sample_standard(rng) * (hi - lo)
    }
}

/// Range-like arguments accepted by [`Rng::random_range`].
pub trait SampleRange<T> {
    /// Draws a sample from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_interval(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_interval(rng, *self.start(), *self.end(), true)
    }
}

/// The user-facing generator interface, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// A standard sample: `[0, 1)` for floats, full-range for integers.
    fn random<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// A uniform sample from `range` (half-open or inclusive).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T: SampleUniform, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable generators, mirroring `rand::SeedableRng`'s `seed_from_u64`.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (expanded via SplitMix64).
    fn seed_from_u64(seed: u64) -> Self;
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let x = r.random_range(3usize..17);
            assert!((3..17).contains(&x));
            let y: i64 = r.random_range(0..=1);
            assert!((0..=1).contains(&y));
            let z = r.random_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&z));
        }
    }

    #[test]
    fn uniform_mean_is_centred() {
        let mut r = StdRng::seed_from_u64(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.random::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
