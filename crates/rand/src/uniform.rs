//! Bounded integer sampling without modulo bias.
//!
//! `x % n` over a 64-bit draw favours small residues whenever `n` does not
//! divide `2^64`; for an FPRAS whose whole point is an (ε, δ) guarantee
//! that bias is unacceptable. This module implements Lemire's
//! multiply-shift method with the exact rejection step ("Fast random
//! integer generation in an interval", ACM TOMS 2019): one widening
//! multiply in the common case, rejection probability `< n / 2^64`.

use crate::traits::{FromRng, RngCore};
use std::ops::{Range, RangeInclusive};

/// Uniform draw from `[0, n)` for `n ≥ 1`, unbiased.
#[inline]
pub(crate) fn below_u64<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n >= 1);
    let mut x = rng.next_u64();
    let mut m = (x as u128) * (n as u128);
    let mut low = m as u64;
    if low < n {
        // 2^64 mod n, computed without 128-bit division.
        let threshold = n.wrapping_neg() % n;
        while low < threshold {
            x = rng.next_u64();
            m = (x as u128) * (n as u128);
            low = m as u64;
        }
    }
    (m >> 64) as u64
}

/// Uniform draw from `[0, n)` for `n ≥ 1` at 128-bit width, unbiased
/// (bitmask rejection: no widening multiply exists for `u128`).
#[inline]
pub(crate) fn below_u128<R: RngCore + ?Sized>(rng: &mut R, n: u128) -> u128 {
    debug_assert!(n >= 1);
    if n <= u64::MAX as u128 {
        return below_u64(rng, n as u64) as u128;
    }
    let mask = u128::MAX >> (n - 1).leading_zeros();
    loop {
        let x = rng.next_u128() & mask;
        if x < n {
            return x;
        }
    }
}

/// Ranges usable with [`Rng::random_range`](crate::Rng::random_range).
pub trait SampleRange<T> {
    /// Draws one uniform value from the range. Panics if empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty as $u:ty => $below:ident),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as $u).wrapping_sub(self.start as $u);
                self.start.wrapping_add($below(rng, span as _) as $t)
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as $u).wrapping_sub(lo as $u).wrapping_add(1);
                if span == 0 {
                    // Full domain: every value of the type is fair game.
                    return <$t as FromRng>::from_rng(rng);
                }
                lo.wrapping_add($below(rng, span as _) as $t)
            }
        }
    )*};
}

impl_sample_range! {
    u8 as u64 => below_u64,
    u16 as u64 => below_u64,
    u32 as u64 => below_u64,
    u64 as u64 => below_u64,
    usize as u64 => below_u64,
    i8 as u8 => below_u64,
    i16 as u16 => below_u64,
    i32 as u32 => below_u64,
    i64 as u64 => below_u64,
    isize as usize => below_u64,
    u128 as u128 => below_u128,
    i128 as u128 => below_u128,
}

#[cfg(test)]
mod tests {
    use crate::rngs::StdRng;
    use crate::{Rng, SeedableRng};

    #[test]
    fn exclusive_and_inclusive_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let a = rng.random_range(3..17u64);
            assert!((3..17).contains(&a));
            let b = rng.random_range(3..=17usize);
            assert!((3..=17).contains(&b));
            let c = rng.random_range(-5..=5i64);
            assert!((-5..=5).contains(&c));
        }
    }

    #[test]
    fn singleton_inclusive_range_is_constant() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(rng.random_range(9..=9u32), 9);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        rng.random_range(5..5u64);
    }

    #[test]
    fn full_u64_range_works() {
        let mut rng = StdRng::seed_from_u64(4);
        // span wraps to 0: must take the full-domain path, not divide by 0.
        let _ = rng.random_range(0..=u64::MAX);
        let _ = rng.random_range(i64::MIN..=i64::MAX);
    }

    #[test]
    fn u128_spans_beyond_u64() {
        let mut rng = StdRng::seed_from_u64(5);
        let lo = 1u128 << 70;
        let hi = (1u128 << 70) + (1u128 << 66);
        for _ in 0..1_000 {
            let x = rng.random_range(lo..hi);
            assert!((lo..hi).contains(&x));
        }
    }
}
