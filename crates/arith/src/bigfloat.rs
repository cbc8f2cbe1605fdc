//! A wide-exponent floating-point type for FPRAS estimates.
//!
//! Approximate counts in the CountNFA/CountNFTA algorithms reach `2^{|D|}`
//! and beyond — far past `f64::MAX` — while only a few significant digits
//! matter (the estimate carries `(1±ε)` error anyway). `BigFloat` stores a
//! value as `mantissa × 2^exp` with an `f64` mantissa normalized into
//! `[1, 2)` and an `i64` exponent, giving ~15 significant digits over an
//! astronomically wide range at `f64` speed.

use crate::{BigUint, Rational};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A non-negative approximate real `mantissa × 2^exp` (see module docs).
///
/// Zero is represented canonically as `mantissa = 0, exp = 0`. Negative
/// values are not needed by the pipeline and are rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BigFloat {
    mantissa: f64,
    exp: i64,
}

impl BigFloat {
    /// The value `0`.
    pub fn zero() -> Self {
        BigFloat {
            mantissa: 0.0,
            exp: 0,
        }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigFloat {
            mantissa: 1.0,
            exp: 0,
        }
    }

    /// Whether this is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.mantissa == 0.0
    }

    /// Creates `mantissa × 2^exp`, normalizing. Panics on negative, NaN, or
    /// infinite mantissa.
    pub fn new(mantissa: f64, exp: i64) -> Self {
        assert!(
            mantissa.is_finite() && mantissa >= 0.0,
            "BigFloat mantissa must be finite and non-negative, got {mantissa}"
        );
        if mantissa == 0.0 {
            return Self::zero();
        }
        let (m, e) = normalize(mantissa);
        BigFloat {
            mantissa: m,
            exp: exp + e,
        }
    }

    /// Converts from `f64`. Panics on negative/NaN/infinite input.
    pub fn from_f64(v: f64) -> Self {
        Self::new(v, 0)
    }

    /// Converts from an exact big integer (rounded to ~53 bits).
    pub fn from_biguint(v: &BigUint) -> Self {
        let bits = v.bits();
        if bits == 0 {
            return Self::zero();
        }
        if bits <= 63 {
            return Self::from_f64(v.to_u64().unwrap() as f64);
        }
        let shift = bits - 63;
        let top = (v >> shift).to_u64().unwrap() as f64;
        Self::new(top, shift as i64)
    }

    /// Converts from an exact non-negative rational. Panics on negatives.
    pub fn from_rational(v: &Rational) -> Self {
        assert!(
            !v.numerator().is_negative(),
            "BigFloat::from_rational on negative value"
        );
        if v.is_zero() {
            return Self::zero();
        }
        let num = Self::from_biguint(v.numerator().magnitude());
        let den = Self::from_biguint(v.denominator());
        num / den
    }

    /// The pair `(mantissa, exp)` with `self = mantissa × 2^exp`: the
    /// mantissa lies in `[1, 2)`, or the pair is `(0.0, 0)` for zero.
    pub fn parts(&self) -> (f64, i64) {
        (self.mantissa, self.exp)
    }

    /// Best-effort `f64` (may overflow to `inf` / underflow to 0).
    pub fn to_f64(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        if self.exp > 1100 {
            return f64::INFINITY;
        }
        if self.exp < -1100 {
            return 0.0;
        }
        self.mantissa * 2f64.powi(self.exp as i32)
    }

    /// Rounds to the nearest big integer (values ≥ 2^62 keep only the top
    /// ~53 significant bits — consistent with the type's precision).
    pub fn to_biguint_round(&self) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let v = self.to_f64();
        if v.is_finite() && v < 9.0e18 {
            return BigUint::from(v.round() as u64);
        }
        // mantissa ∈ [1,2): scale into integer and shift.
        let scaled = (self.mantissa * 2f64.powi(52)) as u64;
        let shift = self.exp - 52;
        debug_assert!(shift > 0);
        &BigUint::from(scaled) << shift as u64
    }

    /// `log₂` of the value. Panics on zero.
    pub fn log2(&self) -> f64 {
        assert!(!self.is_zero(), "log2 of zero");
        self.mantissa.log2() + self.exp as f64
    }

    /// Multiplies by `2^k`.
    pub fn scale_exp(&self, k: i64) -> Self {
        if self.is_zero() {
            return *self;
        }
        BigFloat {
            mantissa: self.mantissa,
            exp: self.exp + k,
        }
    }

    /// The relative difference `|self − other| / max(other, tiny)` computed
    /// in a numerically safe way. Used by accuracy experiments.
    pub fn relative_error_to(&self, reference: &BigFloat) -> f64 {
        if reference.is_zero() {
            return if self.is_zero() { 0.0 } else { f64::INFINITY };
        }
        let ratio = (*self / *reference).to_f64();
        (ratio - 1.0).abs()
    }
}

/// `2^k` for `k ∈ [-1022, 1023]`, written straight into the exponent
/// field. Exact, so bit-equal to `2f64.powi(k)` over that range, without
/// the `powi` call on the hot path.
#[inline]
fn pow2(k: i64) -> f64 {
    debug_assert!((-1022..=1023).contains(&k));
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// Bits of an `f64`'s fraction field.
const FRACTION_BITS: u64 = (1 << 52) - 1;

fn normalize(m: f64) -> (f64, i64) {
    debug_assert!(m > 0.0 && m.is_finite());
    // m = 1.f × 2^e: the exponent field holds e + 1023.
    let bits = m.to_bits();
    let raw_exp = ((bits >> 52) & 0x7FF) as i64;
    if raw_exp == 0 {
        // Subnormal: renormalize by multiplying up (exact).
        let (nm, ne) = normalize(m * pow2(200));
        return (nm, ne - 200);
    }
    // Resetting the exponent field to the bias leaves 1.f: the exact
    // quotient m / 2^e, bit for bit.
    (
        f64::from_bits((bits & FRACTION_BITS) | (1023 << 52)),
        raw_exp - 1023,
    )
}

impl Add for BigFloat {
    type Output = BigFloat;
    fn add(self, rhs: BigFloat) -> BigFloat {
        if self.is_zero() {
            return rhs;
        }
        if rhs.is_zero() {
            return self;
        }
        let (hi, lo) = if self.exp >= rhs.exp {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let shift = hi.exp - lo.exp;
        if shift > 64 {
            return hi; // lo vanishes at this precision
        }
        BigFloat::new(hi.mantissa + lo.mantissa * pow2(-shift), hi.exp)
    }
}

impl Sub for BigFloat {
    type Output = BigFloat;
    /// Saturating subtraction (clamps at zero): estimates are non-negative.
    fn sub(self, rhs: BigFloat) -> BigFloat {
        if rhs.is_zero() {
            return self;
        }
        if self <= rhs {
            return BigFloat::zero();
        }
        let shift = self.exp - rhs.exp;
        if shift > 64 {
            return self;
        }
        BigFloat::new(self.mantissa - rhs.mantissa * pow2(-shift), self.exp)
    }
}

impl Mul for BigFloat {
    type Output = BigFloat;
    fn mul(self, rhs: BigFloat) -> BigFloat {
        if self.is_zero() || rhs.is_zero() {
            return BigFloat::zero();
        }
        BigFloat::new(self.mantissa * rhs.mantissa, self.exp + rhs.exp)
    }
}

impl Div for BigFloat {
    type Output = BigFloat;
    fn div(self, rhs: BigFloat) -> BigFloat {
        assert!(!rhs.is_zero(), "BigFloat division by zero");
        if self.is_zero() {
            return BigFloat::zero();
        }
        BigFloat::new(self.mantissa / rhs.mantissa, self.exp - rhs.exp)
    }
}

impl Mul<f64> for BigFloat {
    type Output = BigFloat;
    fn mul(self, rhs: f64) -> BigFloat {
        self * BigFloat::from_f64(rhs)
    }
}

impl PartialOrd for BigFloat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match (self.is_zero(), other.is_zero()) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => match self.exp.cmp(&other.exp) {
                Ordering::Equal => self.mantissa.partial_cmp(&other.mantissa),
                ord => Some(ord),
            },
        }
    }
}

impl fmt::Display for BigFloat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Convert to decimal scientific notation: value = 10^d.
        let d = self.log2() * std::f64::consts::LOG10_2;
        let exp10 = d.floor() as i64;
        let frac = 10f64.powf(d - exp10 as f64);
        write!(f, "{frac:.6}e{exp10}")
    }
}

impl std::iter::Sum for BigFloat {
    fn sum<I: Iterator<Item = BigFloat>>(iter: I) -> BigFloat {
        iter.fold(BigFloat::zero(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arithmetic_matches_f64() {
        let a = BigFloat::from_f64(3.5);
        let b = BigFloat::from_f64(2.0);
        assert_eq!((a + b).to_f64(), 5.5);
        assert_eq!((a * b).to_f64(), 7.0);
        assert_eq!((a / b).to_f64(), 1.75);
        assert_eq!((a - b).to_f64(), 1.5);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = BigFloat::from_f64(1.0);
        let b = BigFloat::from_f64(2.0);
        assert!((a - b).is_zero());
    }

    #[test]
    fn huge_values_survive() {
        // 2^10000: overflows f64 but not BigFloat.
        let mut v = BigFloat::one();
        let two = BigFloat::from_f64(2.0);
        for _ in 0..10_000 {
            v = v * two;
        }
        assert!((v.log2() - 10_000.0).abs() < 1e-6);
        assert_eq!(v.to_f64(), f64::INFINITY);
        let half = BigFloat::from_f64(0.5);
        for _ in 0..10_000 {
            v = v * half;
        }
        assert!((v.to_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn add_across_scales() {
        let big = BigFloat::new(1.0, 100);
        let small = BigFloat::new(1.0, 0);
        let sum = big + small;
        assert!((sum.log2() - 100.0).abs() < 1e-9);
        // Adding something within 64 binary orders is visible.
        let near = BigFloat::new(1.0, 99);
        assert!((big + near).log2() > 100.5);
    }

    #[test]
    fn from_biguint_roundtrip() {
        let v = BigUint::from(2u32).pow(200);
        let f = BigFloat::from_biguint(&v);
        assert!((f.log2() - 200.0).abs() < 1e-9);
        let back = f.to_biguint_round();
        // Same magnitude and top bits.
        assert_eq!(back.bits(), v.bits());
        let small = BigUint::from(123456u32);
        assert_eq!(
            BigFloat::from_biguint(&small).to_biguint_round().to_u64(),
            Some(123456)
        );
    }

    #[test]
    fn from_rational_probabilities() {
        let p = Rational::from_ratio(3, 4);
        assert!((BigFloat::from_rational(&p).to_f64() - 0.75).abs() < 1e-12);
        assert!(BigFloat::from_rational(&Rational::zero()).is_zero());
    }

    #[test]
    fn ordering() {
        assert!(BigFloat::new(1.5, 10) > BigFloat::new(1.9, 9));
        assert!(BigFloat::zero() < BigFloat::one());
        assert!(BigFloat::new(1.2, 5) < BigFloat::new(1.3, 5));
    }

    #[test]
    fn relative_error() {
        let a = BigFloat::from_f64(105.0);
        let b = BigFloat::from_f64(100.0);
        assert!((a.relative_error_to(&b) - 0.05).abs() < 1e-12);
        assert_eq!(BigFloat::zero().relative_error_to(&BigFloat::zero()), 0.0);
    }

    #[test]
    fn display_scientific() {
        let v = BigFloat::new(1.0, 40); // 2^40 ≈ 1.0995e12
        let s = v.to_string();
        assert!(s.ends_with("e12"), "{s}");
    }

    /// The `powi` forms `normalize`, `Add` and `Sub` used before the
    /// exponent-field scaling, kept as the bit-equality reference.
    fn normalize_powi(m: f64) -> (f64, i64) {
        let bits = m.to_bits();
        let raw_exp = ((bits >> 52) & 0x7FF) as i64;
        if raw_exp == 0 {
            let scaled = m * 2f64.powi(200);
            let (nm, ne) = normalize_powi(scaled);
            return (nm, ne - 200);
        }
        let e = raw_exp - 1023;
        (m / 2f64.powi(e as i32), e)
    }

    fn new_powi(mantissa: f64, exp: i64) -> BigFloat {
        if mantissa == 0.0 {
            return BigFloat::zero();
        }
        let (m, e) = normalize_powi(mantissa);
        BigFloat {
            mantissa: m,
            exp: exp + e,
        }
    }

    fn add_powi(a: BigFloat, b: BigFloat) -> BigFloat {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let (hi, lo) = if a.exp >= b.exp { (a, b) } else { (b, a) };
        let shift = hi.exp - lo.exp;
        if shift > 64 {
            return hi;
        }
        new_powi(hi.mantissa + lo.mantissa / 2f64.powi(shift as i32), hi.exp)
    }

    fn sub_powi(a: BigFloat, b: BigFloat) -> BigFloat {
        if b.is_zero() {
            return a;
        }
        if a <= b {
            return BigFloat::zero();
        }
        let shift = a.exp - b.exp;
        if shift > 64 {
            return a;
        }
        new_powi(a.mantissa - b.mantissa / 2f64.powi(shift as i32), a.exp)
    }

    fn bits(v: BigFloat) -> (u64, i64) {
        (v.mantissa.to_bits(), v.exp)
    }

    /// splitmix64: a dependency-free stream of test inputs.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn normalize_is_bit_equal_to_the_powi_form() {
        let mut inputs = vec![
            f64::from_bits(1),             // smallest subnormal
            f64::from_bits(FRACTION_BITS), // largest subnormal
            f64::MIN_POSITIVE,
            1.0,
            1.0 - f64::EPSILON / 2.0,
            2.0 - f64::EPSILON,
            3.0,
            f64::MAX,
        ];
        let mut state = 7u64;
        for _ in 0..20_000 {
            let r = next(&mut state);
            // Half subnormal (exponent field 0), half any positive finite.
            let v = if r & 1 == 0 {
                f64::from_bits(r >> 12)
            } else {
                f64::from_bits(r >> 1)
            };
            if v > 0.0 && v.is_finite() {
                inputs.push(v);
            }
        }
        for m in inputs {
            let (a, ea) = normalize(m);
            let (b, eb) = normalize_powi(m);
            assert_eq!((a.to_bits(), ea), (b.to_bits(), eb), "normalize({m:e})");
        }
    }

    #[test]
    fn add_and_sub_are_bit_equal_to_the_powi_forms() {
        let mut state = 11u64;
        let mantissa = |state: &mut u64| 1.0 + (next(state) >> 12) as f64 / (1u64 << 52) as f64;
        let shifts = [0i64, 1, 2, 51, 52, 53, 63, 64, 65, 66, 200];
        for round in 0..4_000 {
            let shift = if round < shifts.len() * 100 {
                shifts[round % shifts.len()]
            } else {
                (next(&mut state) % 70) as i64
            };
            let base = (next(&mut state) % 2001) as i64 - 1000;
            let hi = BigFloat::new(mantissa(&mut state), base + shift);
            let lo = if round % 97 == 0 {
                BigFloat::zero()
            } else {
                BigFloat::new(mantissa(&mut state), base)
            };
            for (a, b) in [(hi, lo), (lo, hi), (hi, hi), (lo, lo)] {
                assert_eq!(bits(a + b), bits(add_powi(a, b)), "{a:?} + {b:?}");
                assert_eq!(bits(a - b), bits(sub_powi(a, b)), "{a:?} - {b:?}");
            }
            // Subnormal mantissas through the constructor, too.
            let sub = f64::from_bits(next(&mut state) >> 13 | 1);
            assert_eq!(bits(BigFloat::new(sub, base)), bits(new_powi(sub, base)));
        }
    }

    #[test]
    fn sum_iterator() {
        let total: BigFloat = (1..=4).map(|i| BigFloat::from_f64(i as f64)).sum();
        assert_eq!(total.to_f64(), 10.0);
    }
}
