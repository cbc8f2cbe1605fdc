//! Arbitrary-precision signed integers (sign–magnitude over [`BigUint`]).

use crate::{BigUint, ParseNumError};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Rem, Sub};
use std::str::FromStr;

/// Sign of a [`BigInt`]. Zero is always [`Sign::Zero`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Positive,
}

impl Sign {
    fn flip(self) -> Sign {
        match self {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        }
    }

    fn mul(self, other: Sign) -> Sign {
        match (self, other) {
            (Sign::Zero, _) | (_, Sign::Zero) => Sign::Zero,
            (a, b) if a == b => Sign::Positive,
            _ => Sign::Negative,
        }
    }
}

/// An arbitrary-precision signed integer.
///
/// Used as the numerator type of [`crate::Rational`]; most of the PQE
/// pipeline works with non-negative quantities, but rational arithmetic
/// (e.g. `1 − π(f)`) needs signed intermediates.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    mag: BigUint,
}

impl BigInt {
    /// The value `0`.
    pub fn zero() -> Self {
        BigInt {
            sign: Sign::Zero,
            mag: BigUint::zero(),
        }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigInt {
            sign: Sign::Positive,
            mag: BigUint::one(),
        }
    }

    /// Builds a `BigInt` from a sign and magnitude (canonicalizing zero).
    pub fn from_sign_magnitude(sign: Sign, mag: BigUint) -> Self {
        if mag.is_zero() {
            BigInt::zero()
        } else {
            assert!(sign != Sign::Zero, "non-zero magnitude with Zero sign");
            BigInt { sign, mag }
        }
    }

    /// The sign of this value.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The magnitude `|self|`.
    pub fn magnitude(&self) -> &BigUint {
        &self.mag
    }

    /// Returns `true` iff `self == 0`.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Returns `true` iff `self < 0`.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        BigInt::from_sign_magnitude(
            if self.is_zero() {
                Sign::Zero
            } else {
                Sign::Positive
            },
            self.mag.clone(),
        )
    }

    /// `self^exp` by binary exponentiation.
    pub fn pow(&self, exp: u32) -> BigInt {
        let mag = self.mag.pow(exp);
        let sign = if exp == 0 {
            Sign::Positive
        } else if self.sign == Sign::Negative && exp % 2 == 1 {
            Sign::Negative
        } else if self.is_zero() {
            Sign::Zero
        } else {
            Sign::Positive
        };
        BigInt::from_sign_magnitude(sign, mag)
    }

    /// Best-effort `f64` conversion (reporting only).
    pub fn to_f64(&self) -> f64 {
        let m = self.mag.to_f64();
        if self.is_negative() {
            -m
        } else {
            m
        }
    }
}

impl From<BigUint> for BigInt {
    fn from(mag: BigUint) -> Self {
        let sign = if mag.is_zero() {
            Sign::Zero
        } else {
            Sign::Positive
        };
        BigInt::from_sign_magnitude(sign, mag)
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        match v.cmp(&0) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => {
                BigInt::from_sign_magnitude(Sign::Positive, BigUint::from(v as u64))
            }
            Ordering::Less => {
                BigInt::from_sign_magnitude(Sign::Negative, BigUint::from(v.unsigned_abs()))
            }
        }
    }
}

impl From<u64> for BigInt {
    fn from(v: u64) -> Self {
        BigInt::from(BigUint::from(v))
    }
}

impl From<u32> for BigInt {
    fn from(v: u32) -> Self {
        BigInt::from(BigUint::from(v))
    }
}

impl From<i32> for BigInt {
    fn from(v: i32) -> Self {
        BigInt::from(v as i64)
    }
}

impl FromStr for BigInt {
    type Err = ParseNumError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(rest) = s.strip_prefix('-') {
            let mag = BigUint::from_decimal(rest)?;
            let sign = if mag.is_zero() {
                Sign::Zero
            } else {
                Sign::Negative
            };
            Ok(BigInt::from_sign_magnitude(sign, mag))
        } else {
            Ok(BigInt::from(BigUint::from_decimal(
                s.strip_prefix('+').unwrap_or(s),
            )?))
        }
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        use Sign::*;
        match (self.sign, other.sign) {
            (Negative, Negative) => other.mag.cmp(&self.mag),
            (Negative, _) => Ordering::Less,
            (Zero, Negative) => Ordering::Greater,
            (Zero, Zero) => Ordering::Equal,
            (Zero, Positive) => Ordering::Less,
            (Positive, Positive) => self.mag.cmp(&other.mag),
            (Positive, _) => Ordering::Greater,
        }
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt {
            sign: self.sign.flip(),
            mag: self.mag.clone(),
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt {
            sign: self.sign.flip(),
            mag: self.mag,
        }
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        use Sign::*;
        match (self.sign, rhs.sign) {
            (Zero, _) => rhs.clone(),
            (_, Zero) => self.clone(),
            (a, b) if a == b => BigInt::from_sign_magnitude(a, &self.mag + &rhs.mag),
            _ => match self.mag.cmp(&rhs.mag) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => BigInt::from_sign_magnitude(self.sign, &self.mag - &rhs.mag),
                Ordering::Less => BigInt::from_sign_magnitude(rhs.sign, &rhs.mag - &self.mag),
            },
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self + &(-rhs)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        BigInt::from_sign_magnitude(self.sign.mul(rhs.sign), &self.mag * &rhs.mag)
    }
}

/// Truncated division (rounds toward zero, like Rust's `/` on integers).
impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, rhs: &BigInt) -> BigInt {
        let (q, _) = self.mag.divrem(&rhs.mag);
        BigInt::from_sign_magnitude(self.sign.mul(rhs.sign), q)
    }
}

/// Remainder with the sign of the dividend (like Rust's `%`).
impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, rhs: &BigInt) -> BigInt {
        let (_, r) = self.mag.divrem(&rhs.mag);
        let sign = if r.is_zero() { Sign::Zero } else { self.sign };
        BigInt::from_sign_magnitude(sign, r)
    }
}

macro_rules! forward_value_ops_int {
    ($($trait:ident :: $m:ident),*) => {$(
        impl $trait for BigInt {
            type Output = BigInt;
            fn $m(self, rhs: BigInt) -> BigInt { $trait::$m(&self, &rhs) }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $m(self, rhs: &BigInt) -> BigInt { $trait::$m(&self, rhs) }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $m(self, rhs: BigInt) -> BigInt { $trait::$m(self, &rhs) }
        }
    )*};
}
forward_value_ops_int!(Add::add, Sub::sub, Mul::mul, Div::div, Rem::rem);

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "-{}", self.mag)
        } else {
            write!(f, "{}", self.mag)
        }
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(s: &str) -> BigInt {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(int("-123").to_string(), "-123");
        assert_eq!(int("+123").to_string(), "123");
        assert_eq!(int("-0").to_string(), "0");
        assert_eq!(int("-0").sign(), Sign::Zero);
    }

    #[test]
    fn signed_addition_cases() {
        assert_eq!((int("5") + int("-3")).to_string(), "2");
        assert_eq!((int("3") + int("-5")).to_string(), "-2");
        assert_eq!((int("-3") + int("-5")).to_string(), "-8");
        assert_eq!((int("5") + int("-5")).to_string(), "0");
        assert_eq!((int("0") + int("-5")).to_string(), "-5");
    }

    #[test]
    fn signed_subtraction() {
        assert_eq!((int("3") - int("10")).to_string(), "-7");
        assert_eq!((int("-3") - int("-10")).to_string(), "7");
    }

    #[test]
    fn signed_multiplication() {
        assert_eq!((int("-4") * int("6")).to_string(), "-24");
        assert_eq!((int("-4") * int("-6")).to_string(), "24");
        assert_eq!((int("-4") * int("0")).to_string(), "0");
    }

    #[test]
    fn truncated_div_rem() {
        assert_eq!((int("7") / int("2")).to_string(), "3");
        assert_eq!((int("-7") / int("2")).to_string(), "-3");
        assert_eq!((int("7") % int("-2")).to_string(), "1");
        assert_eq!((int("-7") % int("2")).to_string(), "-1");
    }

    #[test]
    fn pow_signs() {
        assert_eq!(int("-2").pow(3).to_string(), "-8");
        assert_eq!(int("-2").pow(4).to_string(), "16");
        assert_eq!(int("-2").pow(0).to_string(), "1");
        assert_eq!(int("0").pow(5).to_string(), "0");
    }

    #[test]
    fn ordering_across_signs() {
        assert!(int("-10") < int("-9"));
        assert!(int("-1") < int("0"));
        assert!(int("0") < int("1"));
        assert!(int("9") < int("10"));
    }
}
