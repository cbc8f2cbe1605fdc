//! Arbitrary-precision rationals.
//!
//! Fact probabilities in a probabilistic database are rationals
//! `π(f) = w/d ∈ [0,1] ∩ ℚ` (paper §2); query probabilities are sums of
//! products of those, so they stay rational and we compute them exactly
//! wherever an exact method applies. The FPRAS result itself is also
//! reported as a `Rational` (`d⁻¹ · CountNFTA(k, T')`, §5.2).

use crate::{BigInt, BigUint, ParseNumError, Sign};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};
use std::str::FromStr;

/// An exact rational number `num / den`, always normalized: `den > 0`,
/// `gcd(|num|, den) = 1`, and zero is `0/1`.
///
/// Every constructor normalizes, and every operation takes normalized
/// operands to a normalized result. Two operations lean on that invariant
/// to skip the gcd of the full result, whose cost grows with the square
/// of the operands' length:
///
/// * `a/b · c/d` cancels `gcd(a, d)` and `gcd(c, b)` *before*
///   multiplying (each gcd pairs one operand's numerator with the other's
///   denominator, typically a long number against a short one); the
///   reduced product is normalized because `gcd(a, b) = gcd(c, d) = 1`;
/// * `1 − n/d = (d − n)/d` needs no gcd at all, since
///   `gcd(d − n, d) = gcd(n, d) = 1`.
///
/// The results are the same normalized values a full gcd would give, so
/// the normalized form (and every printed digit) is unchanged.
///
/// ```
/// use pqe_arith::Rational;
/// let p: Rational = "3/10".parse().unwrap();
/// let q: Rational = "1/5".parse().unwrap();
/// assert_eq!((&p * &q).to_string(), "3/50");
/// assert_eq!(p.complement().to_string(), "7/10"); // 1 - 3/10
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    num: BigInt,
    den: BigUint,
}

impl Rational {
    /// The value `0`.
    pub fn zero() -> Self {
        Rational {
            num: BigInt::zero(),
            den: BigUint::one(),
        }
    }

    /// The value `1`.
    pub fn one() -> Self {
        Rational {
            num: BigInt::one(),
            den: BigUint::one(),
        }
    }

    /// Creates `num / den`, normalizing. Panics if `den == 0`.
    pub fn new(num: BigInt, den: BigUint) -> Self {
        assert!(!den.is_zero(), "rational with zero denominator");
        let mut r = Rational { num, den };
        r.normalize();
        r
    }

    /// Creates `num / den` from machine integers. Panics if `den == 0`.
    pub fn from_ratio(num: i64, den: u64) -> Self {
        Rational::new(BigInt::from(num), BigUint::from(den))
    }

    /// Creates the integer `n`.
    pub fn from_int(n: i64) -> Self {
        Rational {
            num: BigInt::from(n),
            den: BigUint::one(),
        }
    }

    fn normalize(&mut self) {
        if self.num.is_zero() {
            self.den = BigUint::one();
            return;
        }
        let g = self.num.magnitude().gcd(&self.den);
        if !g.is_one() {
            let mag = self.num.magnitude() / &g;
            self.num = BigInt::from_sign_magnitude(self.num.sign(), mag);
            self.den = &self.den / &g;
        }
    }

    /// The (normalized) numerator.
    pub fn numerator(&self) -> &BigInt {
        &self.num
    }

    /// The (normalized, strictly positive) denominator.
    pub fn denominator(&self) -> &BigUint {
        &self.den
    }

    /// Returns `true` iff `self == 0`.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Returns `true` iff `self == 1`.
    pub fn is_one(&self) -> bool {
        self.den.is_one() && self.num == BigInt::one()
    }

    /// Returns `true` iff `0 ≤ self ≤ 1` — i.e. `self` is a valid
    /// probability.
    pub fn is_probability(&self) -> bool {
        !self.num.is_negative() && self.num.magnitude() <= &self.den
    }

    /// `1 − self`, the probability of the complementary event: `(d − n)/d`,
    /// normalized without a gcd (see the type docs).
    pub fn complement(&self) -> Rational {
        let num = &BigInt::from(self.den.clone()) - &self.num;
        if num.is_zero() {
            return Rational::zero();
        }
        Rational {
            num,
            den: self.den.clone(),
        }
    }

    /// Multiplicative inverse. Panics on zero. Swapping the parts of a
    /// normalized rational keeps it normalized, so no gcd runs.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        Rational {
            num: BigInt::from_sign_magnitude(self.num.sign(), self.den.clone()),
            den: self.num.magnitude().clone(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// Best-effort `f64` approximation (for reporting).
    ///
    /// Computed from the top bits of numerator and denominator so that even
    /// astronomically large operands give a sensible result.
    pub fn to_f64(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        let nb = self.num.magnitude().bits() as i64;
        let db = self.den.bits() as i64;
        // Scale both into the u64 range, tracking the exponent shift.
        let nshift = (nb - 63).max(0) as u64;
        let dshift = (db - 63).max(0) as u64;
        let ntop = (self.num.magnitude() >> nshift).to_u64().unwrap() as f64;
        let dtop = (&self.den >> dshift).to_u64().unwrap() as f64;
        let v = ntop / dtop * 2f64.powi((nshift as i64 - dshift as i64) as i32);
        if self.num.is_negative() {
            -v
        } else {
            v
        }
    }

    /// `self^exp` by binary exponentiation (on normalized parts).
    pub fn pow(&self, exp: u32) -> Rational {
        Rational {
            num: self.num.pow(exp),
            den: self.den.pow(exp),
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from_int(v)
    }
}

impl From<u32> for Rational {
    fn from(v: u32) -> Self {
        Rational::from_int(v as i64)
    }
}

impl From<BigUint> for Rational {
    fn from(v: BigUint) -> Self {
        Rational {
            num: BigInt::from(v),
            den: BigUint::one(),
        }
    }
}

impl FromStr for Rational {
    type Err = ParseNumError;

    /// Parses `"num"`, `"num/den"`, or decimal `"0.25"` forms.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some((n, d)) = s.split_once('/') {
            let num: BigInt = n.trim().parse()?;
            let den = BigUint::from_decimal(d.trim())?;
            if den.is_zero() {
                return Err(ParseNumError::zero_denominator());
            }
            Ok(Rational::new(num, den))
        } else if let Some((i, frac)) = s.split_once('.') {
            let neg = i.trim_start().starts_with('-');
            let int_part: BigInt = if i.is_empty() || i == "-" {
                BigInt::zero()
            } else {
                i.trim().parse()?
            };
            let frac_digits = frac.trim();
            let frac_num = BigUint::from_decimal(frac_digits)?;
            let scale = BigUint::from(10u32).pow(frac_digits.len() as u32);
            let mag = &(int_part.magnitude() * &scale) + &frac_num;
            let sign = if mag.is_zero() {
                Sign::Zero
            } else if neg {
                Sign::Negative
            } else {
                Sign::Positive
            };
            Ok(Rational::new(BigInt::from_sign_magnitude(sign, mag), scale))
        } else {
            Ok(Rational {
                num: s.trim().parse()?,
                den: BigUint::one(),
            })
        }
    }
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        let num =
            &self.num * &BigInt::from(rhs.den.clone()) + &rhs.num * &BigInt::from(self.den.clone());
        Rational::new(num, &self.den * &rhs.den)
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        self + &(-rhs)
    }
}

impl Mul for &Rational {
    type Output = Rational;
    /// Cross-cancelling product: `(a/g₁)(c/g₂) / ((b/g₂)(d/g₁))` with
    /// `g₁ = gcd(a, d)`, `g₂ = gcd(c, b)` — normalized with no gcd of the
    /// full product (see the type docs).
    fn mul(self, rhs: &Rational) -> Rational {
        if self.is_zero() || rhs.is_zero() {
            return Rational::zero();
        }
        let (a, b) = (self.num.magnitude(), &self.den);
        let (c, d) = (rhs.num.magnitude(), &rhs.den);
        let g1 = a.gcd(d);
        let g2 = c.gcd(b);
        let num = &*cancel(a, &g1) * &*cancel(c, &g2);
        let den = &*cancel(b, &g2) * &*cancel(d, &g1);
        let sign = if self.num.sign() == rhs.num.sign() {
            Sign::Positive
        } else {
            Sign::Negative
        };
        Rational {
            num: BigInt::from_sign_magnitude(sign, num),
            den,
        }
    }
}

/// `x / g`, borrowing `x` when `g = 1`.
fn cancel<'a>(x: &'a BigUint, g: &BigUint) -> std::borrow::Cow<'a, BigUint> {
    if g.is_one() {
        std::borrow::Cow::Borrowed(x)
    } else {
        std::borrow::Cow::Owned(x / g)
    }
}

impl Div for &Rational {
    type Output = Rational;
    #[allow(clippy::suspicious_arithmetic_impl)] // division as a·b⁻¹ is the definition here
    fn div(self, rhs: &Rational) -> Rational {
        self * &rhs.recip()
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -&self.num,
            den: self.den.clone(),
        }
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

macro_rules! forward_value_ops_rat {
    ($($trait:ident :: $m:ident),*) => {$(
        impl $trait for Rational {
            type Output = Rational;
            fn $m(self, rhs: Rational) -> Rational { $trait::$m(&self, &rhs) }
        }
        impl $trait<&Rational> for Rational {
            type Output = Rational;
            fn $m(self, rhs: &Rational) -> Rational { $trait::$m(&self, rhs) }
        }
        impl $trait<Rational> for &Rational {
            type Output = Rational;
            fn $m(self, rhs: Rational) -> Rational { $trait::$m(self, &rhs) }
        }
    )*};
}
forward_value_ops_rat!(Add::add, Sub::sub, Mul::mul, Div::div);

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d  <=>  a*d vs c*b   (b, d > 0)
        let lhs = &self.num * &BigInt::from(other.den.clone());
        let rhs = &other.num * &BigInt::from(self.den.clone());
        lhs.cmp(&rhs)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rat(s: &str) -> Rational {
        s.parse().unwrap()
    }

    #[test]
    fn normalization() {
        assert_eq!(rat("4/8").to_string(), "1/2");
        assert_eq!(rat("-4/8").to_string(), "-1/2");
        assert_eq!(rat("0/7").to_string(), "0");
        assert_eq!(rat("8/4").to_string(), "2");
    }

    #[test]
    fn decimal_parsing() {
        assert_eq!(rat("0.25").to_string(), "1/4");
        assert_eq!(rat("-0.5").to_string(), "-1/2");
        assert_eq!(rat("1.75").to_string(), "7/4");
        assert_eq!(rat("0.0").to_string(), "0");
    }

    #[test]
    fn field_ops() {
        assert_eq!((rat("1/2") + rat("1/3")).to_string(), "5/6");
        assert_eq!((rat("1/2") - rat("1/3")).to_string(), "1/6");
        assert_eq!((rat("2/3") * rat("3/4")).to_string(), "1/2");
        assert_eq!((rat("1/2") / rat("1/4")).to_string(), "2");
    }

    #[test]
    fn complement_is_one_minus() {
        assert_eq!(rat("3/10").complement().to_string(), "7/10");
        assert_eq!(rat("0").complement().to_string(), "1");
        assert_eq!(rat("1").complement().to_string(), "0");
    }

    #[test]
    fn probability_range_check() {
        assert!(rat("0").is_probability());
        assert!(rat("1").is_probability());
        assert!(rat("999/1000").is_probability());
        assert!(!rat("-1/2").is_probability());
        assert!(!rat("3/2").is_probability());
    }

    #[test]
    fn ordering() {
        assert!(rat("1/3") < rat("1/2"));
        assert!(rat("-1/2") < rat("-1/3"));
        assert!(rat("2/4") == rat("1/2"));
    }

    #[test]
    fn to_f64_accuracy() {
        assert!((rat("1/3").to_f64() - 1.0 / 3.0).abs() < 1e-12);
        // Huge numerator/denominator still approximates well.
        let big = Rational::new(
            BigInt::from(BigUint::from(2u32).pow(200)),
            BigUint::from(3u32).pow(130),
        );
        let expected = 200.0 * 2f64.ln() - 130.0 * 3f64.ln();
        assert!((big.to_f64().ln() - expected).abs() < 1e-9);
    }

    #[test]
    fn recip_and_pow() {
        assert_eq!(rat("3/7").recip().to_string(), "7/3");
        assert_eq!(rat("-3/7").recip().to_string(), "-7/3");
        assert_eq!(rat("2/3").pow(3).to_string(), "8/27");
        assert_eq!(rat("2/3").pow(0).to_string(), "1");
    }

    #[test]
    fn parse_rejects_zero_denominator() {
        assert!("1/0".parse::<Rational>().is_err());
    }
}
