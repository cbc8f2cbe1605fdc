//! Arbitrary-precision unsigned integers.
//!
//! Little-endian `u32` limbs with the invariant that the highest limb is
//! non-zero (the canonical representation of zero is an empty limb vector).
//! All arithmetic uses `u64` intermediates, so no `unsafe` and no overflow.

use crate::ParseNumError;
use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::ops::{Add, AddAssign, BitAnd, Div, Mul, MulAssign, Rem, Shl, Shr, Sub, SubAssign};
use std::str::FromStr;

const BASE_BITS: u32 = 32;

/// An arbitrary-precision unsigned integer.
///
/// The workhorse number type of the workspace: tree counts, reliability
/// counts, and probability numerators/denominators are all `BigUint`s.
///
/// ```
/// use pqe_arith::BigUint;
/// let a = BigUint::from(u64::MAX);
/// let b = &a * &a;
/// assert_eq!(b.to_string(), "340282366920938463426481119284349108225");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs; no trailing zero limb.
    limbs: Vec<u32>,
}

impl BigUint {
    /// The value `0`.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Returns `true` iff `self == 0`.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` iff `self == 1`.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Constructs a value from little-endian `u32` limbs (trailing zeros ok).
    pub fn from_limbs(mut limbs: Vec<u32>) -> Self {
        trim_limbs(&mut limbs);
        BigUint { limbs }
    }

    /// The number of significant bits (`0` has bit-length `0`).
    pub fn bits(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => {
                (self.limbs.len() as u64 - 1) * BASE_BITS as u64
                    + (BASE_BITS - top.leading_zeros()) as u64
            }
        }
    }

    /// Returns bit `i` (little-endian position), `false` beyond the length.
    pub fn bit(&self, i: u64) -> bool {
        let limb = (i / BASE_BITS as u64) as usize;
        let off = (i % BASE_BITS as u64) as u32;
        self.limbs.get(limb).is_some_and(|&l| (l >> off) & 1 == 1)
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u64),
            2 => Some(self.limbs[0] as u64 | (self.limbs[1] as u64) << 32),
            _ => None,
        }
    }

    /// Converts to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        if self.limbs.len() > 4 {
            return None;
        }
        let mut v: u128 = 0;
        for (i, &l) in self.limbs.iter().enumerate() {
            v |= (l as u128) << (32 * i);
        }
        Some(v)
    }

    /// Correctly rounded (nearest-even) conversion to `f64`; values beyond
    /// the finite range map to `f64::INFINITY`. Used only for reporting,
    /// never for logic.
    pub fn to_f64(&self) -> f64 {
        let bits = self.bits();
        if bits == 0 {
            return 0.0;
        }
        if bits <= 64 {
            return self.to_u64().unwrap() as f64;
        }
        // Take the top 64 bits — bit 63 is set, so bit 0 of the window sits
        // below f64's 53-bit mantissa and only ever participates in
        // tie-breaking. Folding every dropped low bit into it as a sticky
        // bit makes the (correctly rounded) u64 → f64 cast round the *whole*
        // integer to nearest-even; the power-of-two scale is exact.
        let shift = bits - 64;
        let mut top = (self >> shift).to_u64().unwrap();
        let whole = (shift / BASE_BITS as u64) as usize;
        let rem = (shift % BASE_BITS as u64) as u32;
        let sticky = self.limbs[..whole].iter().any(|&l| l != 0)
            || (rem > 0 && self.limbs[whole] & ((1u32 << rem) - 1) != 0);
        if sticky {
            top |= 1;
        }
        if shift > f64::MAX_EXP as u64 {
            return f64::INFINITY;
        }
        (top as f64) * 2f64.powi(shift as i32)
    }

    /// `self^exp` by binary exponentiation.
    pub fn pow(&self, mut exp: u32) -> BigUint {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Greatest common divisor; `gcd(0, 0) = 0`.
    ///
    /// Euclid (`%`) steps while the operands' limb lengths differ by more
    /// than one, and binary GCD (subtract and shift, in place, on odd
    /// operands) while they are of similar size. An operand of 1 stops the
    /// loop at once, and operands that fit a `u64` finish in hardware. So
    /// the common case of a rational product — a long numerator against a
    /// short denominator, or against a power of two — costs one pass over
    /// the long operand, not one round per bit.
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let (hi, lo) = if self >= other {
            (self, other)
        } else {
            (other, self)
        };
        if lo.is_zero() {
            return hi.clone();
        }
        if lo.is_one() {
            return BigUint::one();
        }
        // gcd(hi, lo) = gcd(lo, hi mod lo): reduce a long operand without
        // cloning it first.
        let (mut a, mut b) = if hi.limbs.len() > lo.limbs.len() + 1 {
            (lo.clone(), hi % lo)
        } else {
            (hi.clone(), lo.clone())
        };
        if b.is_zero() {
            return a;
        }
        let (az, bz) = (a.trailing_zeros(), b.trailing_zeros());
        let common = az.min(bz);
        shr_assign_limbs(&mut a.limbs, az);
        shr_assign_limbs(&mut b.limbs, bz);
        // Both odd from here on: the common power of two is set aside, and
        // gcd(odd, r) = gcd(odd, r / 2^k).
        let odd = loop {
            if a < b {
                std::mem::swap(&mut a, &mut b);
            }
            if a == b || b.is_one() {
                break b;
            }
            if let (Some(x), Some(y)) = (a.to_u64(), b.to_u64()) {
                break BigUint::from(gcd_u64(x, y));
            }
            if a.limbs.len() > b.limbs.len() + 1 {
                a = &a % &b;
                if a.is_zero() {
                    break b;
                }
            } else {
                sub_assign_limbs(&mut a.limbs, &b.limbs);
            }
            let tz = a.trailing_zeros();
            shr_assign_limbs(&mut a.limbs, tz);
        };
        &odd << common
    }

    /// Number of trailing zero bits. Panics on zero.
    pub fn trailing_zeros(&self) -> u64 {
        assert!(!self.is_zero(), "trailing_zeros of zero");
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return i as u64 * BASE_BITS as u64 + l.trailing_zeros() as u64;
            }
        }
        unreachable!()
    }

    /// Checked subtraction: `None` if `other > self`.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            None
        } else {
            Some(self - other)
        }
    }

    /// Simultaneous quotient and remainder. Panics on division by zero.
    pub fn divrem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.divrem_small(divisor.limbs[0]);
            return (q, BigUint::from(r));
        }
        // Both operands fit u64 (≤ 2 limbs): hardware division beats Knuth's
        // normalize/shift machinery.
        if let (Some(a), Some(b)) = (self.to_u64(), divisor.to_u64()) {
            return (BigUint::from(a / b), BigUint::from(a % b));
        }
        self.divrem_knuth(divisor)
    }

    /// Division by a single limb; returns `(quotient, remainder)`.
    fn divrem_small(&self, d: u32) -> (BigUint, u32) {
        debug_assert!(d != 0);
        let d = d as u64;
        let mut rem: u64 = 0;
        let mut q = vec![0u32; self.limbs.len()];
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 32) | self.limbs[i] as u64;
            q[i] = (cur / d) as u32;
            rem = cur % d;
        }
        (BigUint::from_limbs(q), rem as u32)
    }

    /// Knuth Algorithm D (TAOCP vol. 2, 4.3.1) for multi-limb divisors.
    fn divrem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        let shift = divisor.limbs.last().unwrap().leading_zeros() as u64;
        let v = divisor << shift;
        let mut u = (self << shift).limbs;
        let n = v.limbs.len();
        let m = u.len() - n;
        u.push(0); // u has m + n + 1 limbs
        let vn = &v.limbs;
        let mut q = vec![0u32; m + 1];
        let b: u64 = 1 << 32;

        for j in (0..=m).rev() {
            let top = ((u[j + n] as u64) << 32) | u[j + n - 1] as u64;
            let mut qhat = top / vn[n - 1] as u64;
            let mut rhat = top % vn[n - 1] as u64;
            while qhat >= b || qhat * vn[n - 2] as u64 > (rhat << 32) | u[j + n - 2] as u64 {
                qhat -= 1;
                rhat += vn[n - 1] as u64;
                if rhat >= b {
                    break;
                }
            }
            // Multiply-subtract qhat * v from u[j .. j+n+1].
            let mut borrow: i64 = 0;
            let mut carry: u64 = 0;
            for i in 0..n {
                let p = qhat * vn[i] as u64 + carry;
                carry = p >> 32;
                let t = u[j + i] as i64 - borrow - (p & 0xFFFF_FFFF) as i64;
                u[j + i] = t as u32; // wraps modulo 2^32
                borrow = if t < 0 { 1 } else { 0 };
            }
            let t = u[j + n] as i64 - borrow - carry as i64;
            u[j + n] = t as u32;
            if t < 0 {
                // qhat was one too large: add back.
                qhat -= 1;
                let mut carry: u64 = 0;
                for i in 0..n {
                    let s = u[j + i] as u64 + vn[i] as u64 + carry;
                    u[j + i] = s as u32;
                    carry = s >> 32;
                }
                u[j + n] = (u[j + n] as u64).wrapping_add(carry) as u32;
            }
            q[j] = qhat as u32;
        }
        let rem = BigUint::from_limbs(u[..n].to_vec());
        (BigUint::from_limbs(q), &rem >> shift)
    }

    /// Parses a decimal string.
    pub fn from_decimal(s: &str) -> Result<BigUint, ParseNumError> {
        if s.is_empty() {
            return Err(ParseNumError::empty());
        }
        // Checked up front, so the byte chunks below never split a
        // multi-byte character.
        if let Some(c) = s.chars().find(|c| !c.is_ascii_digit()) {
            return Err(ParseNumError::invalid(c));
        }
        let mut acc = BigUint::zero();
        let ten_pow9 = BigUint::from(1_000_000_000u32);
        let bytes = s.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let chunk_len = (bytes.len() - i).min(9);
            let v = bytes[i..i + chunk_len]
                .iter()
                .fold(0u32, |v, b| v * 10 + u32::from(b - b'0'));
            let scale = if chunk_len == 9 {
                ten_pow9.clone()
            } else {
                BigUint::from(10u32.pow(chunk_len as u32))
            };
            acc = &(&acc * &scale) + &BigUint::from(v);
            i += chunk_len;
        }
        Ok(acc)
    }
}

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from_limbs(vec![v])
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_limbs(vec![v as u32, (v >> 32) as u32])
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_limbs(vec![
            v as u32,
            (v >> 32) as u32,
            (v >> 64) as u32,
            (v >> 96) as u32,
        ])
    }
}

impl From<usize> for BigUint {
    fn from(v: usize) -> Self {
        BigUint::from(v as u64)
    }
}

impl FromStr for BigUint {
    type Err = ParseNumError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BigUint::from_decimal(s)
    }
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// ---------------------------------------------------------------------------
// Core limb algorithms
// ---------------------------------------------------------------------------

#[allow(clippy::needless_range_loop)]
fn add_limbs(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry: u64 = 0;
    for i in 0..long.len() {
        let s = long[i] as u64 + short.get(i).copied().unwrap_or(0) as u64 + carry;
        out.push(s as u32);
        carry = s >> 32;
    }
    if carry != 0 {
        out.push(carry as u32);
    }
    out
}

/// Requires `a >= b` limb-wise value.
#[allow(clippy::needless_range_loop)]
fn sub_limbs(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len());
    let mut borrow: i64 = 0;
    for i in 0..a.len() {
        let d = a[i] as i64 - b.get(i).copied().unwrap_or(0) as i64 - borrow;
        if d < 0 {
            out.push((d + (1i64 << 32)) as u32);
            borrow = 1;
        } else {
            out.push(d as u32);
            borrow = 0;
        }
    }
    debug_assert_eq!(borrow, 0, "subtraction underflow");
    out
}

/// Binary GCD of two machine words (Stein's algorithm).
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `a -= b` in place. Requires `a >= b`.
fn sub_assign_limbs(a: &mut Vec<u32>, b: &[u32]) {
    let mut borrow = false;
    for (i, ai) in a.iter_mut().enumerate() {
        if i >= b.len() && !borrow {
            break;
        }
        let (d, o1) = ai.overflowing_sub(b.get(i).copied().unwrap_or(0));
        let (d, o2) = d.overflowing_sub(borrow as u32);
        *ai = d;
        borrow = o1 || o2;
    }
    debug_assert!(!borrow, "subtraction underflow");
    trim_limbs(a);
}

/// `a >>= shift` in place.
fn shr_assign_limbs(a: &mut Vec<u32>, shift: u64) {
    let limb_shift = (shift / BASE_BITS as u64) as usize;
    if limb_shift >= a.len() {
        a.clear();
        return;
    }
    a.drain(..limb_shift);
    let bit_shift = (shift % BASE_BITS as u64) as u32;
    if bit_shift != 0 {
        for i in 0..a.len() {
            let hi = a.get(i + 1).copied().unwrap_or(0);
            a[i] = (a[i] >> bit_shift) | (hi << (BASE_BITS - bit_shift));
        }
    }
    trim_limbs(a);
}

fn trim_limbs(a: &mut Vec<u32>) {
    while a.last() == Some(&0) {
        a.pop();
    }
}

/// Multiplication by a single limb: one carry pass, no `a.len() + 1`-sized
/// zero-then-accumulate buffer. The multiplier gadget and run-DP hot paths
/// multiply by small constants constantly, so this path dominates.
fn mul_small(a: &[u32], m: u32) -> Vec<u32> {
    if m == 0 || a.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(a.len() + 1);
    let mut carry: u64 = 0;
    for &ai in a {
        let cur = ai as u64 * m as u64 + carry;
        out.push(cur as u32);
        carry = cur >> 32;
    }
    if carry != 0 {
        out.push(carry as u32);
    }
    out
}

fn mul_limbs(a: &[u32], b: &[u32]) -> Vec<u32> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    if a.len() == 1 {
        return mul_small(b, a[0]);
    }
    if b.len() == 1 {
        return mul_small(a, b[0]);
    }
    let mut out = vec![0u32; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry: u64 = 0;
        for (j, &bj) in b.iter().enumerate() {
            let cur = out[i + j] as u64 + ai as u64 * bj as u64 + carry;
            out[i + j] = cur as u32;
            carry = cur >> 32;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let cur = out[k] as u64 + carry;
            out[k] = cur as u32;
            carry = cur >> 32;
            k += 1;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Operator impls (by-ref canonical; by-value delegates)
// ---------------------------------------------------------------------------

impl Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        BigUint::from_limbs(add_limbs(&self.limbs, &rhs.limbs))
    }
}

impl Sub for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        assert!(self >= rhs, "BigUint subtraction underflow");
        BigUint::from_limbs(sub_limbs(&self.limbs, &rhs.limbs))
    }
}

impl Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        BigUint::from_limbs(mul_limbs(&self.limbs, &rhs.limbs))
    }
}

impl Div for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        self.divrem(rhs).0
    }
}

impl Rem for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.divrem(rhs).1
    }
}

impl Shl<u64> for &BigUint {
    type Output = BigUint;
    fn shl(self, shift: u64) -> BigUint {
        if self.is_zero() || shift == 0 {
            return self.clone();
        }
        let limb_shift = (shift / BASE_BITS as u64) as usize;
        let bit_shift = (shift % BASE_BITS as u64) as u32;
        let mut out = vec![0u32; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry: u32 = 0;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (BASE_BITS - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }
}

impl Shr<u64> for &BigUint {
    type Output = BigUint;
    fn shr(self, shift: u64) -> BigUint {
        let limb_shift = (shift / BASE_BITS as u64) as usize;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = (shift % BASE_BITS as u64) as u32;
        let src = &self.limbs[limb_shift..];
        if bit_shift == 0 {
            return BigUint::from_limbs(src.to_vec());
        }
        let mut out = Vec::with_capacity(src.len());
        for i in 0..src.len() {
            let hi = src.get(i + 1).copied().unwrap_or(0);
            out.push((src[i] >> bit_shift) | (hi << (BASE_BITS - bit_shift)));
        }
        BigUint::from_limbs(out)
    }
}

impl BitAnd for &BigUint {
    type Output = BigUint;
    fn bitand(self, rhs: &BigUint) -> BigUint {
        let n = self.limbs.len().min(rhs.limbs.len());
        let out = (0..n).map(|i| self.limbs[i] & rhs.limbs[i]).collect();
        BigUint::from_limbs(out)
    }
}

macro_rules! forward_value_ops {
    ($($trait:ident :: $m:ident),*) => {$(
        impl $trait for BigUint {
            type Output = BigUint;
            fn $m(self, rhs: BigUint) -> BigUint { $trait::$m(&self, &rhs) }
        }
        impl $trait<&BigUint> for BigUint {
            type Output = BigUint;
            fn $m(self, rhs: &BigUint) -> BigUint { $trait::$m(&self, rhs) }
        }
        impl $trait<BigUint> for &BigUint {
            type Output = BigUint;
            fn $m(self, rhs: BigUint) -> BigUint { $trait::$m(self, &rhs) }
        }
    )*};
}
forward_value_ops!(Add::add, Sub::sub, Mul::mul, Div::div, Rem::rem);

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        *self = &*self + rhs;
    }
}
impl AddAssign for BigUint {
    fn add_assign(&mut self, rhs: BigUint) {
        *self += &rhs;
    }
}
impl SubAssign<&BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: &BigUint) {
        *self = &*self - rhs;
    }
}
impl MulAssign<&BigUint> for BigUint {
    fn mul_assign(&mut self, rhs: &BigUint) {
        *self = &*self * rhs;
    }
}

// ---------------------------------------------------------------------------
// Formatting
// ---------------------------------------------------------------------------

impl fmt::Display for BigUint {
    /// Decimal digits, by repeated division of one scratch copy of the
    /// limbs by `10^9`, in place.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const CHUNK: u64 = 1_000_000_000;
        let mut limbs = self.limbs.clone();
        // Base-10^9 digits, least significant first; 9.63 decimal digits
        // per 32-bit limb is about 1.07 chunks per limb.
        let mut chunks: Vec<u32> = Vec::with_capacity(limbs.len() * 11 / 10 + 1);
        while !limbs.is_empty() {
            let mut rem: u64 = 0;
            for l in limbs.iter_mut().rev() {
                let cur = (rem << 32) | *l as u64;
                *l = (cur / CHUNK) as u32;
                rem = cur % CHUNK;
            }
            trim_limbs(&mut limbs);
            chunks.push(rem as u32);
        }
        let mut s = String::with_capacity(chunks.len() * 9);
        match chunks.split_last() {
            None => s.push('0'),
            Some((top, rest)) => {
                write!(s, "{top}")?;
                for c in rest.iter().rev() {
                    write!(s, "{c:09}")?;
                }
            }
        }
        f.pad_integral(true, "", &s)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(s: &str) -> BigUint {
        BigUint::from_decimal(s).unwrap()
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(BigUint::one().to_string(), "1");
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
    }

    #[test]
    fn add_with_carry_chain() {
        let a = BigUint::from(u64::MAX);
        let one = BigUint::one();
        assert_eq!((&a + &one).to_string(), "18446744073709551616");
    }

    #[test]
    fn sub_borrow_chain() {
        let a = big("18446744073709551616");
        assert_eq!((&a - &BigUint::one()).to_u64(), Some(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = &BigUint::one() - &BigUint::from(2u32);
    }

    #[test]
    fn mul_known_values() {
        assert_eq!(
            (&big("123456789012345678901234567890") * &big("987654321098765432109876543210"))
                .to_string(),
            "121932631137021795226185032733622923332237463801111263526900"
        );
        assert!((&BigUint::zero() * &big("999")).is_zero());
    }

    #[test]
    fn divrem_small_divisor() {
        let (q, r) = big("1000000000000000000000").divrem(&BigUint::from(7u32));
        assert_eq!(q.to_string(), "142857142857142857142");
        assert_eq!(r.to_u64(), Some(6));
    }

    #[test]
    fn divrem_multi_limb_reconstructs() {
        let a = big("340282366920938463463374607431768211455999999999");
        let b = big("18446744073709551629");
        let (q, r) = a.divrem(&b);
        assert!(r < b);
        assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn divrem_knuth_addback_path() {
        // Crafted to stress the qhat correction loop: divisor with high limb
        // pattern that forces estimate adjustment.
        let a = (&BigUint::from(u128::MAX) << 64) + BigUint::from(u128::MAX);
        let b = (&BigUint::from(u64::MAX) << 32) + BigUint::from(u64::MAX);
        let (q, r) = a.divrem(&b);
        assert!(r < b);
        assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn pow_and_bits() {
        let p = BigUint::from(2u32).pow(200);
        assert_eq!(p.bits(), 201);
        assert_eq!(BigUint::from(3u32).pow(5).to_u64(), Some(243));
        assert_eq!(BigUint::from(7u32).pow(0).to_u64(), Some(1));
    }

    #[test]
    fn shifts_roundtrip() {
        let a = big("123456789123456789123456789");
        assert_eq!(&(&a << 77) >> 77, a);
        assert_eq!((&a >> 1000).to_string(), "0");
        assert_eq!((&BigUint::zero() << 13).to_string(), "0");
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(
            BigUint::from(48u32).gcd(&BigUint::from(36u32)).to_u64(),
            Some(12)
        );
        assert_eq!(BigUint::zero().gcd(&BigUint::from(5u32)).to_u64(), Some(5));
        assert_eq!(BigUint::from(5u32).gcd(&BigUint::zero()).to_u64(), Some(5));
        let a = big("123456789012345678901234567890");
        assert_eq!(a.gcd(&a), a);
    }

    #[test]
    fn gcd_large_coprime() {
        // 2^127 - 1 is a Mersenne prime, coprime with a power of two.
        let m127 = &BigUint::from(2u32).pow(127) - &BigUint::one();
        let p = BigUint::from(2u32).pow(100);
        assert!(m127.gcd(&p).is_one());
    }

    #[test]
    fn decimal_roundtrip() {
        for s in [
            "0",
            "1",
            "999999999",
            "1000000000",
            "123456789012345678901234567890123456789",
        ] {
            assert_eq!(big(s).to_string(), s);
        }
        assert!(BigUint::from_decimal("12a").is_err());
        assert!(BigUint::from_decimal("").is_err());
        // A multi-byte character straddling a 9-byte chunk boundary used
        // to panic on slicing instead of being refused.
        for s in ["12345678ã", "1234567890é1", "½"] {
            let c = s.chars().find(|c| !c.is_ascii_digit()).unwrap();
            let e = BigUint::from_decimal(s).unwrap_err();
            assert_eq!(e.to_string(), format!("invalid digit {c:?}"));
        }
    }

    #[test]
    fn cmp_ordering() {
        assert!(big("100") < big("101"));
        assert!(big("18446744073709551616") > big("18446744073709551615"));
        assert_eq!(big("42").cmp(&big("42")), Ordering::Equal);
    }

    #[test]
    fn to_f64_reasonable() {
        assert_eq!(BigUint::from(12345u32).to_f64(), 12345.0);
        let p = BigUint::from(2u32).pow(100);
        let rel = (p.to_f64() - 2f64.powi(100)).abs() / 2f64.powi(100);
        assert!(rel < 1e-9);
    }

    #[test]
    fn bit_access() {
        let v = BigUint::from(0b1010u32);
        assert!(!v.bit(0));
        assert!(v.bit(1));
        assert!(!v.bit(2));
        assert!(v.bit(3));
        assert!(!v.bit(64));
    }

    #[test]
    fn trailing_zeros_counts() {
        assert_eq!((&BigUint::one() << 70).trailing_zeros(), 70);
        assert_eq!(BigUint::from(12u32).trailing_zeros(), 2);
    }
}
