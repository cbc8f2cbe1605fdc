//! Fixed-width fast-path integers for the FPRAS sampling loops.
//!
//! The run-count and path-count DPs (`RunTables`, `NfaCounter`) are pure
//! non-negative integer arithmetic — add and multiply, never subtract —
//! and on the automata built by the PQE reduction the counts overwhelmingly
//! fit in a machine word. [`FixUint`] carries such a count in a `u128` and
//! spills to [`BigUint`] only when a checked operation actually overflows,
//! so the hot loops pay two register ops instead of a limb-vector
//! allocation per step.
//!
//! ## Equivalence contract
//!
//! The estimators never branch on a `FixUint`'s *representation* — only on
//! its value — and the two lossy conversions ([`FixUint::to_f64`],
//! [`FixUint::to_bigfloat`]) are written to be bit-identical to the
//! `BigUint` reference (`BigUint::to_f64`, `BigFloat::from_biguint`) for
//! every value, on either side of the overflow crossover. That invariant is
//! what makes the fast path invisible to the golden determinism digits; it
//! is pinned by differential property tests (`tests/fixuint_differential.rs`)
//! and, end to end, by the workspace equivalence suite run under
//! [`set_slow_path`].
//!
//! ## The escape hatch
//!
//! Setting the environment variable `PQE_SLOW_PATH=1` (read once), or
//! calling [`set_slow_path`]`(true)` from tests, forces every newly
//! constructed `FixUint` into the `Big` representation, routing all
//! arithmetic through the `BigUint` reference implementation. Differential
//! suites run the same estimate with the flag on and off and assert
//! bit-identical digits.

use crate::{BigFloat, BigUint};
use std::ops::{Add, AddAssign, Mul};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static SLOW_PATH: AtomicBool = AtomicBool::new(false);
static SLOW_PATH_ENV: OnceLock<bool> = OnceLock::new();

/// Whether the `BigUint`-only slow path is currently forced (env
/// `PQE_SLOW_PATH` or [`set_slow_path`]).
pub fn slow_path_forced() -> bool {
    let env = *SLOW_PATH_ENV.get_or_init(|| {
        std::env::var("PQE_SLOW_PATH").is_ok_and(|v| {
            let v = v.trim();
            !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false")
        })
    });
    env || SLOW_PATH.load(Ordering::Relaxed)
}

/// Forces (or releases) the `BigUint`-only slow path for newly constructed
/// [`FixUint`] values. Test-only escape hatch; the env variable
/// `PQE_SLOW_PATH` is the process-wide equivalent.
pub fn set_slow_path(on: bool) {
    SLOW_PATH.store(on, Ordering::Relaxed);
}

#[derive(Debug, Clone)]
enum Repr {
    Small(u128),
    Big(BigUint),
}

/// A non-negative integer held in a `u128` until an operation overflows,
/// then in a [`BigUint`] (see module docs). Supports exactly the
/// operations the sampling DPs need: add, multiply, zero/one tests, and
/// the two lossy conversions.
#[derive(Debug, Clone)]
pub struct FixUint(Repr);

impl FixUint {
    /// The value `0`.
    pub fn zero() -> Self {
        Self::from_u128(0)
    }

    /// The value `1`.
    pub fn one() -> Self {
        Self::from_u128(1)
    }

    /// Constructs from a `u128` (the fast representation unless the slow
    /// path is forced).
    pub fn from_u128(v: u128) -> Self {
        if slow_path_forced() {
            FixUint(Repr::Big(BigUint::from(v)))
        } else {
            FixUint(Repr::Small(v))
        }
    }

    /// Constructs from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        Self::from_u128(v as u128)
    }

    /// Constructs from an exact big integer, demoting to the fast
    /// representation when the value fits.
    pub fn from_biguint(v: BigUint) -> Self {
        if slow_path_forced() {
            return FixUint(Repr::Big(v));
        }
        match v.to_u128() {
            Some(s) => FixUint(Repr::Small(s)),
            None => FixUint(Repr::Big(v)),
        }
    }

    /// `true` iff the value is `0`.
    pub fn is_zero(&self) -> bool {
        match &self.0 {
            Repr::Small(v) => *v == 0,
            Repr::Big(b) => b.is_zero(),
        }
    }

    /// The exact value as a [`BigUint`] (clones the big representation).
    pub fn to_biguint(&self) -> BigUint {
        match &self.0 {
            Repr::Small(v) => BigUint::from(*v),
            Repr::Big(b) => b.clone(),
        }
    }

    /// The value as a `u64` if it fits (mirrors `BigUint::to_u64`).
    pub fn to_u64(&self) -> Option<u64> {
        match &self.0 {
            Repr::Small(v) => u64::try_from(*v).ok(),
            Repr::Big(b) => b.to_u64(),
        }
    }

    /// Best-effort `f64`, bit-identical to `BigUint::to_f64` on the same
    /// value regardless of representation.
    pub fn to_f64(&self) -> f64 {
        match &self.0 {
            // `BigUint::to_f64` is correctly rounded (nearest-even), which
            // is exactly what the primitive u128 → f64 cast guarantees.
            Repr::Small(v) => *v as f64,
            Repr::Big(b) => b.to_f64(),
        }
    }

    /// Rounds into a [`BigFloat`], bit-identical to
    /// `BigFloat::from_biguint` on the same value regardless of
    /// representation.
    pub fn to_bigfloat(&self) -> BigFloat {
        match &self.0 {
            Repr::Small(v) => {
                let v = *v;
                let bits = 128 - v.leading_zeros() as u64;
                if bits == 0 {
                    return BigFloat::zero();
                }
                if bits <= 63 {
                    return BigFloat::from_f64((v as u64) as f64);
                }
                let shift = bits - 63;
                let top = (v >> shift) as u64 as f64;
                BigFloat::new(top, shift as i64)
            }
            Repr::Big(b) => BigFloat::from_biguint(b),
        }
    }

    fn add_ref(&self, rhs: &FixUint) -> FixUint {
        match (&self.0, &rhs.0) {
            (Repr::Small(a), Repr::Small(b)) => match a.checked_add(*b) {
                Some(v) => FixUint(Repr::Small(v)),
                None => FixUint(Repr::Big(&BigUint::from(*a) + &BigUint::from(*b))),
            },
            _ => FixUint(Repr::Big(&self.to_biguint() + &rhs.to_biguint())),
        }
    }

    fn mul_ref(&self, rhs: &FixUint) -> FixUint {
        match (&self.0, &rhs.0) {
            (Repr::Small(a), Repr::Small(b)) => match a.checked_mul(*b) {
                Some(v) => FixUint(Repr::Small(v)),
                None => FixUint(Repr::Big(&BigUint::from(*a) * &BigUint::from(*b))),
            },
            _ => FixUint(Repr::Big(&self.to_biguint() * &rhs.to_biguint())),
        }
    }
}

impl PartialEq for FixUint {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Repr::Small(a), Repr::Small(b)) => a == b,
            // Mixed representations can only meet in tests that toggle the
            // slow path; compare by value.
            _ => self.to_biguint() == other.to_biguint(),
        }
    }
}

impl Eq for FixUint {}

impl Add for &FixUint {
    type Output = FixUint;
    fn add(self, rhs: &FixUint) -> FixUint {
        self.add_ref(rhs)
    }
}

impl AddAssign<&FixUint> for FixUint {
    fn add_assign(&mut self, rhs: &FixUint) {
        *self = self.add_ref(rhs);
    }
}

impl AddAssign for FixUint {
    fn add_assign(&mut self, rhs: FixUint) {
        *self = self.add_ref(&rhs);
    }
}

impl Mul for &FixUint {
    type Output = FixUint;
    fn mul(self, rhs: &FixUint) -> FixUint {
        self.mul_ref(rhs)
    }
}

impl From<u64> for FixUint {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

impl From<u128> for FixUint {
    fn from(v: u128) -> Self {
        Self::from_u128(v)
    }
}

impl From<BigUint> for FixUint {
    fn from(v: BigUint) -> Self {
        Self::from_biguint(v)
    }
}

impl std::fmt::Display for FixUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_biguint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_arithmetic_matches_biguint() {
        let a = FixUint::from_u64(123456789);
        let b = FixUint::from_u64(987654321);
        assert_eq!((&a + &b).to_biguint(), BigUint::from(1111111110u64));
        assert_eq!(
            (&a * &b).to_biguint(),
            &BigUint::from(123456789u64) * &BigUint::from(987654321u64)
        );
    }

    #[test]
    fn overflow_spills_to_big() {
        let a = FixUint::from_u128(u128::MAX);
        let b = FixUint::one();
        let sum = &a + &b;
        assert!(matches!(sum.0, Repr::Big(_)));
        assert_eq!(
            sum.to_biguint(),
            &BigUint::from(u128::MAX) + &BigUint::one()
        );
        let sq = &a * &a;
        let expect = &BigUint::from(u128::MAX) * &BigUint::from(u128::MAX);
        assert_eq!(sq.to_biguint(), expect);
    }

    #[test]
    fn big_results_keep_accumulating() {
        let mut acc = FixUint::from_u128(u128::MAX);
        let one = FixUint::one();
        for _ in 0..10 {
            acc += &one;
        }
        assert_eq!(
            acc.to_biguint(),
            &BigUint::from(u128::MAX) + &BigUint::from(10u32)
        );
    }

    #[test]
    fn conversions_match_reference_at_crossovers() {
        let interesting: Vec<u128> = vec![
            0,
            1,
            (1 << 52) - 1,
            1 << 52,
            (1 << 53) + 1,
            (1 << 63) - 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX as u128,
            (u64::MAX as u128) + 1,
            1 << 64,
            (1 << 64) + 12345,
            (1 << 100) + 999,
            u128::MAX,
        ];
        for v in interesting {
            let fix = FixUint::from_u128(v);
            let big = BigUint::from(v);
            assert_eq!(
                fix.to_f64().to_bits(),
                big.to_f64().to_bits(),
                "to_f64({v})"
            );
            assert_eq!(
                fix.to_bigfloat(),
                BigFloat::from_biguint(&big),
                "to_bigfloat({v})"
            );
        }
    }

    #[test]
    fn slow_path_forces_big_representation() {
        set_slow_path(true);
        let v = FixUint::from_u64(7);
        assert!(matches!(v.0, Repr::Big(_)));
        let w = &v * &v;
        assert!(matches!(w.0, Repr::Big(_)));
        assert_eq!(w.to_u64(), Some(49));
        set_slow_path(false);
        assert!(matches!(FixUint::from_u64(7).0, Repr::Small(7)));
    }

    #[test]
    fn mixed_representation_equality_is_by_value() {
        set_slow_path(true);
        let big = FixUint::from_u64(42);
        set_slow_path(false);
        let small = FixUint::from_u64(42);
        assert_eq!(big, small);
        assert_ne!(big, FixUint::from_u64(43));
    }
}
