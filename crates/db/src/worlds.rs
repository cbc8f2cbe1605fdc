//! Possible-world enumeration and sampling.
//!
//! A "world" of `H = (D, π)` is a subinstance `D' ⊆ D`, represented here as
//! a boolean inclusion vector indexed by [`FactId`](crate::FactId). Exhaustive
//! enumeration (for the brute-force oracle) is exponential and therefore
//! guarded; sampling is exact over the rational probabilities (no floating
//! point in the inclusion decision).

use crate::ProbDatabase;
use pqe_arith::BigUint;
use pqe_rand::Rng;

/// Hard cap on `|D|` for exhaustive world enumeration (2^24 worlds).
pub const MAX_ENUM_FACTS: usize = 24;

/// Iterates over all `2^{|D|}` inclusion vectors of a database with `n`
/// facts. Panics if `n > MAX_ENUM_FACTS`.
///
/// ```
/// let worlds: Vec<_> = pqe_db::worlds::enumerate(2).collect();
/// assert_eq!(worlds.len(), 4);
/// assert_eq!(worlds[3], vec![true, true]);
/// ```
pub fn enumerate(n: usize) -> impl Iterator<Item = Vec<bool>> {
    assert!(
        n <= MAX_ENUM_FACTS,
        "refusing to enumerate 2^{n} worlds (max {MAX_ENUM_FACTS} facts)"
    );
    (0u64..(1u64 << n)).map(move |mask| (0..n).map(|i| (mask >> i) & 1 == 1).collect())
}

/// Samples one world from the product distribution of `H`, exactly.
///
/// For each fact an independent 128-bit uniform integer `r` is drawn and the
/// fact is included iff `r / 2^128 < π(f)`, evaluated by exact
/// cross-multiplication — so the sampling distribution is correct to within
/// `2^-128` per fact rather than `f64` rounding.
pub fn sample_world<R: Rng + ?Sized>(h: &ProbDatabase, rng: &mut R) -> Vec<bool> {
    let two_128 = &BigUint::one() << 128;
    h.database()
        .fact_ids()
        .map(|f| {
            let p = h.prob(f);
            if p.is_zero() {
                return false;
            }
            if p.is_one() {
                return true;
            }
            let r: u128 = rng.random();
            // r / 2^128 < num/den  <=>  r * den < num * 2^128
            let lhs = &BigUint::from(r) * p.denominator();
            let rhs = p.numerator().magnitude() * &two_128;
            lhs < rhs
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, Schema};
    use pqe_arith::Rational;
    use pqe_rand::rngs::StdRng;
    use pqe_rand::SeedableRng;

    #[test]
    fn enumerate_counts() {
        assert_eq!(enumerate(0).count(), 1);
        assert_eq!(enumerate(3).count(), 8);
        let all: Vec<_> = enumerate(2).collect();
        assert!(all.contains(&vec![false, false]));
        assert!(all.contains(&vec![true, false]));
        assert!(all.contains(&vec![false, true]));
        assert!(all.contains(&vec![true, true]));
    }

    #[test]
    fn sample_respects_deterministic_facts() {
        let mut db = Database::new(Schema::new([("R", 1)]));
        db.add_fact("R", &["a"]).unwrap();
        db.add_fact("R", &["b"]).unwrap();
        let mut h = ProbDatabase::uniform(db, Rational::one());
        h.set_prob(crate::FactId(1), Rational::zero());
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let w = sample_world(&h, &mut rng);
            assert_eq!(w, vec![true, false]);
        }
    }

    #[test]
    fn sample_frequency_close_to_probability() {
        let mut db = Database::new(Schema::new([("R", 1)]));
        db.add_fact("R", &["a"]).unwrap();
        let h = ProbDatabase::uniform(db, Rational::from_ratio(1, 4));
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let hits: usize = (0..n).filter(|_| sample_world(&h, &mut rng)[0]).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.25).abs() < 0.02, "freq {freq}");
    }
}
