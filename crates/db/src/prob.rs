//! Probabilistic database instances `H = (D, π)`.

use crate::{Database, DbError, FactId};
use pqe_arith::{BigUint, Rational};

/// A tuple-independent probabilistic database instance `H = (D, π)`
/// (paper §2): a [`Database`] plus a rational probability per fact.
///
/// The labelling `π` induces a product distribution over subinstances:
/// `Pr_H(D') = ∏_{f ∈ D'} π(f) · ∏_{f ∈ D∖D'} (1 − π(f))`.
#[derive(Debug, Clone)]
pub struct ProbDatabase {
    db: Database,
    probs: Vec<Rational>,
}

impl ProbDatabase {
    /// Wraps `db`, assigning every fact the same probability `p`.
    ///
    /// With `p = 1/2` this is exactly the *uniform reliability* setting:
    /// `UR(Q, D) = 2^{|D|} · Pr_H(Q)`.
    pub fn uniform(db: Database, p: Rational) -> Self {
        assert!(p.is_probability(), "uniform probability outside [0,1]");
        let probs = vec![p; db.len()];
        ProbDatabase { db, probs }
    }

    /// Wraps `db` with explicit per-fact probabilities (indexed by
    /// [`FactId`]).
    pub fn with_probs(db: Database, probs: Vec<Rational>) -> Result<Self, DbError> {
        assert_eq!(probs.len(), db.len(), "one probability per fact required");
        for p in &probs {
            if !p.is_probability() {
                return Err(DbError::InvalidProbability(p.to_string()));
            }
        }
        Ok(ProbDatabase { db, probs })
    }

    /// The underlying deterministic instance `D`.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// `π(f)` for fact `f`.
    pub fn prob(&self, f: FactId) -> &Rational {
        &self.probs[f.index()]
    }

    /// Overwrites `π(f)`. Panics if `p ∉ [0,1]`.
    pub fn set_prob(&mut self, f: FactId, p: Rational) {
        assert!(p.is_probability(), "probability outside [0,1]");
        self.probs[f.index()] = p;
    }

    /// `|D|`: number of facts.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// Whether the instance has no facts.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    /// The probability `Pr_H(D')` of the subinstance selected by `included`.
    pub fn world_prob(&self, included: &[bool]) -> Rational {
        assert_eq!(included.len(), self.len());
        let mut acc = Rational::one();
        for (i, p) in self.probs.iter().enumerate() {
            let factor = if included[i] {
                p.clone()
            } else {
                p.complement()
            };
            acc = &acc * &factor;
        }
        acc
    }

    /// The global denominator `d = ∏_i d_i` of §5.2 (product of the
    /// normalized denominators of all fact probabilities).
    pub fn denominator_product(&self) -> BigUint {
        let mut d = BigUint::one();
        for p in &self.probs {
            d = &d * p.denominator();
        }
        d
    }

    /// The numerator `w_f` of `π(f)` when expressed over its normalized
    /// denominator `d_f` — the positive-transition multiplier of §5.2.
    pub fn weight_numerator(&self, f: FactId) -> BigUint {
        self.probs[f.index()].numerator().magnitude().clone()
    }

    /// `d_f − w_f` — the negated-transition multiplier of §5.2.
    pub fn weight_conumerator(&self, f: FactId) -> BigUint {
        self.probs[f.index()].denominator() - self.probs[f.index()].numerator().magnitude()
    }

    /// Projects onto the relations selected by `keep` (cf. Theorem 1 "we can
    /// assume D is defined only on relations occurring in Q, since the
    /// probabilities of the additional subinstances marginalize to 1").
    pub fn project(&self, keep: impl Fn(crate::RelId) -> bool) -> ProbDatabase {
        let (db, back) = self.db.project(keep);
        let probs = back
            .iter()
            .map(|&old| self.probs[old.index()].clone())
            .collect();
        ProbDatabase { db, probs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;

    fn pdb() -> ProbDatabase {
        let mut db = Database::new(Schema::new([("R", 2)]));
        db.add_fact("R", &["a", "b"]).unwrap();
        db.add_fact("R", &["b", "c"]).unwrap();
        let probs = vec![Rational::from_ratio(1, 3), Rational::from_ratio(2, 5)];
        ProbDatabase::with_probs(db, probs).unwrap()
    }

    #[test]
    fn world_probability_product() {
        let h = pdb();
        // Pr({f0}) = 1/3 * (1 - 2/5) = 1/3 * 3/5 = 1/5.
        assert_eq!(h.world_prob(&[true, false]).to_string(), "1/5");
        // All four worlds sum to 1.
        let total = h.world_prob(&[false, false])
            + h.world_prob(&[false, true])
            + h.world_prob(&[true, false])
            + h.world_prob(&[true, true]);
        assert!(total.is_one());
    }

    #[test]
    fn denominator_product_and_weights() {
        let h = pdb();
        assert_eq!(h.denominator_product().to_u64(), Some(15));
        assert_eq!(h.weight_numerator(FactId(0)).to_u64(), Some(1));
        assert_eq!(h.weight_conumerator(FactId(0)).to_u64(), Some(2));
        assert_eq!(h.weight_numerator(FactId(1)).to_u64(), Some(2));
        assert_eq!(h.weight_conumerator(FactId(1)).to_u64(), Some(3));
    }

    #[test]
    fn invalid_probability_rejected() {
        let mut db = Database::new(Schema::new([("R", 2)]));
        db.add_fact("R", &["a", "b"]).unwrap();
        let res = ProbDatabase::with_probs(db, vec![Rational::from_ratio(3, 2)]);
        assert!(matches!(res, Err(DbError::InvalidProbability(_))));
    }

    #[test]
    fn uniform_half_denominators() {
        let mut db = Database::new(Schema::new([("R", 2)]));
        db.add_fact("R", &["a", "b"]).unwrap();
        db.add_fact("R", &["b", "c"]).unwrap();
        let h = ProbDatabase::uniform(db, Rational::from_ratio(1, 2));
        assert_eq!(h.denominator_product().to_u64(), Some(4));
    }
}
