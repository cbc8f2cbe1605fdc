//! Theorem 1 (§5.2): from uniform reliability to full PQE by attaching
//! multiplier gadgets.
//!
//! Writing each fact probability as `π(f) = w_f / d_f` (normalized), the
//! weighted subinstance mass satisfies
//!
//! ```text
//! Pr_H(Q) = d⁻¹ · Σ_{D' ⊨ Q} ∏_{f ∈ D'} w_f · ∏_{f ∉ D'} (d_f − w_f),   d = ∏ d_f
//! ```
//!
//! Every accepted tree of the Proposition 1 automaton contains each fact
//! exactly once, positively or negated; multiplying positive transitions by
//! `w_f` and negated ones by `d_f − w_f` therefore scales the tree count to
//! exactly the sum above. Gadgets for the two polarities of a fact are
//! padded to a common bit-width `K_f` so all accepted trees keep one target
//! size `k = |D'| + c + Σ_f K_f` (DESIGN.md §2.2); zero multipliers
//! (probability-0/1 facts) delete the corresponding transitions.
//!
//! The construction splits cleanly in two: everything up to the translated
//! Proposition 1 automaton depends only on the query and on *which* facts
//! exist, while the probabilities enter solely through the multiplier
//! attachment. [`PqeAutomaton::reweight`] exploits this for probability-only
//! deltas: it re-runs just the attachment against the retained pre-multiplier
//! automaton, skipping the decomposition and both structural translations.

use super::{build_ur_automaton, ReductionError, UrAutomaton};
use pqe_arith::BigUint;
use pqe_automata::{weigh_nfta, Nfta, SymbolId, SymbolWeights};
use pqe_db::{ProbDatabase, RelId};
use pqe_query::ConjunctiveQuery;

/// Output of the Theorem 1 construction.
pub struct PqeAutomaton {
    /// The final ordinary NFTA (gadgets expanded) to feed to CountNFTA.
    pub nfta: Nfta,
    /// Count trees of exactly this size.
    pub target_size: usize,
    /// The global denominator `d = ∏ d_f`:
    /// `Pr_H(Q) = |L_target(nfta)| / d`.
    pub denominator: BigUint,
    /// The underlying Proposition 1 automaton (before multipliers).
    pub ur: UrAutomaton,
    /// The translated Proposition 1 automaton the multipliers attach to —
    /// retained so [`reweight`](PqeAutomaton::reweight) can skip the
    /// structural phases.
    nfta0: Nfta,
    /// Negated-occurrence symbol for each augmented symbol.
    neg_map: Vec<SymbolId>,
}

/// Why an in-place reweight was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReweightError {
    /// The projected fact set differs from the one the automaton was
    /// compiled against (a structural delta): rebuild with
    /// [`build_pqe_automaton`].
    StructureChanged,
}

impl std::fmt::Display for ReweightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReweightError::StructureChanged => {
                write!(f, "fact set changed: automaton must be recompiled")
            }
        }
    }
}

impl std::error::Error for ReweightError {}

/// The relations of `Q` resolved against `h`'s schema.
fn query_relations(q: &ConjunctiveQuery, h: &ProbDatabase) -> std::collections::BTreeSet<RelId> {
    q.atoms()
        .iter()
        .filter_map(|a| h.database().schema().relation(&a.relation))
        .collect()
}

/// Attaches the §5.2 multiplier gadgets for `hproj`'s probabilities to the
/// translated Proposition 1 automaton, returning the final NFTA and the
/// total gadget padding `Σ_f K_f`.
fn attach_multipliers(
    ur: &UrAutomaton,
    nfta0: &Nfta,
    neg_map: &[SymbolId],
    hproj: &ProbDatabase,
) -> (Nfta, usize) {
    let mul_span = pqe_obs::span::span("multipliers");
    // Per fact: positive multiplier w_f, negated multiplier d_f − w_f, one
    // common gadget width K_f. The padding symbol passes through as is.
    let mut weights = SymbolWeights::new();
    weights.set(ur.padding, BigUint::one(), 0);
    let mut extra_nodes: usize = 0;
    for f in ur.projected.fact_ids() {
        let sym = ur.fact_symbols[f.index()];
        let (w, c) = (hproj.weight_numerator(f), hproj.weight_conumerator(f));
        extra_nodes += weights.set_pair(sym, neg_map[sym.index()], w, c) as usize;
    }
    drop(mul_span);
    let nfta = {
        let _s = pqe_obs::span::span("translate_gadgets");
        weigh_nfta(nfta0, &weights)
    };
    (nfta, extra_nodes)
}

/// Builds the §5.2 PQE automaton for a self-join-free bounded-width query
/// on a probabilistic database.
pub fn build_pqe_automaton(
    q: &ConjunctiveQuery,
    h: &ProbDatabase,
) -> Result<PqeAutomaton, ReductionError> {
    // Project H onto Q's relations: dropped facts marginalize to 1.
    let keep = query_relations(q, h);
    let hproj = h.project(|r| keep.contains(&r));

    let ur = {
        let _s = pqe_obs::span::span("ur_automaton");
        build_ur_automaton(q, hproj.database())?
    };
    debug_assert_eq!(ur.dropped_facts, 0, "projection already applied");
    let (nfta0, neg_map) = {
        let _s = pqe_obs::span::span("translate");
        ur.aug.translate()
    };

    let (nfta, extra_nodes) = attach_multipliers(&ur, &nfta0, &neg_map, &hproj);
    Ok(PqeAutomaton {
        nfta,
        target_size: ur.target_size + extra_nodes,
        denominator: hproj.denominator_product(),
        ur,
        nfta0,
        neg_map,
    })
}

impl PqeAutomaton {
    /// Re-derives the multiplier gadgets from `h`'s current probabilities,
    /// reusing the compiled automaton structure — the incremental path for
    /// probability-only deltas.
    ///
    /// `h` must be a descendant of the database the automaton was compiled
    /// against (same constant interning lineage, as maintained by
    /// `pqe-delta`): the projected fact set is compared fact-for-fact, and
    /// any difference — including a changed fact order — returns
    /// [`ReweightError::StructureChanged`] so the caller can fall back to a
    /// full recompile.
    pub fn reweight(
        &mut self,
        q: &ConjunctiveQuery,
        h: &ProbDatabase,
    ) -> Result<(), ReweightError> {
        let keep = query_relations(q, h);
        let hproj = h.project(|r| keep.contains(&r));
        let old = &self.ur.projected;
        let new_db = hproj.database();
        if new_db.len() != old.len() || old.fact_ids().any(|id| old.fact(id) != new_db.fact(id)) {
            return Err(ReweightError::StructureChanged);
        }
        let _s = pqe_obs::span::span("reweight");
        let (nfta, extra_nodes) = attach_multipliers(&self.ur, &self.nfta0, &self.neg_map, &hproj);
        self.nfta = nfta;
        self.target_size = self.ur.target_size + extra_nodes;
        self.denominator = hproj.denominator_product();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::brute_force_pqe;
    use pqe_arith::Rational;
    use pqe_automata::count_trees_exact;
    use pqe_db::{Database, FactId, Schema};
    use pqe_query::shapes;

    /// Exact PQE through the automaton (exact tree counting oracle).
    fn exact_via_automaton(q: &ConjunctiveQuery, h: &ProbDatabase) -> Rational {
        let pqe = build_pqe_automaton(q, h).unwrap();
        let trees = count_trees_exact(&pqe.nfta, pqe.target_size);
        Rational::new(trees.into(), pqe.denominator.clone())
    }

    fn two_path_db() -> Database {
        let mut db = Database::new(Schema::new([("R1", 2), ("R2", 2)]));
        db.add_fact("R1", &["a", "b"]).unwrap();
        db.add_fact("R2", &["b", "c"]).unwrap();
        db.add_fact("R2", &["b", "d"]).unwrap();
        db
    }

    #[test]
    fn uniform_half_matches_ur_scaling() {
        // π ≡ 1/2: Pr = UR / 2^|D| = 3/8.
        let h = ProbDatabase::uniform(two_path_db(), Rational::from_ratio(1, 2));
        let q = shapes::path_query(2);
        assert_eq!(exact_via_automaton(&q, &h).to_string(), "3/8");
        assert_eq!(brute_force_pqe(&q, &h).to_string(), "3/8");
    }

    #[test]
    fn heterogeneous_probabilities_match_brute_force() {
        let db = two_path_db();
        let probs = vec![
            Rational::from_ratio(1, 3),
            Rational::from_ratio(2, 5),
            Rational::from_ratio(3, 7),
        ];
        let h = ProbDatabase::with_probs(db, probs).unwrap();
        let q = shapes::path_query(2);
        let exact = brute_force_pqe(&q, &h);
        assert_eq!(exact_via_automaton(&q, &h), exact);
        // Pr = 1/3 · (1 − (1−2/5)(1−3/7)) = 1/3 · (1 − 3/5·4/7) = 1/3 · 23/35.
        assert_eq!(exact.to_string(), "23/105");
    }

    #[test]
    fn probability_zero_and_one_facts() {
        let db = two_path_db();
        let probs = vec![
            Rational::one(),            // R1(a,b) certain
            Rational::zero(),           // R2(b,c) impossible
            Rational::from_ratio(1, 2), // R2(b,d) fair
        ];
        let h = ProbDatabase::with_probs(db, probs).unwrap();
        let q = shapes::path_query(2);
        let exact = brute_force_pqe(&q, &h);
        assert_eq!(exact.to_string(), "1/2");
        assert_eq!(exact_via_automaton(&q, &h), exact);
    }

    #[test]
    fn unsatisfiable_query_has_probability_zero() {
        let mut db = Database::new(Schema::new([("R1", 2), ("R2", 2)]));
        db.add_fact("R1", &["a", "b"]).unwrap();
        db.add_fact("R2", &["x", "y"]).unwrap();
        let h = ProbDatabase::uniform(db, Rational::from_ratio(2, 3));
        let q = shapes::path_query(2);
        assert!(exact_via_automaton(&q, &h).is_zero());
    }

    #[test]
    fn star_query_with_probabilities() {
        let mut db = Database::new(Schema::new([("R1", 2), ("R2", 2)]));
        db.add_fact("R1", &["h", "s1"]).unwrap();
        db.add_fact("R1", &["h", "s2"]).unwrap();
        db.add_fact("R2", &["h", "t1"]).unwrap();
        let probs = vec![
            Rational::from_ratio(1, 2),
            Rational::from_ratio(1, 3),
            Rational::from_ratio(1, 4),
        ];
        let h = ProbDatabase::with_probs(db, probs).unwrap();
        let q = shapes::star_query(2);
        assert_eq!(exact_via_automaton(&q, &h), brute_force_pqe(&q, &h));
    }

    #[test]
    fn dropped_relations_marginalize_to_one() {
        let mut db = Database::new(Schema::new([("R1", 2), ("Z", 1)]));
        db.add_fact("R1", &["a", "b"]).unwrap();
        db.add_fact("Z", &["zz"]).unwrap();
        let mut h = ProbDatabase::uniform(db, Rational::from_ratio(1, 2));
        h.set_prob(FactId(1), Rational::from_ratio(99, 100));
        let q = shapes::path_query(1);
        assert_eq!(exact_via_automaton(&q, &h).to_string(), "1/2");
        assert_eq!(brute_force_pqe(&q, &h).to_string(), "1/2");
    }

    #[test]
    fn gadget_overhead_is_logarithmic_in_weights() {
        let db = two_path_db();
        // Large denominators: weights up to 999 need ~10 bits per side.
        let probs = vec![
            Rational::from_ratio(123, 997),
            Rational::from_ratio(500, 999),
            Rational::from_ratio(998, 999),
        ];
        let h = ProbDatabase::with_probs(db, probs).unwrap();
        let q = shapes::path_query(2);
        let pqe = build_pqe_automaton(&q, &h).unwrap();
        // ≤ 10 bits per fact.
        assert!(pqe.target_size <= pqe.ur.target_size + 3 * 10);
        assert_eq!(exact_via_automaton(&q, &h), brute_force_pqe(&q, &h));
    }

    #[test]
    fn reweight_matches_fresh_compile_exactly() {
        let db = two_path_db();
        let probs = vec![
            Rational::from_ratio(1, 3),
            Rational::from_ratio(2, 5),
            Rational::from_ratio(3, 7),
        ];
        let h = ProbDatabase::with_probs(db, probs).unwrap();
        let q = shapes::path_query(2);
        let mut pqe = build_pqe_automaton(&q, &h).unwrap();

        // Mutate probabilities (including to the 0/1 corner cases, which
        // change which transitions exist) and reweight in place.
        let mut h2 = h.clone();
        h2.set_prob(FactId(0), Rational::from_ratio(9, 11));
        h2.set_prob(FactId(1), Rational::zero());
        pqe.reweight(&q, &h2).unwrap();

        let fresh = build_pqe_automaton(&q, &h2).unwrap();
        assert_eq!(pqe.target_size, fresh.target_size);
        assert_eq!(pqe.denominator, fresh.denominator);
        let reweighted = count_trees_exact(&pqe.nfta, pqe.target_size);
        assert_eq!(
            reweighted,
            count_trees_exact(&fresh.nfta, fresh.target_size)
        );
        assert_eq!(
            Rational::new(reweighted.into(), pqe.denominator.clone()),
            brute_force_pqe(&q, &h2)
        );
    }

    #[test]
    fn reweight_refuses_structural_change() {
        let db = two_path_db();
        let h = ProbDatabase::uniform(db, Rational::from_ratio(1, 2));
        let q = shapes::path_query(2);
        let mut pqe = build_pqe_automaton(&q, &h).unwrap();

        // A new fact in a query relation is structural.
        let mut db2 = two_path_db();
        db2.add_fact("R1", &["a", "z"]).unwrap();
        let h2 = ProbDatabase::uniform(db2, Rational::from_ratio(1, 2));
        assert_eq!(pqe.reweight(&q, &h2), Err(ReweightError::StructureChanged));

        // But extra facts in relations outside Q project away: reweight ok.
        let mut db3 = Database::new(Schema::new([("R1", 2), ("R2", 2), ("Z", 1)]));
        db3.add_fact("R1", &["a", "b"]).unwrap();
        db3.add_fact("R2", &["b", "c"]).unwrap();
        db3.add_fact("R2", &["b", "d"]).unwrap();
        db3.add_fact("Z", &["zz"]).unwrap();
        let h3 = ProbDatabase::uniform(db3, Rational::from_ratio(1, 2));
        pqe.reweight(&q, &h3).unwrap();
        let trees = count_trees_exact(&pqe.nfta, pqe.target_size);
        assert_eq!(
            Rational::new(trees.into(), pqe.denominator.clone()),
            brute_force_pqe(&q, &h3)
        );
    }
}
