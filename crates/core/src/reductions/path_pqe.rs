//! Weighted PQE for path queries, entirely through the §3 string-automaton
//! route — an extension of the paper's warm-up Theorem 2.
//!
//! The paper proves Theorem 2 for uniform reliability and handles weights
//! only in the tree-automaton world (§5). But the §5.1 footnote observes
//! the multiplier gadget is itself a string automaton, so the same
//! numerator/co-numerator multipliers splice directly into the path NFA:
//!
//! ```text
//! Pr_H(Q) = d⁻¹ · |L_k(M^c)|,   k = |D'| + Σ_f K_f,   d = ∏ d_f
//! ```
//!
//! This gives a second, independent PQE pipeline for the `3Path` class —
//! used by the experiment suite as a cross-check against the NFTA route.

use super::{build_path_nfa, ReductionError};
use pqe_arith::BigUint;
use pqe_automata::{weigh_nfa, Nfa, SymbolWeights};
use pqe_db::ProbDatabase;
use pqe_query::ConjunctiveQuery;

/// Output of the weighted path reduction.
pub struct PathPqeAutomaton {
    /// The final NFA (gadgets expanded).
    pub nfa: Nfa,
    /// Count strings of exactly this length.
    pub target_len: usize,
    /// `Pr_H(Q) = |L_target(nfa)| / denominator`.
    pub denominator: BigUint,
}

/// Builds the weighted path-query NFA for `Pr_H(Q)`.
pub fn build_path_pqe_nfa(
    q: &ConjunctiveQuery,
    h: &ProbDatabase,
) -> Result<PathPqeAutomaton, ReductionError> {
    let keep: std::collections::BTreeSet<pqe_db::RelId> = q
        .atoms()
        .iter()
        .filter_map(|a| h.database().schema().relation(&a.relation))
        .collect();
    let hproj = h.project(|r| keep.contains(&r));

    let p = build_path_nfa(q, hproj.database())?;
    debug_assert_eq!(p.dropped_facts, 0);

    // Per fact: w_f on the positive symbol, d_f − w_f on the negated one.
    let mut weights = SymbolWeights::new();
    let mut extra = 0usize;
    for f in p.projected.fact_ids() {
        let (w, c) = (hproj.weight_numerator(f), hproj.weight_conumerator(f));
        let (pos, neg) = (p.pos_symbols[f.index()], p.neg_symbols[f.index()]);
        extra += weights.set_pair(pos, neg, w, c) as usize;
    }

    Ok(PathPqeAutomaton {
        nfa: weigh_nfa(&p.nfa, &weights),
        target_len: p.target_len + extra,
        denominator: hproj.denominator_product(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::brute_force_pqe;
    use pqe_arith::Rational;
    use pqe_db::{generators, Database, Schema};
    use pqe_query::shapes;
    use pqe_rand::rngs::StdRng;
    use pqe_rand::SeedableRng;

    fn exact_via_nfa(q: &ConjunctiveQuery, h: &ProbDatabase) -> Rational {
        let p = build_path_pqe_nfa(q, h).unwrap();
        let strings = p.nfa.count_strings_exact(p.target_len);
        Rational::new(strings.into(), p.denominator.clone())
    }

    #[test]
    fn matches_brute_force_on_weighted_paths() {
        let mut rng = StdRng::seed_from_u64(91);
        for len in 2..=3usize {
            for _ in 0..3 {
                let db = generators::layered_graph(len, 2, 0.7, &mut rng);
                if db.len() > 10 {
                    continue;
                }
                let h = generators::with_random_probs(db, 5, &mut rng);
                let q = shapes::path_query(len);
                assert_eq!(
                    exact_via_nfa(&q, &h),
                    brute_force_pqe(&q, &h),
                    "len = {len}"
                );
            }
        }
    }

    #[test]
    fn handles_probability_zero_and_one() {
        let mut db = Database::new(Schema::new([("R1", 2), ("R2", 2)]));
        db.add_fact("R1", &["a", "b"]).unwrap();
        db.add_fact("R2", &["b", "c"]).unwrap();
        db.add_fact("R2", &["b", "d"]).unwrap();
        let h = ProbDatabase::with_probs(
            db,
            vec![
                Rational::one(),
                Rational::zero(),
                Rational::from_ratio(2, 3),
            ],
        )
        .unwrap();
        let q = shapes::path_query(2);
        assert_eq!(exact_via_nfa(&q, &h).to_string(), "2/3");
    }

    #[test]
    fn agrees_with_tree_automaton_route() {
        let mut rng = StdRng::seed_from_u64(92);
        let db = generators::layered_graph_connected(3, 2, 0.6, &mut rng);
        let h = generators::with_random_probs(db, 4, &mut rng);
        let q = shapes::path_query(3);
        let via_nfa = exact_via_nfa(&q, &h);
        let pqe = crate::reductions::build_pqe_automaton(&q, &h).unwrap();
        let trees = pqe_automata::count_trees_exact(&pqe.nfta, pqe.target_size);
        let via_nfta = Rational::new(trees.into(), pqe.denominator.clone());
        assert_eq!(via_nfa, via_nfta);
    }
}
