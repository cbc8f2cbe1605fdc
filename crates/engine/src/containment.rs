//! Conjunctive-query containment and minimization (Chandra & Merlin,
//! STOC '77 — the paper's reference \[7\]).
//!
//! `Q₁ ⊑ Q₂` (every database satisfying `Q₁` satisfies `Q₂`) holds iff
//! `Q₂` has a homomorphism into the *canonical database* of `Q₁` — its
//! atoms read as facts over frozen variables. The check reuses the
//! boolean evaluator, which is the same homomorphism search.
//!
//! Containment matters to the PQE pipeline because `Pr_H` is monotone
//! under it (`Q₁ ⊑ Q₂ ⇒ Pr(Q₁) ≤ Pr(Q₂)` on every `H`), giving the test
//! suite order-level cross-checks between estimates of related queries,
//! and because redundant atoms inflate the reduction: [`minimize`]
//! removes atoms whose deletion keeps the query equivalent.

use crate::eval_boolean;
use pqe_db::{Database, Schema};
use pqe_query::{ConjunctiveQuery, Term};

/// The canonical ("frozen") database of `Q`: one fact per atom, variables
/// interned as fresh constants `?x`, constants as themselves.
pub fn canonical_database(q: &ConjunctiveQuery) -> Database {
    let mut schema = Schema::default();
    for a in q.atoms() {
        schema.add_relation(&a.relation, a.terms.len());
    }
    let mut db = Database::new(schema);
    for a in q.atoms() {
        let args: Vec<String> = a
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => format!("?{}", q.var_name(*v)),
                Term::Const(c) => c.clone(),
            })
            .collect();
        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
        db.add_fact(&a.relation, &refs)
            .expect("schema built from the same atoms");
    }
    db
}

/// Whether `q1 ⊑ q2`: every database satisfying `q1` also satisfies `q2`.
pub fn is_contained_in(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    // Boolean CQs: q1 ⊑ q2 iff q2 →hom canonical(q1).
    eval_boolean(q2, &canonical_database(q1))
}

/// Whether `q1 ≡ q2` (mutual containment).
pub fn is_equivalent(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    is_contained_in(q1, q2) && is_contained_in(q2, q1)
}

/// Computes an equivalent minimal sub-query (the *core*): greedily drops
/// atoms whose removal preserves equivalence.
///
/// Self-join-free queries are already minimal (distinct relation symbols
/// admit no foldings), so this matters for the self-join inputs the FPRAS
/// rejects — minimizing first can remove the self-join entirely.
pub fn minimize(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut keep: Vec<usize> = (0..q.len()).collect();
    let mut i = 0;
    while i < keep.len() {
        if keep.len() == 1 {
            break;
        }
        let mut candidate = keep.clone();
        candidate.remove(i);
        let sub = q.restrict_atoms(&candidate);
        // Removing atoms can only weaken: sub ⊒ q always. Equivalence
        // needs the converse: sub ⊑ q.
        if is_contained_in(&sub, q) {
            keep = candidate;
        } else {
            i += 1;
        }
    }
    q.restrict_atoms(&keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqe_query::{parse, shapes};

    #[test]
    fn reflexive_containment() {
        for q in [shapes::path_query(3), shapes::star_query(2), shapes::cycle_query(3)] {
            assert!(is_contained_in(&q, &q));
            assert!(is_equivalent(&q, &q));
        }
    }

    #[test]
    fn longer_paths_are_contained_in_shorter_prefixes() {
        // R1(x,y), R2(y,z) ⊑ R1(x,y): satisfying the 2-path implies an R1 fact.
        let long = parse("R1(x,y), R2(y,z)").unwrap();
        let short = parse("R1(a,b)").unwrap();
        assert!(is_contained_in(&long, &short));
        assert!(!is_contained_in(&short, &long));
    }

    #[test]
    fn variable_renaming_is_equivalence() {
        let a = parse("R(x,y), S(y,z)").unwrap();
        let b = parse("R(u,v), S(v,w)").unwrap();
        assert!(is_equivalent(&a, &b));
    }

    #[test]
    fn constants_restrict() {
        let generic = parse("R(x,y)").unwrap();
        let grounded = parse("R(x,'home')").unwrap();
        assert!(is_contained_in(&grounded, &generic));
        assert!(!is_contained_in(&generic, &grounded));
    }

    #[test]
    fn self_join_redundancy_is_minimized() {
        // R(x,y), R(u,v) ≡ R(x,y): the second atom folds onto the first.
        let q = parse("R(x,y), R(u,v)").unwrap();
        let m = minimize(&q);
        assert_eq!(m.len(), 1);
        assert!(is_equivalent(&m, &q));
        assert!(m.is_self_join_free());
    }

    #[test]
    fn sjf_queries_are_already_minimal() {
        for q in [shapes::path_query(4), shapes::star_query(3), shapes::h0_query()] {
            assert_eq!(minimize(&q).len(), q.len());
        }
    }

    #[test]
    fn triangle_with_redundant_edge() {
        // R(x,y), R(y,z), R(x,z) is a core (triangle ⋢ edge); but
        // R(x,y), R(u,u) minimizes: the loop atom folds into... no — a loop
        // cannot map into a plain edge pattern unless x=y. Check both ways.
        let tri = parse("R(x,y), R(y,z), R(x,z)").unwrap();
        assert_eq!(minimize(&tri).len(), 3);
        let with_spare = parse("R(x,y), R(a,b)").unwrap();
        assert_eq!(minimize(&with_spare).len(), 1);
    }

    #[test]
    fn containment_implies_probability_order() {
        use pqe_db::generators;
        use pqe_rand::rngs::StdRng;
        use pqe_rand::SeedableRng;
        // Spot-check monotonicity on a concrete instance via brute force
        // semantics: count satisfying subinstances of each.
        let long = parse("R1(x,y), R2(y,z)").unwrap();
        let short = parse("R1(a,b)").unwrap();
        assert!(is_contained_in(&long, &short));
        let mut rng = StdRng::seed_from_u64(5);
        let db = generators::layered_graph(2, 2, 0.8, &mut rng);
        let mut count_long = 0u32;
        let mut count_short = 0u32;
        for w in pqe_db::worlds::enumerate(db.len()) {
            let sub = db.subinstance(&w);
            if eval_boolean(&long, &sub) {
                count_long += 1;
            }
            if eval_boolean(&short, &sub) {
                count_short += 1;
            }
        }
        assert!(count_long <= count_short);
    }
}
