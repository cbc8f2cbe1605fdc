//! Exact lifted inference (the Dalvi–Suciu "safe plan") for hierarchical
//! self-join-free queries — the `FP` entry of Table 1, rows 1 and 3.
//!
//! For a *hierarchical* SJF query, `Pr_H(Q)` factorizes recursively:
//!
//! * **independent join** — connected components of the query share no
//!   variables, hence (by self-join-freeness) no facts:
//!   `Pr(Q₁ ∧ Q₂) = Pr(Q₁) · Pr(Q₂)`;
//! * **independent project** — a root variable `x` occurring in every atom
//!   partitions the witnesses by the value of `x`:
//!   `Pr(∃x Q) = 1 − ∏_c (1 − Pr(Q[x:=c]))`;
//! * **ground atoms / single atoms** read probabilities off `π` directly.
//!
//! Which rule applies where depends on the query's shape alone, so the
//! recursion is first built as a [`Plan`] from the query, before any fact
//! is read. Non-hierarchical queries have no root variable in some
//! component and the plan reports [`LiftedError::Unsafe`] — exactly the
//! queries that are #P-hard in data complexity (Dalvi–Suciu dichotomy),
//! where only the FPRAS applies.
//!
//! **Evaluation carries facts, not substituted queries.** Each atom starts
//! with its *candidates*: the facts of its relation whose arguments match
//! the atom's constants (resolved to [`Const`]s once per call) and its
//! repeated variables. An independent project on `x` sorts each atom's
//! candidates by their value of `x`, once, so the facts of `Q[x:=c]` are
//! one contiguous run per atom; the domain walked is the set of values that
//! start a run in *every* atom. A value missing from some atom's runs makes
//! `Q[x:=c]` unsatisfiable, a factor `1 − 0 = 1`, so skipping it leaves the
//! product unchanged. Every fact thus sits in exactly one run per level,
//! and a query of depth `ℓ` (nested projects) over `|D|` facts costs
//! `O(ℓ · |D| log |D|)` fact visits plus one `Rational` product per fact —
//! where re-substituting the query by name for every `c` and rescanning
//! each relation cost `O(|dom(x)| · |D|)` per level.
//!
//! The products stay cheap because [`Rational`] multiplication cancels
//! across operands and `1 − p` needs no gcd (see its docs): multiplying a
//! long running product by a fact's `1 − π(f)` costs time linear in the
//! product's length.

use pqe_arith::Rational;
use pqe_db::{Const, FactId, ProbDatabase};
use pqe_query::{analysis, ConjunctiveQuery, Term};

/// Failure of the safe-plan recursion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiftedError {
    /// The query (or some sub-query reached by binding root variables) has
    /// a connected component with no root variable: not hierarchical,
    /// hence unsafe.
    Unsafe {
        /// The offending sub-query, rendered; root variables bound above
        /// it appear quoted, as constants.
        subquery: String,
    },
    /// The query repeats a relation symbol; lifted inference here requires
    /// self-join-freeness for the independence arguments.
    NotSelfJoinFree,
}

impl std::fmt::Display for LiftedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiftedError::Unsafe { subquery } => {
                write!(f, "query is unsafe (no root variable in component {subquery:?})")
            }
            LiftedError::NotSelfJoinFree => write!(f, "query contains self-joins"),
        }
    }
}

impl std::error::Error for LiftedError {}

/// Exact `Pr_H(Q)` for hierarchical (safe) self-join-free queries, in
/// polynomial combined complexity.
///
/// A relation missing from the schema is empty. An atom whose arity
/// disagrees with its relation's matches no fact; callers that must report
/// it check the query first (the router does, with
/// [`crate::check_arities`]).
pub fn lifted_pqe(q: &ConjunctiveQuery, h: &ProbDatabase) -> Result<Rational, LiftedError> {
    if !q.is_self_join_free() {
        return Err(LiftedError::NotSelfJoinFree);
    }
    let all: Vec<usize> = (0..q.len()).collect();
    let plan = Plan::build(q, &all)?;
    let candidates = candidates(q, h);
    let slices: Vec<&[FactId]> = candidates.iter().map(Vec::as_slice).collect();
    Ok(plan.eval(h, &slices))
}

/// The safe plan: the recursion's shape, which depends on the query alone.
/// Atoms are indices into the query.
#[derive(Debug)]
enum Plan {
    /// Independent join of components that share no unbound variable
    /// (empty for the empty query, whose probability is 1).
    Join(Vec<Plan>),
    /// A single atom: at least one of its candidate facts is present.
    Atom(usize),
    /// Independent project on a root variable: `(atom, position of the
    /// variable in it)` for every atom of the component, and the plan of
    /// the component with the variable bound.
    Project {
        keys: Vec<(usize, usize)>,
        child: Box<Plan>,
    },
}

impl Plan {
    /// Plans the sub-query `q`, whose atom `i` is atom `ids[i]` of the
    /// whole query. Root variables bound above are substituted in `q` (by
    /// their own name: the plan needs only their positions gone from the
    /// variable analysis, not a value).
    fn build(q: &ConjunctiveQuery, ids: &[usize]) -> Result<Plan, LiftedError> {
        let comps = analysis::connected_components(q);
        if comps.len() > 1 {
            return comps
                .iter()
                .map(|comp| {
                    let comp_ids: Vec<usize> = comp.iter().map(|&i| ids[i]).collect();
                    Plan::build(&q.restrict_atoms(comp), &comp_ids)
                })
                .collect::<Result<_, _>>()
                .map(Plan::Join);
        }
        match ids {
            [] => return Ok(Plan::Join(Vec::new())),
            [atom] => return Ok(Plan::Atom(*atom)),
            _ => {}
        }
        let Some(&x) = analysis::root_variables(q).first() else {
            return Err(LiftedError::Unsafe {
                subquery: q.to_string(),
            });
        };
        let keys = q
            .atoms()
            .iter()
            .zip(ids)
            .map(|(atom, &id)| {
                let pos = atom.terms.iter().position(|t| t.as_var() == Some(x));
                (id, pos.expect("a root variable occurs in every atom"))
            })
            .collect();
        let child = Plan::build(&q.substitute(x, q.var_name(x)), ids)?;
        Ok(Plan::Project {
            keys,
            child: Box::new(child),
        })
    }

    /// `Pr` of this plan's sub-query when atom `a` may only use the facts
    /// `cands[a]`.
    fn eval(&self, h: &ProbDatabase, cands: &[&[FactId]]) -> Rational {
        match self {
            Plan::Join(parts) => {
                let mut acc = Rational::one();
                for part in parts {
                    acc = &acc * &part.eval(h, cands);
                    if acc.is_zero() {
                        break;
                    }
                }
                acc
            }
            Plan::Atom(a) => {
                let mut none_present = Rational::one();
                for &f in cands[*a] {
                    none_present = &none_present * &h.prob(f).complement();
                }
                none_present.complement()
            }
            Plan::Project { keys, child } => {
                let db = h.database();
                let value = |k: usize, f: FactId| db.fact(f).args[keys[k].1];
                // One partition per atom: its candidates sorted by x.
                let sorted: Vec<Vec<FactId>> = keys
                    .iter()
                    .enumerate()
                    .map(|(k, &(a, _))| {
                        let mut facts = cands[a].to_vec();
                        facts.sort_unstable_by_key(|&f| value(k, f));
                        facts
                    })
                    .collect();
                let mut sub: Vec<&[FactId]> = cands.to_vec();
                let mut none_satisfied = Rational::one();
                // Walk the first atom's runs; binary-search the others'.
                let first = &sorted[0];
                let mut start = 0;
                'values: while start < first.len() {
                    let c: Const = value(0, first[start]);
                    let end = first.partition_point(|&f| value(0, f) <= c);
                    sub[keys[0].0] = &first[start..end];
                    start = end;
                    for (k, facts) in sorted.iter().enumerate().skip(1) {
                        let run = facts.partition_point(|&f| value(k, f) < c)
                            ..facts.partition_point(|&f| value(k, f) <= c);
                        if run.is_empty() {
                            continue 'values;
                        }
                        sub[keys[k].0] = &facts[run];
                    }
                    none_satisfied = &none_satisfied * &child.eval(h, &sub).complement();
                    if none_satisfied.is_zero() {
                        break;
                    }
                }
                none_satisfied.complement()
            }
        }
    }
}

/// Each atom's candidate facts: the facts of its relation, of its arity,
/// that carry its constants and agree on its repeated variables.
fn candidates(q: &ConjunctiveQuery, h: &ProbDatabase) -> Vec<Vec<FactId>> {
    let db = h.database();
    q.atoms()
        .iter()
        .map(|atom| {
            let Some(rel) = db.schema().relation(&atom.relation) else {
                return Vec::new();
            };
            if db.schema().arity(rel) != atom.terms.len() {
                return Vec::new();
            }
            // (position, constant it must hold) and (position, earlier
            // position of the same variable).
            let mut pinned: Vec<(usize, Const)> = Vec::new();
            let mut repeats: Vec<(usize, usize)> = Vec::new();
            for (i, term) in atom.terms.iter().enumerate() {
                match term {
                    Term::Const(name) => match db.consts().get(name) {
                        Some(c) => pinned.push((i, c)),
                        None => return Vec::new(),
                    },
                    Term::Var(v) => {
                        let earlier = &atom.terms[..i];
                        if let Some(j) = earlier.iter().position(|t| t.as_var() == Some(*v)) {
                            repeats.push((i, j));
                        }
                    }
                }
            }
            db.facts_of(rel)
                .iter()
                .copied()
                .filter(|&f| {
                    let args = &db.fact(f).args;
                    pinned.iter().all(|&(i, c)| args[i] == c)
                        && repeats.iter().all(|&(i, j)| args[i] == args[j])
                })
                .collect()
        })
        .collect()
}

/// The substitution recursion this module replaced: re-substitutes the
/// query by constant name for every domain value and rescans each
/// relation per atom. Kept as the differential reference.
#[cfg(test)]
mod reference {
    use super::LiftedError;
    use pqe_arith::Rational;
    use pqe_db::{Const, ProbDatabase};
    use pqe_query::{analysis, ConjunctiveQuery, Term};
    use std::collections::BTreeSet;

    pub fn lifted_pqe(q: &ConjunctiveQuery, h: &ProbDatabase) -> Result<Rational, LiftedError> {
        if !q.is_self_join_free() {
            return Err(LiftedError::NotSelfJoinFree);
        }
        eval(q, h)
    }

    fn eval(q: &ConjunctiveQuery, h: &ProbDatabase) -> Result<Rational, LiftedError> {
        if q.is_empty() {
            return Ok(Rational::one());
        }
        let comps = analysis::connected_components(q);
        if comps.len() > 1 {
            let mut acc = Rational::one();
            for comp in comps {
                let sub = q.restrict_atoms(&comp);
                acc = &acc * &eval(&sub, h)?;
                if acc.is_zero() {
                    return Ok(acc);
                }
            }
            return Ok(acc);
        }
        if q.len() == 1 {
            return Ok(single_atom_prob(q, h));
        }
        let roots = analysis::root_variables(q);
        let Some(&x) = roots.first() else {
            return Err(LiftedError::Unsafe {
                subquery: q.to_string(),
            });
        };
        let domain = column_values(q, h, x);
        let mut product = Rational::one();
        for c in domain {
            let name = h.database().consts().name(c).to_owned();
            let sub = q.substitute(x, &name);
            let p = eval(&sub, h)?;
            product = &product * &p.complement();
            if product.is_zero() {
                break;
            }
        }
        Ok(product.complement())
    }

    fn single_atom_prob(q: &ConjunctiveQuery, h: &ProbDatabase) -> Rational {
        let atom = &q.atoms()[0];
        let db = h.database();
        let Some(rel) = db.schema().relation(&atom.relation) else {
            return Rational::zero();
        };
        let mut none_present = Rational::one();
        'facts: for &f in db.facts_of(rel) {
            let fact = db.fact(f);
            let mut bound: Vec<Option<Const>> = vec![None; q.num_vars()];
            for (term, &val) in atom.terms.iter().zip(fact.args.iter()) {
                match term {
                    Term::Const(name) => {
                        if db.consts().get(name) != Some(val) {
                            continue 'facts;
                        }
                    }
                    Term::Var(v) => match bound[v.index()] {
                        Some(prev) if prev != val => continue 'facts,
                        _ => bound[v.index()] = Some(val),
                    },
                }
            }
            none_present = &none_present * &h.prob(f).complement();
        }
        none_present.complement()
    }

    fn column_values(q: &ConjunctiveQuery, h: &ProbDatabase, x: pqe_query::Var) -> BTreeSet<Const> {
        let db = h.database();
        let mut result: Option<BTreeSet<Const>> = None;
        for atom in q.atoms() {
            let positions: Vec<usize> = atom
                .terms
                .iter()
                .enumerate()
                .filter_map(|(i, t)| (t.as_var() == Some(x)).then_some(i))
                .collect();
            if positions.is_empty() {
                continue;
            }
            let mut vals = BTreeSet::new();
            if let Some(rel) = db.schema().relation(&atom.relation) {
                for &f in db.facts_of(rel) {
                    for &p in &positions {
                        vals.insert(db.fact(f).args[p]);
                    }
                }
            }
            result = Some(match result {
                None => vals,
                Some(prev) => prev.intersection(&vals).copied().collect(),
            });
        }
        result.unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::brute_force_pqe;
    use pqe_db::{generators, Database, Schema};
    use pqe_query::{parse, shapes};
    use pqe_rand::rngs::StdRng;
    use pqe_rand::SeedableRng;

    #[test]
    fn single_atom_matches_brute_force() {
        let mut db = Database::new(Schema::new([("R", 2)]));
        db.add_fact("R", &["a", "b"]).unwrap();
        db.add_fact("R", &["c", "d"]).unwrap();
        let h = ProbDatabase::with_probs(
            db,
            vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 3)],
        )
        .unwrap();
        let q = parse("R(x,y)").unwrap();
        assert_eq!(lifted_pqe(&q, &h).unwrap(), brute_force_pqe(&q, &h));
        // 1 − 1/2·2/3 = 2/3.
        assert_eq!(lifted_pqe(&q, &h).unwrap().to_string(), "2/3");
    }

    #[test]
    fn star_queries_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(9);
        for arms in 1..=3usize {
            let db = generators::star_data(arms, 2, 2, 0.9, &mut rng);
            if db.len() > 14 {
                continue;
            }
            let h = generators::with_random_probs(db, 6, &mut rng);
            let q = shapes::star_query(arms);
            assert_eq!(
                lifted_pqe(&q, &h).unwrap(),
                brute_force_pqe(&q, &h),
                "arms = {arms}"
            );
        }
    }

    #[test]
    fn two_path_is_safe_and_matches() {
        // R(x,y),S(y,z) is hierarchical: y is a root variable.
        let mut rng = StdRng::seed_from_u64(10);
        let db = generators::layered_graph(2, 2, 0.9, &mut rng);
        let h = generators::with_random_probs(db, 5, &mut rng);
        let q = shapes::path_query(2);
        assert_eq!(lifted_pqe(&q, &h).unwrap(), brute_force_pqe(&q, &h));
    }

    #[test]
    fn three_path_is_unsafe() {
        let mut rng = StdRng::seed_from_u64(11);
        let db = generators::layered_graph(3, 2, 1.0, &mut rng);
        let h = ProbDatabase::uniform(db, Rational::from_ratio(1, 2));
        let q = shapes::path_query(3);
        assert!(matches!(
            lifted_pqe(&q, &h),
            Err(LiftedError::Unsafe { .. })
        ));
    }

    #[test]
    fn h0_is_unsafe() {
        let mut db = Database::new(Schema::new([("R", 1), ("S", 2), ("T", 1)]));
        db.add_fact("R", &["a"]).unwrap();
        db.add_fact("S", &["a", "b"]).unwrap();
        db.add_fact("T", &["b"]).unwrap();
        let h = ProbDatabase::uniform(db, Rational::from_ratio(1, 2));
        assert!(matches!(
            lifted_pqe(&shapes::h0_query(), &h),
            Err(LiftedError::Unsafe { .. })
        ));
    }

    #[test]
    fn disconnected_queries_multiply() {
        let mut db = Database::new(Schema::new([("R", 1), ("S", 1)]));
        db.add_fact("R", &["a"]).unwrap();
        db.add_fact("S", &["b"]).unwrap();
        let h = ProbDatabase::with_probs(
            db,
            vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 3)],
        )
        .unwrap();
        let q = parse("R(x), S(y)").unwrap();
        assert_eq!(lifted_pqe(&q, &h).unwrap().to_string(), "1/6");
    }

    #[test]
    fn self_join_rejected() {
        let db = Database::new(Schema::new([("R", 2)]));
        let h = ProbDatabase::uniform(db, Rational::from_ratio(1, 2));
        assert_eq!(
            lifted_pqe(&shapes::self_join_path(2), &h),
            Err(LiftedError::NotSelfJoinFree)
        );
    }

    /// A random instance over binary `R`, `S`, `T` and unary `U` with
    /// `facts` facts over 40 constants, probabilities `w/d` with `d` drawn
    /// from {3, 5, 7, 8, 10} and `0 < w < d`, except that one fact in 50
    /// gets probability 0 or 1.
    fn mixed_instance(facts: usize, seed: u64) -> ProbDatabase {
        use pqe_rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new(Schema::new([("R", 2), ("S", 2), ("T", 2), ("U", 1)]));
        let names: Vec<String> = (0..40).map(|i| format!("c{i}")).collect();
        while db.len() < facts {
            let a = &names[rng.random_range(0..names.len())];
            let b = &names[rng.random_range(0..names.len())];
            match rng.random_range(0..7u32) {
                0 | 1 => db.add_fact("R", &[a, b]).unwrap(),
                2 | 3 => db.add_fact("S", &[a, b]).unwrap(),
                4 | 5 => db.add_fact("T", &[a, b]).unwrap(),
                _ => db.add_fact("U", &[a]).unwrap(),
            };
        }
        const DENOMINATORS: [u64; 5] = [3, 5, 7, 8, 10];
        let probs = (0..db.len())
            .map(|_| {
                let d = DENOMINATORS[rng.random_range(0..DENOMINATORS.len())];
                let w = match rng.random_range(0..100u32) {
                    0 => 0,
                    1 => d,
                    _ => rng.random_range(1..d),
                };
                Rational::from_ratio(w as i64, d)
            })
            .collect();
        ProbDatabase::with_probs(db, probs).unwrap()
    }

    /// Safe queries over [`mixed_instance`]'s schema: stars, 2-paths,
    /// nested projects, constants, repeated variables, disconnected parts
    /// and relations the schema lacks (`M`).
    const SAFE_QUERIES: [&str; 15] = [
        "R(x,y), S(x,z), T(x,w)",
        "R(x,y), S(x,z), T(x,w), U(x)",
        "R(x,y), S(y,z)",
        "R(x,y), S(y,z), T(y,w)",
        "U(x), R(x,y), S(x,y)",
        "R(x,y), S(x,y), T(x,z)",
        "R(x,'c3'), S(x,y)",
        "R('c0',y), S(y,z)",
        "R(x,x), S(x,y)",
        "R(x,y), S(y,y)",
        "R(x,y), T(y,'c1'), U(y)",
        "R(x,y), M(x)",
        "R(x,y), S(y,z), M(w)",
        "R(x,y), U(z)",
        "R(x,y), S(y,z), U('c9')",
    ];

    /// Property: the partitioned recursion returns exactly the
    /// substitution recursion's `Rational` on 200–600-fact instances, far
    /// beyond brute force's reach.
    #[test]
    fn partition_recursion_matches_the_substitution_recursion() {
        use pqe_testkit::prelude::*;
        let gen = (200usize..=600, any::<u64>(), 0usize..SAFE_QUERIES.len());
        check(
            "partition_recursion_matches_the_substitution_recursion",
            &Config::cases(48),
            &gen,
            |&(facts, seed, query)| {
                let h = mixed_instance(facts, seed);
                let q = parse(SAFE_QUERIES[query]).unwrap();
                prop_assert_eq!(lifted_pqe(&q, &h), reference::lifted_pqe(&q, &h));
                Ok(())
            },
        );
    }

    #[test]
    fn every_safe_query_matches_the_substitution_recursion() {
        for (i, text) in SAFE_QUERIES.iter().enumerate() {
            let h = mixed_instance(400, 100 + i as u64);
            let q = parse(text).unwrap();
            let p = lifted_pqe(&q, &h).unwrap();
            assert_eq!(p, reference::lifted_pqe(&q, &h).unwrap(), "{text}");
        }
    }

    #[test]
    fn unsafe_queries_are_refused_before_any_fact_is_read() {
        // Non-hierarchical below a root variable: x roots the component,
        // but binding it leaves R(y), S(y,z), T(z) with no root. The empty
        // database gives the substitution recursion nothing to bind x to.
        let q = parse("A(x), R(x,y), S(x,y,z), T(x,z)").unwrap();
        let h = ProbDatabase::uniform(Database::new(Schema::new([("R", 2)])), Rational::one());
        let subquery = "R('x',y), S('x',y,z), T('x',z)".to_owned();
        assert_eq!(lifted_pqe(&q, &h), Err(LiftedError::Unsafe { subquery }));
        let q = shapes::path_query(3);
        assert_eq!(lifted_pqe(&q, &h), reference::lifted_pqe(&q, &h));
    }

    #[test]
    fn scales_beyond_brute_force_reach() {
        // 3 relations × 60 facts: 2^180 worlds, trivial for lifted inference.
        let mut rng = StdRng::seed_from_u64(12);
        let db = generators::star_data(3, 10, 6, 0.8, &mut rng);
        assert!(db.len() > 100);
        let h = generators::with_random_probs(db, 10, &mut rng);
        let q = shapes::star_query(3);
        let p = lifted_pqe(&q, &h).unwrap();
        assert!(p.is_probability());
        assert!(!p.is_zero());
    }
}
