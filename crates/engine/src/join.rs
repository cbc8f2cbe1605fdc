//! Backtracking joins: boolean evaluation, witness enumeration, and
//! consistent fact-selection for atom groups (the building block of the
//! automaton state enumeration in Proposition 1).

use crate::Binding;
use pqe_db::{Database, FactId};
use pqe_query::{Atom, ConjunctiveQuery, Term};

/// A *witness* for `Q` on `D`: one fact per atom (in atom order) forming a
/// homomorphism image. Witnesses are exactly the clauses of the DNF lineage
/// of the intensional approach (§1).
pub type Witness = Vec<FactId>;

/// Callback receiving each solution as `(atom index, fact)` pairs; returns
/// `false` to stop the search.
type OnSolution<'a> = &'a mut dyn FnMut(&[(usize, FactId)]) -> bool;

/// Tries to extend `binding` with fact `f` matched against `atom`.
/// Returns `false` and leaves the binding *dirty past `mark`* on failure
/// (callers roll back).
fn try_match(db: &Database, atom: &Atom, f: FactId, binding: &mut Binding) -> bool {
    let fact = db.fact(f);
    for (term, &value) in atom.terms.iter().zip(fact.args.iter()) {
        match term {
            Term::Var(v) => {
                if !binding.bind(*v, value) {
                    return false;
                }
            }
            Term::Const(name) => match db.consts().get(name) {
                Some(c) if c == value => {}
                _ => return false,
            },
        }
    }
    true
}

/// Greedy atom ordering: start from the atom with the smallest relation,
/// then repeatedly pick the atom sharing the most variables with those
/// already placed (ties: smaller relation first). Bounds fan-out in the
/// backtracking search.
fn atom_order(q: &ConjunctiveQuery, db: &Database) -> Vec<usize> {
    let n = q.len();
    let rel_size = |i: usize| -> usize {
        match db.schema().relation(&q.atoms()[i].relation) {
            Some(r) => db.facts_of(r).len(),
            None => 0,
        }
    };
    let mut placed: Vec<usize> = Vec::with_capacity(n);
    let mut placed_vars = std::collections::BTreeSet::new();
    let mut remaining: Vec<usize> = (0..n).collect();
    while !remaining.is_empty() {
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .max_by_key(|(_, &i)| {
                let shared = q.atoms()[i].vars().intersection(&placed_vars).count();
                // Prefer many shared vars, then small relations.
                (shared, usize::MAX - rel_size(i))
            })
            .unwrap();
        remaining.swap_remove(pos);
        placed_vars.extend(q.atoms()[best].vars());
        placed.push(best);
    }
    placed
}

fn search(
    q: &ConjunctiveQuery,
    db: &Database,
    order: &[usize],
    depth: usize,
    binding: &mut Binding,
    chosen: &mut Vec<(usize, FactId)>,
    on_solution: OnSolution<'_>,
) -> bool {
    if depth == order.len() {
        return on_solution(chosen);
    }
    let atom_idx = order[depth];
    let atom = &q.atoms()[atom_idx];
    let Some(rel) = db.schema().relation(&atom.relation) else {
        return true; // relation absent from schema: no matches, keep going
    };
    for &f in db.facts_of(rel) {
        let mark = binding.mark();
        if try_match(db, atom, f, binding) {
            chosen.push((atom_idx, f));
            let keep_going = search(q, db, order, depth + 1, binding, chosen, on_solution);
            chosen.pop();
            binding.rollback(mark);
            if !keep_going {
                return false;
            }
        } else {
            binding.rollback(mark);
        }
    }
    true
}

/// `D ⊨ Q`: whether some homomorphism from `Q` into `D` exists.
pub fn eval_boolean(q: &ConjunctiveQuery, db: &Database) -> bool {
    if q.is_empty() {
        return true;
    }
    let order = atom_order(q, db);
    let mut binding = Binding::new(q.num_vars());
    let mut chosen = Vec::new();
    let mut found = false;
    search(q, db, &order, 0, &mut binding, &mut chosen, &mut |_| {
        found = true;
        false // stop at first witness
    });
    found
}

/// Enumerates witnesses of `Q` on `D`, stopping after `limit` (`None` = all).
/// Each witness lists one fact per atom, indexed in atom order.
///
/// The number of witnesses is the lineage clause count, which is `Θ(|D|^n)`
/// for length-`n` path queries (§1.1) — always pass a limit on instances of
/// non-trivial size, or use [`crate::count_homomorphisms`] to count without
/// enumerating.
pub fn enumerate_witnesses(
    q: &ConjunctiveQuery,
    db: &Database,
    limit: Option<usize>,
) -> Vec<Witness> {
    let order = atom_order(q, db);
    let mut binding = Binding::new(q.num_vars());
    let mut chosen = Vec::new();
    let mut out: Vec<Witness> = Vec::new();
    search(q, db, &order, 0, &mut binding, &mut chosen, &mut |sel| {
        let mut w = vec![FactId(0); q.len()];
        for &(atom_idx, f) in sel {
            w[atom_idx] = f;
        }
        out.push(w);
        limit.is_none_or(|l| out.len() < l)
    });
    out
}

/// Enumerates all pairwise-consistent fact selections for the atom subset
/// `atoms` (indices into `q`), i.e. the join of those atoms materialized as
/// fact tuples (one fact per listed atom, in the given order).
///
/// This is exactly the state set `S(p)` of Proposition 1 for a vertex with
/// `ξ(p) = atoms`: assignments `t₁ ↦ c₁, …, t_s ↦ c_s` with all pairwise
/// consistency conditions.
pub fn join_atoms(q: &ConjunctiveQuery, db: &Database, atoms: &[usize]) -> Vec<Vec<FactId>> {
    let sub = q.restrict_atoms(atoms);
    enumerate_witnesses(&sub, db, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqe_db::Schema;
    use pqe_query::{parse, shapes};

    fn graph_db() -> Database {
        let mut db = Database::new(Schema::new([("R", 2), ("S", 2)]));
        db.add_fact("R", &["a", "b"]).unwrap();
        db.add_fact("R", &["a", "c"]).unwrap();
        db.add_fact("S", &["b", "d"]).unwrap();
        db.add_fact("S", &["c", "d"]).unwrap();
        db
    }

    #[test]
    fn boolean_eval_positive_and_negative() {
        let db = graph_db();
        assert!(eval_boolean(&parse("R(x,y), S(y,z)").unwrap(), &db));
        assert!(!eval_boolean(&parse("S(x,y), R(y,z)").unwrap(), &db));
    }

    #[test]
    fn empty_query_is_true() {
        let db = graph_db();
        let q = parse("R(x,y)").unwrap().restrict_atoms(&[]);
        assert!(eval_boolean(&q, &db));
    }

    #[test]
    fn witnesses_enumerated_in_atom_order() {
        let db = graph_db();
        let q = parse("R(x,y), S(y,z)").unwrap();
        let ws = enumerate_witnesses(&q, &db, None);
        assert_eq!(ws.len(), 2); // a-b-d and a-c-d
        for w in &ws {
            assert_eq!(w.len(), 2);
            // Slot 0 must be an R fact, slot 1 an S fact.
            let r = db.schema().relation("R").unwrap();
            assert_eq!(db.fact(w[0]).rel, r);
        }
    }

    #[test]
    fn witness_limit_respected() {
        let db = graph_db();
        let q = parse("R(x,y)").unwrap();
        assert_eq!(enumerate_witnesses(&q, &db, Some(1)).len(), 1);
        assert_eq!(enumerate_witnesses(&q, &db, None).len(), 2);
    }

    #[test]
    fn constants_in_atoms_filter() {
        let db = graph_db();
        let q = parse("R(x,'b')").unwrap();
        assert_eq!(enumerate_witnesses(&q, &db, None).len(), 1);
        let q = parse("R(x,'zzz')").unwrap();
        assert!(!eval_boolean(&q, &db));
    }

    #[test]
    fn repeated_variable_within_atom() {
        let mut db = Database::new(Schema::new([("E", 2)]));
        db.add_fact("E", &["a", "a"]).unwrap();
        db.add_fact("E", &["a", "b"]).unwrap();
        let q = parse("E(x,x)").unwrap();
        assert_eq!(enumerate_witnesses(&q, &db, None).len(), 1);
    }

    #[test]
    fn self_join_queries_evaluate() {
        let mut db = Database::new(Schema::new([("R", 2)]));
        db.add_fact("R", &["a", "b"]).unwrap();
        db.add_fact("R", &["b", "c"]).unwrap();
        let q = shapes::self_join_path(2);
        assert!(eval_boolean(&q, &db));
        // Witness reuses the relation for both atoms.
        let ws = enumerate_witnesses(&q, &db, None);
        assert_eq!(ws.len(), 1);
    }

    #[test]
    fn join_atoms_matches_manual_join() {
        let db = graph_db();
        let q = parse("R(x,y), S(y,z)").unwrap();
        let pairs = join_atoms(&q, &db, &[0, 1]);
        assert_eq!(pairs.len(), 2);
        let singles = join_atoms(&q, &db, &[1]);
        assert_eq!(singles.len(), 2);
    }

    #[test]
    fn unknown_relation_means_no_match() {
        let db = graph_db();
        let q = parse("T(x,y)").unwrap();
        assert!(!eval_boolean(&q, &db));
        assert!(enumerate_witnesses(&q, &db, None).is_empty());
    }
}
