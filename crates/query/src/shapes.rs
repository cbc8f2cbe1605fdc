//! Canonical query-shape builders used throughout the experiment suite.
//!
//! Every builder produces a self-join-free query (distinct relation names
//! `R1, R2, …`) unless stated otherwise.

use crate::{Atom, ConjunctiveQuery, Term, Var};

fn var_names(n: usize, prefix: &str) -> Vec<String> {
    (1..=n).map(|i| format!("{prefix}{i}")).collect()
}

/// The length-`n` path query `Q_n = R1(x1,x2), …, Rn(xn,x{n+1})` (paper §2).
///
/// For `n ≥ 3` these form the `3Path` class of Corollary 1: #P-hard in data
/// complexity yet admitting the combined FPRAS (they are acyclic, hence
/// hypertree width 1).
pub fn path_query(n: usize) -> ConjunctiveQuery {
    assert!(n >= 1);
    let atoms = (0..n)
        .map(|i| {
            Atom::new(
                format!("R{}", i + 1),
                vec![Term::Var(Var(i as u32)), Term::Var(Var(i as u32 + 1))],
            )
        })
        .collect();
    ConjunctiveQuery::new(atoms, var_names(n + 1, "x"))
}

/// The `k`-arm star query `R1(x,y1), …, Rk(x,yk)` — hierarchical (safe),
/// acyclic: the poster child of Table 1 row 1.
pub fn star_query(k: usize) -> ConjunctiveQuery {
    assert!(k >= 1);
    let mut names = vec!["x".to_owned()];
    names.extend(var_names(k, "y"));
    let atoms = (0..k)
        .map(|i| {
            Atom::new(
                format!("R{}", i + 1),
                vec![Term::Var(Var(0)), Term::Var(Var(i as u32 + 1))],
            )
        })
        .collect();
    ConjunctiveQuery::new(atoms, names)
}

/// The length-`n` cycle query `R1(x1,x2), …, Rn(xn,x1)` (`n ≥ 3`):
/// hypertree width 2, self-join-free, non-hierarchical.
pub fn cycle_query(n: usize) -> ConjunctiveQuery {
    assert!(n >= 3);
    let atoms = (0..n)
        .map(|i| {
            Atom::new(
                format!("R{}", i + 1),
                vec![
                    Term::Var(Var(i as u32)),
                    Term::Var(Var(((i + 1) % n) as u32)),
                ],
            )
        })
        .collect();
    ConjunctiveQuery::new(atoms, var_names(n, "x"))
}

/// The `k`-clique query: one binary atom `Rij(xi,xj)` per unordered pair.
/// Hypertree width grows with `k` — the "unbounded hypertree width" rows of
/// Table 1 (marked Open in combined complexity).
pub fn clique_query(k: usize) -> ConjunctiveQuery {
    assert!(k >= 2);
    let mut atoms = Vec::new();
    for i in 0..k {
        for j in (i + 1)..k {
            atoms.push(Atom::new(
                format!("R{}_{}", i + 1, j + 1),
                vec![Term::Var(Var(i as u32)), Term::Var(Var(j as u32))],
            ));
        }
    }
    ConjunctiveQuery::new(atoms, var_names(k, "x"))
}

/// A *self-join* path query `R(x1,x2), R(x2,x3), …` — same relation symbol
/// throughout. Outside the FPRAS's scope (Table 1 bottom row).
pub fn self_join_path(n: usize) -> ConjunctiveQuery {
    assert!(n >= 1);
    let atoms = (0..n)
        .map(|i| {
            Atom::new(
                "R",
                vec![Term::Var(Var(i as u32)), Term::Var(Var(i as u32 + 1))],
            )
        })
        .collect();
    ConjunctiveQuery::new(atoms, var_names(n + 1, "x"))
}

/// A chain of `n` triangles sharing corner variables: hypertree width 2 for
/// every `n`, so the class `{triangle_chain(n)}` has *bounded* width while
/// being cyclic — exercises the width-2 code paths end to end.
pub fn triangle_chain(n: usize) -> ConjunctiveQuery {
    assert!(n >= 1);
    // Triangle i has corners v_{2i}, v_{2i+1}, v_{2i+2}; consecutive
    // triangles share corner v_{2i+2}.
    let mut atoms = Vec::new();
    for i in 0..n {
        let a = Var(2 * i as u32);
        let b = Var(2 * i as u32 + 1);
        let c = Var(2 * i as u32 + 2);
        atoms.push(Atom::new(
            format!("A{}", i + 1),
            vec![Term::Var(a), Term::Var(b)],
        ));
        atoms.push(Atom::new(
            format!("B{}", i + 1),
            vec![Term::Var(b), Term::Var(c)],
        ));
        atoms.push(Atom::new(
            format!("C{}", i + 1),
            vec![Term::Var(a), Term::Var(c)],
        ));
    }
    ConjunctiveQuery::new(atoms, var_names(2 * n + 1, "v"))
}

/// The canonical unsafe (non-hierarchical) query of Dalvi–Suciu:
/// `H0 = R(x), S(x,y), T(y)` — acyclic (width 1), self-join-free, #P-hard.
pub fn h0_query() -> ConjunctiveQuery {
    ConjunctiveQuery::new(
        vec![
            Atom::new("R", vec![Term::Var(Var(0))]),
            Atom::new("S", vec![Term::Var(Var(0)), Term::Var(Var(1))]),
            Atom::new("T", vec![Term::Var(Var(1))]),
        ],
        vec!["x".into(), "y".into()],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    #[test]
    fn path_query_shape() {
        let q = path_query(4);
        assert_eq!(q.len(), 4);
        assert!(q.is_self_join_free());
        assert!(analysis::as_path_query(&q).is_some());
        assert!(analysis::in_three_path_class(&q));
        assert_eq!(q.to_string(), "R1(x1,x2), R2(x2,x3), R3(x3,x4), R4(x4,x5)");
    }

    #[test]
    fn star_is_hierarchical() {
        let q = star_query(3);
        assert!(analysis::is_hierarchical(&q));
        assert!(q.is_self_join_free());
    }

    #[test]
    fn cycle_shares_first_and_last() {
        let q = cycle_query(3);
        assert_eq!(q.len(), 3);
        assert!(analysis::as_path_query(&q).is_none());
        assert!(!analysis::is_hierarchical(&q));
    }

    #[test]
    fn clique_atom_count() {
        assert_eq!(clique_query(4).len(), 6);
        assert!(clique_query(4).is_self_join_free());
    }

    #[test]
    fn self_join_path_repeats_relation() {
        let q = self_join_path(3);
        assert!(!q.is_self_join_free());
        assert!(analysis::as_path_query(&q).is_some());
    }

    #[test]
    fn triangle_chain_shape() {
        let q = triangle_chain(2);
        assert_eq!(q.len(), 6);
        assert!(q.is_self_join_free());
        assert!(!analysis::is_hierarchical(&q));
    }

    #[test]
    fn h0_is_the_canonical_unsafe_query() {
        let q = h0_query();
        assert!(q.is_self_join_free());
        assert!(!analysis::is_hierarchical(&q));
    }
}
