//! Structural analysis of conjunctive queries: the classification axes of
//! the paper's Table 1 (minus hypertree width, which lives in
//! `pqe-hypertree`).

use crate::{ConjunctiveQuery, Var};
use std::collections::{BTreeMap, BTreeSet};

/// `at(x)`: for each variable, the set of atom indices it occurs in.
pub fn atom_sets(q: &ConjunctiveQuery) -> BTreeMap<Var, BTreeSet<usize>> {
    let mut m: BTreeMap<Var, BTreeSet<usize>> = BTreeMap::new();
    for (i, a) in q.atoms().iter().enumerate() {
        for v in a.vars() {
            m.entry(v).or_default().insert(i);
        }
    }
    m
}

/// Whether `Q` is *hierarchical*: for every pair of variables `x, y`, the
/// atom sets `at(x)` and `at(y)` are disjoint or one contains the other.
///
/// For self-join-free Boolean CQs this is exactly the Dalvi–Suciu *safety*
/// condition: hierarchical ⇔ PQE in FP, non-hierarchical ⇔ #P-hard (the
/// "Safe?" column of Table 1). In particular every query of the `3Path`
/// class (§1.1) is non-hierarchical.
pub fn is_hierarchical(q: &ConjunctiveQuery) -> bool {
    let sets: Vec<BTreeSet<usize>> = atom_sets(q).into_values().collect();
    for (i, a) in sets.iter().enumerate() {
        for b in sets.iter().skip(i + 1) {
            let disjoint = a.is_disjoint(b);
            let nested = a.is_subset(b) || b.is_subset(a);
            if !disjoint && !nested {
                return false;
            }
        }
    }
    true
}

/// Decomposes `Q` into connected components: atoms are connected when they
/// share a variable. Returns atom-index groups in first-occurrence order.
///
/// Independent components have independent probabilities, which the lifted
/// (safe-plan) baseline exploits as an independent join.
pub fn connected_components(q: &ConjunctiveQuery) -> Vec<Vec<usize>> {
    let n = q.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let r = find(parent, parent[i]);
            parent[i] = r;
        }
        parent[i]
    }
    for set in atom_sets(q).values() {
        let mut it = set.iter();
        if let Some(&first) = it.next() {
            for &other in it {
                let (a, b) = (find(&mut parent, first), find(&mut parent, other));
                if a != b {
                    parent[a] = b;
                }
            }
        }
    }
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..n {
        let r = find(&mut parent, i);
        groups.entry(r).or_default().push(i);
    }
    let mut out: Vec<Vec<usize>> = groups.into_values().collect();
    out.sort_by_key(|g| g[0]);
    out
}

/// Variables occurring in *every* atom of `Q` ("root variables").
///
/// A non-empty result enables the independent-project step of lifted
/// inference.
pub fn root_variables(q: &ConjunctiveQuery) -> Vec<Var> {
    let n = q.len();
    atom_sets(q)
        .into_iter()
        .filter(|(_, s)| s.len() == n)
        .map(|(v, _)| v)
        .collect()
}

/// If `Q` is a path query `R₁(x₁,x₂), R₂(x₂,x₃), …, R_n(x_n,x_{n+1})`
/// (paper §2) — all atoms binary, consecutive atoms chained on a fresh
/// variable, all `x_i` distinct — returns the chain variables
/// `[x₁, …, x_{n+1}]`.
pub fn as_path_query(q: &ConjunctiveQuery) -> Option<Vec<Var>> {
    if q.is_empty() {
        return None;
    }
    let mut chain: Vec<Var> = Vec::with_capacity(q.len() + 1);
    for (i, a) in q.atoms().iter().enumerate() {
        if a.terms.len() != 2 {
            return None;
        }
        let x = a.terms[0].as_var()?;
        let y = a.terms[1].as_var()?;
        if i == 0 {
            chain.push(x);
        } else if *chain.last().unwrap() != x {
            return None;
        }
        chain.push(y);
    }
    // All chain variables pairwise distinct (a genuine path, not a cycle).
    let distinct: BTreeSet<Var> = chain.iter().copied().collect();
    (distinct.len() == chain.len()).then_some(chain)
}

/// Whether `Q` belongs to the `3Path` class of Corollary 1: a self-join-free
/// path query of length at least 3 (hence #P-hard in data complexity, yet
/// covered by the combined FPRAS).
pub fn in_three_path_class(q: &ConjunctiveQuery) -> bool {
    q.len() >= 3 && q.is_self_join_free() && as_path_query(q).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn atom_sets_indexing() {
        let q = parse("R(x,y), S(y,z)").unwrap();
        let m = atom_sets(&q);
        assert_eq!(m.len(), 3);
        let y = *m.iter().find(|(v, _)| q.var_name(**v) == "y").unwrap().0;
        assert_eq!(m[&y].len(), 2);
    }

    #[test]
    fn hierarchical_star_query() {
        // x occurs in all atoms; each y_i in exactly one: hierarchical.
        let q = parse("R1(x,y1), R2(x,y2), R3(x,y3)").unwrap();
        assert!(is_hierarchical(&q));
        assert_eq!(root_variables(&q).len(), 1);
    }

    #[test]
    fn non_hierarchical_two_path() {
        // at(x) = {0}, at(y) = {0,1}, at(z) = {1}: x vs z fine, but
        // at(x) and at(z) vs at(y) nest... R(x,y),S(y,z) IS hierarchical.
        let q = parse("R(x,y), S(y,z)").unwrap();
        assert!(is_hierarchical(&q));
        // The canonical unsafe query: R(x), S(x,y), T(y).
        let q = parse("R(x), S(x,y), T(y)").unwrap();
        assert!(!is_hierarchical(&q));
    }

    #[test]
    fn three_path_is_not_hierarchical() {
        let q = parse("R1(x1,x2), R2(x2,x3), R3(x3,x4)").unwrap();
        assert!(!is_hierarchical(&q));
        assert!(in_three_path_class(&q));
    }

    #[test]
    fn components_split_on_shared_vars() {
        let q = parse("R(x,y), S(y,z), T(u,v)").unwrap();
        let comps = connected_components(&q);
        assert_eq!(comps, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn path_query_recognition() {
        assert!(as_path_query(&parse("R(x,y)").unwrap()).is_some());
        let q = parse("R1(x1,x2), R2(x2,x3)").unwrap();
        let chain = as_path_query(&q).unwrap();
        assert_eq!(chain.len(), 3);
        // Broken chain.
        assert!(as_path_query(&parse("R(x,y), S(z,w)").unwrap()).is_none());
        // Cycle is not a path (repeated variable).
        assert!(as_path_query(&parse("R(x,y), S(y,x)").unwrap()).is_none());
        // Ternary atom is not a path.
        assert!(as_path_query(&parse("R(x,y,z)").unwrap()).is_none());
    }

    #[test]
    fn three_path_class_requires_length_and_sjf() {
        assert!(!in_three_path_class(&parse("R1(x,y), R2(y,z)").unwrap()));
        let self_join = parse("R(x,y), R(y,z), R(z,w)").unwrap();
        assert!(!in_three_path_class(&self_join));
    }
}
