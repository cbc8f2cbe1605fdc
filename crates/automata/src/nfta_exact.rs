//! Exact (exponential-time) counting oracles for NFTAs.
//!
//! * [`count_runs`] — number of accepting *runs* over size-`n` trees
//!   (polynomial). Equals `|L_n(T)|` exactly when the automaton is
//!   unambiguous; the gap between runs and trees on ambiguous automata is
//!   what makes `#NFTA` hard and the FPRAS necessary.
//! * [`count_trees_exact`] — number of distinct accepted trees of size `n`,
//!   via bottom-up subset determinization. Exponential in the state count
//!   in the worst case; used as a test oracle on small automata.

use crate::{Nfta, StateId};
use pqe_arith::BigUint;
use std::collections::HashMap;

/// Counts accepting runs over trees of size `n`: pairs `(t, ρ)` with
/// `|t| = n` and `ρ` a run of `T` over `t` starting at `s_init`.
pub fn count_runs(nfta: &Nfta, n: usize) -> BigUint {
    let mut memo: HashMap<(StateId, usize), BigUint> = HashMap::new();
    let mut forest_memo: HashMap<(Vec<StateId>, usize), BigUint> = HashMap::new();
    tree_runs(nfta, nfta.initial(), n, &mut memo, &mut forest_memo)
}

fn tree_runs(
    nfta: &Nfta,
    q: StateId,
    n: usize,
    memo: &mut HashMap<(StateId, usize), BigUint>,
    forest_memo: &mut HashMap<(Vec<StateId>, usize), BigUint>,
) -> BigUint {
    if n == 0 {
        return BigUint::zero();
    }
    if let Some(v) = memo.get(&(q, n)) {
        return v.clone();
    }
    let mut total = BigUint::zero();
    for &ti in nfta.transitions_from(q) {
        let tr = nfta.transitions()[ti].clone();
        total += forest_runs(nfta, &tr.children, n - 1, memo, forest_memo);
    }
    memo.insert((q, n), total.clone());
    total
}

fn forest_runs(
    nfta: &Nfta,
    states: &[StateId],
    m: usize,
    memo: &mut HashMap<(StateId, usize), BigUint>,
    forest_memo: &mut HashMap<(Vec<StateId>, usize), BigUint>,
) -> BigUint {
    if states.is_empty() {
        return if m == 0 {
            BigUint::one()
        } else {
            BigUint::zero()
        };
    }
    if m < states.len() {
        return BigUint::zero(); // every tree needs ≥ 1 node
    }
    let key = (states.to_vec(), m);
    if let Some(v) = forest_memo.get(&key) {
        return v.clone();
    }
    let (first, rest) = states.split_first().unwrap();
    let mut total = BigUint::zero();
    for j in 1..=(m - rest.len()) {
        let t = tree_runs(nfta, *first, j, memo, forest_memo);
        if t.is_zero() {
            continue;
        }
        let f = forest_runs(nfta, rest, m - j, memo, forest_memo);
        total += &t * &f;
    }
    forest_memo.insert(key, total.clone());
    total
}

/// Counts the **distinct** trees of size `n` accepted by `T`, exactly.
///
/// Bottom-up subset determinization: for each size `s`, a table mapping a
/// reachable-state-set `S` to the number of distinct trees whose run-state
/// set is exactly `S`. Worst case exponential; use only as an oracle.
#[allow(clippy::needless_range_loop)] // `child_size` indexes the per-size tables
pub fn count_trees_exact(nfta: &Nfta, n: usize) -> BigUint {
    // tables[s] : subset (sorted Vec<StateId>) -> tree count, for size s.
    let mut tables: Vec<HashMap<Vec<StateId>, BigUint>> = vec![HashMap::new(); n + 1];

    // Distinct (symbol, arity) pairs present in the transition relation.
    let mut sym_arities: Vec<(crate::SymbolId, usize)> = nfta
        .transitions()
        .iter()
        .map(|t| (t.symbol, t.children.len()))
        .collect();
    sym_arities.sort();
    sym_arities.dedup();

    for s in 1..=n {
        let mut table: HashMap<Vec<StateId>, BigUint> = HashMap::new();
        for &(sym, arity) in &sym_arities {
            if arity == 0 {
                if s == 1 {
                    let set = result_set(nfta, sym, &[]);
                    if !set.is_empty() {
                        let e = table.entry(set).or_insert_with(BigUint::zero);
                        *e += BigUint::one();
                    }
                }
                continue;
            }
            // Enumerate ordered tuples of (subset, size) children with
            // total size s - 1.
            let mut acc: Vec<(Vec<Vec<StateId>>, BigUint, usize)> =
                vec![(Vec::new(), BigUint::one(), 0)];
            for pos in 0..arity {
                let mut next = Vec::new();
                let remaining_children = arity - pos - 1;
                for (sets, count, used) in &acc {
                    let budget = s - 1 - used;
                    if budget < remaining_children + 1 {
                        continue;
                    }
                    for child_size in 1..=(budget - remaining_children) {
                        for (subset, sub_count) in &tables[child_size] {
                            let mut sets2 = sets.clone();
                            sets2.push(subset.clone());
                            next.push((sets2, count * sub_count, used + child_size));
                        }
                    }
                }
                acc = next;
            }
            for (sets, count, used) in acc {
                if used != s - 1 {
                    continue;
                }
                let refs: Vec<&[StateId]> = sets.iter().map(|v| v.as_slice()).collect();
                let set = result_set_multi(nfta, sym, &refs);
                if !set.is_empty() {
                    let e = table.entry(set).or_insert_with(BigUint::zero);
                    *e += &count;
                }
            }
        }
        tables[s] = table;
    }

    tables[n]
        .iter()
        .filter(|(set, _)| set.contains(&nfta.initial()))
        .fold(BigUint::zero(), |acc, (_, c)| &acc + c)
}

fn result_set(nfta: &Nfta, sym: crate::SymbolId, child_sets: &[&[StateId]]) -> Vec<StateId> {
    result_set_multi(nfta, sym, child_sets)
}

fn result_set_multi(nfta: &Nfta, sym: crate::SymbolId, child_sets: &[&[StateId]]) -> Vec<StateId> {
    let mut out: Vec<StateId> = nfta
        .transitions()
        .iter()
        .filter(|t| {
            t.symbol == sym
                && t.children.len() == child_sets.len()
                && t.children
                    .iter()
                    .zip(child_sets.iter())
                    .all(|(q, set)| set.contains(q))
        })
        .map(|t| t.src)
        .collect();
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Alphabet, Transition, Tree};

    /// Full binary trees: internal `a` (arity 2), leaf `b`.
    fn full_binary() -> Nfta {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let mut t = Nfta::new(alpha);
        let q = t.initial();
        t.add_transition(Transition {
            src: q,
            symbol: a,
            children: vec![q, q],
        });
        t.add_transition(Transition {
            src: q,
            symbol: b,
            children: vec![],
        });
        t
    }

    #[test]
    fn catalan_counts_for_full_binary_trees() {
        let aut = full_binary();
        // Full binary trees with k internal nodes have size 2k+1 and are
        // counted by the Catalan numbers 1, 1, 2, 5, 14, ...
        let catalan = [1u64, 1, 2, 5, 14, 42];
        for (k, &c) in catalan.iter().enumerate() {
            let n = 2 * k + 1;
            assert_eq!(count_trees_exact(&aut, n).to_u64(), Some(c), "size {n}");
            // This automaton is unambiguous: runs == trees.
            assert_eq!(count_runs(&aut, n).to_u64(), Some(c), "runs, size {n}");
        }
        // Even sizes: no full binary trees.
        assert!(count_trees_exact(&aut, 2).is_zero());
        assert!(count_runs(&aut, 4).is_zero());
    }

    /// Ambiguous automaton: single leaf tree `a` accepted via two states...
    /// two transitions from the initial state with the same shape.
    fn ambiguous_leaf() -> Nfta {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let mut t = Nfta::new(alpha);
        let q = t.initial();
        let r1 = t.add_state();
        let r2 = t.add_state();
        t.add_transition(Transition {
            src: q,
            symbol: a,
            children: vec![r1],
        });
        t.add_transition(Transition {
            src: q,
            symbol: a,
            children: vec![r2],
        });
        t.add_transition(Transition {
            src: r1,
            symbol: a,
            children: vec![],
        });
        t.add_transition(Transition {
            src: r2,
            symbol: a,
            children: vec![],
        });
        t
    }

    #[test]
    fn ambiguity_separates_runs_from_trees() {
        let aut = ambiguous_leaf();
        // The unique tree a(a) has two runs.
        assert_eq!(count_runs(&aut, 2).to_u64(), Some(2));
        assert_eq!(count_trees_exact(&aut, 2).to_u64(), Some(1));
    }

    #[test]
    fn unreachable_sizes_count_zero() {
        let aut = ambiguous_leaf();
        assert!(count_runs(&aut, 1).is_zero()); // q needs arity-1 then leaf
        assert!(count_trees_exact(&aut, 1).is_zero());
        assert!(count_runs(&aut, 3).is_zero());
        assert!(count_trees_exact(&aut, 0).is_zero());
    }

    #[test]
    fn counts_agree_with_acceptance_spot_check() {
        let aut = full_binary();
        let alpha = aut.alphabet();
        let a = alpha.get("a").unwrap();
        let b = alpha.get("b").unwrap();
        let t5 = Tree::node(
            a,
            vec![
                Tree::leaf(b),
                Tree::node(a, vec![Tree::leaf(b), Tree::leaf(b)]),
            ],
        );
        assert!(aut.accepts(&t5));
        assert_eq!(t5.size(), 5);
        assert_eq!(count_trees_exact(&aut, 5).to_u64(), Some(2));
    }

    #[test]
    fn ternary_tree_automaton() {
        // Trees where the root has three leaf children.
        let mut alpha = Alphabet::new();
        let r = alpha.intern("r");
        let l = alpha.intern("l");
        let mut t = Nfta::new(alpha);
        let q = t.initial();
        let ql = t.add_state();
        t.add_transition(Transition {
            src: q,
            symbol: r,
            children: vec![ql, ql, ql],
        });
        t.add_transition(Transition {
            src: ql,
            symbol: l,
            children: vec![],
        });
        assert_eq!(count_trees_exact(&t, 4).to_u64(), Some(1));
        assert_eq!(count_runs(&t, 4).to_u64(), Some(1));
        assert!(count_trees_exact(&t, 3).is_zero());
    }
}
