//! Multiplier gadgets (paper §5.1, Definition 2 and Remark 2): the one
//! place probabilities enter an automaton.
//!
//! A multiplier transition `(s, α, n, children)` means: taking this
//! transition multiplies the number of accepted trees by `n`. The
//! translation realizes this with a binary-comparator gadget: after the
//! `α` node, a path of `K` bit-labelled nodes encodes an integer, and the
//! gadget accepts exactly the `n` values `0 … n−1` — gluing `n` distinct
//! paths onto every tree through the transition, with only `K = Θ(log n)`
//! extra states (the paper's key size bound). The footnote to §5.1 notes
//! that the gadget is itself a string automaton, so the same comparator
//! splices into NFAs: each accepted string through the transition gains
//! `K` bit symbols, `n` ways.
//!
//! **The weighing step.** The reductions weigh by symbol: a
//! [`SymbolWeights`] table gives each symbol a multiplier and a width, and
//! [`weigh_nfa`] / [`weigh_nfta`] splice a gadget into every transition
//! reading a weighted symbol and drop every transition reading an
//! unweighted one. Definition 2's NFTA with multipliers is an [`Nfta`]
//! together with its [`SymbolWeights`]; [`weigh_nfta`] is Remark 2's
//! translation to an ordinary NFTA.
//!
//! **Uniform widths.** The paper uses the minimal width
//! `u(n) = ⌊log₂(n−1)⌋ + 1`; this implementation lets the caller fix a
//! width `K ≥ u(n)` per transition. The PQE reductions pad the positive
//! gadget (multiplier `w_f`) and the negated gadget (multiplier
//! `d_f − w_f`) of each fact to a common width
//! ([`SymbolWeights::set_pair`]) so that all accepted trees or strings keep
//! a single target size — see DESIGN.md §2.2.

use crate::{Nfa, Nfta, StateId, SymbolId, Transition};
use pqe_arith::BigUint;

/// The paper's `u(n)`: bits needed by the minimal-width gadget —
/// `0` if `n = 1`, else `⌊log₂(n−1)⌋ + 1`.
pub fn required_bits(n: &BigUint) -> u64 {
    assert!(
        !n.is_zero(),
        "multiplier must be ≥ 1 (0 deletes the transition)"
    );
    if n.is_one() {
        0
    } else {
        (n - &BigUint::one()).bits()
    }
}

/// Multiplier weights by symbol: symbol → `(n, K)`, the multiplier `n ≥ 1`
/// and gadget width `K` of every transition reading that symbol. A symbol
/// without an entry has multiplier 0: its transitions are dropped.
#[derive(Debug, Clone, Default)]
pub struct SymbolWeights {
    by_symbol: Vec<Option<(BigUint, u64)>>,
}

impl SymbolWeights {
    /// An empty table: every symbol unweighted.
    pub fn new() -> Self {
        SymbolWeights::default()
    }

    /// Weighs `symbol` by `n` on a `width`-bit gadget (`width = 0` with
    /// `n = 1` keeps its transitions as they are). Panics if `n` is zero
    /// or exceeds `2^width`.
    pub fn set(&mut self, symbol: SymbolId, n: BigUint, width: u64) {
        assert!(!n.is_zero(), "zero multiplier: omit the transition");
        assert!(
            required_bits(&n) <= width,
            "multiplier {n} does not fit in {width} bits"
        );
        let i = symbol.index();
        if i >= self.by_symbol.len() {
            self.by_symbol.resize(i + 1, None);
        }
        self.by_symbol[i] = Some((n, width));
    }

    /// Weighs one fact or edge of probability `w/d`: `present` by `w`,
    /// `absent` by `c = d − w`, both on their common width
    /// `K = max(u(w), u(c))`, which it returns. A zero side stays
    /// unweighted (a probability-0 or -1 event drops that transition).
    pub fn set_pair(&mut self, present: SymbolId, absent: SymbolId, w: BigUint, c: BigUint) -> u64 {
        assert!(!(w.is_zero() && c.is_zero()), "w + (d − w) = d ≥ 1");
        let bits = |n: &BigUint| if n.is_zero() { 0 } else { required_bits(n) };
        let width = bits(&w).max(bits(&c));
        for (symbol, n) in [(present, w), (absent, c)] {
            if !n.is_zero() {
                self.set(symbol, n, width);
            }
        }
        width
    }

    /// The multiplier and width of `symbol`, if it has a weight.
    pub fn get(&self, symbol: SymbolId) -> Option<(&BigUint, u64)> {
        match self.by_symbol.get(symbol.index()) {
            Some(Some((n, width))) => Some((n, *width)),
            _ => None,
        }
    }
}

/// Weighs a string automaton: the states, initial and accepting marks of
/// `nfa`, over its alphabet plus `{0, 1}`, with every transition whose
/// symbol has a weight `(n, K)` followed by a `K`-bit gadget, and every
/// other transition dropped. Gadget states come after `nfa`'s, in
/// transition order.
pub fn weigh_nfa(nfa: &Nfa, weights: &SymbolWeights) -> Nfa {
    let mut alphabet = nfa.alphabet().clone();
    let bits = [alphabet.intern("0"), alphabet.intern("1")];
    let mut out = Nfa::new(alphabet);
    for _ in 0..nfa.num_states() {
        out.add_state();
    }
    for &s in nfa.initial_states() {
        out.set_initial(s);
    }
    for &s in nfa.accepting_states() {
        out.set_accepting(s);
    }
    for &(src, symbol, dst) in nfa.all_transitions() {
        if let Some((n, width)) = weights.get(symbol) {
            splice(&mut out, bits, src, symbol, n, width, &dst);
        }
    }
    out
}

/// Weighs a tree automaton, as [`weigh_nfa`] does a string automaton: the
/// gadget sits between a weighted transition's node and its children
/// (Remark 2: polynomial time, `2K` fresh states per weighted transition).
pub fn weigh_nfta(nfta: &Nfta, weights: &SymbolWeights) -> Nfta {
    let mut alphabet = nfta.alphabet().clone();
    let bits = [alphabet.intern("0"), alphabet.intern("1")];
    let mut out = Nfta::new(alphabet);
    for _ in 1..nfta.num_states() {
        out.add_state();
    }
    out.set_initial(nfta.initial());
    for t in nfta.transitions() {
        if let Some((n, width)) = weights.get(t.symbol) {
            splice(&mut out, bits, t.src, t.symbol, n, width, &t.children);
        }
    }
    out
}

/// An automaton a gadget can be spliced into. `Target` is where a weighted
/// transition leads: one state (NFA) or a child list (NFTA).
trait Splice {
    type Target: ?Sized;
    fn fresh_state(&mut self) -> StateId;
    /// Adds `src --symbol--> next`, or `src --symbol--> target` when
    /// `next` is `None`.
    fn step(
        &mut self,
        src: StateId,
        symbol: SymbolId,
        next: Option<StateId>,
        target: &Self::Target,
    );
}

impl Splice for Nfa {
    type Target = StateId;
    fn fresh_state(&mut self) -> StateId {
        self.add_state()
    }
    fn step(&mut self, src: StateId, symbol: SymbolId, next: Option<StateId>, target: &StateId) {
        self.add_transition(src, symbol, next.unwrap_or(*target));
    }
}

impl Splice for Nfta {
    type Target = [StateId];
    fn fresh_state(&mut self) -> StateId {
        self.add_state()
    }
    fn step(&mut self, src: StateId, symbol: SymbolId, next: Option<StateId>, target: &[StateId]) {
        let children = match next {
            Some(s) => vec![s],
            None => target.to_vec(),
        };
        self.add_transition(Transition {
            src,
            symbol,
            children,
        });
    }
}

/// The comparator: `src --symbol-->` followed by `k` bit symbols that spell
/// exactly `bin(0) … bin(n−1)` (MSB first), then `target`. With `k = 0`
/// (so `n = 1`) it is the plain transition. Allocates `k` tight states,
/// then `k` free ones.
fn splice<A: Splice>(
    out: &mut A,
    [zero, one]: [SymbolId; 2],
    src: StateId,
    symbol: SymbolId,
    n: &BigUint,
    k: u64,
    target: &A::Target,
) {
    if k == 0 {
        out.step(src, symbol, None, target);
        return;
    }
    let k = k as usize;
    // Bound value b = n − 1, MSB-first over k bits.
    let b = n - &BigUint::one();
    // tight[i] = state before consuming bit i while the prefix so far
    // equals b's prefix; free[i] = prefix already strictly less.
    let tight: Vec<StateId> = (0..k).map(|_| out.fresh_state()).collect();
    let free: Vec<StateId> = (0..k).map(|_| out.fresh_state()).collect();
    out.step(src, symbol, Some(tight[0]), target);
    for i in 0..k {
        let (next_tight, next_free) = if i + 1 < k {
            (Some(tight[i + 1]), Some(free[i + 1]))
        } else {
            (None, None)
        };
        // i = 0 is the MSB of the k-bit window.
        if b.bit((k - 1 - i) as u64) {
            // Matching bit keeps us tight; a 0 drops strictly below.
            out.step(tight[i], one, next_tight, target);
            out.step(tight[i], zero, next_free, target);
        } else {
            out.step(tight[i], zero, next_tight, target);
        }
        // Free states accept both bits.
        out.step(free[i], zero, next_free, target);
        out.step(free[i], one, next_free, target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count_trees_exact, Alphabet};

    #[test]
    fn required_bits_matches_paper_u() {
        // u(1) = 0; u(2) = ⌊log2(1)⌋+1 = 1; u(3) = 2; u(4) = 2; u(5) = 3.
        for (n, expect) in [(1u32, 0u64), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4)] {
            assert_eq!(required_bits(&BigUint::from(n)), expect, "n = {n}");
        }
    }

    /// `q --a--> ()` on a one-state NFTA, weighed by `n` on a `k`-bit
    /// gadget: the language should contain exactly `n` trees (of size
    /// `1 + k`).
    fn single_gadget(n: u32, k: u64) -> Nfta {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let mut nfta = Nfta::new(alpha);
        let q = nfta.initial();
        nfta.add_transition(Transition {
            src: q,
            symbol: a,
            children: vec![],
        });
        let mut weights = SymbolWeights::new();
        weights.set(a, BigUint::from(n), k);
        weigh_nfta(&nfta, &weights)
    }

    #[test]
    fn gadget_multiplies_tree_count_exactly() {
        for n in 1..=16u32 {
            let k = required_bits(&BigUint::from(n)).max(1);
            let nfta = single_gadget(n, k);
            let size = 1 + k as usize;
            assert_eq!(
                count_trees_exact(&nfta, size).to_u64(),
                Some(n as u64),
                "n = {n}, k = {k}"
            );
        }
    }

    #[test]
    fn padded_width_keeps_count() {
        // Same multiplier with a wider gadget still accepts exactly n
        // trees (now of the padded size) — the §5.2 uniform-size trick.
        for n in [1u32, 3, 5, 8] {
            for pad in 0..3u64 {
                let k = required_bits(&BigUint::from(n)).max(1) + pad;
                let nfta = single_gadget(n, k);
                assert_eq!(
                    count_trees_exact(&nfta, 1 + k as usize).to_u64(),
                    Some(n as u64),
                    "n = {n}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn minimal_width_one_skips_gadget() {
        let nfta = single_gadget(1, required_bits(&BigUint::one()));
        assert_eq!(count_trees_exact(&nfta, 1).to_u64(), Some(1));
        // No gadget states: just the original state.
        assert_eq!(nfta.num_states(), 1);
    }

    #[test]
    fn state_overhead_is_logarithmic() {
        for n in [10u32, 100, 1000, 10000] {
            let k = required_bits(&BigUint::from(n));
            let nfta = single_gadget(n, k);
            // 2k gadget states + original.
            assert_eq!(nfta.num_states() as u64, 1 + 2 * k);
            assert!(k <= 14);
        }
    }

    #[test]
    fn multiplier_composes_through_children() {
        // Two chained weighted transitions: counts multiply.
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let mut nfta = Nfta::new(alpha);
        let q = nfta.initial();
        let r = nfta.add_state();
        nfta.add_transition(Transition {
            src: q,
            symbol: a,
            children: vec![r],
        });
        nfta.add_transition(Transition {
            src: r,
            symbol: b,
            children: vec![],
        });
        let mut weights = SymbolWeights::new();
        weights.set(a, BigUint::from(3u32), 2);
        weights.set(b, BigUint::from(5u32), 3);
        let nfta = weigh_nfta(&nfta, &weights);
        // Sizes: a + 2 bits + b + 3 bits = 7 nodes; 3 × 5 = 15 trees.
        assert_eq!(count_trees_exact(&nfta, 7).to_u64(), Some(15));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflowing_width_rejected() {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        SymbolWeights::new().set(a, BigUint::from(5u32), 2);
    }

    #[test]
    #[should_panic(expected = "zero multiplier")]
    fn zero_multiplier_rejected() {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        SymbolWeights::new().set(a, BigUint::zero(), 2);
    }

    /// `s --a--> f` weighed by `n` on a `k`-bit gadget.
    fn weighed_string(n: u32, k: u64) -> Nfa {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let mut nfa = Nfa::new(alpha);
        let s = nfa.add_state();
        let f = nfa.add_state();
        nfa.set_initial(s);
        nfa.set_accepting(f);
        nfa.add_transition(s, a, f);
        let mut weights = SymbolWeights::new();
        weights.set(a, BigUint::from(n), k);
        weigh_nfa(&nfa, &weights)
    }

    #[test]
    fn weighed_nfa_multiplies_string_count() {
        for n in 1..=16u32 {
            let k = required_bits(&BigUint::from(n)).max(1);
            let nfa = weighed_string(n, k);
            assert_eq!(
                nfa.count_strings_exact(1 + k as usize).to_u64(),
                Some(n as u64),
                "n = {n}"
            );
        }
    }

    #[test]
    fn weighed_nfa_padded_width_preserves_count() {
        for n in [1u32, 3, 6, 8] {
            for pad in 0..3u64 {
                let k = required_bits(&BigUint::from(n)).max(1) + pad;
                let nfa = weighed_string(n, k);
                assert_eq!(
                    nfa.count_strings_exact(1 + k as usize).to_u64(),
                    Some(n as u64)
                );
            }
        }
    }

    #[test]
    fn weighed_nfa_zero_width_multiplier_one_is_plain() {
        let nfa = weighed_string(1, 0);
        assert_eq!(nfa.count_strings_exact(1).to_u64(), Some(1));
        assert_eq!(nfa.num_states(), 2);
    }

    #[test]
    fn weighed_nfa_chained_multipliers_compose() {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let dropped = alpha.intern("c");
        let mut nfa = Nfa::new(alpha);
        let s = nfa.add_state();
        let mid = nfa.add_state();
        let f = nfa.add_state();
        nfa.set_initial(s);
        nfa.set_accepting(f);
        nfa.add_transition(s, a, mid);
        nfa.add_transition(mid, b, f);
        nfa.add_transition(s, dropped, f);
        let mut weights = SymbolWeights::new();
        weights.set(a, BigUint::from(3u32), 2);
        weights.set(b, BigUint::from(7u32), 3);
        let nfa = weigh_nfa(&nfa, &weights);
        // a + 2 bits + b + 3 bits = 7 symbols; 3·7 = 21 strings. The
        // unweighted `c` transition is gone.
        assert_eq!(nfa.count_strings_exact(7).to_u64(), Some(21));
        assert_eq!(nfa.count_strings_exact(1).to_u64(), Some(0));
    }

    #[test]
    fn pair_shares_one_width_and_drops_a_zero_side() {
        let mut alpha = Alphabet::new();
        let (pos, neg) = (alpha.intern("f"), alpha.intern("¬f"));
        let mut weights = SymbolWeights::new();
        // w = 2, d − w = 5: u(2) = 1, u(5) = 3, common width 3.
        assert_eq!(weights.set_pair(pos, neg, 2u32.into(), 5u32.into()), 3);
        assert_eq!(weights.get(pos), Some((&BigUint::from(2u32), 3)));
        assert_eq!(weights.get(neg), Some((&BigUint::from(5u32), 3)));
        // A certain fact: only the positive side is weighted.
        let mut weights = SymbolWeights::new();
        assert_eq!(weights.set_pair(pos, neg, 4u32.into(), BigUint::zero()), 2);
        assert_eq!(weights.get(neg), None);
    }
}
