//! NFAs with multipliers — the string-automaton analogue of §5.1.
//!
//! The paper proves its warm-up Theorem 2 (path queries) for uniform
//! reliability only, and lifts to weighted PQE via tree automata. The same
//! multiplier idea works directly on string automata: annotate each
//! transition with a multiplier `n`, realized by splicing a `K`-bit binary
//! comparator (accepting exactly the `n` strings `bin(0) … bin(n−1)`) into
//! the string. This module provides that extension, used by the
//! `path_pqe_estimate` route in `pqe-core` — weighted PQE for path queries
//! without ever leaving the NFA world.
//!
//! The footnote to §5.1 observes that the gadget is "a degenerate NFTA
//! accepting only paths ... a non-deterministic finite string automaton" —
//! this is exactly that observation, made executable.

use crate::{Alphabet, Nfa, StateId, SymbolId};
use pqe_arith::BigUint;

/// A multiplier transition `(src, symbol, multiplier, bit_width, dst)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MulNfaTransition {
    /// Source state.
    pub src: StateId,
    /// Input symbol consumed.
    pub symbol: SymbolId,
    /// Multiplier `n ≥ 1` (zero multipliers: omit the transition).
    pub multiplier: BigUint,
    /// Gadget width `K` with `n ≤ 2^K`.
    pub bit_width: u64,
    /// Target state, entered after the gadget bits.
    pub dst: StateId,
}

/// A non-deterministic finite string automaton with multipliers.
#[derive(Debug, Clone)]
pub struct MultiplierNfa {
    alphabet: Alphabet,
    num_states: usize,
    transitions: Vec<MulNfaTransition>,
    initial: Vec<StateId>,
    accepting: Vec<StateId>,
}

impl MultiplierNfa {
    /// An automaton with no states over `alphabet`.
    pub fn new(alphabet: Alphabet) -> Self {
        MultiplierNfa {
            alphabet,
            num_states: 0,
            transitions: Vec::new(),
            initial: Vec::new(),
            accepting: Vec::new(),
        }
    }

    /// Copies the state space / marks of an ordinary NFA, with no
    /// transitions (the caller re-adds each with its multiplier).
    pub fn from_nfa_shell(nfa: &Nfa) -> Self {
        MultiplierNfa {
            alphabet: nfa.alphabet().clone(),
            num_states: nfa.num_states(),
            transitions: Vec::new(),
            initial: nfa.initial_states().iter().copied().collect(),
            accepting: nfa.accepting_states().iter().copied().collect(),
        }
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> StateId {
        let s = StateId(self.num_states as u32);
        self.num_states += 1;
        s
    }

    /// Marks `s` initial.
    pub fn set_initial(&mut self, s: StateId) {
        self.initial.push(s);
    }

    /// Marks `s` accepting.
    pub fn set_accepting(&mut self, s: StateId) {
        self.accepting.push(s);
    }

    /// Adds a multiplier transition. Panics on zero multiplier or a
    /// multiplier exceeding `2^bit_width`.
    pub fn add_transition(&mut self, t: MulNfaTransition) {
        assert!(
            !t.multiplier.is_zero(),
            "zero multiplier: omit the transition"
        );
        assert!(
            crate::required_bits(&t.multiplier) <= t.bit_width,
            "multiplier {} does not fit in {} bits",
            t.multiplier,
            t.bit_width
        );
        self.transitions.push(t);
    }

    /// Translates to an ordinary NFA over `Σ ∪ {0, 1}`: each transition's
    /// gadget multiplies the number of accepted strings through it by its
    /// multiplier, adding `bit_width` symbols to the string.
    pub fn translate(&self) -> Nfa {
        let mut alphabet = self.alphabet.clone();
        let zero = alphabet.intern("0");
        let one = alphabet.intern("1");
        let mut out = Nfa::new(alphabet);
        for _ in 0..self.num_states {
            out.add_state();
        }
        for &s in &self.initial {
            out.set_initial(s);
        }
        for &s in &self.accepting {
            out.set_accepting(s);
        }

        for t in &self.transitions {
            if t.bit_width == 0 {
                out.add_transition(t.src, t.symbol, t.dst);
                continue;
            }
            let k = t.bit_width as usize;
            let b = &t.multiplier - &BigUint::one();
            let bit = |i: usize| -> bool { b.bit((k - 1 - i) as u64) };
            let tight: Vec<StateId> = (0..k).map(|_| out.add_state()).collect();
            let free: Vec<StateId> = (0..k).map(|_| out.add_state()).collect();
            out.add_transition(t.src, t.symbol, tight[0]);
            for i in 0..k {
                let next_tight = if i + 1 < k { tight[i + 1] } else { t.dst };
                let next_free = if i + 1 < k { free[i + 1] } else { t.dst };
                if bit(i) {
                    out.add_transition(tight[i], one, next_tight);
                    out.add_transition(tight[i], zero, next_free);
                } else {
                    out.add_transition(tight[i], zero, next_tight);
                }
                out.add_transition(free[i], zero, next_free);
                out.add_transition(free[i], one, next_free);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::required_bits;

    fn single(n: u32, k: u64) -> Nfa {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let mut m = MultiplierNfa::new(alpha);
        let s = m.add_state();
        let f = m.add_state();
        m.set_initial(s);
        m.set_accepting(f);
        m.add_transition(MulNfaTransition {
            src: s,
            symbol: a,
            multiplier: BigUint::from(n),
            bit_width: k,
            dst: f,
        });
        m.translate()
    }

    #[test]
    fn gadget_multiplies_string_count() {
        for n in 1..=16u32 {
            let k = required_bits(&BigUint::from(n)).max(1);
            let nfa = single(n, k);
            assert_eq!(
                nfa.count_strings_exact(1 + k as usize).to_u64(),
                Some(n as u64),
                "n = {n}"
            );
        }
    }

    #[test]
    fn padded_width_preserves_count() {
        for n in [1u32, 3, 6, 8] {
            for pad in 0..3u64 {
                let k = required_bits(&BigUint::from(n)).max(1) + pad;
                let nfa = single(n, k);
                assert_eq!(
                    nfa.count_strings_exact(1 + k as usize).to_u64(),
                    Some(n as u64)
                );
            }
        }
    }

    #[test]
    fn zero_width_multiplier_one_is_plain() {
        let nfa = single(1, 0);
        assert_eq!(nfa.count_strings_exact(1).to_u64(), Some(1));
        assert_eq!(nfa.num_states(), 2);
    }

    #[test]
    fn chained_multipliers_compose() {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let mut m = MultiplierNfa::new(alpha);
        let s = m.add_state();
        let mid = m.add_state();
        let f = m.add_state();
        m.set_initial(s);
        m.set_accepting(f);
        m.add_transition(MulNfaTransition {
            src: s,
            symbol: a,
            multiplier: BigUint::from(3u32),
            bit_width: 2,
            dst: mid,
        });
        m.add_transition(MulNfaTransition {
            src: mid,
            symbol: b,
            multiplier: BigUint::from(7u32),
            bit_width: 3,
            dst: f,
        });
        let nfa = m.translate();
        // a + 2 bits + b + 3 bits = 7 symbols; 3·7 = 21 strings.
        assert_eq!(nfa.count_strings_exact(7).to_u64(), Some(21));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_rejected() {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let mut m = MultiplierNfa::new(alpha);
        let s = m.add_state();
        m.add_transition(MulNfaTransition {
            src: s,
            symbol: a,
            multiplier: BigUint::from(9u32),
            bit_width: 3,
            dst: s,
        });
    }
}
