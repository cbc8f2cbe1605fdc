//! NFTAs with multipliers (paper §5.1, Definition 2) and their translation
//! to ordinary NFTAs (Remark 2).
//!
//! A multiplier transition `(s, α, n, children)` means: taking this
//! transition multiplies the number of accepted trees by `n`. The
//! translation realizes this with a binary-comparator gadget: after the
//! `α` node, a path of `K` bit-labelled nodes encodes an integer, and the
//! gadget accepts exactly the `n` values `0 … n−1` — gluing `n` distinct
//! paths onto every tree through the transition, with only `K = Θ(log n)`
//! extra states (the paper's key size bound).
//!
//! **Uniform widths.** The paper uses the minimal width
//! `u(n) = ⌊log₂(n−1)⌋ + 1`; this implementation lets the caller fix a
//! width `K ≥ u(n)` per transition. The PQE reduction (§5.2) pads the
//! positive gadget (multiplier `w_f`) and the negated gadget (multiplier
//! `d_f − w_f`) of each fact to a common width so that all accepted trees
//! keep a single target size — see DESIGN.md §2.2.

use crate::{Alphabet, Nfta, StateId, SymbolId, Transition};
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

/// A multiplier transition `(src, symbol, multiplier, children)` together
/// with its gadget bit-width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MulTransition {
    /// Source state.
    pub src: StateId,
    /// Node label consumed.
    pub symbol: SymbolId,
    /// The multiplier `n ≥ 1`. (A multiplier of 0 means "never": callers
    /// simply omit the transition.)
    pub multiplier: BigUint,
    /// Gadget width `K`; must satisfy `n ≤ 2^K` (and `K ≥ 1` unless the
    /// caller wants the paper-minimal `u(n) = 0` case for `n = 1`).
    pub bit_width: u64,
    /// Child states entered after the gadget path.
    pub children: Vec<StateId>,
}

impl MulTransition {
    /// A transition with the paper-minimal width `u(n)`.
    pub fn minimal(
        src: StateId,
        symbol: SymbolId,
        multiplier: BigUint,
        children: Vec<StateId>,
    ) -> Self {
        let bit_width = required_bits(&multiplier);
        MulTransition {
            src,
            symbol,
            multiplier,
            bit_width,
            children,
        }
    }
}

/// An NFTA with multipliers `T^c = (S, Σ, Δ, s_init)` (Definition 2).
#[derive(Debug, Clone)]
pub struct MultiplierNfta {
    alphabet: Alphabet,
    num_states: usize,
    transitions: Vec<MulTransition>,
    initial: StateId,
}

impl MultiplierNfta {
    /// A one-state automaton (state 0 = initial).
    pub fn new(alphabet: Alphabet) -> Self {
        MultiplierNfta {
            alphabet,
            num_states: 1,
            transitions: Vec::new(),
            initial: StateId(0),
        }
    }

    /// Wraps an existing ordinary NFTA's states/alphabet, with no
    /// transitions yet: the §5.2 reduction copies states and re-adds every
    /// transition with its multiplier.
    pub fn from_nfta_shell(nfta: &Nfta) -> Self {
        MultiplierNfta {
            alphabet: nfta.alphabet().clone(),
            num_states: nfta.num_states(),
            transitions: Vec::new(),
            initial: nfta.initial(),
        }
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> StateId {
        let s = StateId(self.num_states as u32);
        self.num_states += 1;
        s
    }

    /// Adds a multiplier transition. Panics if the multiplier is zero or
    /// exceeds `2^bit_width`.
    pub fn add_transition(&mut self, t: MulTransition) {
        assert!(
            !t.multiplier.is_zero(),
            "zero multiplier: omit the transition"
        );
        assert!(
            required_bits(&t.multiplier) <= t.bit_width,
            "multiplier {} does not fit in {} bits",
            t.multiplier,
            t.bit_width
        );
        debug_assert!(t.src.index() < self.num_states);
        self.transitions.push(t);
    }

    /// Re-roots at `s`.
    pub fn set_initial(&mut self, s: StateId) {
        self.initial = s;
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Number of states (before translation).
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// All transitions.
    pub fn transitions(&self) -> &[MulTransition] {
        &self.transitions
    }

    /// Translates to an ordinary NFTA over `Σ ∪ {0, 1}` (Remark 2:
    /// polynomial time; `Θ(log n)` fresh states per transition).
    ///
    /// Every tree that took a transition with multiplier `n` and width `K`
    /// gains a `K`-node bit path; the gadget accepts exactly the `n`
    /// bit-strings `bin(0) … bin(n−1)` (MSB first).
    pub fn translate(&self) -> Nfta {
        let mut alphabet = self.alphabet.clone();
        let zero = alphabet.intern("0");
        let one = alphabet.intern("1");

        let mut out = Nfta::new(alphabet);
        for _ in 1..self.num_states {
            out.add_state();
        }
        out.set_initial(self.initial);

        for t in &self.transitions {
            if t.bit_width == 0 {
                // n = 1, paper-minimal: plain transition, no gadget.
                out.add_transition(Transition {
                    src: t.src,
                    symbol: t.symbol,
                    children: t.children.clone(),
                });
                continue;
            }
            let k = t.bit_width as usize;
            // Bound value b = n − 1, MSB-first over k bits.
            let b = &t.multiplier - &BigUint::one();
            let bit = |i: usize| -> bool {
                // i = 0 is the MSB of the k-bit window.
                b.bit((k - 1 - i) as u64)
            };

            // tight[i] = state before consuming bit i while the prefix so
            // far equals b's prefix; free[i] = prefix already strictly less.
            let tight: Vec<StateId> = (0..k).map(|_| out.add_state()).collect();
            // free[i] exists for i ≥ 1 only if some earlier bit of b is 1.
            let free: Vec<StateId> = (0..k).map(|_| out.add_state()).collect();

            out.add_transition(Transition {
                src: t.src,
                symbol: t.symbol,
                children: vec![tight[0]],
            });

            for i in 0..k {
                let next_tight: Vec<StateId> = if i + 1 < k {
                    vec![tight[i + 1]]
                } else {
                    t.children.clone()
                };
                let next_free: Vec<StateId> = if i + 1 < k {
                    vec![free[i + 1]]
                } else {
                    t.children.clone()
                };
                if bit(i) {
                    // Matching bit keeps us tight; a 0 drops strictly below.
                    out.add_transition(Transition {
                        src: tight[i],
                        symbol: one,
                        children: next_tight.clone(),
                    });
                    out.add_transition(Transition {
                        src: tight[i],
                        symbol: zero,
                        children: next_free.clone(),
                    });
                } else {
                    out.add_transition(Transition {
                        src: tight[i],
                        symbol: zero,
                        children: next_tight.clone(),
                    });
                }
                // Free states accept both bits.
                out.add_transition(Transition {
                    src: free[i],
                    symbol: zero,
                    children: next_free.clone(),
                });
                out.add_transition(Transition {
                    src: free[i],
                    symbol: one,
                    children: next_free.clone(),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_trees_exact;

    #[test]
    fn required_bits_matches_paper_u() {
        // u(1) = 0; u(2) = ⌊log2(1)⌋+1 = 1; u(3) = 2; u(4) = 2; u(5) = 3.
        for (n, expect) in [(1u32, 0u64), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4)] {
            assert_eq!(required_bits(&BigUint::from(n)), expect, "n = {n}");
        }
    }

    /// One leaf-ish transition with multiplier n and width k: the language
    /// should contain exactly n trees (of size 1 + k).
    fn single_gadget(n: u32, k: u64) -> Nfta {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let mut m = MultiplierNfta::new(alpha);
        let q = m.initial();
        m.add_transition(MulTransition {
            src: q,
            symbol: a,
            multiplier: BigUint::from(n),
            bit_width: k,
            children: vec![],
        });
        m.translate()
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
        // strings (now of the padded length) — the §5.2 uniform-size trick.
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
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let mut m = MultiplierNfta::new(alpha);
        let q = m.initial();
        m.add_transition(MulTransition::minimal(q, a, BigUint::one(), vec![]));
        let nfta = m.translate();
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
        // Two chained multiplier transitions: counts multiply.
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let mut m = MultiplierNfta::new(alpha);
        let q = m.initial();
        let r = m.add_state();
        m.add_transition(MulTransition {
            src: q,
            symbol: a,
            multiplier: BigUint::from(3u32),
            bit_width: 2,
            children: vec![r],
        });
        m.add_transition(MulTransition {
            src: r,
            symbol: b,
            multiplier: BigUint::from(5u32),
            bit_width: 3,
            children: vec![],
        });
        let nfta = m.translate();
        // Sizes: a + 2 bits + b + 3 bits = 7 nodes; 3 × 5 = 15 trees.
        assert_eq!(count_trees_exact(&nfta, 7).to_u64(), Some(15));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflowing_width_rejected() {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let mut m = MultiplierNfta::new(alpha);
        let q = m.initial();
        m.add_transition(MulTransition {
            src: q,
            symbol: a,
            multiplier: BigUint::from(5u32),
            bit_width: 2,
            children: vec![],
        });
    }

    #[test]
    #[should_panic(expected = "zero multiplier")]
    fn zero_multiplier_rejected() {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let mut m = MultiplierNfta::new(alpha);
        let q = m.initial();
        m.add_transition(MulTransition {
            src: q,
            symbol: a,
            multiplier: BigUint::zero(),
            bit_width: 2,
            children: vec![],
        });
    }
}
