//! Augmented NFTAs (paper §4.1, Definition 1) and their translation to
//! ordinary NFTAs (Remark 1: polynomial time, no material blow-up).
//!
//! An augmented NFTA allows a transition to carry a *string* of symbols
//! `γ₁…γ_j` — sugar for a chain of `j−1` fresh intermediate states — and
//! each symbol may carry a `?` annotation, meaning "either `γ` or `¬γ` is
//! accepted here" (two parallel transitions; no extra states).
//!
//! In the Proposition 1 construction the string lists, for each atom
//! minimally covered at a decomposition vertex, *all* facts of its relation
//! in `≺`-order: the chosen witness appears plain (must be present) and
//! every other fact appears with `?` (free to be present or absent), which
//! is exactly how one accepted tree encodes one subinstance.

use crate::{Alphabet, Nfta, StateId, SymbolId, Transition};

/// One symbol occurrence in an augmented label string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AugSymbol {
    /// The base symbol `γ`.
    pub symbol: SymbolId,
    /// Whether this occurrence carries the `?` annotation.
    pub optional: bool,
}

impl AugSymbol {
    /// A plain (mandatory) symbol.
    pub fn plain(symbol: SymbolId) -> Self {
        AugSymbol {
            symbol,
            optional: false,
        }
    }

    /// A `?`-annotated symbol.
    pub fn optional(symbol: SymbolId) -> Self {
        AugSymbol {
            symbol,
            optional: true,
        }
    }
}

/// A transition of an augmented NFTA: `(src, γ₁…γ_j, children)` with
/// `j ≥ 1` (the paper's `Γ` excludes the empty string; the constructions in
/// this workspace use a padding symbol instead of λ-transitions — see
/// DESIGN.md §2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AugTransition {
    /// Source state.
    pub src: StateId,
    /// The annotated label string (non-empty).
    pub label: Vec<AugSymbol>,
    /// Child states entered after the final symbol.
    pub children: Vec<StateId>,
}

/// An augmented (top-down) NFTA `T⁺ = (S, Σ, Δ, s_init)` (Definition 1).
#[derive(Debug, Clone)]
pub struct AugmentedNfta {
    alphabet: Alphabet,
    num_states: usize,
    transitions: Vec<AugTransition>,
    initial: StateId,
}

impl AugmentedNfta {
    /// A one-state automaton (state 0 = initial).
    pub fn new(alphabet: Alphabet) -> Self {
        AugmentedNfta {
            alphabet,
            num_states: 1,
            transitions: Vec::new(),
            initial: StateId(0),
        }
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> StateId {
        let s = StateId(self.num_states as u32);
        self.num_states += 1;
        s
    }

    /// Adds a transition. Panics on an empty label (λ-transitions are not
    /// representable; use a padding symbol).
    pub fn add_transition(&mut self, t: AugTransition) {
        assert!(
            !t.label.is_empty(),
            "augmented transitions must carry a non-empty label string"
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

    /// The base alphabet `Σ` (without negations).
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// All transitions.
    pub fn transitions(&self) -> &[AugTransition] {
        &self.transitions
    }

    /// The size: total label symbols + child slots over all transitions.
    pub fn size(&self) -> usize {
        self.transitions
            .iter()
            .map(|t| 1 + t.label.len() + t.children.len())
            .sum()
    }

    /// Translates into an ordinary NFTA over `Σ' = Σ ∪ {¬α | α ∈ Σ}`
    /// (the two-stage semantics of §4.1). Returns the NFTA together with
    /// the map from base symbols to their negated counterparts
    /// (`neg[s.index()]` is `¬s`).
    ///
    /// Stage 1 replaces every length-`j` label by a chain of `j−1` fresh
    /// states; stage 2 replaces every `α?` edge by parallel `α` / `¬α`
    /// edges. Runs in time linear in [`AugmentedNfta::size`] (Remark 1).
    pub fn translate(&self) -> (Nfta, Vec<SymbolId>) {
        // Build Σ': copy base symbols (preserving ids), append negations.
        let mut alphabet = self.alphabet.clone();
        let neg: Vec<SymbolId> = self
            .alphabet
            .symbols()
            .map(|s| {
                let name = format!("¬{}", self.alphabet.name(s));
                alphabet.intern(&name)
            })
            .collect();

        let mut out = Nfta::new(alphabet);
        // Mirror the original states: state ids must be preserved, so add
        // num_states − 1 more (Nfta::new created state 0).
        for _ in 1..self.num_states {
            out.add_state();
        }
        out.set_initial(self.initial);

        for t in &self.transitions {
            // Chain: src --γ1--> r1 --γ2--> … --γj--> children.
            let mut cur = t.src;
            for (pos, sym) in t.label.iter().enumerate() {
                let is_last = pos + 1 == t.label.len();
                let next_children: Vec<StateId> = if is_last {
                    t.children.clone()
                } else {
                    vec![out.add_state()]
                };
                out.add_transition(Transition {
                    src: cur,
                    symbol: sym.symbol,
                    children: next_children.clone(),
                });
                if sym.optional {
                    out.add_transition(Transition {
                        src: cur,
                        symbol: neg[sym.symbol.index()],
                        children: next_children.clone(),
                    });
                }
                if !is_last {
                    cur = next_children[0];
                }
            }
        }
        (out, neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count_trees_exact, Tree};

    #[test]
    fn plain_string_becomes_chain() {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let mut aug = AugmentedNfta::new(alpha);
        let q = aug.initial();
        aug.add_transition(AugTransition {
            src: q,
            label: vec![AugSymbol::plain(a), AugSymbol::plain(b)],
            children: vec![],
        });
        let (nfta, _) = aug.translate();
        // Accepts exactly the path a→b.
        let t = Tree::node(a, vec![Tree::leaf(b)]);
        assert!(nfta.accepts(&t));
        assert!(!nfta.accepts(&Tree::leaf(a)));
        assert_eq!(count_trees_exact(&nfta, 2).to_u64(), Some(1));
        assert_eq!(nfta.num_states(), 2); // q + 1 fresh chain state
    }

    #[test]
    fn optional_symbol_doubles_language() {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let mut aug = AugmentedNfta::new(alpha);
        let q = aug.initial();
        aug.add_transition(AugTransition {
            src: q,
            label: vec![AugSymbol::plain(a), AugSymbol::optional(b)],
            children: vec![],
        });
        let (nfta, neg) = aug.translate();
        let not_b = neg[b.index()];
        assert!(nfta.accepts(&Tree::node(a, vec![Tree::leaf(b)])));
        assert!(nfta.accepts(&Tree::node(a, vec![Tree::leaf(not_b)])));
        assert_eq!(count_trees_exact(&nfta, 2).to_u64(), Some(2));
        assert_eq!(nfta.alphabet().name(not_b), "¬b");
    }

    #[test]
    fn all_optional_counts_power_of_two() {
        // One transition whose label is k optional symbols: 2^k trees.
        let mut alpha = Alphabet::new();
        let syms: Vec<SymbolId> = (0..5).map(|i| alpha.intern(&format!("f{i}"))).collect();
        let mut aug = AugmentedNfta::new(alpha);
        let q = aug.initial();
        aug.add_transition(AugTransition {
            src: q,
            label: syms.iter().map(|&s| AugSymbol::optional(s)).collect(),
            children: vec![],
        });
        let (nfta, _) = aug.translate();
        assert_eq!(count_trees_exact(&nfta, 5).to_u64(), Some(32));
        assert!(count_trees_exact(&nfta, 4).is_zero());
    }

    #[test]
    fn children_preserved_after_chain() {
        // Label of length 2 leading into two leaf children.
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let l = alpha.intern("leaf");
        let mut aug = AugmentedNfta::new(alpha);
        let q = aug.initial();
        let ql = aug.add_state();
        aug.add_transition(AugTransition {
            src: q,
            label: vec![AugSymbol::plain(a), AugSymbol::plain(b)],
            children: vec![ql, ql],
        });
        aug.add_transition(AugTransition {
            src: ql,
            label: vec![AugSymbol::plain(l)],
            children: vec![],
        });
        let (nfta, _) = aug.translate();
        let t = Tree::node(a, vec![Tree::node(b, vec![Tree::leaf(l), Tree::leaf(l)])]);
        assert!(nfta.accepts(&t));
        assert_eq!(count_trees_exact(&nfta, 4).to_u64(), Some(1));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn lambda_labels_rejected() {
        let mut aug = AugmentedNfta::new(Alphabet::new());
        let q = aug.initial();
        aug.add_transition(AugTransition {
            src: q,
            label: vec![],
            children: vec![],
        });
    }

    #[test]
    fn translation_size_is_linear() {
        let mut alpha = Alphabet::new();
        let syms: Vec<SymbolId> = (0..40).map(|i| alpha.intern(&format!("s{i}"))).collect();
        let mut aug = AugmentedNfta::new(alpha);
        let q = aug.initial();
        aug.add_transition(AugTransition {
            src: q,
            label: syms.iter().map(|&s| AugSymbol::optional(s)).collect(),
            children: vec![],
        });
        let aug_size = aug.size();
        let (nfta, _) = aug.translate();
        // 40 chain positions × 2 parallel edges each.
        assert_eq!(nfta.transitions().len(), 80);
        assert!(nfta.size() <= 6 * aug_size, "blow-up beyond linear");
    }
}
