//! Non-deterministic finite string automata (paper §2).
//!
//! Includes the exact counting oracles used to validate the FPRAS:
//! accepting-*path* counting (polynomial; equals string counting only for
//! unambiguous automata) and exact distinct-*string* counting via on-the-fly
//! subset determinization (exponential worst case; a test oracle).

use crate::{Alphabet, SymbolId};
use pqe_arith::BigUint;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A state of an [`Nfa`] or [`crate::Nfta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A non-deterministic finite automaton `M = (S, Σ, δ, I, F)`.
#[derive(Debug, Clone)]
pub struct Nfa {
    alphabet: Alphabet,
    num_states: usize,
    transitions: Vec<(StateId, SymbolId, StateId)>,
    /// Outgoing transitions per state, grouped for fast stepping.
    from: Vec<Vec<(SymbolId, StateId)>>,
    initial: BTreeSet<StateId>,
    accepting: BTreeSet<StateId>,
}

impl Nfa {
    /// An automaton with no states over `alphabet`.
    pub fn new(alphabet: Alphabet) -> Self {
        Nfa {
            alphabet,
            num_states: 0,
            transitions: Vec::new(),
            from: Vec::new(),
            initial: BTreeSet::new(),
            accepting: BTreeSet::new(),
        }
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> StateId {
        let s = StateId(self.num_states as u32);
        self.num_states += 1;
        self.from.push(Vec::new());
        s
    }

    /// Adds the transition `(src, sym, dst)`. Idempotent: `δ` is a
    /// relation, so re-adding an existing tuple is a no-op (duplicates
    /// would otherwise inflate the accepting-path count).
    pub fn add_transition(&mut self, src: StateId, sym: SymbolId, dst: StateId) {
        debug_assert!(src.index() < self.num_states && dst.index() < self.num_states);
        if self.from[src.index()].contains(&(sym, dst)) {
            return;
        }
        self.transitions.push((src, sym, dst));
        self.from[src.index()].push((sym, dst));
    }

    /// Marks `s` initial.
    pub fn set_initial(&mut self, s: StateId) {
        self.initial.insert(s);
    }

    /// Marks `s` accepting.
    pub fn set_accepting(&mut self, s: StateId) {
        self.accepting.insert(s);
    }

    /// The alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The size `|M|`: the encoding size of the transition relation (we
    /// report the transition count; the bit-encoding differs only by a
    /// logarithmic factor).
    pub fn size(&self) -> usize {
        self.transitions.len()
    }

    /// The initial state set.
    pub fn initial_states(&self) -> &BTreeSet<StateId> {
        &self.initial
    }

    /// The accepting state set.
    pub fn accepting_states(&self) -> &BTreeSet<StateId> {
        &self.accepting
    }

    /// Outgoing `(symbol, target)` pairs of `s`.
    pub fn transitions_from(&self, s: StateId) -> &[(SymbolId, StateId)] {
        &self.from[s.index()]
    }

    /// All transitions `(src, symbol, dst)` in insertion order.
    pub fn all_transitions(&self) -> &[(StateId, SymbolId, StateId)] {
        &self.transitions
    }

    /// One simultaneous step of the subset simulation.
    fn step(&self, states: &BTreeSet<StateId>, sym: SymbolId) -> BTreeSet<StateId> {
        let mut next = BTreeSet::new();
        for &s in states {
            for &(a, t) in &self.from[s.index()] {
                if a == sym {
                    next.insert(t);
                }
            }
        }
        next
    }

    /// Whether `word` is accepted (from the initial set).
    pub fn accepts(&self, word: &[SymbolId]) -> bool {
        self.accepts_from(self.initial.clone(), word)
    }

    /// Whether `word` is accepted starting from the given state set.
    pub fn accepts_from(&self, mut states: BTreeSet<StateId>, word: &[SymbolId]) -> bool {
        for &sym in word {
            if states.is_empty() {
                return false;
            }
            states = self.step(&states, sym);
        }
        states.iter().any(|s| self.accepting.contains(s))
    }

    /// Allocation-free equivalent of
    /// `accepts_from(BTreeSet::from([q]), word)` using caller-provided
    /// frontier buffers — the FPRAS membership oracle's hot path. Frontier
    /// sets of the PQE-reduction automata are tiny, so a sorted vector
    /// beats a fresh `BTreeSet` per step.
    ///
    /// `run` is empty, or lists the states after each symbol of an
    /// accepting run of `word` (from any state): once the frontier holds
    /// the run's state, the run's suffix accepts the rest of `word`.
    pub(crate) fn accepts_from_state_buf(
        &self,
        q: StateId,
        word: &[SymbolId],
        run: &[StateId],
        cur: &mut Vec<StateId>,
        next: &mut Vec<StateId>,
    ) -> bool {
        cur.clear();
        cur.push(q);
        for (i, &sym) in word.iter().enumerate() {
            if cur.is_empty() {
                return false;
            }
            next.clear();
            for &s in cur.iter() {
                for &(a, t) in &self.from[s.index()] {
                    if a == sym {
                        next.push(t);
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            std::mem::swap(cur, next);
            if run.get(i).is_some_and(|r| cur.binary_search(r).is_ok()) {
                return true;
            }
        }
        cur.iter().any(|s| self.accepting.contains(s))
    }

    /// Exact number of *accepting paths* of length `n` (one per run, not
    /// per string): `Σ_{q∈I} P(q,n)` with
    /// `P(q,0) = [q ∈ F]`, `P(q,i) = Σ_{(a,q')∈δ(q)} P(q',i−1)`.
    ///
    /// Equals `|L_n(M)|` iff the automaton is unambiguous on length-`n`
    /// input.
    pub fn count_accepting_paths(&self, n: usize) -> BigUint {
        let mut cur: Vec<BigUint> = (0..self.num_states)
            .map(|q| {
                if self.accepting.contains(&StateId(q as u32)) {
                    BigUint::one()
                } else {
                    BigUint::zero()
                }
            })
            .collect();
        for _ in 0..n {
            let mut next = vec![BigUint::zero(); self.num_states];
            for (q, slot) in next.iter_mut().enumerate() {
                let mut acc = BigUint::zero();
                for &(_, t) in &self.from[q] {
                    acc += &cur[t.index()];
                }
                *slot = acc;
            }
            cur = next;
        }
        self.initial
            .iter()
            .fold(BigUint::zero(), |acc, q| &acc + &cur[q.index()])
    }

    /// Exact `|L_n(M)|` — the number of **distinct** strings of length `n`
    /// accepted — via on-the-fly subset determinization.
    ///
    /// Worst-case exponential in `|S|`; intended as a test oracle and
    /// baseline (the quantity is #P-hard in general, which is exactly why
    /// the paper needs the CountNFA FPRAS).
    pub fn count_strings_exact(&self, n: usize) -> BigUint {
        let mut level: HashMap<Vec<StateId>, BigUint> = HashMap::new();
        let init: Vec<StateId> = self.initial.iter().copied().collect();
        if init.is_empty() {
            return BigUint::zero();
        }
        level.insert(init, BigUint::one());
        for _ in 0..n {
            let mut next: HashMap<Vec<StateId>, BigUint> = HashMap::new();
            for (subset, count) in &level {
                let states: BTreeSet<StateId> = subset.iter().copied().collect();
                for sym in self.alphabet.symbols() {
                    let stepped = self.step(&states, sym);
                    if stepped.is_empty() {
                        continue;
                    }
                    let key: Vec<StateId> = stepped.into_iter().collect();
                    let entry = next.entry(key).or_insert_with(BigUint::zero);
                    *entry += count;
                }
            }
            level = next;
        }
        level
            .iter()
            .filter(|(subset, _)| subset.iter().any(|s| self.accepting.contains(s)))
            .fold(BigUint::zero(), |acc, (_, c)| &acc + c)
    }

    /// Whether two distinct runs accept the same string of any length ≤ `n`
    /// (ambiguity witness search over the product construction).
    pub fn is_ambiguous_upto(&self, n: usize) -> bool {
        // Pairs (p, q) reachable by the same string; diverged flag records
        // whether the two runs differed at some point.
        let mut frontier: BTreeSet<(StateId, StateId, bool)> = BTreeSet::new();
        for &p in &self.initial {
            for &q in &self.initial {
                frontier.insert((p, q, p != q));
            }
        }
        let mut seen = frontier.clone();
        for _ in 0..n {
            if frontier
                .iter()
                .any(|&(p, q, d)| d && self.accepting.contains(&p) && self.accepting.contains(&q))
            {
                return true;
            }
            let mut next = BTreeSet::new();
            for &(p, q, d) in &frontier {
                for &(a1, t1) in &self.from[p.index()] {
                    for &(a2, t2) in &self.from[q.index()] {
                        if a1 == a2 {
                            let entry = (t1, t2, d || t1 != t2);
                            if seen.insert(entry) {
                                next.insert(entry);
                            }
                        }
                    }
                }
            }
            frontier = next;
        }
        frontier
            .iter()
            .any(|&(p, q, d)| d && self.accepting.contains(&p) && self.accepting.contains(&q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Automaton accepting binary strings ending in `1`.
    fn ends_in_one() -> Nfa {
        let mut alpha = Alphabet::new();
        let zero = alpha.intern("0");
        let one = alpha.intern("1");
        let mut m = Nfa::new(alpha);
        let s = m.add_state();
        let f = m.add_state();
        m.set_initial(s);
        m.set_accepting(f);
        m.add_transition(s, zero, s);
        m.add_transition(s, one, s);
        m.add_transition(s, one, f);
        m
    }

    #[test]
    fn accepts_matches_language() {
        let m = ends_in_one();
        let a = m.alphabet().get("0").unwrap();
        let b = m.alphabet().get("1").unwrap();
        assert!(m.accepts(&[b]));
        assert!(m.accepts(&[a, a, b]));
        assert!(!m.accepts(&[b, a]));
        assert!(!m.accepts(&[]));
    }

    #[test]
    fn exact_string_count_is_half_of_strings() {
        let m = ends_in_one();
        // Strings of length n ending in 1: 2^(n-1).
        for n in 1..=10 {
            assert_eq!(
                m.count_strings_exact(n).to_u64(),
                Some(1 << (n - 1)),
                "n = {n}"
            );
        }
        assert_eq!(m.count_strings_exact(0).to_u64(), Some(0));
    }

    #[test]
    fn path_count_differs_for_ambiguous() {
        // `ends_in_one` is unambiguous (the run is determined by the string:
        // stay in s, final step to f). Paths == strings.
        let m = ends_in_one();
        assert_eq!(m.count_accepting_paths(4), m.count_strings_exact(4));
        assert!(!m.is_ambiguous_upto(8));
    }

    #[test]
    fn ambiguous_automaton_detected() {
        // Two parallel paths accepting the same single-symbol string.
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let mut m = Nfa::new(alpha);
        let s = m.add_state();
        let f1 = m.add_state();
        let f2 = m.add_state();
        m.set_initial(s);
        m.set_accepting(f1);
        m.set_accepting(f2);
        m.add_transition(s, a, f1);
        m.add_transition(s, a, f2);
        assert!(m.is_ambiguous_upto(2));
        assert_eq!(m.count_accepting_paths(1).to_u64(), Some(2));
        assert_eq!(m.count_strings_exact(1).to_u64(), Some(1));
    }

    #[test]
    fn empty_initial_accepts_nothing() {
        let mut alpha = Alphabet::new();
        alpha.intern("a");
        let mut m = Nfa::new(alpha);
        let s = m.add_state();
        m.set_accepting(s);
        assert!(!m.accepts(&[]));
        assert!(m.count_strings_exact(3).is_zero());
    }

    #[test]
    fn size_counts_transitions() {
        let m = ends_in_one();
        assert_eq!(m.size(), 3);
        assert_eq!(m.num_states(), 2);
    }
}
