//! Interned forest identities for the NFTA counters.
//!
//! Every forest the estimators ever recurse on is a *suffix* of some
//! transition's child list: `Forest(q₁…q_k, m)` splits into the head tree
//! and `Forest(q₂…q_k, m−j)`. The DP memos used to key those forests by
//! `(Vec<StateId>, m)` — allocating and hashing a fresh vector on **every**
//! probe of the sampling hot loop. This registry interns each distinct
//! suffix once, up front, into a dense `u32` id carrying its head state,
//! tail id, and length; memo keys become `(u32, usize)`.
//!
//! Interning is by value (equal child lists share an id, exactly as equal
//! `Vec` keys shared a memo entry before), so DP values and evaluation
//! order — and therefore every golden digit — are unchanged.

use crate::{Nfta, StateId};
use pqe_par::FxHashMap;

/// Sentinel id for the empty forest (which has no head to store).
pub(crate) const EMPTY_FOREST: u32 = u32::MAX;

/// The interning table: one entry per distinct nonempty transition-children
/// suffix (see module docs). Built once per automaton, immutable after.
pub(crate) struct ForestReg {
    heads: Vec<StateId>,
    tails: Vec<u32>,
    lens: Vec<u32>,
    /// `fid` of each transition's full child forest, indexed by transition.
    tr_fid: Vec<u32>,
}

impl ForestReg {
    pub fn new(nfta: &Nfta) -> Self {
        let mut reg = ForestReg {
            heads: Vec::new(),
            tails: Vec::new(),
            lens: Vec::new(),
            tr_fid: Vec::with_capacity(nfta.transitions().len()),
        };
        let mut by_slice = FxHashMap::default();
        for tr in nfta.transitions() {
            let fid = reg.intern(&tr.children, &mut by_slice);
            reg.tr_fid.push(fid);
        }
        reg
    }

    fn intern(&mut self, states: &[StateId], by_slice: &mut FxHashMap<Vec<StateId>, u32>) -> u32 {
        if states.is_empty() {
            return EMPTY_FOREST;
        }
        if let Some(&f) = by_slice.get(states) {
            return f;
        }
        let tail = self.intern(&states[1..], by_slice);
        let f = self.heads.len() as u32;
        self.heads.push(states[0]);
        self.tails.push(tail);
        self.lens.push(states.len() as u32);
        by_slice.insert(states.to_vec(), f);
        f
    }

    /// First state of forest `f` (must not be [`EMPTY_FOREST`]).
    #[inline]
    pub fn head(&self, f: u32) -> StateId {
        self.heads[f as usize]
    }

    /// Forest `f` minus its head ([`EMPTY_FOREST`] for singletons).
    #[inline]
    pub fn tail(&self, f: u32) -> u32 {
        self.tails[f as usize]
    }

    /// Number of states in forest `f` (must not be [`EMPTY_FOREST`]).
    #[inline]
    pub fn len(&self, f: u32) -> usize {
        self.lens[f as usize] as usize
    }

    /// Number of states in forest `f`, `0` for [`EMPTY_FOREST`].
    #[inline]
    pub fn arity(&self, f: u32) -> usize {
        if f == EMPTY_FOREST {
            0
        } else {
            self.len(f)
        }
    }

    /// Number of interned forests: ids are `0..num_forests()`.
    pub fn num_forests(&self) -> usize {
        self.heads.len()
    }

    /// The id of transition `ti`'s full child forest.
    #[inline]
    pub fn transition_forest(&self, ti: usize) -> u32 {
        self.tr_fid[ti]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Alphabet, Transition};

    #[test]
    fn suffixes_are_shared_across_transitions() {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let mut t = Nfta::new(alpha);
        let q = t.initial();
        let r = t.add_state();
        t.add_transition(Transition {
            src: q,
            symbol: a,
            children: vec![q, r],
        });
        t.add_transition(Transition {
            src: q,
            symbol: b,
            children: vec![r],
        });
        t.add_transition(Transition {
            src: r,
            symbol: b,
            children: vec![],
        });
        let reg = ForestReg::new(&t);
        // [q, r]'s tail is the same id as transition 1's forest [r].
        let f0 = reg.transition_forest(0);
        let f1 = reg.transition_forest(1);
        assert_eq!(reg.tail(f0), f1);
        assert_eq!(reg.transition_forest(2), EMPTY_FOREST);
        assert_eq!(reg.len(f0), 2);
        assert_eq!(reg.head(f0), StateId(0));
        assert_eq!(reg.head(f1), StateId(1));
        assert_eq!(reg.tail(f1), EMPTY_FOREST);
        assert_eq!((reg.arity(f0), reg.arity(EMPTY_FOREST)), (2, 0));
    }
}
