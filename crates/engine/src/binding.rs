//! Partial variable bindings with backtracking support.

use pqe_db::Const;
use pqe_query::Var;

/// A partial assignment `vars(Q) → U`, with an undo trail for backtracking
/// joins.
#[derive(Debug, Clone)]
pub struct Binding {
    slots: Vec<Option<Const>>,
    trail: Vec<Var>,
}

impl Binding {
    /// An empty binding over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        Binding {
            slots: vec![None; num_vars],
            trail: Vec::new(),
        }
    }

    /// Current value of `v`, if bound.
    pub fn get(&self, v: Var) -> Option<Const> {
        self.slots[v.index()]
    }

    /// Binds `v := c` if consistent with the current value.
    /// Returns `false` (binding unchanged) on conflict.
    pub fn bind(&mut self, v: Var, c: Const) -> bool {
        match self.slots[v.index()] {
            Some(existing) => existing == c,
            None => {
                self.slots[v.index()] = Some(c);
                self.trail.push(v);
                true
            }
        }
    }

    /// A checkpoint for [`Binding::rollback`].
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Unbinds everything bound since `mark`.
    pub fn rollback(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let v = self.trail.pop().unwrap();
            self.slots[v.index()] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_conflict() {
        let mut b = Binding::new(3);
        assert!(b.bind(Var(0), Const(5)));
        assert!(b.bind(Var(0), Const(5))); // re-bind same value ok
        assert!(!b.bind(Var(0), Const(6))); // conflict
        assert_eq!(b.get(Var(0)), Some(Const(5)));
        assert_eq!(b.get(Var(1)), None);
    }

    #[test]
    fn rollback_restores() {
        let mut b = Binding::new(3);
        b.bind(Var(0), Const(1));
        let m = b.mark();
        b.bind(Var(1), Const(2));
        b.bind(Var(2), Const(3));
        assert_eq!(b.mark(), 3);
        b.rollback(m);
        assert_eq!(b.get(Var(0)), Some(Const(1)));
        assert_eq!(b.get(Var(1)), None);
        assert_eq!(b.get(Var(2)), None);
        assert_eq!(b.mark(), 1);
    }

    #[test]
    fn rebinding_same_value_does_not_grow_trail() {
        let mut b = Binding::new(1);
        b.bind(Var(0), Const(9));
        let m = b.mark();
        assert!(b.bind(Var(0), Const(9)));
        assert_eq!(b.mark(), m);
    }
}
