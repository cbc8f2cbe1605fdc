//! CountNFTA's exact view of an automaton's unions: which transitions each
//! state's union estimates group together, and which states are
//! *ambiguous below*. Both depend only on the automaton and on
//! `FprasConfig::naive_unions`, so they are built once, before the
//! repetition fan-out, and borrowed by every `NftaCounter` — the way the
//! counters borrow [`RunTables`](crate::RunTables).

use crate::{Nfta, StateId};

/// Per-state transition groups and ambiguity flags of an [`Nfta`] (see the
/// module docs).
///
/// A state's transitions are grouped by root symbol, or into one group
/// under `naive_unions`. A state is *ambiguous below* iff it, or a state
/// some transition chain reaches from it, owns a group of two or more
/// transitions. Where a state is not, at most one transition of each state
/// under it fits any node, so every tree has at most one run from it.
///
/// The groups are stored flat: transition ids by source state, then by
/// symbol, then by id, with one end offset per group and one group range
/// per state.
#[derive(Debug)]
pub struct Ambiguity {
    naive_unions: bool,
    transitions: Vec<usize>,
    /// `group_ends[g]`: where group `g` ends in `transitions`; it starts
    /// where group `g − 1` ends.
    group_ends: Vec<u32>,
    /// `state_groups[q]..state_groups[q + 1]`: the groups of state `q`.
    state_groups: Vec<u32>,
    below: Vec<bool>,
}

impl Ambiguity {
    /// Groups `nfta`'s transitions (by symbol unless `naive_unions`) and
    /// marks the states ambiguous below in one backward pass.
    pub fn new(nfta: &Nfta, naive_unions: bool) -> Self {
        let n = nfta.num_states();
        let mut transitions = Vec::with_capacity(nfta.transitions().len());
        let mut group_ends = Vec::new();
        let mut state_groups = Vec::with_capacity(n + 1);
        let mut ambiguous = Vec::with_capacity(n);
        state_groups.push(0);
        for q in (0..n).map(|q| StateId(q as u32)) {
            let start = transitions.len();
            transitions.extend_from_slice(nfta.transitions_from(q));
            let symbol = |&ti: &usize| nfta.transitions()[ti].symbol;
            if !naive_unions {
                // Stable: ids stay in ascending order within a symbol.
                transitions[start..].sort_by_key(symbol);
            }
            let same_group = |a: &usize, b: &usize| naive_unions || symbol(a) == symbol(b);
            let (mut end, mut largest) = (start, 0);
            for group in transitions[start..].chunk_by(same_group) {
                end += group.len();
                largest = largest.max(group.len());
                group_ends.push(end as u32);
            }
            // `add_transition` keeps Δ a set, so no group holds a duplicate.
            ambiguous.push(largest > 1);
            state_groups.push(group_ends.len() as u32);
        }
        let below = mark_ancestors(
            ambiguous,
            nfta.transitions()
                .iter()
                .flat_map(|tr| tr.children.iter().map(|&c| (tr.src, c))),
        );
        Ambiguity {
            naive_unions,
            transitions,
            group_ends,
            state_groups,
            below,
        }
    }

    /// Whether the groups were built under `naive_unions`.
    pub(crate) fn naive_unions(&self) -> bool {
        self.naive_unions
    }

    /// Number of states of the automaton analysed.
    pub(crate) fn num_states(&self) -> usize {
        self.below.len()
    }

    /// `q`'s transition groups, in symbol order (see the type docs).
    pub(crate) fn groups(&self, q: StateId) -> impl Iterator<Item = &[usize]> {
        let (first, last) = (
            self.state_groups[q.index()],
            self.state_groups[q.index() + 1],
        );
        (first as usize..last as usize).map(move |g| {
            let start = if g == 0 {
                0
            } else {
                self.group_ends[g - 1] as usize
            };
            &self.transitions[start..self.group_ends[g] as usize]
        })
    }

    /// Whether `q` is ambiguous below (see the type docs).
    #[inline]
    pub fn is_ambiguous_below(&self, q: StateId) -> bool {
        self.below[q.index()]
    }
}

/// Closes `marked` (one flag per state) under "has a transition into a
/// marked state", given the transitions as `(source, target)` edges: a
/// backward worklist that marks each state, and scans its sources, at
/// most once — linear in the edges.
pub(crate) fn mark_ancestors(
    mut marked: Vec<bool>,
    edges: impl Iterator<Item = (StateId, StateId)> + Clone,
) -> Vec<bool> {
    // The sources of each target, flat: `sources[starts[t]..starts[t + 1]]`.
    let mut starts = vec![0u32; marked.len() + 1];
    for (_, dst) in edges.clone() {
        starts[dst.index() + 1] += 1;
    }
    for t in 0..marked.len() {
        starts[t + 1] += starts[t];
    }
    let mut fill = starts.clone();
    let mut sources = vec![StateId(0); starts[marked.len()] as usize];
    for (src, dst) in edges {
        sources[fill[dst.index()] as usize] = src;
        fill[dst.index()] += 1;
    }
    let mut work: Vec<usize> = (0..marked.len()).filter(|&q| marked[q]).collect();
    while let Some(q) = work.pop() {
        for p in &sources[starts[q] as usize..starts[q + 1] as usize] {
            if !marked[p.index()] {
                marked[p.index()] = true;
                work.push(p.index());
            }
        }
    }
    marked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Alphabet, Transition};

    /// The repeat-until-stable fixpoint the worklist replaced.
    fn fixpoint(nfta: &Nfta, amb: &Ambiguity) -> Vec<bool> {
        let n = nfta.num_states();
        let mut below: Vec<bool> = (0..n)
            .map(|q| amb.groups(StateId(q as u32)).any(|g| g.len() > 1))
            .collect();
        loop {
            let mut changed = false;
            for q in 0..n {
                let reaches = nfta.transitions_from(StateId(q as u32)).iter().any(|&ti| {
                    nfta.transitions()[ti]
                        .children
                        .iter()
                        .any(|c| below[c.index()])
                });
                if !below[q] && reaches {
                    below[q] = true;
                    changed = true;
                }
            }
            if !changed {
                return below;
            }
        }
    }

    #[test]
    fn worklist_agrees_with_the_fixpoint() {
        use pqe_rand::rngs::StdRng;
        use pqe_rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xA3B);
        for _ in 0..300 {
            let mut alpha = Alphabet::new();
            let syms = [alpha.intern("a"), alpha.intern("b"), alpha.intern("c")];
            let mut t = Nfta::new(alpha);
            let states: Vec<StateId> = std::iter::once(t.initial())
                .chain((0..rng.random_range(0..7usize)).map(|_| t.add_state()))
                .collect();
            for _ in 0..rng.random_range(0..12usize) {
                let arity = rng.random_range(0..3usize);
                t.add_transition(Transition {
                    src: states[rng.random_range(0..states.len())],
                    symbol: syms[rng.random_range(0..3usize)],
                    children: (0..arity)
                        .map(|_| states[rng.random_range(0..states.len())])
                        .collect(),
                });
            }
            for naive in [false, true] {
                let amb = Ambiguity::new(&t, naive);
                let below: Vec<bool> = (0..t.num_states())
                    .map(|q| amb.is_ambiguous_below(StateId(q as u32)))
                    .collect();
                assert_eq!(below, fixpoint(&t, &amb), "naive={naive}\n{t}");
            }
        }
    }

    #[test]
    fn groups_split_by_symbol_unless_naive() {
        let mut alpha = Alphabet::new();
        let (a, b) = (alpha.intern("a"), alpha.intern("b"));
        let mut t = Nfta::new(alpha);
        let q = t.initial();
        let r = t.add_state();
        t.add_transition(Transition {
            src: q,
            symbol: a,
            children: vec![r],
        });
        t.add_transition(Transition {
            src: q,
            symbol: b,
            children: vec![r],
        });
        t.add_transition(Transition {
            src: r,
            symbol: a,
            children: vec![],
        });
        let grouped = Ambiguity::new(&t, false);
        assert_eq!(grouped.groups(q).collect::<Vec<_>>(), [[0], [1]]);
        assert!(!grouped.is_ambiguous_below(q));
        // One group per state: q's two transitions now form one union.
        let naive = Ambiguity::new(&t, true);
        assert_eq!(naive.groups(q).collect::<Vec<_>>(), [[0, 1]]);
        assert!(naive.is_ambiguous_below(q) && !naive.is_ambiguous_below(r));
    }
}
