//! Top-down non-deterministic finite tree automata (paper §2).
//!
//! Besides the automaton itself, this module holds the two exact per-tree
//! DPs of the FPRAS — membership ([`Nfta::accepted_at`]) and the run
//! count `M(t)` ([`Nfta::runs_at`]) — over the flat [`IndexedTree`] arena
//! the samplers draw into. The trees of the PQE reduction are almost all
//! unary chains (fact bits, multiplier-gadget bits), so both DPs walk a
//! maximal unary chain in a loop, carrying the states (and, for `M(t)`,
//! the run counts) of every run at once, as an NFA simulation carries a
//! string's frontier. Only nodes of arity ≠ 1 recurse and are memoized
//! in the [`NodeMemo`], which also holds the frontiers.

use crate::{Alphabet, Ambiguity, StateId, SymbolId};
use pqe_arith::FixUint;
use std::fmt;

/// A labelled tree `t ∈ Trees_k[Σ]`: a node label plus an ordered list of
/// children (the paper's prefix-closed-set view, materialized).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tree {
    /// The node's label `t(u)`.
    pub label: SymbolId,
    /// Ordered children.
    pub children: Vec<Tree>,
}

impl Tree {
    /// A leaf node.
    pub fn leaf(label: SymbolId) -> Self {
        Tree {
            label,
            children: Vec::new(),
        }
    }

    /// An internal node.
    pub fn node(label: SymbolId, children: Vec<Tree>) -> Self {
        Tree { label, children }
    }

    /// `|t|`: the number of nodes.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(Tree::size).sum::<usize>()
    }

    /// Pre-order traversal of the labels.
    pub fn labels_preorder(&self) -> Vec<SymbolId> {
        let mut out = Vec::with_capacity(self.size());
        self.collect_preorder(&mut out);
        out
    }

    fn collect_preorder(&self, out: &mut Vec<SymbolId>) {
        out.push(self.label);
        for c in &self.children {
            c.collect_preorder(out);
        }
    }

    /// Renders with the given alphabet, e.g. `a(b,c(d))`.
    pub fn display(&self, alphabet: &Alphabet) -> String {
        let mut s = alphabet.name(self.label).to_owned();
        if !self.children.is_empty() {
            s.push('(');
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&c.display(alphabet));
            }
            s.push(')');
        }
        s
    }
}

/// One transition `(src, symbol, children) ∈ Δ ⊆ S × Σ × (∪_i S^i)`.
/// `children.is_empty()` is the leaf case `(s, a, λ)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Source state.
    pub src: StateId,
    /// Node label consumed.
    pub symbol: SymbolId,
    /// States assigned to the node's children, in order.
    pub children: Vec<StateId>,
}

/// A top-down NFTA `T = (S, Σ, Δ, s_init)` without λ-transitions.
///
/// (The paper allows λ-transitions as sugar and removes them by standard
/// procedures; every automaton this workspace constructs is λ-free by
/// design — see DESIGN.md §2.1.)
#[derive(Debug, Clone)]
pub struct Nfta {
    alphabet: Alphabet,
    num_states: usize,
    transitions: Vec<Transition>,
    by_src: Vec<Vec<usize>>,
    initial: StateId,
}

impl Nfta {
    /// A one-state automaton (state 0 = initial) over `alphabet`.
    pub fn new(alphabet: Alphabet) -> Self {
        Nfta {
            alphabet,
            num_states: 1,
            transitions: Vec::new(),
            by_src: vec![Vec::new()],
            initial: StateId(0),
        }
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> StateId {
        let s = StateId(self.num_states as u32);
        self.num_states += 1;
        self.by_src.push(Vec::new());
        s
    }

    /// Adds a transition. Idempotent: `Δ` is a relation, so re-adding an
    /// existing tuple is a no-op (duplicates would otherwise inflate the
    /// run count).
    pub fn add_transition(&mut self, t: Transition) {
        debug_assert!(t.src.index() < self.num_states);
        debug_assert!(t.children.iter().all(|c| c.index() < self.num_states));
        if self.by_src[t.src.index()]
            .iter()
            .any(|&i| self.transitions[i] == t)
        {
            return;
        }
        let idx = self.transitions.len();
        self.by_src[t.src.index()].push(idx);
        self.transitions.push(t);
    }

    /// Re-roots the automaton at `s`.
    pub fn set_initial(&mut self, s: StateId) {
        debug_assert!(s.index() < self.num_states);
        self.initial = s;
    }

    /// The initial state `s_init`.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// The alphabet `Σ`.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// All transitions.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Indices of transitions with source `s`.
    pub fn transitions_from(&self, s: StateId) -> &[usize] {
        &self.by_src[s.index()]
    }

    /// The size `|T|`: total encoding length of the transition relation
    /// (counted as the number of state/symbol slots written).
    pub fn size(&self) -> usize {
        self.transitions.iter().map(|t| 2 + t.children.len()).sum()
    }

    /// Whether `T` accepts `t` (a run from `s_init` exists).
    pub fn accepts(&self, t: &Tree) -> bool {
        self.accepts_from(self.initial, t)
    }

    /// Whether `t` is accepted starting from state `q`.
    pub fn accepts_from(&self, q: StateId, t: &Tree) -> bool {
        let it = IndexedTree::new(t);
        self.accepted_at(q, &it, 0, &mut NodeMemo::new())
    }

    /// Top-down acceptance of the subtree at `node` from `q`, over an
    /// [`IndexedTree`]. Callers doing repeated membership checks against
    /// the same tree should share the index and the memo (one
    /// [`NodeMemo`] per arena generation).
    ///
    /// A maximal unary chain is walked in a loop with the set of states a
    /// run from `q` can be in at the current node: a unary node maps the
    /// set through its matching arity-1 transitions, and the walk answers
    /// `false` when the set empties. Only at a node of arity ≠ 1 does a
    /// state's check recurse into the children and touch the memo.
    ///
    /// A node drawn by [`RunTables::sample_run_into`] is accepted from its
    /// [`IndexedTree::run_state`] without a search: the run it was drawn
    /// with is the witness, so the walk answers `true` once the set holds
    /// the run state of the node it is at.
    ///
    /// [`RunTables::sample_run_into`]: crate::RunTables::sample_run_into
    pub fn accepted_at(
        &self,
        q: StateId,
        it: &IndexedTree,
        node: usize,
        memo: &mut NodeMemo<bool>,
    ) -> bool {
        let base = memo.walk.len();
        memo.walk.push((q, true));
        let ok = self.accepted_walk(base, it, node, memo);
        memo.walk.truncate(base);
        ok
    }

    /// The chain walk of [`Nfta::accepted_at`] from `node`, its state set
    /// at `memo.walk[base..]` (the flags are unused). Each step pushes the
    /// next node's set above the current one and moves `base` up to it;
    /// the spent sets stay below until [`Nfta::accepted_at`] truncates.
    fn accepted_walk(
        &self,
        mut base: usize,
        it: &IndexedTree,
        mut node: usize,
        memo: &mut NodeMemo<bool>,
    ) -> bool {
        loop {
            let set = &mut memo.walk;
            let top = set.len();
            if top == base {
                return false;
            }
            if (it.run_state(node)).is_some_and(|r| set[base..].iter().any(|p| p.0 == r)) {
                return true;
            }
            let &[child] = it.children(node) else {
                return (base..top).any(|i| {
                    let q = memo.walk[i].0;
                    self.accepted_below(q, it, node, memo)
                });
            };
            let label = it.label(node);
            for i in base..top {
                for next in self.unary_moves(set[i].0, label) {
                    if !set[top..].iter().any(|p| p.0 == next) {
                        set.push((next, true));
                    }
                }
            }
            (base, node) = (top, child as usize);
        }
    }

    /// Whether a transition of `q` fits `node` and accepts its children,
    /// memoized: the step of [`Nfta::accepted_at`] at a node of arity ≠ 1.
    fn accepted_below(
        &self,
        q: StateId,
        it: &IndexedTree,
        node: usize,
        memo: &mut NodeMemo<bool>,
    ) -> bool {
        if let Some(&v) = memo.get(q, node) {
            return v;
        }
        let children = it.children(node);
        let label = it.label(node);
        let ok = self.by_src[q.index()].iter().any(|&ti| {
            let tr = &self.transitions[ti];
            tr.symbol == label
                && tr.children.len() == children.len()
                && (tr.children.iter().zip(children))
                    .all(|(&cq, &cn)| self.accepted_at(cq, it, cn as usize, memo))
        });
        memo.insert(q, node, ok);
        ok
    }

    /// `M(t)`: the number of accepting runs over the fixed tree `t`
    /// starting from `q` (exact).
    pub fn runs_of_tree(&self, q: StateId, t: &Tree) -> FixUint {
        let it = IndexedTree::new(t);
        self.runs_at(q, &it, 0, None, &mut NodeMemo::new())
    }

    /// [`Nfta::runs_of_tree`] over a node already in a flat arena, with a
    /// caller-owned [`NodeMemo`]. Node ids are unique within an arena
    /// generation and the DP is pure, so one memo may be shared across
    /// all candidates of a sample.
    ///
    /// A maximal unary chain is walked in a loop carrying a frontier of
    /// `(state, count)` pairs: `count` runs from `q` reach the current node
    /// in `state`. A unary node moves every pair through its matching
    /// arity-1 transitions, and pairs that meet in one state add their
    /// counts. A node of arity ≠ 1 ends the walk: each pair adds its count
    /// times the node's run count from its state, which recurses into the
    /// children and is memoized.
    ///
    /// Given the automaton's `ambiguity`, a pair whose state is the node's
    /// [`IndexedTree::run_state`] leaves the frontier with its count when
    /// that state is not ambiguous below: every tree then has at most one
    /// run from it, and the witness is one.
    ///
    /// Counts are exact [`FixUint`]s whatever their size. Every count is a
    /// sum of products of exact integers, so the order of the additions
    /// does not change the value.
    pub fn runs_at(
        &self,
        q: StateId,
        it: &IndexedTree,
        node: usize,
        ambiguity: Option<&Ambiguity>,
        memo: &mut NodeMemo<FixUint>,
    ) -> FixUint {
        let base = memo.walk.len();
        memo.walk.push((q, FixUint::one()));
        let total = self.runs_walk(base, it, node, ambiguity, memo);
        memo.walk.truncate(base);
        total
    }

    /// The chain walk of [`Nfta::runs_at`] from `node`, its frontier at
    /// `memo.walk[base..]`. Each step pushes the next node's frontier above
    /// the current one and moves `base` up to it, so no pair is moved
    /// down; the spent frontiers stay below until [`Nfta::runs_at`]
    /// truncates.
    fn runs_walk(
        &self,
        mut base: usize,
        it: &IndexedTree,
        mut node: usize,
        ambiguity: Option<&Ambiguity>,
        memo: &mut NodeMemo<FixUint>,
    ) -> FixUint {
        let mut total = FixUint::zero();
        loop {
            let pairs = &mut memo.walk;
            let exit = (it.run_state(node))
                .filter(|&r| ambiguity.is_some_and(|a| !a.is_ambiguous_below(r)));
            if let Some(i) = exit.and_then(|r| pairs[base..].iter().position(|p| p.0 == r)) {
                total += pairs.remove(base + i).1;
            }
            let top = pairs.len();
            if top == base {
                return total;
            }
            let &[child] = it.children(node) else {
                for i in base..top {
                    let (q, c) = memo.walk[i].clone();
                    let m = self.runs_below(q, it, node, ambiguity, memo);
                    total += &c * &m;
                }
                return total;
            };
            let label = it.label(node);
            for i in base..top {
                let (q, c) = pairs[i].clone();
                for next in self.unary_moves(q, label) {
                    match pairs[top..].iter_mut().find(|p| p.0 == next) {
                        Some(p) => p.1 += &c,
                        None => pairs.push((next, c.clone())),
                    }
                }
            }
            debug_assert!(
                pairs.len() - top <= self.num_states,
                "a state twice in a frontier"
            );
            (base, node) = (top, child as usize);
        }
    }

    /// The states `q` moves to at a unary node labelled `label`: the
    /// children of its arity-1 transitions on `label`.
    fn unary_moves(&self, q: StateId, label: SymbolId) -> impl Iterator<Item = StateId> + '_ {
        self.by_src[q.index()].iter().filter_map(move |&ti| {
            let tr = &self.transitions[ti];
            match tr.children[..] {
                [next] if tr.symbol == label => Some(next),
                _ => None,
            }
        })
    }

    /// `M` at `node` from `q` by `q`'s transitions, memoized: the step of
    /// [`Nfta::runs_at`] at a node of arity ≠ 1.
    fn runs_below(
        &self,
        q: StateId,
        it: &IndexedTree,
        node: usize,
        ambiguity: Option<&Ambiguity>,
        memo: &mut NodeMemo<FixUint>,
    ) -> FixUint {
        if let Some(m) = memo.get(q, node) {
            return m.clone();
        }
        let children = it.children(node);
        let label = it.label(node);
        let mut total = FixUint::zero();
        for &ti in &self.by_src[q.index()] {
            let tr = &self.transitions[ti];
            if tr.symbol != label || tr.children.len() != children.len() {
                continue;
            }
            let mut prod = FixUint::one();
            for (&cq, &cn) in tr.children.iter().zip(children) {
                prod = &prod * &self.runs_at(cq, it, cn as usize, ambiguity, memo);
                if prod.is_zero() {
                    break;
                }
            }
            total += prod;
        }
        memo.insert(q, node, total.clone());
        total
    }
}

/// The DP memo of [`Nfta::accepted_at`] and [`Nfta::runs_at`]: one value
/// per `(state, node)` of an [`IndexedTree`] arena generation, for the
/// nodes of arity ≠ 1 (unary chains are walked, not memoized).
///
/// A flat open-addressing table. The key `node · 2³² + state` picks its
/// home slot with one multiply (Fibonacci hashing), collisions probe the
/// next slots, and at most a quarter of the slots are live, so a probe
/// usually reads one slot however many states meet at one node. Every
/// slot records the generation that wrote it: [`NodeMemo::clear`] starts
/// a new generation, and older slots read as empty. The values sit in a
/// side vector the slots index.
///
/// The memo also holds the frontier buffer of the chain walks, stack
/// disciplined: a walk keeps its frontier above where the buffer stood
/// when it started, a walk nested below a node of arity ≠ 1 stacks its
/// own above that, and each walk truncates back when it ends.
///
/// All buffers are kept across clears, so a memo reused across samples
/// stops allocating at its high-water mark.
pub struct NodeMemo<V> {
    /// A power of two many slots.
    slots: Vec<MemoSlot>,
    /// The memoized values, in insertion order.
    values: Vec<V>,
    /// The chain walks' frontiers: `(state, count)` pairs of
    /// [`Nfta::runs_at`], the state sets of [`Nfta::accepted_at`].
    walk: Vec<(StateId, V)>,
    /// The generation of the live slots; never 0, which marks a slot
    /// never written.
    gen: u32,
}

#[derive(Clone, Copy, Default)]
struct MemoSlot {
    key: u64,
    gen: u32,
    /// Index into `NodeMemo::values`.
    value: u32,
}

/// Slots of a new [`NodeMemo`].
const MEMO_MIN_SLOTS: usize = 64;

impl<V> Default for NodeMemo<V> {
    fn default() -> Self {
        NodeMemo {
            slots: vec![MemoSlot::default(); MEMO_MIN_SLOTS],
            values: Vec::new(),
            walk: Vec::new(),
            gen: 1,
        }
    }
}

impl<V> NodeMemo<V> {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every entry, keeping the buffers. Required whenever the
    /// arena's node ids are reused (after [`IndexedTree::clear`]).
    pub fn clear(&mut self) {
        self.values.clear();
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // The stamps wrapped: erase them all once, then restart at 1.
            self.slots.fill(MemoSlot::default());
            self.gen = 1;
        }
    }

    /// Number of memoized `(state, node)` values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` iff nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    #[inline]
    fn key(q: StateId, node: usize) -> u64 {
        (node as u64) << 32 | u64::from(q.0)
    }

    /// The home slot of `key`: the top bits of its Fibonacci hash.
    #[inline]
    fn home(&self, key: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// The value memoized for `(q, node)`, if any.
    #[inline]
    pub(crate) fn get(&self, q: StateId, node: usize) -> Option<&V> {
        let key = Self::key(q, node);
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let slot = self.slots[i];
            if slot.gen != self.gen {
                return None;
            }
            if slot.key == key {
                return Some(&self.values[slot.value as usize]);
            }
            i = (i + 1) & mask;
        }
    }

    /// Memoizes `v` for `(q, node)`, which must not be memoized yet.
    #[inline]
    pub(crate) fn insert(&mut self, q: StateId, node: usize, v: V) {
        if (self.values.len() + 1) * 4 > self.slots.len() {
            let doubled = vec![MemoSlot::default(); self.slots.len() * 2];
            let gen = self.gen;
            for slot in std::mem::replace(&mut self.slots, doubled) {
                if slot.gen == gen {
                    self.place(slot.key, slot.value);
                }
            }
        }
        let value = self.values.len() as u32;
        self.values.push(v);
        self.place(Self::key(q, node), value);
    }

    /// Writes `key → value` into the first free slot from `key`'s home.
    fn place(&mut self, key: u64, value: u32) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        while self.slots[i].gen == self.gen {
            i = (i + 1) & mask;
        }
        self.slots[i] = MemoSlot {
            key,
            gen: self.gen,
            value,
        };
    }
}

/// The node-by-node recursions the chain walks replaced (with map memos,
/// the form before [`NodeMemo`]), kept as test references.
#[cfg(test)]
impl Nfta {
    pub(crate) fn accepted_at_map(
        &self,
        q: StateId,
        it: &IndexedTree,
        node: usize,
        memo: &mut pqe_par::FxHashMap<(u32, u32), bool>,
    ) -> bool {
        if it.run_state(node) == Some(q) {
            return true;
        }
        if let Some(&v) = memo.get(&(q.0, node as u32)) {
            return v;
        }
        let children = it.children(node);
        let label = it.label(node);
        let mut ok = false;
        for &ti in &self.by_src[q.index()] {
            let tr = &self.transitions[ti];
            if tr.symbol != label || tr.children.len() != children.len() {
                continue;
            }
            if tr
                .children
                .iter()
                .zip(children.iter())
                .all(|(&cq, &cn)| self.accepted_at_map(cq, it, cn as usize, memo))
            {
                ok = true;
                break;
            }
        }
        memo.insert((q.0, node as u32), ok);
        ok
    }

    pub(crate) fn runs_at_map(
        &self,
        q: StateId,
        it: &IndexedTree,
        node: usize,
        ambiguity: Option<&Ambiguity>,
        memo: &mut pqe_par::FxHashMap<(u32, u32), FixUint>,
    ) -> FixUint {
        if it.run_state(node) == Some(q) && ambiguity.is_some_and(|a| !a.is_ambiguous_below(q)) {
            return FixUint::one();
        }
        if let Some(v) = memo.get(&(q.0, node as u32)) {
            return v.clone();
        }
        let children = it.children(node);
        let label = it.label(node);
        let mut total = FixUint::zero();
        for &ti in &self.by_src[q.index()] {
            let tr = &self.transitions[ti];
            if tr.symbol != label || tr.children.len() != children.len() {
                continue;
            }
            let mut prod = FixUint::one();
            for (&cq, &cn) in tr.children.iter().zip(children.iter()) {
                prod = &prod * &self.runs_at_map(cq, it, cn as usize, ambiguity, memo);
                if prod.is_zero() {
                    break;
                }
            }
            total += prod;
        }
        memo.insert((q.0, node as u32), total.clone());
        total
    }
}

/// A flat, arena-style tree store for the sampling hot paths: labels,
/// child-id spans, and child ids live in three parallel vectors
/// (struct-of-arrays), so building a tree is a handful of `Vec` pushes
/// into reusable buffers instead of one heap allocation per node.
///
/// Doubles as the preorder-indexed view of a [`Tree`] for repeated
/// acceptance checks ([`IndexedTree::new`]), and as the samplers' scratch
/// arena — `clear` + `new_node`/`set_child` build candidate trees in
/// place, and only a winner is ever converted back into a [`Tree`]
/// ([`IndexedTree::to_tree`]).
///
/// A fourth column holds **run witnesses**: a node drawn by the run
/// sampler records the state of the accepting run it was drawn with
/// ([`IndexedTree::run_state`]), so the membership and run-count DPs can
/// stop at it. Every other node records none.
#[derive(Default)]
pub struct IndexedTree {
    labels: Vec<SymbolId>,
    /// Per node: `(start, arity)` span into `child_ids`.
    spans: Vec<(u32, u32)>,
    child_ids: Vec<u32>,
    /// Per node: its run state, or [`NO_RUN_STATE`].
    run_states: Vec<StateId>,
}

/// A sentinel for a child slot reserved by [`IndexedTree::new_node`] but
/// not yet wired by [`IndexedTree::set_child`].
const UNSET_CHILD: u32 = u32::MAX;

/// The run state of a node that carries no witness.
const NO_RUN_STATE: StateId = StateId(u32::MAX);

impl IndexedTree {
    /// An empty arena (fill with [`IndexedTree::push_tree`] or
    /// [`IndexedTree::new_node`]).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Flattens `t` in preorder (node 0 is the root).
    pub fn new(t: &Tree) -> Self {
        let mut it = Self::empty();
        it.push_tree(t);
        it
    }

    /// Drops all nodes, keeping the buffers for reuse.
    pub fn clear(&mut self) {
        self.labels.clear();
        self.spans.clear();
        self.child_ids.clear();
        self.run_states.clear();
    }

    /// Number of nodes in the arena.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` iff the arena holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label of `node`.
    #[inline]
    pub fn label(&self, node: usize) -> SymbolId {
        self.labels[node]
    }

    /// The child node ids of `node`, in order.
    #[inline]
    pub fn children(&self, node: usize) -> &[u32] {
        let (start, arity) = self.spans[node];
        &self.child_ids[start as usize..(start + arity) as usize]
    }

    /// The state of the accepting run `node` was drawn with, if it was
    /// drawn by the run sampler: the subtree at `node` is then accepted
    /// from that state, by a run whose children carry their own states.
    #[inline]
    pub fn run_state(&self, node: usize) -> Option<StateId> {
        Some(self.run_states[node]).filter(|&q| q != NO_RUN_STATE)
    }

    /// Allocates a node with `arity` unset child slots and no run state;
    /// returns its id.
    pub fn new_node(&mut self, label: SymbolId, arity: usize) -> u32 {
        self.new_run_node(label, arity, NO_RUN_STATE)
    }

    /// [`IndexedTree::new_node`] for a node of a run in `state`. Callers
    /// promise the run: the node's subtree, once wired, must be accepted
    /// from `state` by a run that visits its children in their own run
    /// states.
    pub(crate) fn new_run_node(&mut self, label: SymbolId, arity: usize, state: StateId) -> u32 {
        let id = self.labels.len() as u32;
        self.labels.push(label);
        self.spans.push((self.child_ids.len() as u32, arity as u32));
        self.child_ids
            .extend(std::iter::repeat_n(UNSET_CHILD, arity));
        self.run_states.push(state);
        id
    }

    /// Wires child slot `k` of `node` to `child`.
    pub fn set_child(&mut self, node: u32, k: usize, child: u32) {
        let (start, arity) = self.spans[node as usize];
        debug_assert!((k as u32) < arity);
        self.child_ids[start as usize + k] = child;
    }

    /// Copies `t` into the arena (preorder); returns the root's id.
    pub fn push_tree(&mut self, t: &Tree) -> u32 {
        let id = self.new_node(t.label, t.children.len());
        for (k, c) in t.children.iter().enumerate() {
            let cid = self.push_tree(c);
            self.set_child(id, k, cid);
        }
        id
    }

    /// Materializes the subtree rooted at `node` as a [`Tree`].
    pub fn to_tree(&self, node: u32) -> Tree {
        let children = self
            .children(node as usize)
            .iter()
            .map(|&c| {
                debug_assert_ne!(c, UNSET_CHILD, "to_tree on partially built node");
                self.to_tree(c)
            })
            .collect();
        Tree::node(self.label(node as usize), children)
    }
}

impl fmt::Display for Nfta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "NFTA: {} states, {} transitions, init {}",
            self.num_states,
            self.transitions.len(),
            self.initial
        )?;
        for t in &self.transitions {
            let kids: Vec<String> = t.children.iter().map(|c| c.to_string()).collect();
            writeln!(
                f,
                "  ({}, {}, [{}])",
                t.src,
                self.alphabet.name(t.symbol),
                kids.join(" ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqe_arith::BigUint;

    /// Automaton accepting full binary trees with `a` at internal nodes and
    /// `b` at leaves.
    fn full_binary() -> (Nfta, SymbolId, SymbolId) {
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
        (t, a, b)
    }

    #[test]
    fn tree_size_and_preorder() {
        let (_, a, b) = full_binary();
        let t = Tree::node(
            a,
            vec![
                Tree::leaf(b),
                Tree::node(a, vec![Tree::leaf(b), Tree::leaf(b)]),
            ],
        );
        assert_eq!(t.size(), 5);
        assert_eq!(t.labels_preorder(), vec![a, b, a, b, b]);
    }

    #[test]
    fn indexed_tree_roundtrips_and_reuses_buffers() {
        let (_, a, b) = full_binary();
        let t = Tree::node(
            a,
            vec![
                Tree::leaf(b),
                Tree::node(a, vec![Tree::leaf(b), Tree::leaf(b)]),
            ],
        );
        // Tree -> arena -> Tree roundtrip preserves structure.
        let it = IndexedTree::new(&t);
        assert_eq!(it.len(), 5);
        assert_eq!(it.to_tree(0), t);
        assert_eq!(it.label(0), a);
        assert_eq!(it.children(0).len(), 2);
        // In-place construction (the samplers' path: parent allocated with
        // unset slots, children wired as they are drawn) agrees with
        // push_tree's preorder result.
        let mut arena = IndexedTree::empty();
        let root = arena.new_node(a, 2);
        let left = arena.new_node(b, 0);
        arena.set_child(root, 0, left);
        let right = arena.new_node(a, 2);
        arena.set_child(root, 1, right);
        for k in 0..2 {
            let leaf = arena.new_node(b, 0);
            arena.set_child(right, k, leaf);
        }
        assert_eq!(arena.to_tree(root), t);
        // clear() empties the arena but the next build still works and is
        // unaffected by the previous occupant.
        arena.clear();
        assert!(arena.is_empty());
        let lone = arena.new_node(b, 0);
        assert_eq!(lone, 0, "node ids restart after clear");
        assert_eq!(arena.to_tree(lone), Tree::leaf(b));
    }

    #[test]
    fn node_memo_keeps_entries_across_growth_and_forgets_them_on_clear() {
        let mut memo = NodeMemo::new();
        // Hundreds of states at each of three nodes, as on wide automata,
        // and far past the initial slots: several doublings.
        let keys = |n: usize| (0..n).map(|i| (StateId(i as u32), i % 3));
        for (v, (q, node)) in keys(1_000).enumerate() {
            assert!(memo.get(q, node).is_none());
            memo.insert(q, node, v);
        }
        assert_eq!(memo.len(), 1_000);
        for (v, (q, node)) in keys(1_000).enumerate() {
            assert_eq!(memo.get(q, node), Some(&v));
            assert!(memo.get(q, node + 3).is_none());
        }
        memo.clear();
        assert!(memo.is_empty() && keys(1_000).all(|(q, node)| memo.get(q, node).is_none()));
        // A clear that wraps the generation stamp forgets what the first
        // generation wrote, too.
        let mut memo = NodeMemo::new();
        memo.insert(StateId(1), 2, 3);
        memo.gen = u32::MAX;
        memo.insert(StateId(4), 5, 6);
        memo.clear();
        assert!(memo.get(StateId(1), 2).is_none() && memo.get(StateId(4), 5).is_none());
        memo.insert(StateId(4), 5, 7);
        assert_eq!(memo.get(StateId(4), 5), Some(&7));
    }

    #[test]
    fn acceptance_of_full_binary_trees() {
        let (aut, a, b) = full_binary();
        assert!(aut.accepts(&Tree::leaf(b)));
        assert!(aut.accepts(&Tree::node(a, vec![Tree::leaf(b), Tree::leaf(b)])));
        // a node with one child: no transition of arity 1.
        assert!(!aut.accepts(&Tree::node(a, vec![Tree::leaf(b)])));
        // a as a leaf: no leaf transition for a.
        assert!(!aut.accepts(&Tree::leaf(a)));
    }

    #[test]
    fn leaf_is_accepted_from_the_initial_state() {
        let (aut, _, b) = full_binary();
        assert!(aut.accepts_from(aut.initial(), &Tree::leaf(b)));
    }

    /// Two states that both read `a` into each other and accept the leaf
    /// `e`: the chain `aⁿ⁻¹(e)` of `n` nodes has `2ⁿ⁻¹` runs from either
    /// state. The 66-node chain's `2⁶⁵` is past a `u64`; the 131-node
    /// chain's `2¹³⁰` is past a `u128`, so its counts leave `FixUint`'s
    /// word form for a `BigUint` mid-walk. Every node carries a run
    /// witness, but both states are ambiguous below, so no pair leaves a
    /// frontier early.
    #[test]
    fn witness_shortcuts_count_runs_past_a_word() {
        let mut alpha = Alphabet::new();
        let (a, e) = (alpha.intern("a"), alpha.intern("e"));
        let mut aut = Nfta::new(alpha);
        let states = [aut.initial(), aut.add_state()];
        for src in states {
            for dst in states {
                aut.add_transition(Transition {
                    src,
                    symbol: a,
                    children: vec![dst],
                });
            }
            aut.add_transition(Transition {
                src,
                symbol: e,
                children: vec![],
            });
        }
        let ambiguity = Ambiguity::new(&aut, false);
        for n in [66u32, 131] {
            let mut it = IndexedTree::empty();
            for v in 0..n {
                let (label, arity) = if v + 1 < n { (a, 1) } else { (e, 0) };
                it.new_run_node(label, arity, states[0]);
                if v > 0 {
                    it.set_child(v - 1, 0, v);
                }
            }
            let mut memo = NodeMemo::new();
            let mut map = pqe_par::FxHashMap::default();
            for v in 0..n as usize {
                let expected = &BigUint::one() << (u64::from(n) - 1 - v as u64);
                for q in states {
                    for amb in [None, Some(&ambiguity)] {
                        let runs = aut.runs_at(q, &it, v, amb, &mut memo);
                        assert_eq!(runs.to_biguint(), expected, "{q} at {v} of {n}");
                    }
                    let reference = aut.runs_at_map(q, &it, v, Some(&ambiguity), &mut map);
                    assert_eq!(reference.to_biguint(), expected, "{q} at {v} of {n}");
                }
            }
            assert_eq!(
                aut.runs_of_tree(states[1], &it.to_tree(0)).to_biguint(),
                &BigUint::one() << u64::from(n - 1)
            );
            // Every walk left the frontier buffer as it found it.
            assert!(memo.walk.is_empty());
        }
    }

    /// A pair whose state is not ambiguous below leaves the frontier at its
    /// run witness, mid-chain, without walking to the branching node
    /// below. `q` reads `a` into itself or into `d`; `d` is deterministic
    /// and reads `a`, `b` and the branching `c`. On `aᵏ bᵐ c(e, e)`, a run
    /// from `q` picks where it enters `d`, so `M = k`; every pair from `q`
    /// dies or reaches `d` at a witness above the `c` node, so the walks
    /// never recurse and write no memo entry.
    #[test]
    fn witness_shortcuts_exit_a_chain_at_the_run_witness() {
        let mut alpha = Alphabet::new();
        let [a, b, c, e] = ["a", "b", "c", "e"].map(|x| alpha.intern(x));
        let mut aut = Nfta::new(alpha);
        let (q, d, leaf) = (aut.initial(), aut.add_state(), aut.add_state());
        for (src, symbol, children) in [
            (q, a, vec![q]),
            (q, a, vec![d]),
            (d, a, vec![d]),
            (d, b, vec![d]),
            (d, c, vec![leaf, leaf]),
            (leaf, e, vec![]),
        ] {
            aut.add_transition(Transition {
                src,
                symbol,
                children,
            });
        }
        let ambiguity = Ambiguity::new(&aut, false);
        assert!(ambiguity.is_ambiguous_below(q) && !ambiguity.is_ambiguous_below(d));
        let (k, m) = (5u32, 4u32);
        for switch in 0..k {
            // The run reads `a` into `d` at node `switch`.
            let mut it = IndexedTree::empty();
            for v in 0..k + m {
                let label = if v < k { a } else { b };
                it.new_run_node(label, 1, if v <= switch { q } else { d });
                if v > 0 {
                    it.set_child(v - 1, 0, v);
                }
            }
            let branch = it.new_run_node(c, 2, d);
            it.set_child(k + m - 1, 0, branch);
            for slot in 0..2 {
                let child = it.new_run_node(e, 0, leaf);
                it.set_child(branch, slot, child);
            }
            let (mut runs_memo, mut accept_memo) = (NodeMemo::new(), NodeMemo::new());
            let runs = aut.runs_at(q, &it, 0, Some(&ambiguity), &mut runs_memo);
            assert_eq!(runs.to_u64(), Some(u64::from(k)));
            assert!(runs_memo.is_empty(), "the walk passed a witness of d");
            assert!(aut.accepted_at(q, &it, 1, &mut accept_memo));
            assert!(
                accept_memo.is_empty(),
                "the walk passed a run state in its set"
            );
            let reference = aut.runs_at_map(q, &it, 0, Some(&ambiguity), &mut Default::default());
            assert_eq!(reference, runs);
        }
    }

    #[test]
    fn accepts_from_specific_state() {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let mut aut = Nfta::new(alpha);
        let q0 = aut.initial();
        let q1 = aut.add_state();
        aut.add_transition(Transition {
            src: q1,
            symbol: a,
            children: vec![],
        });
        assert!(!aut.accepts(&Tree::leaf(a))); // q0 has no transitions
        assert!(aut.accepts_from(q1, &Tree::leaf(a)));
        aut.set_initial(q1);
        assert!(aut.accepts(&Tree::leaf(a)));
        let _ = q0;
    }

    #[test]
    fn size_counts_encoding_slots() {
        let (aut, _, _) = full_binary();
        // (q,a,[q,q]) = 4 slots, (q,b,[]) = 2 slots.
        assert_eq!(aut.size(), 6);
    }

    #[test]
    fn display_tree() {
        let (aut, a, b) = full_binary();
        let t = Tree::node(a, vec![Tree::leaf(b), Tree::leaf(b)]);
        assert_eq!(t.display(aut.alphabet()), "a(b,b)");
    }
}
