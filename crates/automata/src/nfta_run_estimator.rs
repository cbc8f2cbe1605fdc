//! A run-based importance estimator for `|L_n(T)|` — the simple unbiased
//! alternative to the hierarchical CountNFTA scheme.
//!
//! Let `R = #accepting runs over size-n trees` (exact, polynomial DP) and
//! `M(t) = #runs over the fixed tree t` (exact, polynomial DP per tree).
//! Sampling a *run* uniformly (easy: top-down proportional to exact run
//! counts, no rejection) draws tree `t` with probability `M(t)/R`, so
//!
//! ```text
//! E[ R / M(t) ] = Σ_t (M(t)/R) · (R/M(t)) = Σ_t 1 = |L_n(T)|
//! ```
//!
//! Every ingredient is exact; the only approximation is the Monte-Carlo
//! average. The price is variance: the relative second moment is bounded
//! by the *average ambiguity* `R / |L_n|`, which for the PQE automata is
//! the mean number of witness structures per satisfying subinstance — small
//! on sparse instances, exponential in `|Q|` on dense ones. That trade
//! (simple & unbiased vs. hierarchical variance control) is exactly the gap
//! between this estimator and the ACJR construction; the `ablation` bench
//! measures it.
//!
//! Run counts are carried as [`FixUint`] — `u128` until overflow, then
//! `BigUint` — and samples are drawn straight into a flat [`IndexedTree`]
//! arena via the `*_into` entry points (see `scratch.rs`), which stamp
//! each node with its run state; the `Tree`-returning API wraps them.
//!
//! [`RunTables`] are built once per (automaton, target size), single-
//! threaded, and are immutable afterwards: every repetition and worker of
//! both estimators borrows the same tables and reads them without a lock.

use crate::forest_reg::{ForestReg, EMPTY_FOREST};
use crate::scratch::{with_scratch, PickSpan, PickTable, Scratch};
use crate::{Ambiguity, IndexedTree, Nfta, StateId, SymbolId, Tree};
use pqe_arith::{BigFloat, FixUint};
use pqe_par::FxHashMap;
use pqe_rand::rngs::StdRng;
use pqe_rand::{Rng, SeedableRng};

/// Dense ids of two-part keys `(major, minor)` — `(state, size)`,
/// `(forest, size)`, `(state, length)` — found without hashing: per major
/// key, an offset into a run of `(minor, id)` pairs sorted by minor. A
/// lookup is two offset reads and a bisection over one run, and memory is
/// `O(majors + keys)` (the closures are sparse: most `(major, minor)`
/// pairs are not keys).
pub(crate) struct KeyIndex {
    /// `runs[offsets[major]..offsets[major + 1]]` holds `major`'s keys.
    offsets: Vec<u32>,
    runs: Vec<(u32, u32)>,
}

impl KeyIndex {
    /// Indexes distinct keys `(major, minor)`, `major < majors`, with
    /// their ids.
    pub(crate) fn new(majors: usize, ids: impl IntoIterator<Item = ((u32, u32), u32)>) -> Self {
        let mut keys: Vec<((u32, u32), u32)> = ids.into_iter().collect();
        keys.sort_unstable();
        let mut offsets = vec![0u32; majors + 1];
        for &((major, _), _) in &keys {
            offsets[major as usize + 1] += 1;
        }
        for m in 0..majors {
            offsets[m + 1] += offsets[m];
        }
        let runs = keys
            .into_iter()
            .map(|((_, minor), id)| (minor, id))
            .collect();
        KeyIndex { offsets, runs }
    }

    /// The id of key `(major, minor)`, if it is indexed.
    #[inline]
    pub(crate) fn get(&self, major: u32, minor: u32) -> Option<u32> {
        let m = major as usize;
        let (&lo, &hi) = (self.offsets.get(m)?, self.offsets.get(m + 1)?);
        let run = &self.runs[lo as usize..hi as usize];
        let i = run.binary_search_by_key(&minor, |&(k, _)| k).ok()?;
        Some(run[i].1)
    }
}

/// One key of the exact tables: its run count and the pick list a draw
/// at that key uses.
#[derive(Debug)]
struct Entry {
    count: FixUint,
    picks: PickSpan,
}

/// Exact run-count tables for an NFTA and a target size `n`.
///
/// The tables hold every key of the DP's *unpruned* closure from
/// `(initial, n)`: tree keys `R(q, s)` and forest keys `F(q₁…q_k, m)` for
/// `k ≥ 2` (unary forests are trees; the empty forest and `m < k` are
/// trivial). That closure contains every key either sampler ever reaches:
/// the run sampler below, and `NftaCounter`, whose estimate recursion
/// follows the same splits. Each entry keeps, besides the exact count,
/// the cumulative pick table of its proportional choice — transitions for
/// a tree key, first-tree sizes for a forest key — so a draw does one
/// hash-free key lookup and one `f64` bisection per node, and draws a
/// unary chain in a loop ([`RunTables::sample_run_into`]).
///
/// Keys are found through `KeyIndex`es: tree keys per state, forest
/// keys per interned forest id (see `forest_reg`), so lookups never hash
/// or allocate. Looking up a key outside the closure is a bug in the
/// caller and **panics**; it never reads as a silent zero.
pub struct RunTables {
    reg: ForestReg,
    /// Root symbol per transition: draws need no `Nfta`.
    symbols: Vec<SymbolId>,
    size: usize,
    trees: KeyIndex,
    forests: KeyIndex,
    tree_entries: Vec<Entry>,
    forest_entries: Vec<Entry>,
    /// Choices are transition ids (tree keys) or first-tree sizes (forest
    /// keys).
    picks: PickTable<u32>,
}

impl RunTables {
    /// Builds the tables of `nfta` for trees of size `n` (see the type
    /// docs), single-threaded.
    pub fn new(nfta: &Nfta, n: usize) -> Self {
        let mut b = PartialTables {
            reg: ForestReg::new(nfta),
            trees: FxHashMap::default(),
            forests: FxHashMap::default(),
            tree_entries: Vec::new(),
            forest_entries: Vec::new(),
            picks: PickTable::default(),
        };
        if n > 0 {
            b.build_tree(nfta, nfta.initial(), n);
        }
        let num_forests = b.reg.num_forests();
        RunTables {
            reg: b.reg,
            symbols: nfta.transitions().iter().map(|tr| tr.symbol).collect(),
            size: n,
            trees: KeyIndex::new(nfta.num_states(), b.trees),
            forests: KeyIndex::new(num_forests, b.forests),
            tree_entries: b.tree_entries,
            forest_entries: b.forest_entries,
            picks: b.picks,
        }
    }

    /// The target size the tables were built for.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The forest interning table (shared with `NftaCounter`).
    pub(crate) fn reg(&self) -> &ForestReg {
        &self.reg
    }

    /// Number of transitions of the automaton the tables were built from.
    pub(crate) fn num_transitions(&self) -> usize {
        self.symbols.len()
    }

    /// The entry of tree key `(q, n)`; `None` for `n = 0` (no tree has
    /// size 0). Panics outside the tables.
    fn tree_entry(&self, q: StateId, n: usize) -> Option<&Entry> {
        if n == 0 {
            return None;
        }
        match self.trees.get(q.0, n as u32) {
            Some(id) => Some(&self.tree_entries[id as usize]),
            None => panic!(
                "RunTables: tree key ({q:?}, {n}) is outside the tables built for size {}",
                self.size
            ),
        }
    }

    /// The dense id of forest key `(fid, m)`, `2 ≤ len(fid) ≤ m`, in
    /// `0..num_forest_keys()`. Panics outside the tables.
    pub(crate) fn forest_id(&self, fid: u32, m: usize) -> usize {
        match self.forests.get(fid, m as u32) {
            Some(id) => id as usize,
            None => panic!(
                "RunTables: forest key ({fid}, {m}) is outside the tables built for size {}",
                self.size
            ),
        }
    }

    /// Number of nontrivial forest keys in the tables.
    pub(crate) fn num_forest_keys(&self) -> usize {
        self.forest_entries.len()
    }

    /// `R(q, n)`: accepting runs from `q` over size-`n` trees. Panics if
    /// `(q, n)` lies outside the tables (see the type docs).
    pub fn tree_runs(&self, q: StateId, n: usize) -> FixUint {
        self.tree_entry(q, n)
            .map_or_else(FixUint::zero, |e| e.count.clone())
    }

    /// Samples a run (and its tree) uniformly among accepting runs from
    /// `q` over size-`n` trees. `None` iff no run exists.
    pub fn sample_run<R: Rng + ?Sized>(&self, q: StateId, n: usize, rng: &mut R) -> Option<Tree> {
        with_scratch(|s| {
            s.begin_sample();
            let node = self.sample_run_into(q, n, rng, &mut s.tree)?;
            Some(s.tree.to_tree(node))
        })
    }

    /// Flat-arena run sampler: the drawn tree is built in `arena` and its
    /// root id returned. Draw-for-draw identical to [`RunTables::sample_run`].
    ///
    /// A maximal unary chain is drawn in a loop: while the drawn
    /// transition's forest is a single state, the child is drawn and wired
    /// at once and the loop moves down to it. Only a forest of two or more
    /// states recurses, once per component. The draws, their order (the
    /// tree's preorder) and the node ids are those of a node-by-node
    /// recursion.
    ///
    /// Every node it creates records the state of the drawn run as its
    /// [`IndexedTree::run_state`] — the witness that lets
    /// [`Nfta::accepted_at`] and [`Nfta::runs_at`] stop at the node. On
    /// `None` the nodes drawn so far are left in the arena, partly wired.
    pub fn sample_run_into<R: Rng + ?Sized>(
        &self,
        q: StateId,
        n: usize,
        rng: &mut R,
        arena: &mut IndexedTree,
    ) -> Option<u32> {
        let (root, mut fid) = self.draw_node(q, n, rng, arena)?;
        let (mut node, mut m) = (root, n - 1);
        while fid != EMPTY_FOREST && self.reg.len(fid) == 1 {
            let (child, child_fid) = self.draw_node(self.reg.head(fid), m, rng, arena)?;
            arena.set_child(node, 0, child);
            (node, fid, m) = (child, child_fid, m - 1);
        }
        self.sample_forest_run_into(fid, m, rng, arena, node)?;
        Some(root)
    }

    /// Draws the transition of a run from `q` over a size-`n` tree and
    /// creates its node, children unset; returns the node and the
    /// transition's forest. `None` iff no run exists.
    fn draw_node<R: Rng + ?Sized>(
        &self,
        q: StateId,
        n: usize,
        rng: &mut R,
        arena: &mut IndexedTree,
    ) -> Option<(u32, u32)> {
        let e = self.tree_entry(q, n)?;
        if e.count.is_zero() {
            return None;
        }
        // A transition ∝ its forest run count.
        let ti = self.picks.pick(e.picks, rng) as usize;
        let fid = self.reg.transition_forest(ti);
        Some((
            arena.new_run_node(self.symbols[ti], self.reg.arity(fid), q),
            fid,
        ))
    }

    /// Draws forest `fid` of total size `m` as the children of `parent`,
    /// one component after another.
    fn sample_forest_run_into<R: Rng + ?Sized>(
        &self,
        mut fid: u32,
        mut m: usize,
        rng: &mut R,
        arena: &mut IndexedTree,
        parent: u32,
    ) -> Option<()> {
        let mut slot = 0;
        while fid != EMPTY_FOREST {
            // A forest of two or more states is reached only through a
            // nonzero pick, so its key is tabled and nonzero. First-tree
            // size j ∝ R(head, j) · F(tail, m − j).
            let j = if self.reg.len(fid) == 1 {
                m
            } else {
                let e = &self.forest_entries[self.forest_id(fid, m)];
                self.picks.pick(e.picks, rng) as usize
            };
            let c = self.sample_run_into(self.reg.head(fid), j, rng, arena)?;
            arena.set_child(parent, slot, c);
            (fid, m, slot) = (self.reg.tail(fid), m - j, slot + 1);
        }
        (m == 0).then_some(())
    }
}

/// The node-by-node recursion the unary-chain loop of
/// [`RunTables::sample_run_into`] replaced, kept as its test reference.
#[cfg(test)]
impl RunTables {
    pub(crate) fn sample_run_rec<R: Rng + ?Sized>(
        &self,
        q: StateId,
        n: usize,
        rng: &mut R,
        arena: &mut IndexedTree,
    ) -> Option<u32> {
        let e = self.tree_entry(q, n)?;
        if e.count.is_zero() {
            return None;
        }
        let ti = self.picks.pick(e.picks, rng) as usize;
        let fid = self.reg.transition_forest(ti);
        let node = arena.new_run_node(self.symbols[ti], self.reg.arity(fid), q);
        self.sample_forest_run_rec(fid, n - 1, rng, arena, node, 0)?;
        Some(node)
    }

    fn sample_forest_run_rec<R: Rng + ?Sized>(
        &self,
        fid: u32,
        m: usize,
        rng: &mut R,
        arena: &mut IndexedTree,
        parent: u32,
        slot: usize,
    ) -> Option<()> {
        if fid == EMPTY_FOREST {
            return (m == 0).then_some(());
        }
        let head = self.reg.head(fid);
        if self.reg.len(fid) == 1 {
            let c = self.sample_run_rec(head, m, rng, arena)?;
            arena.set_child(parent, slot, c);
            return Some(());
        }
        let e = &self.forest_entries[self.forest_id(fid, m)];
        let j = self.picks.pick(e.picks, rng) as usize;
        let c = self.sample_run_rec(head, j, rng, arena)?;
        arena.set_child(parent, slot, c);
        self.sample_forest_run_rec(self.reg.tail(fid), m - j, rng, arena, parent, slot + 1)
    }
}

/// The tables under construction: the same parts as [`RunTables`], with
/// the keys in hash maps until the closure is complete.
struct PartialTables {
    reg: ForestReg,
    trees: FxHashMap<(u32, u32), u32>,
    forests: FxHashMap<(u32, u32), u32>,
    tree_entries: Vec<Entry>,
    forest_entries: Vec<Entry>,
    picks: PickTable<u32>,
}

impl PartialTables {
    /// Builds tree key `(q, s)`, `s ≥ 1`, after every key it depends on;
    /// returns its entry index.
    fn build_tree(&mut self, nfta: &Nfta, q: StateId, s: usize) -> usize {
        if let Some(&id) = self.trees.get(&(q.0, s as u32)) {
            return id as usize;
        }
        let tis = nfta.transitions_from(q);
        let counts: Vec<FixUint> = tis
            .iter()
            .map(|&ti| self.build_forest(nfta, self.reg.transition_forest(ti), s - 1))
            .collect();
        let mut count = FixUint::zero();
        for c in &counts {
            count += c;
        }
        let picks = self.picks.push(
            tis.iter()
                .zip(&counts)
                .map(|(&ti, c)| (ti as u32, c.to_bigfloat())),
        );
        let id = self.tree_entries.len();
        self.tree_entries.push(Entry { count, picks });
        self.trees.insert((q.0, s as u32), id as u32);
        id
    }

    /// Builds forest key `(fid, m)` (and everything below it); returns its
    /// count.
    fn build_forest(&mut self, nfta: &Nfta, fid: u32, m: usize) -> FixUint {
        if fid == EMPTY_FOREST {
            return if m == 0 {
                FixUint::one()
            } else {
                FixUint::zero()
            };
        }
        let len = self.reg.len(fid);
        if m < len {
            return FixUint::zero();
        }
        let head = self.reg.head(fid);
        if len == 1 {
            let id = self.build_tree(nfta, head, m);
            return self.tree_entries[id].count.clone();
        }
        if let Some(&id) = self.forests.get(&(fid, m as u32)) {
            return self.forest_entries[id as usize].count.clone();
        }
        let tail = self.reg.tail(fid);
        // Unpruned: the tail is built even where the head count is zero,
        // because the estimator's split weights read both factors.
        let products: Vec<FixUint> = (1..=(m - (len - 1)))
            .map(|j| {
                let t = self.build_tree(nfta, head, j);
                let f = self.build_forest(nfta, tail, m - j);
                &self.tree_entries[t].count * &f
            })
            .collect();
        let mut count = FixUint::zero();
        for p in &products {
            count += p;
        }
        let picks = self
            .picks
            .push((1u32..).zip(&products).map(|(j, p)| (j, p.to_bigfloat())));
        let id = self.forest_entries.len() as u32;
        self.forest_entries.push(Entry {
            count: count.clone(),
            picks,
        });
        self.forests.insert((fid, m as u32), id);
        count
    }
}

/// The run-based importance estimator of `|L_n(T)|`:
/// `R(s_init, n) · mean(1 / M(tᵢ))` over `samples` uniformly sampled runs.
///
/// Unbiased for any NFTA; relative standard error ≈
/// `sqrt(avg-ambiguity / samples)`. Returns the exact count (zero samples
/// needed) when `R = 0`.
pub fn count_nfta_run_based(nfta: &Nfta, n: usize, samples: usize, seed: u64) -> BigFloat {
    assert!(samples > 0);
    let tables = RunTables::new(nfta, n);
    let ambiguity = Ambiguity::new(nfta, false);
    let total_runs = tables.tree_runs(nfta.initial(), n);
    if total_runs.is_zero() {
        return BigFloat::zero();
    }
    // Sample i draws from the stream i jumps past the seed, so the result
    // is independent of how the samples are scheduled across workers.
    let rngs: Vec<StdRng> = {
        let mut head = StdRng::seed_from_u64(seed);
        (0..samples)
            .map(|_| {
                let r = head.clone();
                head.jump();
                r
            })
            .collect()
    };
    let invs = pqe_par::map_chunks(pqe_par::default_threads(), samples, 8, |range| {
        range
            .map(|i| {
                let mut rng = rngs[i].clone();
                with_scratch(|s| {
                    s.begin_sample();
                    let Scratch {
                        tree, runs_memo, ..
                    } = s;
                    let t = tables
                        .sample_run_into(nfta.initial(), n, &mut rng, tree)
                        .expect("R > 0 implies a run exists");
                    let m = nfta.runs_at(
                        nfta.initial(),
                        tree,
                        t as usize,
                        Some(&ambiguity),
                        runs_memo,
                    );
                    debug_assert!(!m.is_zero());
                    1.0 / m.to_f64()
                })
            })
            .collect()
    });
    let inv_sum: f64 = invs.iter().sum();
    total_runs.to_bigfloat() * (inv_sum / samples as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count_trees_exact, Alphabet, Transition};

    fn unary_contains_a() -> Nfta {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let e = alpha.intern("end");
        let mut t = Nfta::new(alpha);
        let q = t.initial();
        let f = t.add_state();
        t.add_transition(Transition {
            src: q,
            symbol: a,
            children: vec![q],
        });
        t.add_transition(Transition {
            src: q,
            symbol: b,
            children: vec![q],
        });
        t.add_transition(Transition {
            src: q,
            symbol: a,
            children: vec![f],
        });
        t.add_transition(Transition {
            src: f,
            symbol: a,
            children: vec![f],
        });
        t.add_transition(Transition {
            src: f,
            symbol: b,
            children: vec![f],
        });
        t.add_transition(Transition {
            src: f,
            symbol: e,
            children: vec![],
        });
        t
    }

    #[test]
    fn unbiased_on_ambiguous_automaton() {
        let aut = unary_contains_a();
        for n in [4usize, 6, 9] {
            let exact = count_trees_exact(&aut, n);
            let est = count_nfta_run_based(&aut, n, 4000, 77);
            let rel = est.relative_error_to(&BigFloat::from_biguint(&exact));
            assert!(rel < 0.1, "n = {n}: exact {exact}, est {est}, rel {rel}");
        }
    }

    #[test]
    fn exact_on_unambiguous_automaton() {
        // Full binary trees: M(t) = 1 always, so the estimator is exact
        // regardless of sample count.
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let mut aut = Nfta::new(alpha);
        let q = aut.initial();
        aut.add_transition(Transition {
            src: q,
            symbol: a,
            children: vec![q, q],
        });
        aut.add_transition(Transition {
            src: q,
            symbol: b,
            children: vec![],
        });
        let est = count_nfta_run_based(&aut, 7, 5, 1);
        assert_eq!(est.to_biguint_round().to_u64(), Some(5)); // Catalan(3)
    }

    #[test]
    fn zero_when_empty() {
        let aut = unary_contains_a();
        assert!(count_nfta_run_based(&aut, 1, 10, 1).is_zero());
    }

    #[test]
    fn run_sampling_produces_accepted_trees() {
        let aut = unary_contains_a();
        let tables = RunTables::new(&aut, 6);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            let t = tables.sample_run(aut.initial(), 6, &mut rng).unwrap();
            assert_eq!(t.size(), 6);
            assert!(aut.accepts(&t));
            assert!(!aut.runs_of_tree(aut.initial(), &t).is_zero());
        }
    }

    #[test]
    #[should_panic(expected = "outside the tables")]
    fn forest_key_lookup_outside_the_closure_panics() {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let mut aut = Nfta::new(alpha);
        let q = aut.initial();
        aut.add_transition(Transition {
            src: q,
            symbol: a,
            children: vec![q, q],
        });
        aut.add_transition(Transition {
            src: q,
            symbol: b,
            children: vec![],
        });
        let tables = RunTables::new(&aut, 3);
        // Size 3 reaches the pair forest [q, q] at size 2, and no larger.
        let pair = tables.reg().transition_forest(0);
        assert_eq!(tables.forest_id(pair, 2), 0);
        tables.forest_id(pair, 4);
    }

    #[test]
    fn runs_of_tree_matches_total() {
        // Σ_t M(t) over all accepted trees = R(q,n): spot-check by brute
        // enumeration on a small automaton via many samples of distinct
        // trees... instead check one tree's multiplicity directly.
        let aut = unary_contains_a();
        let alpha = aut.alphabet();
        let a = alpha.get("a").unwrap();
        let e = alpha.get("end").unwrap();
        // Tree a(a(end)): runs: q->q->f? The run must end at `f` before
        // `end`. Paths: (q,a,q)(q,a,f)(f,end) and (q,a,f)(f,a,f)(f,end): 2.
        let t = Tree::node(a, vec![Tree::node(a, vec![Tree::leaf(e)])]);
        assert_eq!(aut.runs_of_tree(aut.initial(), &t).to_u64(), Some(2));
    }
}
