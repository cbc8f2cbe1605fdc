//! CountNFTA — the FPRAS for counting trees of a fixed size accepted by an
//! NFTA (Arenas, Croquevielle, Jayaram & Riveros, STOC '21), as a practical
//! adaptation (crate docs, DESIGN.md §2.5).
//!
//! Self-reduction:
//!
//! ```text
//! Trees(q, n)        = ⋃_{τ = (q, a, q₁…q_k) ∈ Δ}  a( Forest(q₁…q_k, n−1) )
//! Forest(ε, 0)       = { empty forest }
//! Forest(q₁…q_k, m)  = ⨄_{j}  Trees(q₁, j) × Forest(q₂…q_k, m−j)
//! ```
//!
//! Forests decompose **disjointly** over the first-tree size `j` and
//! **independently** as a product — both exact given tree estimates. The
//! only approximation sits at tree level: transitions sharing a root symbol
//! can accept overlapping tree sets, so each symbol group is estimated with
//! the Karp–Luby union estimator (membership = bottom-up acceptance check)
//! and sampled with rejection. Symbol groups themselves are disjoint and
//! add exactly. In the automata built by the PQE reduction, most states are
//! deterministic chain states (gadget bits, fact sequences) whose unions
//! have a single part — those are counted exactly, so sampling effort
//! concentrates on the genuinely ambiguous witness-choice states.
//!
//! The repetitions fan out over the `pqe-par` worker pool
//! (`FprasConfig::threads`), and a worker out of repetitions helps with
//! the union sample loops of the ones still running (see `union_mc`).
//! Randomness is keyed per sample index via jump-split xoshiro streams,
//! so for a fixed seed the estimate is bit-identical at any thread count.

use crate::forest_reg::EMPTY_FOREST;
use crate::scratch::{resample, with_scratch, PickTable, Scratch};
use crate::union_mc::{adaptive_mean, median_of_repetitions, Draw, TAG_NFTA_GROUP};
use crate::{Ambiguity, FprasConfig, Nfta, RunTables, StateId, Tree};
use pqe_arith::BigFloat;
use pqe_par::ShardedMap;
use pqe_rand::{mix_seed, Rng};
use std::sync::{Arc, OnceLock};

/// Sampling diagnostics, published through the `pqe-obs` metrics registry
/// under `fpras.*` (visible in `--profile` output and the serve `metrics`
/// op). Handles are resolved once; the hot paths pay one sharded
/// relaxed atomic add.
macro_rules! obs_counter {
    ($fn_name:ident, $metric:literal) => {
        fn $fn_name() -> &'static pqe_obs::metrics::Counter {
            static C: OnceLock<Arc<pqe_obs::metrics::Counter>> = OnceLock::new();
            C.get_or_init(|| pqe_obs::metrics::counter($metric))
        }
    };
}
obs_counter!(cnt_samples, "fpras.samples");
obs_counter!(cnt_tries, "fpras.sample_tries");
obs_counter!(cnt_member, "fpras.member_checks");
obs_counter!(cnt_est, "fpras.union_ests");

/// Approximates `|L_n(T)|`, the number of distinct size-`n` labelled trees
/// accepted by `nfta`, as the median of `cfg.repetitions` independent
/// estimates (computed in parallel — each repetition has its own seed, so
/// the median is independent of scheduling). The exact run tables and the
/// ambiguity analysis are seed-independent: they are built once, before
/// the fan-out, and every repetition borrows them.
pub fn count_nfta(nfta: &Nfta, n: usize, cfg: &FprasConfig) -> BigFloat {
    let _span = pqe_obs::span::span("count.nfta");
    let (runs, ambiguity) = {
        let _tables = pqe_obs::span::span("tables");
        (
            RunTables::new(nfta, n),
            Ambiguity::new(nfta, cfg.naive_unions),
        )
    };
    median_of_repetitions(cfg, |seed| {
        let counter = {
            let _init = pqe_obs::span::span("init");
            NftaCounter::new(nfta, &runs, &ambiguity, cfg.clone().with_seed(seed))
        };
        counter.count()
    })
}

/// A single-run CountNFTA estimator for trees of the size its
/// [`RunTables`] were built for, with memoized size tables.
///
/// Exposed so callers can reuse one counter across draws (the estimate
/// tables depend only on the automaton and the seed), and build the exact
/// [`RunTables`] and [`Ambiguity`] once for any number of counters. The
/// counter holds no generator of its own: every union derives a seed from
/// `cfg.seed` and its own key, and sampling entry points take the caller's
/// RNG — which makes every memoized value a pure function of its key and
/// the run seed, and the whole structure shareable across worker threads.
pub struct NftaCounter<'a> {
    nfta: &'a Nfta,
    /// Exact run tables of `nfta` (shared by every repetition).
    runs: &'a RunTables,
    cfg: FprasConfig,
    tree_memo: ShardedMap<(StateId, usize), BigFloat>,
    /// Forest estimates keyed by interned forest id (see `forest_reg`) —
    /// memo probes on the sampling hot path never allocate.
    forest_memo: ShardedMap<(u32, usize), BigFloat>,
    /// Memoized per-group union estimates, keyed by
    /// `(state, group index, size)`. Without this, every sampling step
    /// would re-run the union estimator recursively — exponential work.
    group_memo: ShardedMap<(StateId, usize, usize), BigFloat>,
    /// Per-state transition groups and ambiguity flags of `nfta` (shared
    /// by every repetition). Where a state is not ambiguous below, every
    /// tree has exactly one run, so a single run-sample is already uniform
    /// and the SIR machinery is skipped.
    ambiguity: &'a Ambiguity,
    /// Split pick tables of `sample_forest_into`, one slot per forest key
    /// of `runs` (by its dense id). They hold estimates, so they belong to
    /// this repetition's seed; each is built on its key's first draw and
    /// read without a lock afterwards.
    split_picks: Vec<OnceLock<PickTable<u32>>>,
}

impl<'a> NftaCounter<'a> {
    /// Creates a counter over `runs` and `ambiguity`, which must have been
    /// built from `nfta`, the latter under `cfg.naive_unions`; its
    /// randomness is fully determined by `cfg.seed`.
    pub fn new(
        nfta: &'a Nfta,
        runs: &'a RunTables,
        ambiguity: &'a Ambiguity,
        cfg: FprasConfig,
    ) -> Self {
        assert_eq!(
            runs.num_transitions(),
            nfta.transitions().len(),
            "RunTables were built from another automaton"
        );
        assert_eq!(
            (ambiguity.num_states(), ambiguity.naive_unions()),
            (nfta.num_states(), cfg.naive_unions),
            "Ambiguity was built from another automaton or naive_unions setting"
        );
        NftaCounter {
            nfta,
            runs,
            cfg,
            tree_memo: ShardedMap::new(),
            forest_memo: ShardedMap::new(),
            group_memo: ShardedMap::new(),
            ambiguity,
            split_picks: (0..runs.num_forest_keys())
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// Single-run estimate of `|L_n(T)|`, `n` the tables' size.
    pub fn count(&self) -> BigFloat {
        self.tree_est(self.nfta.initial(), self.runs.size())
    }

    /// Estimated `|Trees(q, n)|`.
    fn tree_est(&self, q: StateId, n: usize) -> BigFloat {
        if n == 0 {
            return BigFloat::zero();
        }
        if let Some(v) = self.tree_memo.get(&(q, n)) {
            return v;
        }
        cnt_est().inc();
        let mut total = BigFloat::zero();
        for (gi, group) in self.ambiguity.groups(q).enumerate() {
            total = total + self.group_est(q, gi, group, n);
        }
        self.tree_memo.insert((q, n), total)
    }

    /// Estimated size of one group's union
    /// `⋃_τ a_τ(Forest(children(τ), n−1))`, memoized on `(q, group, n)`.
    fn group_est(&self, q: StateId, gi: usize, group: &[usize], n: usize) -> BigFloat {
        if let Some(v) = self.group_memo.get(&(q, gi, n)) {
            return v;
        }
        // The union's own sample streams, disjoint from every other
        // union's: the estimate is a pure function of this seed.
        let useed = mix_seed(&[
            self.cfg.seed,
            TAG_NFTA_GROUP,
            q.0 as u64,
            gi as u64,
            n as u64,
        ]);
        let v = self.group_est_uncached(group, n, useed);
        self.group_memo.insert((q, gi, n), v)
    }

    fn group_est_uncached(&self, group: &[usize], n: usize, useed: u64) -> BigFloat {
        // The group's parts with nonzero estimated size, as one pick list:
        // each sample draws its part by bisection.
        let parts = PickTable::single(group.iter().map(|&ti| {
            (
                ti,
                self.forest_est(self.runs.reg().transition_forest(ti), n - 1),
            )
        }));
        let all = parts.whole();
        let part_tis = parts.choices(all);
        let total = parts.total(all);
        match part_tis.len() {
            0 | 1 => total,
            m => {
                // Adaptive Karp–Luby estimation: draw until the standard
                // error of the mean of 1/N falls below the per-union
                // budget, capped by `union_samples(m)` — the shared loop
                // in `union_mc`. The counters count the folded draws
                // only: a helper may compute draws past the stop.
                let cap = self.cfg.union_samples(m);
                let floor = self.cfg.union_sample_floor.min(cap);
                let folded = adaptive_mean(cap, floor, self.cfg.local_epsilon(), useed, |rng| {
                    let ti = parts.pick(all, rng);
                    let tr = &self.nfta.transitions()[ti];
                    let fid = self.runs.reg().transition_forest(ti);
                    with_scratch(|s| {
                        s.begin_sample();
                        let root = s.tree.new_node(tr.symbol, tr.children.len());
                        let weight = self
                            .sample_forest_into(fid, n - 1, rng, s, root, 0)
                            .map(|()| 1.0 / self.membership_count(part_tis, s, root) as f64);
                        Draw {
                            weight,
                            tries: s.tries,
                        }
                    })
                });
                cnt_samples().add(folded.samples as u64);
                cnt_tries().add(folded.tries);
                // One membership check per draw that found a tree.
                cnt_member().add(folded.taken as u64);
                if folded.taken == 0 {
                    return BigFloat::zero();
                }
                total * folded.mean
            }
        }
    }

    /// In how many of the group's parts does the arena tree at `root` lie?
    /// (≥ 1 for sampled trees.) The scratch arena's shared acceptance memo
    /// carries over node-id-keyed results across parts.
    fn membership_count(&self, part_tis: &[usize], s: &mut Scratch, root: u32) -> usize {
        let Scratch {
            tree, accept_memo, ..
        } = s;
        let label = tree.label(root as usize);
        let children = tree.children(root as usize);
        part_tis
            .iter()
            .filter(|&&ti| {
                let tr = &self.nfta.transitions()[ti];
                tr.symbol == label
                    && tr.children.len() == children.len()
                    && tr
                        .children
                        .iter()
                        .zip(children.iter())
                        .all(|(&cq, &cn)| self.nfta.accepted_at(cq, tree, cn as usize, accept_memo))
            })
            .count()
            .max(1)
    }

    /// Estimated `|Forest(fid, m)|` — exact sum-product over the
    /// first-tree size, given tree estimates — memoized on the interned
    /// forest id.
    fn forest_est(&self, fid: u32, m: usize) -> BigFloat {
        if fid == EMPTY_FOREST {
            return if m == 0 {
                BigFloat::one()
            } else {
                BigFloat::zero()
            };
        }
        let reg = self.runs.reg();
        let len = reg.len(fid);
        if m < len {
            return BigFloat::zero();
        }
        let head = reg.head(fid);
        // Unary forests are just trees: skip the size-split loop.
        if len == 1 {
            return self.tree_est(head, m);
        }
        if let Some(v) = self.forest_memo.get(&(fid, m)) {
            return v;
        }
        let tail = reg.tail(fid);
        let mut total = BigFloat::zero();
        for j in 1..=(m - (len - 1)) {
            let t = self.tree_est(head, j);
            if t.is_zero() {
                continue;
            }
            let f = self.forest_est(tail, m - j);
            total = total + t * f;
        }
        self.forest_memo.insert((fid, m), total)
    }

    /// Samples an (approximately uniform) tree from `Trees(q, n)` by
    /// sampling-importance-resampling over exact run-samples:
    /// `sir_candidates` runs are drawn uniformly among accepting runs
    /// (exact DP, no retries), each weighted by `1/M(t)` — the reciprocal
    /// of its tree's run multiplicity (exact DP) — and one is resampled by
    /// weight. As the candidate count grows the draw converges to uniform
    /// over *distinct* trees; unlike nested rejection sampling, the cost is
    /// `O(candidates · n)` regardless of tree depth (see DESIGN.md §2.5).
    ///
    /// Draws from `Trees(initial, n)`, `n` the tables' size. All
    /// randomness comes from the caller's `rng` — the counter holds no
    /// stream of its own. `None` iff no accepting run of size `n` exists.
    pub fn sample_tree<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Tree> {
        with_scratch(|s| {
            s.begin_sample();
            let node = self.sample_tree_into(self.nfta.initial(), self.runs.size(), rng, s);
            cnt_tries().add(s.tries);
            Some(s.tree.to_tree(node?))
        })
    }

    /// Flat-arena SIR tree sampler (see [`NftaCounter::sample_tree`]): the
    /// drawn tree is built in `s.tree` and its root id returned. Candidate
    /// runs live side by side in the arena; losing candidates are simply
    /// abandoned (reclaimed by the next `begin_sample`), and the run-count
    /// DP memo is shared across candidates — node ids are unique within an
    /// arena generation, so entries never collide. Each candidate run
    /// drawn counts in `s.tries`.
    fn sample_tree_into<R: Rng + ?Sized>(
        &self,
        q: StateId,
        n: usize,
        rng: &mut R,
        s: &mut Scratch,
    ) -> Option<u32> {
        let k = if self.ambiguity.is_ambiguous_below(q) {
            self.cfg.sir_candidates.max(1)
        } else {
            // Unambiguous below q: runs are in bijection with trees, so
            // one run-sample is exactly uniform.
            1
        };
        // `None` iff no run exists; nothing is drawn then.
        let first = self.runs.sample_run_into(q, n, rng, &mut s.tree)?;
        s.tries += 1;
        if k == 1 {
            return Some(first);
        }
        let cbase = s.cand_nodes.len();
        self.push_candidate(q, first, s);
        for _ in 1..k {
            s.tries += 1;
            let Some(t) = self.runs.sample_run_into(q, n, rng, &mut s.tree) else {
                s.cand_nodes.truncate(cbase);
                s.cand_weights.truncate(cbase);
                return None;
            };
            self.push_candidate(q, t, s);
        }
        let picked = s.cand_nodes[cbase + resample(&s.cand_weights[cbase..], rng.random())];
        s.cand_nodes.truncate(cbase);
        s.cand_weights.truncate(cbase);
        Some(picked)
    }

    /// Pushes SIR candidate `t`, a run from `q`, with weight `1/M(t)`.
    fn push_candidate(&self, q: StateId, t: u32, s: &mut Scratch) {
        let Scratch {
            tree,
            runs_memo,
            cand_nodes,
            cand_weights,
            ..
        } = s;
        let m = self
            .nfta
            .runs_at(q, tree, t as usize, Some(self.ambiguity), runs_memo);
        cand_nodes.push(t);
        cand_weights.push(1.0 / m.to_f64().max(1.0));
    }

    /// Samples a forest from `Forest(states, m)` into the arena: first-tree
    /// size proportional to its share, then independent components, each
    /// installed as a child of `parent` starting at `slot`.
    fn sample_forest_into<R: Rng + ?Sized>(
        &self,
        fid: u32,
        m: usize,
        rng: &mut R,
        s: &mut Scratch,
        parent: u32,
        slot: usize,
    ) -> Option<()> {
        if fid == EMPTY_FOREST {
            return (m == 0).then_some(());
        }
        if self.forest_est(fid, m).is_zero() {
            return None;
        }
        let reg = self.runs.reg();
        let head = reg.head(fid);
        if reg.len(fid) == 1 {
            let c = self.sample_tree_into(head, m, rng, s)?;
            s.tree.set_child(parent, slot, c);
            return Some(());
        }
        let splits = self.split_picks(fid, m);
        let j = splits.pick(splits.whole(), rng) as usize;
        let c = self.sample_tree_into(head, j, rng, s)?;
        s.tree.set_child(parent, slot, c);
        self.sample_forest_into(reg.tail(fid), m - j, rng, s, parent, slot + 1)
    }

    /// The split pick table of forest key `(fid, m)`: first-tree sizes `j`
    /// weighted by `est(head, j) · est(tail, m − j)`. Built on the key's
    /// first draw from the same products, in the same order, as every
    /// later draw would recompute. Like [`Self::forest_est`], it skips the
    /// tail where the head is zero, so it reads only estimates that
    /// `forest_est(fid, m)` already memoized: a draw never starts a union
    /// estimate of its own.
    fn split_picks(&self, fid: u32, m: usize) -> &PickTable<u32> {
        let cell = &self.split_picks[self.runs.forest_id(fid, m)];
        if let Some(t) = cell.get() {
            return t;
        }
        let reg = self.runs.reg();
        let (head, tail) = (reg.head(fid), reg.tail(fid));
        let table = PickTable::single((1..=(m - (reg.len(fid) - 1))).map(|j| {
            let t = self.tree_est(head, j);
            let w = if t.is_zero() {
                t
            } else {
                t * self.forest_est(tail, m - j)
            };
            (j as u32, w)
        }));
        // A concurrent first draw may have stored its (equal) table first.
        let _ = cell.set(table);
        cell.get().expect("set above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count_trees_exact, Alphabet, IndexedTree, Transition};
    use pqe_arith::BigUint;
    use pqe_rand::rngs::StdRng;
    use pqe_rand::SeedableRng;

    fn check_close(nfta: &Nfta, n: usize, cfg: &FprasConfig, tol: f64) {
        let exact = count_trees_exact(nfta, n);
        let approx = count_nfta(nfta, n, cfg);
        if exact.is_zero() {
            assert!(approx.is_zero(), "expected 0 at size {n}, got {approx}");
            return;
        }
        let rel = approx.relative_error_to(&BigFloat::from_biguint(&exact));
        assert!(
            rel <= tol,
            "size {n}: exact {exact}, approx {approx}, rel {rel}"
        );
    }

    fn full_binary() -> Nfta {
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
        t
    }

    #[test]
    fn unambiguous_counts_are_exact() {
        // Full binary trees: every union has one part per symbol, so the
        // estimate reduces to the exact DP. Catalan numbers expected.
        let aut = full_binary();
        let cfg = FprasConfig::with_epsilon(0.1).with_seed(5);
        for n in [1usize, 3, 5, 7, 9, 11] {
            check_close(&aut, n, &cfg, 1e-9);
        }
        check_close(&aut, 2, &cfg, 0.0); // zero
    }

    /// Ambiguous: two overlapping transitions. State q accepts a(x) where
    /// x is a leaf accepted by r1 (labels l1|l2) or r2 (labels l2|l3) —
    /// the l2 leaf is shared.
    fn overlapping() -> Nfta {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let l1 = alpha.intern("l1");
        let l2 = alpha.intern("l2");
        let l3 = alpha.intern("l3");
        let mut t = Nfta::new(alpha);
        let q = t.initial();
        let r1 = t.add_state();
        let r2 = t.add_state();
        t.add_transition(Transition {
            src: q,
            symbol: a,
            children: vec![r1],
        });
        t.add_transition(Transition {
            src: q,
            symbol: a,
            children: vec![r2],
        });
        for (state, labels) in [(r1, [l1, l2]), (r2, [l2, l3])] {
            for l in labels {
                t.add_transition(Transition {
                    src: state,
                    symbol: l,
                    children: vec![],
                });
            }
        }
        t
    }

    #[test]
    fn overlapping_union_not_double_counted() {
        let aut = overlapping();
        // Trees of size 2: a(l1), a(l2), a(l3) — three, not four.
        assert_eq!(count_trees_exact(&aut, 2).to_u64(), Some(3));
        let cfg = FprasConfig::with_epsilon(0.1).with_seed(17);
        check_close(&aut, 2, &cfg, 0.12);
    }

    /// A deeper ambiguous automaton: strings (unary trees) over {a,b}
    /// containing at least one a, in tree form.
    fn unary_contains_a() -> Nfta {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let e = alpha.intern("end");
        let mut t = Nfta::new(alpha);
        let q = t.initial(); // still waiting for an a
        let f = t.add_state(); // an a was seen
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
    fn deep_ambiguous_chain_within_tolerance() {
        let aut = unary_contains_a();
        let cfg = FprasConfig::with_epsilon(0.15).with_seed(23);
        // Size n+1 trees = strings of length n containing an a, + end marker:
        // 2^n - b-only = 2^n - 1.
        for n in [3usize, 5, 8] {
            let exact = count_trees_exact(&aut, n + 1);
            assert_eq!(exact.to_u64(), Some((1u64 << n) - 1));
            check_close(&aut, n + 1, &cfg, 0.15);
        }
    }

    #[test]
    fn sample_tree_produces_accepted_trees() {
        let aut = unary_contains_a();
        let runs = RunTables::new(&aut, 6);
        let ambiguity = Ambiguity::new(&aut, false);
        let counter = NftaCounter::new(
            &aut,
            &runs,
            &ambiguity,
            FprasConfig::with_epsilon(0.2).with_seed(31),
        );
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..50 {
            let t = counter.sample_tree(&mut rng).expect("nonempty");
            assert_eq!(t.size(), 6);
            assert!(
                aut.accepts(&t),
                "sampled unaccepted tree {}",
                t.display(aut.alphabet())
            );
        }
    }

    #[test]
    fn empty_language_estimates_zero() {
        let aut = full_binary();
        let cfg = FprasConfig::default();
        assert!(count_nfta(&aut, 0, &cfg).is_zero());
        assert!(count_nfta(&aut, 4, &cfg).is_zero()); // even sizes impossible
    }

    #[test]
    fn naive_union_ablation_agrees() {
        // The ungrouped estimator must approximate the same quantity.
        let aut = unary_contains_a();
        let exact = count_trees_exact(&aut, 9);
        let grouped = count_nfta(&aut, 9, &FprasConfig::with_epsilon(0.15).with_seed(2));
        let naive = count_nfta(
            &aut,
            9,
            &FprasConfig::with_epsilon(0.15)
                .with_seed(2)
                .with_naive_unions(),
        );
        let e = BigFloat::from_biguint(&exact);
        assert!(
            grouped.relative_error_to(&e) <= 0.15,
            "grouped {grouped} vs {exact}"
        );
        assert!(
            naive.relative_error_to(&e) <= 0.2,
            "naive {naive} vs {exact}"
        );
    }

    #[test]
    fn counter_reuse_is_consistent() {
        let aut = full_binary();
        let runs = RunTables::new(&aut, 7);
        let ambiguity = Ambiguity::new(&aut, false);
        let counter = NftaCounter::new(&aut, &runs, &ambiguity, FprasConfig::default());
        let a = counter.count();
        let b = counter.count();
        assert_eq!(a, b); // memoized tables
        assert_eq!(a.to_biguint_round(), BigUint::from(5u32));
    }

    /// A random NFTA over two symbols with up to three states.
    fn random_nfta() -> pqe_testkit::BoxedGen<Nfta> {
        use pqe_testkit::prelude::*;
        (
            1usize..=3,
            vec((0u32..3, 0u32..2, vec(0u32..3, 0..3)), 1..10),
        )
            .prop_map(|(states, transitions)| {
                let mut alpha = Alphabet::new();
                let syms = [alpha.intern("a"), alpha.intern("b")];
                let mut t = Nfta::new(alpha);
                let ids: Vec<StateId> = std::iter::once(t.initial())
                    .chain((1..states).map(|_| t.add_state()))
                    .collect();
                for (src, sym, children) in transitions {
                    t.add_transition(Transition {
                        src: ids[src as usize % states],
                        symbol: syms[sym as usize],
                        children: children.iter().map(|&c| ids[c as usize % states]).collect(),
                    });
                }
                t
            })
            .boxed()
    }

    /// `M(t)` at `node` from `q` by plain recursion: no memo, no witness.
    fn runs_memo_free(nfta: &Nfta, q: StateId, it: &IndexedTree, node: usize) -> BigUint {
        let children = it.children(node);
        nfta.transitions_from(q)
            .iter()
            .map(|&ti| &nfta.transitions()[ti])
            .filter(|tr| tr.symbol == it.label(node) && tr.children.len() == children.len())
            .map(|tr| {
                tr.children
                    .iter()
                    .zip(children)
                    .fold(BigUint::one(), |prod, (&cq, &cn)| {
                        &prod * &runs_memo_free(nfta, cq, it, cn as usize)
                    })
            })
            .fold(BigUint::zero(), |acc, prod| &acc + &prod)
    }

    /// Draws `draws` SIR samples from `q` at size `n` side by side into
    /// one arena, as the sampler leaves its candidates, and checks at every
    /// node and from every state that `runs_at` and `accepted_at` return
    /// what `full(q, node)`, an exact count without shortcuts, says and
    /// what the node-by-node references return. The DP memos are the ones
    /// the sampler filled.
    fn check_dps_on_draws(
        counter: &NftaCounter<'_>,
        n: usize,
        draws: usize,
        rng: &mut StdRng,
        full: impl Fn(&IndexedTree, StateId, usize) -> BigUint,
    ) -> pqe_testkit::CaseResult {
        use pqe_par::FxHashMap;
        use pqe_testkit::prelude::*;
        let (nfta, ambiguity) = (counter.nfta, counter.ambiguity);
        with_scratch(|s| {
            s.begin_sample();
            for _ in 0..draws {
                counter.sample_tree_into(nfta.initial(), n, rng, s);
            }
            let Scratch {
                tree,
                runs_memo,
                accept_memo,
                ..
            } = s;
            let (mut runs_map, mut accept_map) = (FxHashMap::default(), FxHashMap::default());
            for v in 0..tree.len() {
                for q in (0..nfta.num_states()).map(|q| StateId(q as u32)) {
                    let full = full(tree, q, v);
                    let runs = nfta.runs_at(q, tree, v, Some(ambiguity), runs_memo);
                    prop_assert_eq!(runs.to_biguint(), full.clone(), "{q} at {v}");
                    let map = nfta.runs_at_map(q, tree, v, Some(ambiguity), &mut runs_map);
                    prop_assert_eq!(map.to_biguint(), full.clone(), "{q} at {v}");
                    let accepted = nfta.accepted_at(q, tree, v, accept_memo);
                    prop_assert_eq!(accepted, !full.is_zero(), "{q} at {v}");
                    let map = nfta.accepted_at_map(q, tree, v, &mut accept_map);
                    prop_assert_eq!(map, accepted, "{q} at {v}");
                }
            }
            Ok(())
        })
    }

    /// Differential check of the chain walks on small random automata
    /// (also run under `PQE_SLOW_PATH=1`, for `BigUint` counts), against
    /// a memo-free recursion.
    #[test]
    fn witness_shortcuts_node_memos_match_a_memo_free_recursion() {
        use pqe_testkit::prelude::*;
        let gen = (random_nfta(), 1usize..7, any::<bool>(), any::<u64>());
        check(
            "witness_shortcuts_node_memos",
            &Config::cases(64),
            &gen,
            |(nfta, n, naive, seed)| {
                let runs = RunTables::new(nfta, *n);
                let ambiguity = Ambiguity::new(nfta, *naive);
                let mut cfg = FprasConfig::default().with_seed(*seed);
                cfg.naive_unions = *naive;
                let counter = NftaCounter::new(nfta, &runs, &ambiguity, cfg);
                let mut rng = StdRng::seed_from_u64(*seed);
                check_dps_on_draws(&counter, *n, 3, &mut rng, |it, q, v| {
                    runs_memo_free(nfta, q, it, v)
                })
            },
        );
    }

    /// A random chain-heavy NFTA. The initial state and up to two more
    /// form an ambiguous region `A` of unary `a`/`b` transitions into `A`
    /// and into a region `D` that has at most one transition per state
    /// and symbol: unary `a`/`b`, a branching `c` and a leaf `e`. Every
    /// `A` state reads `a` into `D₀`, and `D₀` reads `b` into itself and
    /// `e` as a leaf, so every size ≥ 2 has runs. Its trees are long
    /// unary chains whose runs cross from `A` into `D` mid-chain (where
    /// the run witnesses of states not ambiguous below sit), frontiers
    /// that merge where two `A` states read one symbol into one state,
    /// and branching below.
    fn random_chain_nfta() -> pqe_testkit::BoxedGen<Nfta> {
        use pqe_testkit::prelude::*;
        let a_moves = vec((0u32..3, 0u32..2, 0u32..6), 1..10);
        let d_moves = vec((0u32..3, 0u32..3, 0u32..3), 0..9);
        (1usize..=3, 1usize..=3, a_moves, d_moves)
            .prop_map(|(na, nd, a_moves, d_moves)| {
                let mut alpha = Alphabet::new();
                let [a, b, c, e] = ["a", "b", "c", "e"].map(|x| alpha.intern(x));
                let mut t = Nfta::new(alpha);
                let states: Vec<StateId> = std::iter::once(t.initial())
                    .chain((1..na + nd).map(|_| t.add_state()))
                    .collect();
                let (in_a, in_d) = states.split_at(na);
                let mut add = |src, symbol, children| {
                    t.add_transition(Transition {
                        src,
                        symbol,
                        children,
                    })
                };
                for &q in in_a {
                    add(q, a, vec![in_d[0]]);
                }
                for (src, sym, dst) in a_moves {
                    let dst = states[dst as usize % states.len()];
                    add(in_a[src as usize % na], [a, b][sym as usize], vec![dst]);
                }
                let mut taken = vec![(0, b)];
                add(in_d[0], b, vec![in_d[0]]);
                for &q in in_d {
                    add(q, e, vec![]);
                }
                for (src, sym, dst) in d_moves {
                    let (src, symbol) = (src as usize % nd, [a, b, c][sym as usize]);
                    if taken.contains(&(src, symbol)) {
                        continue;
                    }
                    taken.push((src, symbol));
                    let dst = dst as usize % nd;
                    let children = if symbol == c {
                        vec![in_d[dst], in_d[(dst + 1) % nd]]
                    } else {
                        vec![in_d[dst]]
                    };
                    add(in_d[src], symbol, children);
                }
                t
            })
            .boxed()
    }

    /// `M` at every node of `it` from every state, bottom up over the
    /// arena (a child's id exceeds its parent's): no memo, no witness, no
    /// chain walk, and linear however ambiguous the automaton.
    fn runs_bottom_up(nfta: &Nfta, it: &IndexedTree) -> Vec<Vec<BigUint>> {
        let mut m: Vec<Vec<BigUint>> = vec![Vec::new(); it.len()];
        for v in (0..it.len()).rev() {
            let children = it.children(v);
            let row = (0..nfta.num_states())
                .map(|q| {
                    nfta.transitions_from(StateId(q as u32))
                        .iter()
                        .map(|&ti| &nfta.transitions()[ti])
                        .filter(|tr| {
                            tr.symbol == it.label(v) && tr.children.len() == children.len()
                        })
                        .map(|tr| {
                            tr.children.iter().zip(children).fold(
                                BigUint::one(),
                                |p, (&cq, &cn)| {
                                    assert!(cn as usize > v, "child {cn} before parent {v}");
                                    &p * &m[cn as usize][cq.index()]
                                },
                            )
                        })
                        .fold(BigUint::zero(), |acc, p| &acc + &p)
                })
                .collect();
            m[v] = row;
        }
        m
    }

    /// Differential check of the chain walks on long unary chains (also
    /// run under `PQE_SLOW_PATH=1`): trees of 20–80 nodes from
    /// `random_chain_nfta`, checked against the bottom-up count and the
    /// node-by-node references.
    #[test]
    fn witness_shortcuts_chain_walks_match_the_references_on_long_chains() {
        use pqe_testkit::prelude::*;
        let gen = (
            random_chain_nfta(),
            20usize..80,
            any::<bool>(),
            any::<u64>(),
        );
        check(
            "witness_shortcuts_chain_walks",
            &Config::cases(24),
            &gen,
            |(nfta, n, naive, seed)| {
                let runs = RunTables::new(nfta, *n);
                let ambiguity = Ambiguity::new(nfta, *naive);
                let mut cfg = FprasConfig::default().with_seed(*seed);
                cfg.naive_unions = *naive;
                let counter = NftaCounter::new(nfta, &runs, &ambiguity, cfg);
                let mut rng = StdRng::seed_from_u64(*seed);
                let table = std::cell::OnceCell::new();
                check_dps_on_draws(&counter, *n, 2, &mut rng, |it, q, v| {
                    table.get_or_init(|| runs_bottom_up(nfta, it))[v][q.index()].clone()
                })
            },
        );
    }

    /// The unary-chain loop of `sample_run_into` draws what the
    /// node-by-node recursion draws: the same arena (labels, children and
    /// run states) and the same next generator output, over several
    /// draws side by side.
    #[test]
    fn witness_shortcuts_chain_sampler_draws_what_the_recursion_draws() {
        use pqe_rand::RngCore;
        use pqe_testkit::prelude::*;
        let gen = (random_chain_nfta(), 20usize..80, any::<u64>());
        check(
            "witness_shortcuts_chain_sampler",
            &Config::cases(48),
            &gen,
            |(nfta, n, seed)| {
                let runs = RunTables::new(nfta, *n);
                let (mut loop_rng, mut rec_rng) =
                    (StdRng::seed_from_u64(*seed), StdRng::seed_from_u64(*seed));
                let (mut by_loop, mut by_rec) = (IndexedTree::empty(), IndexedTree::empty());
                for _ in 0..4 {
                    let root =
                        runs.sample_run_into(nfta.initial(), *n, &mut loop_rng, &mut by_loop);
                    let rec_root =
                        runs.sample_run_rec(nfta.initial(), *n, &mut rec_rng, &mut by_rec);
                    prop_assert_eq!(root, rec_root);
                }
                prop_assert_eq!(by_loop.len(), by_rec.len());
                for v in 0..by_loop.len() {
                    prop_assert_eq!(by_loop.label(v), by_rec.label(v), "label at {v}");
                    prop_assert_eq!(by_loop.children(v), by_rec.children(v), "children at {v}");
                    prop_assert_eq!(
                        by_loop.run_state(v),
                        by_rec.run_state(v),
                        "run state at {v}"
                    );
                }
                prop_assert_eq!(loop_rng.next_u64(), rec_rng.next_u64());
                Ok(())
            },
        );
    }

    #[test]
    fn estimate_is_bit_identical_across_thread_counts() {
        let aut = unary_contains_a();
        let base = FprasConfig::with_epsilon(0.15).with_seed(0xAB);
        let reference = count_nfta(&aut, 9, &base.clone().with_threads(1));
        for threads in [2usize, 4, 8] {
            let got = count_nfta(&aut, 9, &base.clone().with_threads(threads));
            assert_eq!(got, reference, "threads={threads}");
        }
    }
}
