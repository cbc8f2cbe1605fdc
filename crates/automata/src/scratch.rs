//! Reusable per-sample scratch state for the FPRAS sampling hot paths.
//!
//! Every Karp–Luby sample used to allocate its working state from
//! scratch: a `Tree` node per sampled node, a weight `Vec` per sampling
//! decision, a fresh memo table per membership check. This module replaces
//! all of that with a thread-local **pool** of [`Scratch`] arenas:
//!
//! * the sampled tree is built directly in a flat [`IndexedTree`] arena
//!   (struct-of-arrays — see `nfta.rs`), converted to a real [`Tree`] only
//!   if it escapes to a public API;
//! * SIR candidate lists are stack-disciplined: a recursion level records
//!   the stack base, pushes its candidates, picks, and truncates back — no
//!   allocation once the high-water mark is reached;
//! * the DP memos (`accept_memo`, `runs_memo`) are [`NodeMemo`]s, keyed
//!   by `(state, node)` of the arena: cleared in O(1), never dropped;
//! * the DPs walk unary chains with frontiers kept in their memo's walk
//!   buffer, stack-disciplined like the candidate lists: each walk
//!   truncates back to where it started, so the memos hold only nodes of
//!   arity ≠ 1 and nothing is allocated once the high-water mark is
//!   reached.
//!
//! ## Why a pool, not a single thread-local cell
//!
//! Scratch users may nest on one thread: a caller holding an arena can
//! reach code that takes one too, and loops nested in a sample run inline
//! on the sampling thread (see `pqe_par::in_worker`). A single
//! `RefCell<Scratch>` would double-borrow; a pool simply hands the nested
//! level its own arena. The pool never shrinks, so steady state is one arena per nesting
//! level per worker thread.
//!
//! ## Determinism
//!
//! Scratch reuse is invisible by construction: buffers are either cleared
//! (`begin_sample`) or stack-disciplined, and nothing read by the sampler
//! survives from a previous sample. The workspace equivalence suite pins
//! this with back-to-back and fresh-pool comparisons.
//!
//! ## Proportional picks
//!
//! Proportional draws go through [`PickTable`]: per list, the nonzero
//! options and the running left-fold sums of their weights, built once
//! and searched by bisection. The sums are the very `acc` values the
//! linear scans (`pick_index_last`, `pick_index_nonzero`, kept as test
//! references) compare against, so a bisection returns the scan's index
//! on every `u` — including the scan's fallback when rounding leaves the
//! threshold unmet.
//!
//! The scans compare `BigFloat`s: `acc_i = m_i·2^e_i` against the
//! threshold `total · u`, `total = m_t·2^e_t`. A table stores each sum as
//! the `f64` `s_i = m_i·2^(e_i − e_t)` and compares it with `m_t · u`, a
//! few machine operations per probe, and the outcome is the same for
//! every `u`:
//!
//! * `u ≥ 2⁻⁵³` (any nonzero draw): `m_t · u` lies in the normal range,
//!   so its `f64` rounding is the `BigFloat` product's mantissa rounding
//!   scaled by `2^e_u`, and the two thresholds differ by exactly the
//!   factor `2^e_t`. Where `s_i` is normal it is exact too (a
//!   power-of-two rescale), so both sides compare the same reals.
//! * Sums below `2⁻¹⁰²²` of the total would be subnormal; they are stored
//!   as `f64::MIN_POSITIVE`. Both forms then answer `≤` for every
//!   nonzero `u`, whose threshold is at least `2⁻⁵³` of the total.
//! * `u = 0`: the threshold is zero and no (nonzero) sum is `≤` it in
//!   either form.

use crate::{IndexedTree, NodeMemo, StateId, SymbolId};
use pqe_arith::{BigFloat, FixUint};
use pqe_rand::Rng;
use std::cell::RefCell;

/// Per-sample working state (see module docs). One instance supports one
/// sampling call tree; nested union estimates take their own from the
/// pool.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Flat arena the candidate/sample trees are built into.
    pub tree: IndexedTree,
    /// SIR candidate roots (tree sampler).
    pub cand_nodes: Vec<u32>,
    /// SIR candidate weights, parallel to `cand_nodes`.
    pub cand_weights: Vec<f64>,
    /// Memo for the membership oracle (`accepted_at`) over the arena.
    pub accept_memo: NodeMemo<bool>,
    /// Memo for run-count DPs (`runs_at`) over the arena.
    pub runs_memo: NodeMemo<FixUint>,
    /// Flat symbol buffer for string candidates (NFA sampler).
    pub syms: Vec<SymbolId>,
    /// Parallel to `syms`: the state of the drawn path after each symbol —
    /// the run witness of each string candidate.
    pub path_states: Vec<StateId>,
    /// SIR candidate spans `(start, end)` into `syms`.
    pub str_spans: Vec<(u32, u32)>,
    /// SIR candidate weights, parallel to `str_spans`.
    pub str_weights: Vec<f64>,
    /// Frontier buffers for the run-count subset simulation.
    pub runs_cur: Vec<(StateId, FixUint)>,
    /// Second frontier buffer (swapped with `runs_cur` per step).
    pub runs_next: Vec<(StateId, FixUint)>,
    /// Frontier buffers for the boolean membership simulation.
    pub member_cur: Vec<StateId>,
    /// Second membership frontier buffer.
    pub member_next: Vec<StateId>,
    /// SIR candidate runs drawn since `begin_sample` (the tree sampler's
    /// `fpras.sample_tries`, counted by whoever folds the draw).
    pub tries: u64,
}

impl Scratch {
    /// Resets all per-sample state (arena, memos, candidate buffers) while
    /// keeping the allocations. Stack-disciplined buffers are cleared too:
    /// an aborted sample (`None` mid-recursion) may leave partial frames.
    pub fn begin_sample(&mut self) {
        self.tree.clear();
        self.accept_memo.clear();
        self.runs_memo.clear();
        self.cand_nodes.clear();
        self.cand_weights.clear();
        self.syms.clear();
        self.path_states.clear();
        self.str_spans.clear();
        self.str_weights.clear();
        self.tries = 0;
    }
}

thread_local! {
    // Boxed so a pop or push moves one pointer, not the whole arena struct.
    #[allow(clippy::vec_box)]
    static POOL: RefCell<Vec<Box<Scratch>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a pooled [`Scratch`], returning the arena to the
/// thread-local pool afterwards. Nested calls (inline nested union
/// estimates) receive distinct arenas.
pub(crate) fn with_scratch<T>(f: impl FnOnce(&mut Scratch) -> T) -> T {
    let mut s = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    let out = f(&mut s);
    POOL.with(|p| p.borrow_mut().push(s));
    out
}

/// Proportional-pick lists stored back to back (see module docs): each
/// list keeps its nonzero options and the running sums of their weights,
/// scaled to the list's total. Exact tables keep thousands of lists in one
/// `PickTable`; a per-union part list is a table of one.
#[derive(Debug)]
pub(crate) struct PickTable<C> {
    choices: Vec<C>,
    /// Per option: its running sum `m_i·2^e_i` as `m_i·2^(e_i − e_t)`,
    /// `e_t` its list total's exponent, or `f64::MIN_POSITIVE` where that
    /// is subnormal. A list's last entry is its total's mantissa `m_t`.
    scaled: Vec<f64>,
    /// The span of the list pushed last.
    last: PickSpan,
}

/// One list of a [`PickTable`]: its `start..end` range and the binary
/// exponent of its total.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PickSpan {
    start: u32,
    end: u32,
    total_exp: i64,
}

impl<C> Default for PickTable<C> {
    fn default() -> Self {
        PickTable {
            choices: Vec::new(),
            scaled: Vec::new(),
            last: PickSpan::default(),
        }
    }
}

impl<C: Copy> PickTable<C> {
    /// A table holding the single list `options` (see [`PickTable::whole`]).
    pub fn single(options: impl IntoIterator<Item = (C, BigFloat)>) -> Self {
        let mut t = Self::default();
        t.push(options);
        t
    }

    /// Appends a list. Zero-weight options are dropped: a scan never stops
    /// on one (adding zero leaves `acc` unchanged), and the nonzero scan's
    /// fallback — the last nonzero entry — is then the list's last entry.
    pub fn push(&mut self, options: impl IntoIterator<Item = (C, BigFloat)>) -> PickSpan {
        let start = self.scaled.len();
        let mut sums = Vec::new();
        let mut acc = BigFloat::zero();
        for (c, w) in options {
            if !w.is_zero() {
                acc = acc + w;
                self.choices.push(c);
                sums.push(acc);
            }
        }
        let (_, total_exp) = acc.parts();
        self.scaled.extend(sums.iter().map(|sum| {
            // 2^-1022 is the least normal power of two.
            if sum.parts().1 - total_exp < -1022 {
                f64::MIN_POSITIVE
            } else {
                sum.scale_exp(-total_exp).to_f64()
            }
        }));
        self.last = PickSpan {
            start: start as u32,
            end: self.scaled.len() as u32,
            total_exp,
        };
        self.last
    }

    /// The span of a table's only list (the list of a [`PickTable::single`]).
    pub fn whole(&self) -> PickSpan {
        debug_assert_eq!(self.last.start, 0, "whole() of a table of several lists");
        self.last
    }

    /// The options of `span` that carry weight, in push order.
    pub fn choices(&self, span: PickSpan) -> &[C] {
        &self.choices[span.start as usize..span.end as usize]
    }

    /// The list's weight total (the scans' `Σ` fold); zero if it is empty.
    pub fn total(&self, span: PickSpan) -> BigFloat {
        if span.start == span.end {
            BigFloat::zero()
        } else {
            BigFloat::new(self.scaled[span.end as usize - 1], span.total_exp)
        }
    }

    /// Draws one option of `span` proportionally to its weight: the first
    /// running sum above `total · u`, by bisection over the scaled sums
    /// (see module docs), or the last option if rounding leaves the
    /// threshold unmet. Panics on an empty list.
    #[inline]
    pub fn pick<R: Rng + ?Sized>(&self, span: PickSpan, rng: &mut R) -> C {
        let (start, end) = (span.start as usize, span.end as usize);
        let scaled = &self.scaled[start..end];
        let total_mantissa = *scaled.last().expect("pick from an empty list");
        let u: f64 = rng.random();
        let threshold = total_mantissa * u;
        let i = scaled.partition_point(|&sum| sum <= threshold);
        self.choices[start + i.min(scaled.len() - 1)]
    }
}

/// The SIR resampling step of both samplers: the first candidate at which
/// `u · Σw`, less the running sum of the weights, drops to zero or below
/// (`u ∈ [0, 1)`, `weights` positive). Rounding can leave it above zero
/// after the last weight when `u` is close to 1; the last candidate is
/// drawn then, as [`PickTable::pick`] falls back to its last option.
pub(crate) fn resample(weights: &[f64], u: f64) -> usize {
    let total: f64 = weights.iter().sum();
    let mut threshold = u * total;
    for (i, &w) in weights.iter().enumerate() {
        threshold -= w;
        if threshold <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Draws an index from `weights` proportionally, falling back to the
/// **last** entry if accumulated rounding leaves the threshold unmet —
/// the linear scan the estimators used for pre-filtered (all-nonzero)
/// weight lists before [`PickTable`]; kept as its reference.
#[cfg(test)]
pub(crate) fn pick_index_last<R: Rng + ?Sized>(
    weights: &[BigFloat],
    total: BigFloat,
    rng: &mut R,
) -> usize {
    debug_assert!(!weights.is_empty());
    let u: f64 = rng.random();
    let threshold = total * u;
    let mut acc = BigFloat::zero();
    for (i, w) in weights.iter().enumerate() {
        acc = acc + *w;
        if threshold < acc {
            return i;
        }
    }
    weights.len() - 1
}

/// Draws an index from `weights` (which may contain zeros) proportionally,
/// falling back to the last **nonzero** entry — the run sampler's linear
/// scan before [`PickTable`]; kept as its reference.
#[cfg(test)]
pub(crate) fn pick_index_nonzero<R: Rng + ?Sized>(weights: &[BigFloat], rng: &mut R) -> usize {
    let total: BigFloat = weights.iter().copied().sum();
    debug_assert!(!total.is_zero());
    let u: f64 = rng.random();
    let threshold = total * u;
    let mut acc = BigFloat::zero();
    for (i, w) in weights.iter().enumerate() {
        acc = acc + *w;
        if threshold < acc {
            return i;
        }
    }
    weights
        .iter()
        .rposition(|w| !w.is_zero())
        .expect("some weight positive")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqe_rand::rngs::StdRng;
    use pqe_rand::SeedableRng;

    #[test]
    fn pool_hands_out_distinct_arenas_when_nested() {
        with_scratch(|outer| {
            outer.cand_nodes.push(1);
            with_scratch(|inner| {
                assert!(inner.cand_nodes.is_empty(), "nested arena must be its own");
                inner.cand_nodes.push(2);
            });
            assert_eq!(outer.cand_nodes, [1]);
            outer.cand_nodes.clear();
        });
    }

    #[test]
    fn begin_sample_clears_everything() {
        with_scratch(|s| {
            s.cand_nodes.push(0);
            s.cand_weights.push(1.0);
            s.accept_memo.insert(StateId(0), 0, true);
            s.runs_memo.insert(StateId(0), 0, FixUint::one());
            s.syms.push(SymbolId(1));
            s.path_states.push(StateId(0));
            s.str_spans.push((0, 1));
            s.str_weights.push(1.0);
            s.runs_cur.push((StateId(0), FixUint::one()));
            s.begin_sample();
            assert!(s.cand_nodes.is_empty() && s.cand_weights.is_empty());
            assert!(s.accept_memo.is_empty() && s.runs_memo.is_empty());
            assert!(s.syms.is_empty() && s.path_states.is_empty());
            assert!(s.str_spans.is_empty() && s.str_weights.is_empty());
            assert!(s.tree.is_empty());
            // Frontier buffers are cleared by their own users, not here.
            assert_eq!(s.runs_cur.len(), 1);
            s.runs_cur.clear();
        });
    }

    #[test]
    fn pick_scans_agree_on_nonzero_lists() {
        // On all-nonzero lists both pick variants draw identically.
        let weights: Vec<BigFloat> = [1.0, 2.5, 0.5, 4.0]
            .iter()
            .map(|&w| BigFloat::from_f64(w))
            .collect();
        let total: BigFloat = weights.iter().copied().sum();
        for seed in 0..50u64 {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            assert_eq!(
                pick_index_last(&weights, total, &mut a),
                pick_index_nonzero(&weights, &mut b)
            );
        }
    }

    /// An RNG replaying fixed words: `u = (w >> 11) · 2⁻⁵³`, so
    /// `u64::MAX` gives the largest `u` below 1.
    struct Words(Vec<u64>);

    impl pqe_rand::RngCore for Words {
        fn next_u64(&mut self) -> u64 {
            self.0.pop().expect("enough words")
        }
    }

    /// A random weight list: zeros, plateaus of equal prefix sums, weights
    /// too small to move the sum (exponent gap > 64), and weights 1 200
    /// binary orders either side, so that prefix sums fall below `2⁻¹⁰²²`
    /// of the total (the `f64` table's `MIN_POSITIVE` entries).
    fn weight_list(rng: &mut StdRng) -> Vec<BigFloat> {
        let len = rng.random_range(1..12usize);
        let base = rng.random_range(-80..80i64);
        (0..len)
            .map(|_| match rng.random_range(0..6u32) {
                0 => BigFloat::zero(),
                1 => BigFloat::new(1.0, base - rng.random_range(65..200i64)), // vanishes
                2 => BigFloat::new(1.0, base),                                // ties
                3 => {
                    let far = base + rng.random_range(-1200..1200i64);
                    BigFloat::new(1.0 + rng.random::<f64>(), far)
                }
                _ => BigFloat::new(1.0 + rng.random::<f64>(), base + rng.random_range(-8..8i64)),
            })
            .collect()
    }

    /// Words spanning `u`: random, 0, the top of `[0, 1)`, and for each
    /// prefix sum of `weights` the `u` whose threshold lands nearest it,
    /// with its neighbours.
    fn words(rng: &mut StdRng, weights: &[BigFloat]) -> Vec<u64> {
        let mut w: Vec<u64> = (0..24).map(|_| rng.random()).collect();
        w.extend([
            0,
            1 << 11,
            u64::MAX,
            u64::MAX - (1 << 11),
            u64::MAX - (7 << 11),
        ]);
        let total: BigFloat = weights.iter().copied().sum();
        let mut acc = BigFloat::zero();
        for &x in weights {
            acc = acc + x;
            let u = (acc / total).to_f64();
            let word = ((u * (1u64 << 53) as f64) as u64).min((1 << 53) - 1) << 11;
            w.extend([
                word,
                word.saturating_sub(1 << 11),
                word.saturating_add(1 << 11),
            ]);
        }
        w
    }

    /// Property: the `f64` tables draw the index the `BigFloat` scans draw,
    /// for every list of `weight_list` and every `u` of `words`.
    #[test]
    fn pick_tables_draw_what_the_scans_draw() {
        let mut gen = StdRng::seed_from_u64(0x9c4);
        for _ in 0..3_000 {
            let mut weights = weight_list(&mut gen);
            if weights.iter().all(BigFloat::is_zero) {
                weights.push(BigFloat::one());
            }
            let total: BigFloat = weights.iter().copied().sum();
            // Zeros kept: the run sampler's nonzero scan.
            let table = PickTable::single(weights.iter().copied().enumerate());
            assert_eq!(table.total(table.whole()), total);
            // Zeros filtered first: the `pick_index_last` callers.
            let nonzero: Vec<BigFloat> = weights.iter().copied().filter(|w| !w.is_zero()).collect();
            let filtered = PickTable::single(nonzero.iter().copied().enumerate());
            for w in words(&mut gen, &weights) {
                let scan = pick_index_nonzero(&weights, &mut Words(vec![w]));
                assert_eq!(
                    table.pick(table.whole(), &mut Words(vec![w])),
                    scan,
                    "{weights:?} w={w}"
                );
                let scan = pick_index_last(&nonzero, total, &mut Words(vec![w]));
                assert_eq!(filtered.pick(filtered.whole(), &mut Words(vec![w])), scan);
            }
        }
    }

    #[test]
    fn resample_falls_back_to_the_last_candidate_at_the_top_of_u() {
        // The largest u < 1. On about one list in eight, subtracting the
        // weights one by one from u·Σw leaves a positive remainder; the
        // loop the samplers used then found no candidate and panicked.
        let u_max = 1.0 - f64::EPSILON / 2.0;
        let mut gen = StdRng::seed_from_u64(0x5e1);
        let mut fell_back = 0;
        for _ in 0..1_000 {
            let weights: Vec<f64> = (0..12)
                .map(|_| 1.0 / gen.random_range(1..40u32) as f64)
                .collect();
            let total: f64 = weights.iter().sum();
            let mut threshold = u_max * total;
            let scan = weights.iter().position(|&w| {
                threshold -= w;
                threshold <= 0.0
            });
            let picked = resample(&weights, u_max);
            match scan {
                Some(i) => assert_eq!(picked, i),
                None => {
                    assert_eq!(picked, weights.len() - 1);
                    fell_back += 1;
                }
            }
        }
        assert!(fell_back > 0, "no list exercised the fallback");
        // Away from the top of u, the draw is the scan's first crossing.
        assert_eq!(resample(&[1.0, 2.0, 1.0], 0.0), 0);
        assert_eq!(resample(&[1.0, 2.0, 1.0], 0.5), 1);
        assert_eq!(resample(&[1.0, 2.0, 1.0], 0.8), 2);
    }

    #[test]
    fn pick_table_lists_are_independent() {
        let mut t = PickTable::default();
        let a = t.push([(10u32, BigFloat::one()), (11, BigFloat::zero())]);
        let b = t.push([(20u32, BigFloat::zero()), (21, BigFloat::from_f64(3.0))]);
        let empty = t.push([(30u32, BigFloat::zero())]);
        assert!(t.total(empty).is_zero());
        assert_eq!(t.total(b).to_f64(), 3.0);
        for w in [0, u64::MAX] {
            assert_eq!(t.pick(a, &mut Words(vec![w])), 10);
            assert_eq!(t.pick(b, &mut Words(vec![w])), 21);
        }
    }
}
