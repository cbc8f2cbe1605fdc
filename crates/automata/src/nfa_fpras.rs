//! CountNFA — the `#NFA` FPRAS (Arenas, Croquevielle, Jayaram & Riveros,
//! JACM '21), as a practical adaptation (see crate docs and DESIGN.md §2.5).
//!
//! Self-reduction: `L(q, i) = ⋃_{(a,q') ∈ δ(q)} a·L(q', i−1)`.
//! Parts with different lead symbols are disjoint and add exactly; parts
//! sharing a symbol are combined with the Karp–Luby union estimator
//! (sample part ∝ size estimate, sample a string from it, weight by the
//! reciprocal of the number of parts containing it — membership is a
//! polynomial subset-simulation). Per-part uniform-ish samples come from
//! rejection sampling through the same recursion.
//!
//! Like the NFTA counter, the repetitions fan out over the `pqe-par` pool
//! and idle workers help with the union sample loops, with
//! per-sample-index randomness, so a fixed seed gives bit-identical
//! estimates at any thread count.

use crate::ambiguity::mark_ancestors;
use crate::nfta_run_estimator::KeyIndex;
use crate::scratch::{resample, with_scratch, PickSpan, PickTable, Scratch};
use crate::union_mc::{adaptive_mean, median_of_repetitions, Draw, TAG_NFA_GROUP, TAG_NFA_TOP};
use crate::{FprasConfig, Nfa, StateId, SymbolId};
use pqe_arith::{BigFloat, FixUint};
use pqe_par::{FxHashMap, ShardedMap};
use pqe_rand::rngs::StdRng;
use pqe_rand::{mix_seed, Rng};
use std::collections::{BTreeMap, BTreeSet};

/// Approximates `|L_n(M)|`, the number of distinct length-`n` strings
/// accepted by `nfa`, running `cfg.repetitions` independent estimates in
/// parallel and returning their median. The exact path tables are built
/// once, before the fan-out, and every repetition borrows them.
pub fn count_nfa(nfa: &Nfa, n: usize, cfg: &FprasConfig) -> BigFloat {
    let _span = pqe_obs::span::span("count.nfa");
    let paths = {
        let _tables = pqe_obs::span::span("tables");
        PathTables::new(nfa, n)
    };
    median_of_repetitions(cfg, |seed| {
        NfaCounter::new(nfa, &paths, cfg.clone(), seed).count()
    })
}

/// Exact accepting-path counts `P(q, i)` for strings of length `n`, with
/// the per-step pick tables of the uniform path sampler: at key `(q, i)`,
/// the transitions `(a, t)` of `q` weighted by `P(t, i − 1)`.
///
/// The keys are the closure of `{(q₀, n) : q₀ initial}` under
/// `(q, i) → (t, i − 1)` — every key the counter's estimates and draws
/// reach. The tables are built once per (automaton, `n`), level by level,
/// and read without a lock by every repetition. Keys are found through a
/// [`KeyIndex`] per state, without hashing; a lookup outside them is a
/// caller bug and panics.
///
/// Alongside them sit the automaton's other exact, seed-independent facts:
/// each state's transitions grouped by symbol, and which states are
/// *ambiguous below* — the state, or a state reachable from it, has two
/// transitions on one symbol. From a state that is not, every string has
/// at most one run.
struct PathTables {
    size: usize,
    index: KeyIndex,
    counts: Vec<FixUint>,
    spans: Vec<PickSpan>,
    picks: PickTable<(SymbolId, StateId)>,
    /// Per state: its outgoing transitions grouped by symbol, targets
    /// deduplicated.
    groups: Vec<Vec<(SymbolId, Vec<StateId>)>>,
    ambiguous_below: Vec<bool>,
}

impl PathTables {
    fn new(nfa: &Nfa, n: usize) -> Self {
        let groups: Vec<Vec<(SymbolId, Vec<StateId>)>> = (0..nfa.num_states())
            .map(|qi| {
                let mut m: BTreeMap<SymbolId, BTreeSet<StateId>> = BTreeMap::new();
                for &(a, t) in nfa.transitions_from(StateId(qi as u32)) {
                    m.entry(a).or_default().insert(t);
                }
                m.into_iter()
                    .map(|(a, ts)| (a, ts.into_iter().collect()))
                    .collect()
            })
            .collect();
        let ambiguous_below = mark_ancestors(
            groups
                .iter()
                .map(|gs| gs.iter().any(|(_, ts)| ts.len() > 1))
                .collect(),
            nfa.all_transitions()
                .iter()
                .map(|&(src, _, dst)| (src, dst)),
        );
        // levels[i]: the states reached with i symbols still to read.
        let mut levels: Vec<Vec<StateId>> = vec![Vec::new(); n + 1];
        levels[n] = nfa.initial_states().iter().copied().collect();
        for i in (1..=n).rev() {
            let mut below: Vec<StateId> = levels[i]
                .iter()
                .flat_map(|&q| nfa.transitions_from(q).iter().map(|&(_, t)| t))
                .collect();
            below.sort_unstable();
            below.dedup();
            levels[i - 1] = below;
        }
        let mut ids: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        let mut counts: Vec<FixUint> = Vec::new();
        let mut spans = Vec::new();
        let mut picks = PickTable::default();
        for (i, level) in levels.iter().enumerate() {
            for &q in level {
                let (count, span) = if i == 0 {
                    let accepting = nfa.accepting_states().contains(&q);
                    (FixUint::from_u64(accepting as u64), PickSpan::default())
                } else {
                    let options: Vec<((SymbolId, StateId), FixUint)> = nfa
                        .transitions_from(q)
                        .iter()
                        .map(|&(a, t2)| {
                            let below = ids[&(t2.0, i as u32 - 1)] as usize;
                            ((a, t2), counts[below].clone())
                        })
                        .collect();
                    let mut count = FixUint::zero();
                    for (_, c) in &options {
                        count += c;
                    }
                    let span = picks.push(options.iter().map(|(o, c)| (*o, c.to_bigfloat())));
                    (count, span)
                };
                ids.insert((q.0, i as u32), counts.len() as u32);
                counts.push(count);
                spans.push(span);
            }
        }
        PathTables {
            size: n,
            index: KeyIndex::new(nfa.num_states(), ids),
            counts,
            spans,
            picks,
            groups,
            ambiguous_below,
        }
    }

    fn id(&self, q: StateId, i: usize) -> usize {
        match self.index.get(q.0, i as u32) {
            Some(id) => id as usize,
            None => panic!(
                "PathTables: key ({q:?}, {i}) is outside the tables built for length {}",
                self.size
            ),
        }
    }

    /// `P(q, i)`: accepting paths of length `i` from `q`.
    fn count(&self, q: StateId, i: usize) -> &FixUint {
        &self.counts[self.id(q, i)]
    }

    /// One step of a uniform path draw from `(q, i)`, `P(q, i) > 0`: a
    /// transition `(a, t)` with probability `P(t, i − 1) / P(q, i)`.
    fn step<R: Rng + ?Sized>(&self, q: StateId, i: usize, rng: &mut R) -> (SymbolId, StateId) {
        self.picks.pick(self.spans[self.id(q, i)], rng)
    }
}

struct NfaCounter<'a> {
    nfa: &'a Nfa,
    /// Exact path tables of `nfa` (shared by every repetition).
    paths: &'a PathTables,
    cfg: FprasConfig,
    /// This repetition's seed (the root of every union's sample streams).
    seed: u64,
    est: ShardedMap<(StateId, usize), BigFloat>,
    /// Memoized per-symbol-group union estimates, keyed by
    /// `(state, symbol, suffix length)`. Without this, sampling re-runs
    /// the union estimator recursively — exponential work.
    group_memo: ShardedMap<(StateId, SymbolId, usize), BigFloat>,
}

impl<'a> NfaCounter<'a> {
    fn new(nfa: &'a Nfa, paths: &'a PathTables, cfg: FprasConfig, seed: u64) -> Self {
        NfaCounter {
            nfa,
            paths,
            cfg,
            seed,
            est: ShardedMap::new(),
            group_memo: ShardedMap::new(),
        }
    }

    /// Samples an accepting path (run) of length `i` from `q`, uniformly
    /// among paths, appending its string to `s.syms` and the path's state
    /// after each symbol to `s.path_states`: one table lookup and one
    /// bisection per step. `None` iff no path exists.
    fn sample_path_into<R: Rng + ?Sized>(
        &self,
        q: StateId,
        i: usize,
        rng: &mut R,
        s: &mut Scratch,
    ) -> Option<()> {
        if self.paths.count(q, i).is_zero() {
            return None;
        }
        let mut cur = q;
        for remaining in (1..=i).rev() {
            let (a, t) = self.paths.step(cur, remaining, rng);
            s.syms.push(a);
            s.path_states.push(t);
            cur = t;
        }
        Some(())
    }

    /// `M(x)`: the number of accepting runs of `x` from `q` (exact
    /// count-weighted subset simulation over a sorted-vec frontier; `cur`
    /// and `next` are reusable buffers).
    ///
    /// `run` is empty, or lists the states after each symbol of an
    /// accepting run of `x`. Once the frontier is that run's state `ρᵢ`
    /// alone, with count `c`, and `ρᵢ` is not ambiguous below, the run's
    /// suffix is the only way on: `M(x) = c`, and the simulation stops.
    fn runs_of_string(
        &self,
        q: StateId,
        x: &[SymbolId],
        run: &[StateId],
        cur: &mut Vec<(StateId, FixUint)>,
        next: &mut Vec<(StateId, FixUint)>,
    ) -> FixUint {
        cur.clear();
        next.clear();
        cur.push((q, FixUint::one()));
        for (i, &sym) in x.iter().enumerate() {
            next.clear();
            for (s, count) in cur.iter() {
                for &(a, t) in self.nfa.transitions_from(*s) {
                    if a == sym {
                        match next.binary_search_by_key(&t, |e| e.0) {
                            Ok(pos) => next[pos].1 += count,
                            Err(pos) => next.insert(pos, (t, count.clone())),
                        }
                    }
                }
            }
            std::mem::swap(cur, next);
            if cur.is_empty() {
                break;
            }
            if let ([(p, c)], Some(&rho)) = (cur.as_slice(), run.get(i)) {
                if *p == rho && !self.paths.ambiguous_below[rho.index()] {
                    return c.clone();
                }
            }
        }
        let mut acc = FixUint::zero();
        for (s, c) in cur.iter() {
            if self.nfa.accepting_states().contains(s) {
                acc += c;
            }
        }
        acc
    }

    fn count(&self) -> BigFloat {
        let n = self.paths.size;
        let parts: Vec<StateId> = self.nfa.initial_states().iter().copied().collect();
        let useed = mix_seed(&[self.seed, TAG_NFA_TOP, n as u64]);
        self.union_estimate(&parts, n, useed)
    }

    /// Size estimate of `L(q, i)`, memoized.
    fn state_est(&self, q: StateId, i: usize) -> BigFloat {
        if let Some(v) = self.est.get(&(q, i)) {
            return v;
        }
        let v = if i == 0 {
            if self.nfa.accepting_states().contains(&q) {
                BigFloat::one()
            } else {
                BigFloat::zero()
            }
        } else {
            let mut total = BigFloat::zero();
            for (a, targets) in self.groups(q) {
                total = total + self.group_est(q, *a, targets, i);
            }
            total
        };
        self.est.insert((q, i), v)
    }

    /// Outgoing transitions of `q` grouped by symbol, targets deduplicated
    /// (precomputed with the path tables).
    fn groups(&self, q: StateId) -> &[(SymbolId, Vec<StateId>)] {
        &self.paths.groups[q.index()]
    }

    /// Estimate of `|⋃_t a·L(t, i−1)|` for one symbol group (the `a` prefix
    /// is a bijection, so this equals `|⋃_t L(t, i−1)|`), memoized on
    /// `(q, a, i)`.
    fn group_est(&self, q: StateId, a: SymbolId, targets: &[StateId], i: usize) -> BigFloat {
        if let Some(v) = self.group_memo.get(&(q, a, i)) {
            return v;
        }
        let useed = mix_seed(&[self.seed, TAG_NFA_GROUP, q.0 as u64, a.0 as u64, i as u64]);
        let v = self.union_estimate(targets, i - 1, useed);
        self.group_memo.insert((q, a, i), v)
    }

    /// The Karp–Luby union estimator over parts `L(t, len)`, sampling from
    /// the streams rooted at `useed`. Membership of a sampled string in a
    /// part is the boolean subset simulation `accepts_from_state_buf`, run
    /// over reusable scratch frontiers.
    fn union_estimate(&self, parts: &[StateId], len: usize, useed: u64) -> BigFloat {
        // The parts with nonzero size estimates, as one pick list.
        let table = PickTable::single(parts.iter().map(|&t| (t, self.state_est(t, len))));
        let all = table.whole();
        let p_states = table.choices(all);
        let total = table.total(all);
        match p_states.len() {
            0 | 1 => total,
            m => {
                // Adaptive Karp–Luby estimation (the shared parallel loop
                // in `union_mc`).
                let cap = self.cfg.union_samples(m);
                let floor = self.cfg.union_sample_floor.min(cap);
                let folded = adaptive_mean(
                    cap,
                    floor,
                    self.cfg.local_epsilon(),
                    useed,
                    |rng: &mut StdRng| {
                        let t = table.pick(all, rng);
                        Draw::weight(with_scratch(|s| {
                            s.begin_sample();
                            let (start, end) = self.sample_string_into(t, len, rng, s)?;
                            let Scratch {
                                syms,
                                path_states,
                                member_cur,
                                member_next,
                                ..
                            } = &mut *s;
                            let span = start as usize..end as usize;
                            let (x, run) = (&syms[span.clone()], &path_states[span]);
                            let n_holding = p_states
                                .iter()
                                .filter(|&&t2| {
                                    self.nfa.accepts_from_state_buf(
                                        t2,
                                        x,
                                        run,
                                        member_cur,
                                        member_next,
                                    )
                                })
                                .count()
                                .max(1);
                            Some(1.0 / n_holding as f64)
                        }))
                    },
                );
                if folded.taken == 0 {
                    return BigFloat::zero();
                }
                total * folded.mean
            }
        }
    }

    /// Draws an (approximately uniform) string from `L(q, i)` by
    /// sampling-importance-resampling over exact path samples: each of
    /// `sir_candidates` accepting paths (drawn uniformly via the exact
    /// path-count DP, no retries) is weighted by the reciprocal of its
    /// string's run multiplicity `M(x)`, and one is resampled by weight —
    /// cost `O(candidates · i)` regardless of depth, unlike nested
    /// rejection (see DESIGN.md §2.5).
    ///
    /// Candidate strings live side by side in `s.syms`; the chosen one is
    /// returned as a `(start, end)` span (it stays valid until the next
    /// `begin_sample`).
    fn sample_string_into<R: Rng + ?Sized>(
        &self,
        q: StateId,
        i: usize,
        rng: &mut R,
        s: &mut Scratch,
    ) -> Option<(u32, u32)> {
        if self.paths.count(q, i).is_zero() {
            return None;
        }
        let k = self.cfg.sir_candidates.max(1);
        let spbase = s.str_spans.len();
        let swbase = s.str_weights.len();
        for _ in 0..k {
            let start = s.syms.len() as u32;
            if self.sample_path_into(q, i, rng, s).is_none() {
                s.str_spans.truncate(spbase);
                s.str_weights.truncate(swbase);
                return None;
            }
            let end = s.syms.len() as u32;
            let m = {
                let Scratch {
                    syms,
                    path_states,
                    runs_cur,
                    runs_next,
                    ..
                } = &mut *s;
                let span = start as usize..end as usize;
                self.runs_of_string(
                    q,
                    &syms[span.clone()],
                    &path_states[span],
                    runs_cur,
                    runs_next,
                )
            };
            s.str_spans.push((start, end));
            s.str_weights.push(1.0 / m.to_f64().max(1.0));
        }
        let picked = s.str_spans[spbase + resample(&s.str_weights[swbase..], rng.random())];
        s.str_spans.truncate(spbase);
        s.str_weights.truncate(swbase);
        Some(picked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Alphabet;

    fn check_close(nfa: &Nfa, n: usize, cfg: &FprasConfig, tol: f64) {
        let exact = nfa.count_strings_exact(n);
        let approx = count_nfa(nfa, n, cfg);
        if exact.is_zero() {
            assert!(approx.is_zero(), "expected 0, got {approx}");
            return;
        }
        let rel = approx.relative_error_to(&BigFloat::from_biguint(&exact));
        assert!(
            rel <= tol,
            "n={n}: exact {exact}, approx {approx}, rel err {rel}"
        );
    }

    /// Strings over {0,1} ending in 1 — unambiguous.
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

    /// Highly ambiguous: strings over {a,b} containing at least one `a`,
    /// accepted once per `a` occurrence "marked".
    fn contains_a_ambiguous() -> Nfa {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let mut m = Nfa::new(alpha);
        let s = m.add_state();
        let f = m.add_state();
        m.set_initial(s);
        m.set_accepting(f);
        m.add_transition(s, a, s);
        m.add_transition(s, b, s);
        m.add_transition(s, a, f);
        m.add_transition(f, a, f);
        m.add_transition(f, b, f);
        m
    }

    #[test]
    fn unambiguous_count_is_near_exact() {
        let m = ends_in_one();
        let cfg = FprasConfig::with_epsilon(0.1).with_seed(7);
        // Unambiguous: every union is a single part, so the estimate is the
        // exact path-count DP.
        for n in 1..=12 {
            check_close(&m, n, &cfg, 1e-9);
        }
    }

    #[test]
    fn ambiguous_count_within_tolerance() {
        let m = contains_a_ambiguous();
        assert!(m.is_ambiguous_upto(4));
        let cfg = FprasConfig::with_epsilon(0.15).with_seed(11);
        for n in 1..=10 {
            check_close(&m, n, &cfg, 0.15);
        }
    }

    #[test]
    fn empty_language_counts_zero() {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let mut m = Nfa::new(alpha);
        let s = m.add_state();
        let dead = m.add_state();
        m.set_initial(s);
        m.set_accepting(dead); // accepting but only reachable... not at n=3
        m.add_transition(s, a, s);
        let cfg = FprasConfig::default();
        assert!(count_nfa(&m, 3, &cfg).is_zero());
    }

    #[test]
    fn length_zero_edge_cases() {
        let m = ends_in_one();
        let cfg = FprasConfig::default();
        assert!(count_nfa(&m, 0, &cfg).is_zero()); // initial not accepting
        let mut alpha = Alphabet::new();
        alpha.intern("a");
        let mut m2 = Nfa::new(alpha);
        let s = m2.add_state();
        m2.set_initial(s);
        m2.set_accepting(s);
        assert_eq!(count_nfa(&m2, 0, &cfg).to_f64(), 1.0);
    }

    #[test]
    fn multiple_overlapping_initial_states() {
        // Both initial states accept exactly the same language: the union
        // estimator must not double count.
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let mut m = Nfa::new(alpha);
        let p = m.add_state();
        let q = m.add_state();
        let f = m.add_state();
        m.set_initial(p);
        m.set_initial(q);
        m.set_accepting(f);
        m.add_transition(p, a, f);
        m.add_transition(q, a, f);
        let cfg = FprasConfig::with_epsilon(0.1).with_seed(3);
        let approx = count_nfa(&m, 1, &cfg);
        let rel = (approx.to_f64() - 1.0).abs();
        assert!(rel <= 0.1, "approx {approx}");
    }

    #[test]
    fn deterministic_given_seed() {
        let m = contains_a_ambiguous();
        let cfg = FprasConfig::with_epsilon(0.2).with_seed(99);
        let a = count_nfa(&m, 8, &cfg);
        let b = count_nfa(&m, 8, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn estimate_is_bit_identical_across_thread_counts() {
        let m = contains_a_ambiguous();
        let base = FprasConfig::with_epsilon(0.2).with_seed(0xCD);
        let reference = count_nfa(&m, 8, &base.clone().with_threads(1));
        for threads in [2usize, 4, 8] {
            let got = count_nfa(&m, 8, &base.clone().with_threads(threads));
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn no_accepting_state_reachable_counts_zero() {
        // The accepting state sits in a separate component with no inbound
        // transition at all: every length must count zero, including the
        // lengths where the live component still has runs.
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let mut m = Nfa::new(alpha);
        let s = m.add_state();
        let t = m.add_state();
        let island = m.add_state();
        m.set_initial(s);
        m.set_accepting(island);
        m.add_transition(s, a, t);
        m.add_transition(t, b, s);
        m.add_transition(island, a, island);
        let cfg = FprasConfig::with_epsilon(0.1).with_seed(5);
        for n in 0..=8 {
            assert!(count_nfa(&m, n, &cfg).is_zero(), "n={n}");
        }
    }

    #[test]
    fn self_loop_only_counts_one_per_length() {
        // A single accepting-initial state with one self-loop accepts
        // exactly one string of every length — the degenerate unambiguous
        // case where every level's union has a single singleton part.
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let mut m = Nfa::new(alpha);
        let s = m.add_state();
        m.set_initial(s);
        m.set_accepting(s);
        m.add_transition(s, a, s);
        let cfg = FprasConfig::with_epsilon(0.1).with_seed(5);
        for n in 0..=10 {
            assert_eq!(count_nfa(&m, n, &cfg).to_f64(), 1.0, "n={n}");
        }
    }

    #[test]
    fn length_zero_accepting_initial_counts_the_empty_string() {
        // n = 0 with an accepting initial state: |L_0| = 1 (the empty
        // string), regardless of any outgoing transitions.
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let mut m = Nfa::new(alpha);
        let s = m.add_state();
        let dead = m.add_state();
        m.set_initial(s);
        m.set_accepting(s);
        m.add_transition(s, a, dead);
        let cfg = FprasConfig::default();
        assert_eq!(count_nfa(&m, 0, &cfg).to_f64(), 1.0);
    }

    /// A 3-state NFA over {a, b} from bit masks: bit `i` of `accept_bits`
    /// makes state `i` accepting, the bits of `trans_bits` (cycled) pick
    /// the transitions. State 0 is initial.
    fn bits_nfa(trans_bits: u32, accept_bits: u8) -> Nfa {
        const STATES: usize = 3;
        let mut alpha = Alphabet::new();
        let syms = [alpha.intern("a"), alpha.intern("b")];
        let mut m = Nfa::new(alpha);
        let states: Vec<StateId> = (0..STATES).map(|_| m.add_state()).collect();
        m.set_initial(states[0]);
        for (i, &q) in states.iter().enumerate() {
            if (accept_bits >> i) & 1 == 1 {
                m.set_accepting(q);
            }
        }
        let mut bit = 0;
        for &src in &states {
            for &sym in &syms {
                for &dst in &states {
                    if (trans_bits >> (bit % 32)) & 1 == 1 {
                        m.add_transition(src, sym, dst);
                    }
                    bit += 1;
                }
            }
        }
        m
    }

    /// Property: on arbitrary small NFAs — including ones that hit the
    /// degenerate shapes above by chance — `count_nfa` stays within the
    /// configured relative error of the exact subset-construction count,
    /// and agrees exactly on emptiness.
    #[test]
    fn random_small_nfas_track_the_exact_count() {
        use pqe_testkit::prelude::*;
        let tk = Config::cases(24);
        check(
            "random_small_nfas_track_the_exact_count",
            &tk,
            &(any::<u32>(), any::<u8>()),
            |&(trans_bits, accept_bits)| {
                prop_assume!(accept_bits & 0b111 != 0);
                let m = bits_nfa(trans_bits, accept_bits);
                let cfg = FprasConfig::with_epsilon(0.2).with_seed(trans_bits as u64);
                for n in 0..=5usize {
                    let exact = m.count_strings_exact(n);
                    let approx = count_nfa(&m, n, &cfg);
                    if exact.is_zero() {
                        prop_assert!(approx.is_zero(), "n={n}: expected 0, got {approx}");
                    } else {
                        let rel = approx.relative_error_to(&BigFloat::from_biguint(&exact));
                        prop_assert!(
                            rel <= 0.2,
                            "n={n}: exact {exact}, approx {approx}, rel {rel}"
                        );
                    }
                }
                Ok(())
            },
        );
    }

    /// Property: the path tables' counts are the exact accepting-path
    /// counts, and a walk of their pick tables — every key a draw reaches
    /// must be tabled, or the lookup panics — spells an accepted string.
    #[test]
    fn path_tables_match_exact_path_counts() {
        use pqe_rand::SeedableRng;
        use pqe_testkit::prelude::*;
        check(
            "path_tables_match_exact_path_counts",
            &Config::cases(64),
            &(any::<u32>(), any::<u8>(), 0usize..8),
            |&(trans_bits, accept_bits, n)| {
                let m = bits_nfa(trans_bits, accept_bits);
                let tables = PathTables::new(&m, n);
                let q0 = StateId(0);
                prop_assert_eq!(tables.count(q0, n).to_biguint(), m.count_accepting_paths(n));
                let counter = NfaCounter::new(&m, &tables, FprasConfig::default(), 1);
                let mut rng = StdRng::seed_from_u64(trans_bits as u64);
                with_scratch(|s| {
                    s.begin_sample();
                    if counter.sample_path_into(q0, n, &mut rng, s).is_some() {
                        prop_assert!(m.accepts(&s.syms));
                    } else {
                        prop_assert!(tables.count(q0, n).is_zero());
                    }
                    Ok(())
                })
            },
        );
    }

    /// Differential check of the path-witness shortcuts (also run under
    /// `PQE_SLOW_PATH=1`, for `BigUint` counts): for strings drawn with
    /// their path states, `runs_of_string` and the membership simulation
    /// agree with their witness-free runs from every state, not only the
    /// state the path starts in.
    #[test]
    fn witness_shortcuts_match_the_full_simulation_on_random_nfas() {
        use pqe_rand::SeedableRng;
        use pqe_testkit::prelude::*;
        check(
            "witness_shortcuts_match_the_full_simulation",
            &Config::cases(64),
            &(any::<u32>(), any::<u32>(), any::<u8>(), 1usize..8),
            |&(trans_bits, sparse_bits, accept_bits, n)| {
                // Half the cases sparse: states that are not ambiguous
                // below, where the shortcuts fire, are common then.
                let sparse = if sparse_bits & 1 == 1 {
                    sparse_bits
                } else {
                    u32::MAX
                };
                let m = bits_nfa(trans_bits & sparse, accept_bits);
                let tables = PathTables::new(&m, n);
                let counter = NfaCounter::new(&m, &tables, FprasConfig::default(), 1);
                let mut rng = StdRng::seed_from_u64(trans_bits as u64);
                with_scratch(|s| {
                    s.begin_sample();
                    for _ in 0..3 {
                        let start = s.syms.len();
                        if counter
                            .sample_path_into(StateId(0), n, &mut rng, s)
                            .is_none()
                        {
                            break;
                        }
                        let Scratch {
                            syms,
                            path_states,
                            runs_cur,
                            runs_next,
                            member_cur,
                            member_next,
                            ..
                        } = &mut *s;
                        let (x, run) = (&syms[start..], &path_states[start..]);
                        prop_assert_eq!(run.len(), x.len());
                        for q in (0..m.num_states()).map(|q| StateId(q as u32)) {
                            let fast = counter.runs_of_string(q, x, run, runs_cur, runs_next);
                            let full = counter.runs_of_string(q, x, &[], runs_cur, runs_next);
                            prop_assert_eq!(fast.to_biguint(), full.to_biguint(), "{q} on {x:?}");
                            let fast = m.accepts_from_state_buf(q, x, run, member_cur, member_next);
                            let full = m.accepts_from(BTreeSet::from([q]), x);
                            prop_assert_eq!(fast, full, "{q} on {x:?}");
                        }
                    }
                    Ok(())
                })
            },
        );
    }

    #[test]
    #[should_panic(expected = "outside the tables")]
    fn path_table_lookup_outside_the_closure_panics() {
        let m = ends_in_one();
        // Built for length 2 from the initial state: (s, 3) is not a key.
        PathTables::new(&m, 2).count(StateId(0), 3);
    }
}
