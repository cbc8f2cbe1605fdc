//! The shared adaptive Karp–Luby sample loop, parallel and deterministic.
//!
//! Both FPRAS counters (`nfa_fpras`, `nfta_fpras`) estimate ambiguous
//! unions the same way: draw samples until the standard error of the mean
//! of the `1/N` membership weights falls below the per-union budget, capped
//! by `union_samples(m)` (Welford online variance). This module hosts that
//! loop once.
//!
//! ## Who computes a sample
//!
//! The repetitions of a count fan out over a `pqe_par` scope, and each
//! union loop runs on the worker of its repetition. While every worker
//! still has a repetition to run, the loop runs sequentially on its own
//! worker. Once a worker is out of repetitions it stays in the scope as a
//! helper ([`pqe_par::share`]), and the union loops of the repetitions
//! still running share their sample indices with it: the loop's worker
//! (the *owner*) publishes index-keyed streams, helpers and owner claim
//! indices off one counter, and the owner folds the results. With one
//! thread, or with no helper idle, no index is shared.
//!
//! ## Determinism contract
//!
//! The estimate must be **bit-identical for a fixed seed regardless of
//! thread count**. Three rules achieve it:
//!
//! 1. Randomness is keyed to the *sample index*, never the thread: sample
//!    `i` of a union draws from the xoshiro stream `i` jumps past the
//!    union's seed (`Xoshiro256PlusPlus::split_n(useed, i)`, derived
//!    incrementally here by the owner, one jump per index in index order,
//!    to avoid the `O(i)` cost of calling `split_n` per sample).
//! 2. Welford accumulation folds the per-index results **in index order**
//!    on the owner; helpers only evaluate samples.
//! 3. The adaptive early stop is decided during that ordered fold, so the
//!    loop stops at the same sample index whoever computed what; samples
//!    speculatively computed past the stop index are discarded.
//!
//! The fold itself lives in [`WelfordFold`] — one shared implementation,
//! so the sequential path, the shared path and the in-tree reference loop
//! ([`adaptive_mean_reference`], kept for the differential suite) cannot
//! drift apart operation-by-operation. It also tallies what the counters
//! report (draws, SIR tries, values taken), so those count folded samples
//! only, never a speculative one. The sequential path derives one stream
//! at a time and never allocates.
//!
//! Each union gets its own seed via [`pqe_rand::mix_seed`] over
//! `(run seed, domain tag, union key…)`, making every memoized estimate a
//! pure function of its key and the run seed — which in turn is what lets
//! the memo tables be simple first-insert-wins sharded maps.

use crate::FprasConfig;
use pqe_arith::BigFloat;
use pqe_rand::rngs::StdRng;
use pqe_rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Sample indices a shared loop publishes ahead of its fold: the most
/// samples helpers can compute past the owner's fold position.
const SHARE_WINDOW: usize = 16;

/// Seed-domain tags (fed to `mix_seed` so the same `(state, size)` key in
/// different contexts draws from unrelated streams).
pub(crate) const TAG_NFTA_GROUP: u64 = 0x7e4a_0001;
pub(crate) const TAG_NFA_GROUP: u64 = 0x7e4a_0002;
pub(crate) const TAG_NFA_TOP: u64 = 0x7e4a_0003;

/// The median of `cfg.repetitions` (at least one) independent estimates,
/// fanned out over the `pqe_par` pool: repetition `rep` runs `estimate`
/// with the seed `cfg.seed + rep`, inside a `rep` span of its own (a
/// logical index, never a chunk), so the median and the span tree are the
/// same at any worker count.
pub(crate) fn median_of_repetitions<F>(cfg: &FprasConfig, estimate: F) -> BigFloat
where
    F: Fn(u64) -> BigFloat + Sync,
{
    let reps = cfg.repetitions.max(1);
    let mut results = pqe_par::map_chunks(cfg.effective_threads(), reps, 1, |r| {
        r.map(|rep| {
            let _rep = pqe_obs::span::span("rep");
            estimate(cfg.seed.wrapping_add(rep as u64))
        })
        .collect()
    });
    results.sort_by(|a, b| a.partial_cmp(b).unwrap());
    results[results.len() / 2]
}

/// One evaluated sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Draw {
    /// The Karp–Luby weight `1/N`, or `None` when the draw found nothing.
    pub(crate) weight: Option<f64>,
    /// SIR candidate draws the sample made (`fpras.sample_tries`).
    pub(crate) tries: u64,
}

impl Draw {
    /// A draw that makes no SIR candidate draws of its own.
    pub(crate) fn weight(weight: Option<f64>) -> Draw {
        Draw { weight, tries: 0 }
    }
}

/// What a sample loop folded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Folded {
    /// Sample indices folded: `0..samples`.
    pub(crate) samples: usize,
    /// Their summed [`Draw::tries`].
    pub(crate) tries: u64,
    /// Values taken (the draws with a weight).
    pub(crate) taken: usize,
    /// Mean of the values taken.
    pub(crate) mean: f64,
}

/// The ordered Welford mean/variance fold with the adaptive early stop.
///
/// Exactly one implementation of the accumulation order exists: every
/// sample loop pushes per-index results through this struct in index
/// order. The operation sequence per accepted value — `delta = x − mean`,
/// `mean += delta / taken`, `m2 += delta · (x − mean)`, then the
/// standard-error test — is pinned by `fold_is_pinned_at_every_worker_count`
/// below; changing it changes every golden digit in the workspace.
pub(crate) struct WelfordFold {
    floor: usize,
    eps_loc: f64,
    samples: usize,
    tries: u64,
    taken: usize,
    mean: f64,
    m2: f64,
}

impl WelfordFold {
    pub(crate) fn new(floor: usize, eps_loc: f64) -> Self {
        WelfordFold {
            floor,
            eps_loc,
            samples: 0,
            tries: 0,
            taken: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Folds the next index's draw; returns `true` when the early stop
    /// fires at it.
    #[inline]
    pub(crate) fn push(&mut self, d: Draw) -> bool {
        self.samples += 1;
        self.tries += d.tries;
        let Some(x) = d.weight else {
            return false;
        };
        self.taken += 1;
        let delta = x - self.mean;
        self.mean += delta / self.taken as f64;
        self.m2 += delta * (x - self.mean);
        if self.taken >= self.floor && self.mean > 0.0 {
            let t = self.taken as f64;
            let sem = (self.m2 / (t * (t - 1.0))).sqrt() / self.mean;
            return sem < self.eps_loc;
        }
        false
    }

    pub(crate) fn finish(&self) -> Folded {
        Folded {
            samples: self.samples,
            tries: self.tries,
            taken: self.taken,
            mean: self.mean,
        }
    }
}

/// Runs the adaptive sample loop: up to `cap` draws of `sample`, Welford
/// mean/variance over the weights in index order, stopping once at least
/// `floor` values are in and the relative standard error of the mean
/// drops below `eps_loc`.
///
/// `sample` receives the dedicated PRNG of its sample index and must not
/// use any other randomness source. It may run on a helper thread, and
/// past the stop index, where its draw is discarded: it must have no
/// effect beyond its result that a sequential run would not have too.
pub(crate) fn adaptive_mean<F>(
    cap: usize,
    floor: usize,
    eps_loc: f64,
    useed: u64,
    sample: F,
) -> Folded
where
    F: Fn(&mut StdRng) -> Draw + Sync,
{
    let _span = pqe_obs::span::span("union_mc");
    let mut head = StdRng::seed_from_u64(useed); // stream 0 == split_n(useed, 0)
    let mut fold = WelfordFold::new(floor, eps_loc);
    if !pqe_par::has_helpers() {
        // Sequential path: the stream of index `i` is `head` before its
        // `i`-th jump — no per-iteration allocation at all.
        for _ in 0..cap {
            let mut rng = head.clone();
            head.jump();
            if fold.push(sample(&mut rng)) {
                break;
            }
        }
        return fold.finish();
    }
    let shared = Shared::new(cap);
    pqe_par::share(&|| shared.help(&sample), || {
        shared.own(&mut head, &mut fold, &sample)
    });
    fold.finish()
}

/// One index slot of a shared loop's window.
enum Slot {
    /// Folded, or claimed and being computed.
    Empty,
    /// The index's stream, published by the owner.
    Stream(StdRng),
    Done(Draw),
    /// Its computation panicked on a helper.
    Lost,
}

/// The sample indices of one loop, shared between its owner and the
/// crew's helpers. Index `k` lives in slot `k % SHARE_WINDOW`; the owner
/// publishes streams at most `SHARE_WINDOW` indices past its fold.
struct Shared {
    cap: usize,
    slots: Vec<Mutex<Slot>>,
    /// The next index to claim; `usize::MAX` once the loop is done. It
    /// publishes nothing itself: slot contents pass through their locks.
    next: AtomicUsize,
    /// Indices below this have had their stream published: stored
    /// (`Release`) after the stream, loaded (`Acquire`) before a claim.
    filled: AtomicUsize,
}

impl Shared {
    fn new(cap: usize) -> Shared {
        Shared {
            cap,
            slots: (0..SHARE_WINDOW.min(cap))
                .map(|_| Mutex::new(Slot::Empty))
                .collect(),
            next: AtomicUsize::new(0),
            filled: AtomicUsize::new(0),
        }
    }

    fn slot(&self, k: usize) -> MutexGuard<'_, Slot> {
        self.slots[k % self.slots.len()]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Claims the lowest unclaimed published index.
    fn claim(&self) -> Option<usize> {
        let mut k = self.next.load(Ordering::Relaxed);
        loop {
            if k >= self.filled.load(Ordering::Acquire) {
                return None;
            }
            match self
                .next
                .compare_exchange_weak(k, k + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Some(k),
                Err(now) => k = now,
            }
        }
    }

    /// Computes claimed index `k` from its stream.
    fn run<F: Fn(&mut StdRng) -> Draw>(&self, k: usize, sample: &F) {
        let Slot::Stream(mut rng) = std::mem::replace(&mut *self.slot(k), Slot::Empty) else {
            unreachable!("a claimed index holds its stream");
        };
        /// Marks the slot lost unless forgotten: dropped only if the
        /// sample unwinds.
        struct Lose<'a>(&'a Shared, usize);
        impl Drop for Lose<'_> {
            fn drop(&mut self) {
                *self.0.slot(self.1) = Slot::Lost;
            }
        }
        let lose = Lose(self, k);
        let d = sample(&mut rng);
        std::mem::forget(lose);
        *self.slot(k) = Slot::Done(d);
    }

    /// A helper's turn: computes claimable indices until none is left.
    fn help<F: Fn(&mut StdRng) -> Draw>(&self, sample: &F) {
        while let Some(k) = self.claim() {
            self.run(k, sample);
        }
    }

    /// The owner's loop: publishes streams in index order, computes what
    /// no helper has claimed, and folds every index in order until the
    /// early stop or the cap; then closes the loop to further claims.
    fn own<F: Fn(&mut StdRng) -> Draw>(
        &self,
        head: &mut StdRng,
        fold: &mut WelfordFold,
        sample: &F,
    ) {
        let window = self.slots.len();
        let mut pos = 0;
        let mut filled = 0;
        'fold: while pos < self.cap {
            while filled < self.cap.min(pos + window) {
                *self.slot(filled) = Slot::Stream(head.clone());
                head.jump();
                filled += 1;
                self.filled.store(filled, Ordering::Release);
            }
            while pos < filled {
                let mut slot = self.slot(pos);
                let d = match *slot {
                    Slot::Done(d) => d,
                    // The helper's panic is resumed by `pqe_par::share`.
                    Slot::Lost => break 'fold,
                    _ => break,
                };
                *slot = Slot::Empty;
                drop(slot);
                pos += 1;
                if fold.push(d) {
                    break 'fold;
                }
            }
            // Nothing to claim: a helper is computing index `pos`.
            match self.claim() {
                Some(k) => self.run(k, sample),
                None => std::thread::yield_now(),
            }
        }
        self.next.store(usize::MAX, Ordering::Relaxed);
    }
}

/// The pre-optimization reference loop: a fresh stream per index split
/// off the union seed, the same ordered fold written out inline, all on
/// the calling thread. Kept in-tree so the differential tests can assert
/// the production loop never drifts from it.
#[cfg(test)]
pub(crate) fn adaptive_mean_reference<F>(
    cap: usize,
    floor: usize,
    eps_loc: f64,
    useed: u64,
    sample: F,
) -> (usize, f64)
where
    F: Fn(&mut StdRng) -> Option<f64>,
{
    let (mut taken, mut mean, mut m2) = (0usize, 0.0f64, 0.0f64);
    for i in 0..cap {
        let mut rng = StdRng::split_n(useed, i as u64);
        let Some(x) = sample(&mut rng) else { continue };
        taken += 1;
        let delta = x - mean;
        mean += delta / taken as f64;
        m2 += delta * (x - mean);
        if taken >= floor && mean > 0.0 {
            let sem = (m2 / (taken as f64 * (taken as f64 - 1.0))).sqrt() / mean;
            if sem < eps_loc {
                return (taken, mean);
            }
        }
    }
    (taken, mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqe_rand::Rng;

    /// Runs `f` on a worker of a `threads`-worker scope once another worker
    /// has become its helper, so a loop in `f` takes the shared path (with
    /// `threads` 1, `f` runs on the calling thread).
    fn with_helpers<R: Send>(threads: usize, f: impl Fn() -> R + Sync) -> R {
        if threads <= 1 {
            return f();
        }
        let mut out = pqe_par::map_chunks(threads, threads, 1, |r| {
            r.map(|i| {
                (i == 0).then(|| {
                    let t0 = std::time::Instant::now();
                    while !pqe_par::has_helpers() {
                        assert!(t0.elapsed().as_secs() < 60, "no helper showed up");
                        std::thread::yield_now();
                    }
                    f()
                })
            })
            .collect()
        });
        out.swap_remove(0).expect("item 0 ran f")
    }

    /// Busy-waits long enough per draw that helpers join the loop.
    fn slow() {
        let t0 = std::time::Instant::now();
        while t0.elapsed() < std::time::Duration::from_micros(20) {
            std::hint::spin_loop();
        }
    }

    /// The loop's `(taken, mean)` with `sample`'s weights, at `threads`.
    fn run(
        threads: usize,
        cap: usize,
        floor: usize,
        eps: f64,
        seed: u64,
        sample: fn(&mut StdRng) -> Option<f64>,
    ) -> (usize, f64) {
        let f = with_helpers(threads, || {
            adaptive_mean(cap, floor, eps, seed, |rng| {
                slow();
                Draw::weight(sample(rng))
            })
        });
        (f.taken, f.mean)
    }

    fn rejecting(rng: &mut StdRng) -> Option<f64> {
        let u: f64 = rng.random();
        (u > 0.1).then_some(1.0 / (1.0 + (u * 3.0) as u64 as f64))
    }

    #[test]
    fn thread_count_is_invisible() {
        // A sample function with real variance and occasional rejections.
        let baseline = run(1, 500, 24, 0.05, 0x1234, rejecting);
        for threads in [2, 4, 8] {
            assert_eq!(
                run(threads, 500, 24, 0.05, 0x1234, rejecting),
                baseline,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn matches_reference_implementation_at_every_worker_count() {
        // The production loop (sequential path + shared path) must be
        // bit-identical to the in-tree reference loop for the same seed,
        // at every worker count and across early-stop and cap-bound
        // regimes.
        fn sample(rng: &mut StdRng) -> Option<f64> {
            let u: f64 = rng.random();
            (u > 0.07).then_some(1.0 / (1.0 + (u * 5.0) as u64 as f64))
        }
        for (cap, floor, eps) in [(500, 24, 0.05), (64, 64, 0.0), (37, 8, 0.2)] {
            for seed in [0x1234u64, 7, 0xDEAD] {
                let want = adaptive_mean_reference(cap, floor, eps, seed, sample);
                for threads in [1usize, 2, 4, 8] {
                    let got = run(threads, cap, floor, eps, seed, sample);
                    assert_eq!(
                        got, want,
                        "threads={threads} cap={cap} floor={floor} eps={eps} seed={seed:#x}"
                    );
                    assert_eq!(
                        got.1.to_bits(),
                        want.1.to_bits(),
                        "mean bits differ at threads={threads} seed={seed:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn fold_is_pinned_at_every_worker_count() {
        // Regression pin for the Welford reduction order: a fixed draw
        // sequence must produce these exact bits at every worker count.
        // If this fails, the fold order changed — which silently re-pins
        // every golden digit in the workspace. Don't update the constants;
        // fix the fold.
        fn sample(rng: &mut StdRng) -> Option<f64> {
            let u: f64 = rng.random();
            (u > 0.25).then_some(1.0 / (1.0 + (u * 4.0) as u64 as f64))
        }
        for threads in [1usize, 2, 4, 8] {
            let (taken, mean) = run(threads, 200, 16, 0.08, 0xFEED_5EED, sample);
            assert_eq!(taken, 16, "threads={threads}");
            assert_eq!(
                mean.to_bits(),
                0x3fd7000000000000u64,
                "threads={threads}: mean={mean:.17} bits={:#x}",
                mean.to_bits()
            );
        }
    }

    #[test]
    fn only_folded_draws_are_tallied() {
        // Each draw reports 3 tries. Helpers draw too, past the stop as
        // well, but the tallies cover exactly the folded indices. The
        // owner's draws wait until a helper has drawn, so one does.
        let at = |threads: usize| {
            let helped = std::sync::atomic::AtomicBool::new(false);
            with_helpers(threads, || {
                let owner = std::thread::current().id();
                adaptive_mean(500, 24, 0.05, 0x1234, |rng| {
                    if threads > 1 && std::thread::current().id() == owner {
                        let t0 = std::time::Instant::now();
                        while !helped.load(Ordering::Acquire) {
                            assert!(t0.elapsed().as_secs() < 60, "no helper drew");
                            std::thread::yield_now();
                        }
                    } else {
                        helped.store(true, Ordering::Release);
                    }
                    Draw {
                        weight: rejecting(rng),
                        tries: 3,
                    }
                })
            })
        };
        let seq = at(1);
        assert!(seq.samples < 500 && seq.taken < seq.samples);
        assert_eq!(seq.tries, 3 * seq.samples as u64);
        for threads in [2, 4] {
            assert_eq!(at(threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn a_panicking_sample_reaches_the_caller() {
        // Whoever draws index 40, the owner or a helper, its panic ends
        // the loop with its own message instead of hanging it, and the
        // next loop runs normally.
        let poison: f64 = StdRng::split_n(9, 40).random();
        for threads in [1, 2, 4] {
            let caught = std::panic::catch_unwind(|| {
                with_helpers(threads, || {
                    adaptive_mean(200, 200, 0.0, 9, |rng| {
                        slow();
                        let u: f64 = rng.random();
                        assert!(u != poison, "sample 40 failed");
                        Draw::weight(Some(u))
                    })
                })
            });
            let msg = caught.expect_err("the loop must panic");
            assert_eq!(
                msg.downcast_ref::<&str>(),
                Some(&"sample 40 failed"),
                "threads={threads}"
            );
            assert_eq!(
                run(threads, 64, 64, 0.0, 9, rejecting),
                run(1, 64, 64, 0.0, 9, rejecting)
            );
        }
    }

    #[test]
    fn distinct_union_seeds_give_distinct_streams() {
        let sample = |rng: &mut StdRng| Draw::weight(Some(rng.random::<f64>()));
        let a = adaptive_mean(64, 64, 0.0, 1, sample);
        let b = adaptive_mean(64, 64, 0.0, 2, sample);
        assert_eq!(a.taken, 64);
        assert_ne!(a.mean, b.mean);
    }

    #[test]
    fn stops_early_on_zero_variance() {
        let f = with_helpers(4, || {
            adaptive_mean(10_000, 8, 0.1, 7, |_| Draw::weight(Some(0.5)))
        });
        assert_eq!(f.mean, 0.5);
        assert!(f.taken < 100, "constant stream should stop at the floor");
    }
}
