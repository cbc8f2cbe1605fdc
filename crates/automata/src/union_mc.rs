//! The shared adaptive Karp–Luby sample loop, parallel and deterministic.
//!
//! Both FPRAS counters (`nfa_fpras`, `nfta_fpras`) estimate ambiguous
//! unions the same way: draw samples until the standard error of the mean
//! of the `1/N` membership weights falls below the per-union budget, capped
//! by `union_samples(m)` (Welford online variance). This module hosts that
//! loop once, fanned out over `pqe_par` workers.
//!
//! ## Determinism contract
//!
//! The estimate must be **bit-identical for a fixed seed regardless of
//! thread count**. Three rules achieve it:
//!
//! 1. Randomness is keyed to the *sample index*, never the worker: sample
//!    `i` of a union draws from the xoshiro stream `i` jumps past the
//!    union's seed (`Xoshiro256PlusPlus::split_n(useed, i)` — derived
//!    incrementally here, one jump per index, to avoid the `O(i)` cost of
//!    calling `split_n` per sample).
//! 2. Welford accumulation folds the per-index results **in index order**
//!    on the coordinating thread; workers only evaluate samples.
//! 3. The adaptive early stop is decided during that ordered fold, so the
//!    loop stops at the same sample index whatever the batch shape;
//!    samples speculatively computed past the stop index are discarded.
//!
//! The fold itself lives in [`WelfordFold`] — one shared implementation,
//! so the sequential fast path, the parallel batcher, and the in-tree
//! reference loop ([`adaptive_mean_reference`], kept for the differential
//! suite) cannot drift apart operation-by-operation. The single-thread
//! path (also taken inside a worker) derives one RNG stream at a time and
//! never allocates; the parallel path pre-fills a reused block of
//! per-index streams — "batched RNG draws" — in index order before fanning
//! out.
//!
//! Each union gets its own seed via [`pqe_rand::mix_seed`] over
//! `(run seed, domain tag, union key…)`, making every memoized estimate a
//! pure function of its key and the run seed — which in turn is what lets
//! the memo tables be simple first-insert-wins sharded maps.

use pqe_rand::rngs::StdRng;
use pqe_rand::SeedableRng;

/// Samples per work-chunk handed to a `pqe_par` worker.
pub(crate) const SAMPLE_CHUNK: usize = 4;

/// Seed-domain tags (fed to `mix_seed` so the same `(state, size)` key in
/// different contexts draws from unrelated streams).
pub(crate) const TAG_NFTA_GROUP: u64 = 0x7e4a_0001;
pub(crate) const TAG_NFA_GROUP: u64 = 0x7e4a_0002;
pub(crate) const TAG_NFA_TOP: u64 = 0x7e4a_0003;

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
    taken: usize,
    mean: f64,
    m2: f64,
}

impl WelfordFold {
    pub(crate) fn new(floor: usize, eps_loc: f64) -> Self {
        WelfordFold {
            floor,
            eps_loc,
            taken: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Folds one per-index result; returns the final `(taken, mean)` when
    /// the early stop fires at this index.
    #[inline]
    pub(crate) fn push(&mut self, v: Option<f64>) -> Option<(usize, f64)> {
        let x = v?;
        self.taken += 1;
        let delta = x - self.mean;
        self.mean += delta / self.taken as f64;
        self.m2 += delta * (x - self.mean);
        if self.taken >= self.floor && self.mean > 0.0 {
            let t = self.taken as f64;
            let sem = (self.m2 / (t * (t - 1.0))).sqrt() / self.mean;
            if sem < self.eps_loc {
                return Some((self.taken, self.mean));
            }
        }
        None
    }

    /// The result when the cap is reached without an early stop.
    pub(crate) fn finish(self) -> (usize, f64) {
        (self.taken, self.mean)
    }
}

/// Runs the adaptive sample loop: up to `cap` draws of `sample`, Welford
/// mean/variance over the `Some` results in index order, stopping once at
/// least `floor` values are in and the relative standard error of the mean
/// drops below `eps_loc`. Returns `(values taken, mean)`.
///
/// `sample` receives the dedicated PRNG of its sample index and must not
/// use any other randomness source.
pub(crate) fn adaptive_mean<F>(
    threads: usize,
    cap: usize,
    floor: usize,
    eps_loc: f64,
    useed: u64,
    sample: F,
) -> (usize, f64)
where
    F: Fn(&mut StdRng) -> Option<f64> + Sync,
{
    // Inside a worker the fan-out below runs inline anyway; dropping to
    // one-at-a-time batches avoids computing speculative samples that the
    // early stop would discard.
    let _span = pqe_obs::span::span("union_mc");
    let threads = if pqe_par::in_worker() { 1 } else { threads };
    let mut head = StdRng::seed_from_u64(useed); // stream 0 == split_n(useed, 0)
    let mut fold = WelfordFold::new(floor, eps_loc);
    if threads <= 1 {
        // Sequential fast path: the stream of index `i` is `head` before
        // its `i`-th jump — no per-iteration allocation at all.
        for _ in 0..cap {
            let mut rng = head.clone();
            head.jump();
            if let Some(done) = fold.push(sample(&mut rng)) {
                return done;
            }
        }
        return fold.finish();
    }
    // Parallel path: pre-fill a block of per-index streams in index order
    // (batched RNG derivation), evaluate the block on the worker pool, and
    // fold the results in index order. The block buffer is reused across
    // batches.
    let mut rngs: Vec<StdRng> = Vec::with_capacity(threads * SAMPLE_CHUNK);
    let mut drawn = 0usize;
    while drawn < cap {
        let want = (threads * SAMPLE_CHUNK).min(cap - drawn);
        rngs.clear();
        rngs.extend((0..want).map(|_| {
            let r = head.clone();
            head.jump();
            r
        }));
        let vals = pqe_par::map_chunks(threads, want, SAMPLE_CHUNK, |range| {
            range
                .map(|k| {
                    let mut rng = rngs[k].clone();
                    sample(&mut rng)
                })
                .collect()
        });
        drawn += want;
        for v in vals {
            if let Some(done) = fold.push(v) {
                return done;
            }
        }
    }
    fold.finish()
}

/// The pre-optimization reference loop: per-iteration `Vec` of streams,
/// same index-keyed streams, same ordered fold. Kept in-tree so the
/// differential tests can assert the production loop never drifts from it.
#[cfg(test)]
pub(crate) fn adaptive_mean_reference<F>(
    threads: usize,
    cap: usize,
    floor: usize,
    eps_loc: f64,
    useed: u64,
    sample: F,
) -> (usize, f64)
where
    F: Fn(&mut StdRng) -> Option<f64> + Sync,
{
    let threads = if pqe_par::in_worker() { 1 } else { threads };
    let mut head = StdRng::seed_from_u64(useed);
    let (mut taken, mut mean, mut m2) = (0usize, 0.0f64, 0.0f64);
    let mut drawn = 0usize;
    while drawn < cap {
        let want = if threads <= 1 {
            1
        } else {
            (threads * SAMPLE_CHUNK).min(cap - drawn)
        };
        let rngs: Vec<StdRng> = (0..want)
            .map(|_| {
                let r = head.clone();
                head.jump();
                r
            })
            .collect();
        let vals = pqe_par::map_chunks(threads, want, SAMPLE_CHUNK, |range| {
            range
                .map(|k| {
                    let mut rng = rngs[k].clone();
                    sample(&mut rng)
                })
                .collect()
        });
        drawn += want;
        for v in vals {
            let Some(x) = v else { continue };
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
    }
    (taken, mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqe_rand::Rng;

    #[test]
    fn thread_count_is_invisible() {
        // A sample function with real variance and occasional rejections.
        let sample = |rng: &mut StdRng| {
            let u: f64 = rng.random();
            (u > 0.1).then_some(1.0 / (1.0 + (u * 3.0) as u64 as f64))
        };
        let baseline = adaptive_mean(1, 500, 24, 0.05, 0x1234, sample);
        for threads in [2, 4, 8] {
            assert_eq!(
                adaptive_mean(threads, 500, 24, 0.05, 0x1234, sample),
                baseline,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn matches_reference_implementation_at_every_worker_count() {
        // The production loop (sequential fast path + batched parallel
        // path) must be bit-identical to the in-tree reference loop for
        // the same seed, at every worker count and across early-stop and
        // cap-bound regimes.
        let sample = |rng: &mut StdRng| {
            let u: f64 = rng.random();
            (u > 0.07).then_some(1.0 / (1.0 + (u * 5.0) as u64 as f64))
        };
        for (cap, floor, eps) in [(500, 24, 0.05), (64, 64, 0.0), (37, 8, 0.2)] {
            for threads in [1usize, 2, 4, 8] {
                for seed in [0x1234u64, 7, 0xDEAD] {
                    let got = adaptive_mean(threads, cap, floor, eps, seed, sample);
                    let want = adaptive_mean_reference(threads, cap, floor, eps, seed, sample);
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
        let sample = |rng: &mut StdRng| {
            let u: f64 = rng.random();
            (u > 0.25).then_some(1.0 / (1.0 + (u * 4.0) as u64 as f64))
        };
        for threads in [1usize, 2, 4, 8] {
            let (taken, mean) = adaptive_mean(threads, 200, 16, 0.08, 0xFEED_5EED, sample);
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
    fn distinct_union_seeds_give_distinct_streams() {
        let sample = |rng: &mut StdRng| Some(rng.random::<f64>());
        let a = adaptive_mean(1, 64, 64, 0.0, 1, sample);
        let b = adaptive_mean(1, 64, 64, 0.0, 2, sample);
        assert_eq!(a.0, 64);
        assert_ne!(a.1, b.1);
    }

    #[test]
    fn stops_early_on_zero_variance() {
        fn constant(_: &mut StdRng) -> Option<f64> {
            Some(0.5)
        }
        let (taken, mean) = adaptive_mean(4, 10_000, 8, 0.1, 7, constant);
        assert_eq!(mean, 0.5);
        assert!(taken < 100, "constant stream should stop at the floor");
    }
}
