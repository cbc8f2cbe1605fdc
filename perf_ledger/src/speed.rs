//! The host's speed, measured with a fixed reference computation.
//!
//! The baseline machine (two vCPUs of a shared host) changes speed by up
//! to 40% over minutes as its neighbours' load comes and goes; timings of
//! the same work taken ten minutes apart differ by more than any bound a
//! regression check could use. A short computation that involves none of
//! the program's code slows down with it (its 10-second means track those
//! of FPRAS answers with correlation 0.97–0.99), so the ledger times it
//! throughout every run and reports end-to-end times in reference-speed
//! units: a time measured while the reference took `r` ms is scaled by
//! [`NOMINAL_MS`]` / r`, with `r` interpolated between the samples around
//! it. A change to the program moves the measured times but not the
//! reference, so it still shows in full.

use crate::stats::median;
use std::time::{Duration, Instant};

/// The reference computation's time on the baseline machine in a quiet
/// spell. Scaled times read as milliseconds on that machine.
pub const NOMINAL_MS: f64 = 1.1;

/// Fixed integer work, about 1 ms: xorshift numbers written to an array,
/// counted and sorted. It allocates nothing, so its time does not depend
/// on the heap the measured code leaves behind.
fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut v = [0u64; 1024];
    let mut counts = [0u32; 256];
    let mut acc = 0u64;
    for round in 0..80 {
        for slot in v.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *slot = x;
            counts[(x & 255) as usize] += 1;
        }
        v.sort_unstable();
        acc = acc
            .wrapping_add(v[round * 7 % 1024])
            .wrapping_add(u64::from(counts[round]));
    }
    acc
}

/// Reference timings taken through a run, to scale the times measured
/// between them.
#[derive(Default)]
pub struct Speed {
    /// `(when, slowness)`: the reference's time over [`NOMINAL_MS`].
    samples: Vec<(Instant, f64)>,
}

/// Reference runs per thread and sample; the thread's time is their median.
const RUNS: usize = 5;

/// The median time (ms) of [`RUNS`] reference runs on the calling thread.
fn reference_ms() -> f64 {
    let ms: Vec<f64> = (0..RUNS)
        .map(|i| {
            let t = Instant::now();
            std::hint::black_box(kernel(std::hint::black_box(i as u64)));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&ms)
}

impl Speed {
    /// Times the reference now, on one thread per core at once: the
    /// measured work spreads over every core (FPRAS workers, the server's
    /// workers, a thread that migrates), and the cores of a shared host
    /// slow down separately.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let ms: Vec<f64> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..crate::procfs::nproc())
                .map(|_| s.spawn(reference_ms))
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("reference thread"))
                .collect()
        });
        let mid = start + start.elapsed() / 2;
        let mean = ms.iter().sum::<f64>() / ms.len() as f64;
        self.samples.push((mid, mean / NOMINAL_MS));
    }

    /// Times the reference if the last sample is older than `every_ms`.
    pub fn sample_every(&mut self, every_ms: f64) {
        let stale = self
            .samples
            .last()
            .is_none_or(|(t, _)| t.elapsed().as_secs_f64() * 1e3 >= every_ms);
        if stale {
            self.sample();
        }
    }

    /// Mean slowness over every sample: the host's speed over the run.
    pub fn mean_slowness(&self) -> f64 {
        assert!(!self.samples.is_empty(), "no reference samples");
        self.samples.iter().map(|(_, s)| s).sum::<f64>() / self.samples.len() as f64
    }

    /// The slowness at `t`: interpolated between the samples around it,
    /// the nearest sample's outside them.
    pub fn at(&self, t: Instant) -> f64 {
        let after = self.samples.partition_point(|&(s, _)| s <= t);
        match (
            after.checked_sub(1).map(|i| self.samples[i]),
            self.samples.get(after),
        ) {
            (Some((t0, s0)), Some(&(t1, s1))) => {
                s0 + (s1 - s0) * (t - t0).as_secs_f64() / (t1 - t0).as_secs_f64()
            }
            (Some((_, s)), None) | (None, Some(&(_, s))) => s,
            (None, None) => panic!("no reference samples"),
        }
    }

    /// `d`, taken from `start`, in reference-speed seconds.
    pub fn scaled(&self, start: Instant, d: Duration) -> f64 {
        d.as_secs_f64() / self.at(start + d / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_takes_measurable_time() {
        let mut s = Speed::default();
        s.sample();
        s.sample_every(1e9);
        assert_eq!(s.samples.len(), 1);
        assert!(s.samples[0].1 > 0.0);
    }

    #[test]
    fn slowness_is_interpolated_between_samples() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let s = Speed {
            samples: vec![(t0 + ms(100), 1.0), (t0 + ms(300), 2.0)],
        };
        assert_eq!(s.at(t0), 1.0);
        assert_eq!(s.at(t0 + ms(200)), 1.5);
        assert_eq!(s.at(t0 + ms(900)), 2.0);
        // 100 ms around the 1.5× point read as 100 / 1.5 ms.
        assert!((s.scaled(t0 + ms(150), ms(100)) - 0.1 / 1.5).abs() < 1e-12);
    }
}
