//! A tiny wall-clock benchmark runner.
//!
//! Replaces the `criterion` harness for the workspace benches: every bench
//! target is a plain `fn main()` (the `[[bench]]` entries set
//! `harness = false`) that builds a [`Runner`] and registers closures. The
//! runner warms each closure up, auto-calibrates an iteration count so a
//! sample takes a measurable slice of time, then reports min / median /
//! mean over a fixed number of samples.
//!
//! Honoring `PQE_BENCH_SAMPLES` / `PQE_BENCH_MIN_SAMPLE_MS` lets CI dial
//! cost down without touching the bench sources. Setting
//! `PQE_BENCH_JSON_DIR` makes [`Runner::finish`] additionally write the
//! suite's stats to `BENCH_<suite>.json` in that directory, so scripts can
//! consume results without scraping stdout.

use std::time::{Duration, Instant};

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Statistics for one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct Stats {
    pub name: String,
    pub min_ns: f64,
    pub median_ns: f64,
    pub mean_ns: f64,
    pub iters_per_sample: u64,
    pub samples: usize,
}

impl Stats {
    /// One machine-readable JSON object for this benchmark.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":\"{}\",\"min_ns\":{},\"median_ns\":{},",
                "\"mean_ns\":{},\"iters_per_sample\":{},\"samples\":{}}}"
            ),
            json_escape(&self.name),
            self.min_ns,
            self.median_ns,
            self.mean_ns,
            self.iters_per_sample,
            self.samples,
        )
    }
}

/// Renders a duration in ns with an adaptive unit.
/// Cores this process may run on, as recorded in every bench file.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Runs `f` `iters` times and returns the time per call in ns.
fn time_batch(f: &mut impl FnMut(), iters: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Defeats dead-code elimination of a benchmarked expression's result.
///
/// A portable stand-in for `std::hint::black_box` semantics: the value is
/// passed through a volatile read of its address.
pub fn black_box<T>(value: T) -> T {
    // SAFETY: reading a valid, initialized stack slot.
    unsafe {
        let slot = std::mem::MaybeUninit::new(value);
        std::ptr::read_volatile(slot.as_ptr())
    }
}

/// A free-form named measurement (throughput, a percentile, a rate …)
/// attached to a suite alongside the per-closure [`Stats`].
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
}

impl Metric {
    /// One machine-readable JSON object for this metric. JSON has no NaN
    /// or infinity, so a non-finite value is written as `null`.
    pub fn to_json(&self) -> String {
        let value = if self.value.is_finite() {
            self.value.to_string()
        } else {
            "null".to_owned()
        };
        format!("{{\"name\":\"{}\",\"value\":{value}}}", json_escape(&self.name))
    }
}

/// Collects and prints benchmark results.
pub struct Runner {
    suite: String,
    samples: usize,
    min_sample: Duration,
    results: Vec<Stats>,
    metrics: Vec<Metric>,
}

impl Runner {
    /// A runner titled `suite`, with defaults (or env overrides) for the
    /// sample count and per-sample time floor.
    pub fn new(suite: impl Into<String>) -> Self {
        let samples = std::env::var("PQE_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(10);
        let min_sample_ms = std::env::var("PQE_BENCH_MIN_SAMPLE_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(20u64);
        Runner {
            suite: suite.into(),
            samples: samples.max(3),
            min_sample: Duration::from_millis(min_sample_ms.max(1)),
            results: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Records a named scalar measured outside the closure harness (e.g.
    /// a load run's throughput or p99). Printed immediately and included
    /// in the JSON document under `"metrics"`.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        let m = Metric { name: name.into(), value };
        println!("  {:<44} {}", m.name, m.value);
        self.metrics.push(m);
    }

    /// Benchmarks `f`, which runs one iteration of the workload per call.
    pub fn bench(&mut self, name: impl Into<String>, mut f: impl FnMut()) {
        let iters = self.calibrate(&mut f);
        let per_iter_ns: Vec<f64> = (0..self.samples).map(|_| time_batch(&mut f, iters)).collect();
        self.record(name.into(), per_iter_ns, iters);
    }

    /// Benchmarks `a` and `b` in alternation: each round takes one sample
    /// of both, `a` first in even rounds and `b` first in odd ones, so
    /// drift on the host (clock speed, neighbours) lands on both alike.
    /// Records both stats like [`bench`](Self::bench) and returns each
    /// round's `(a, b)` time per iteration in ns, for paired statistics.
    pub fn bench_paired(
        &mut self,
        (name_a, mut a): (impl Into<String>, impl FnMut()),
        (name_b, mut b): (impl Into<String>, impl FnMut()),
    ) -> Vec<(f64, f64)> {
        let iters = self.calibrate(&mut a).max(self.calibrate(&mut b));
        let pairs: Vec<(f64, f64)> = (0..self.samples)
            .map(|round| {
                if round % 2 == 0 {
                    let ta = time_batch(&mut a, iters);
                    (ta, time_batch(&mut b, iters))
                } else {
                    let tb = time_batch(&mut b, iters);
                    (time_batch(&mut a, iters), tb)
                }
            })
            .collect();
        self.record(name_a.into(), pairs.iter().map(|p| p.0).collect(), iters);
        self.record(name_b.into(), pairs.iter().map(|p| p.1).collect(), iters);
        pairs
    }

    /// Warmup + calibration: doubles the batch until one batch crosses the
    /// per-sample floor, and returns that batch's iteration count.
    fn calibrate(&self, f: &mut impl FnMut()) -> u64 {
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            let elapsed = start.elapsed();
            if elapsed >= self.min_sample || iters >= 1 << 30 {
                return iters;
            }
            // Jump straight toward the target once we have a signal.
            let scale = if elapsed.as_nanos() == 0 {
                8
            } else {
                (self.min_sample.as_nanos() / elapsed.as_nanos()).clamp(2, 8) as u64
            };
            iters = iters.saturating_mul(scale);
        }
    }

    /// Summarizes per-iteration sample times into [`Stats`], prints them
    /// and keeps them.
    fn record(&mut self, name: String, mut per_iter_ns: Vec<f64>, iters: u64) {
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        let stats = Stats {
            name,
            min_ns: per_iter_ns[0],
            median_ns: per_iter_ns[per_iter_ns.len() / 2],
            mean_ns: per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64,
            iters_per_sample: iters,
            samples: per_iter_ns.len(),
        };
        println!(
            "  {:<44} min {:>12}  median {:>12}  mean {:>12}   ({} it/sample × {})",
            stats.name,
            fmt_ns(stats.min_ns),
            fmt_ns(stats.median_ns),
            fmt_ns(stats.mean_ns),
            stats.iters_per_sample,
            stats.samples,
        );
        self.results.push(stats);
    }

    /// Prints the suite header; call before the first [`bench`](Self::bench).
    pub fn start(&self) {
        println!("== bench suite: {} ==", self.suite);
    }

    /// All collected stats, in registration order.
    pub fn results(&self) -> &[Stats] {
        &self.results
    }

    /// All recorded free-form metrics, in registration order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// The whole suite as one JSON document:
    /// `{"suite": ..., "config": {...}, "results": [...]}`, plus a
    /// `"metrics"` array when any were recorded. The `config` object
    /// records the calibration knobs the suite actually ran with (sample
    /// count and per-sample time floor, after env overrides) and the core
    /// count it ran on (`nproc`), so archived BENCH_*.json files are
    /// comparable at face value.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self.results.iter().map(Stats::to_json).collect();
        let metrics = if self.metrics.is_empty() {
            String::new()
        } else {
            let m: Vec<String> = self.metrics.iter().map(Metric::to_json).collect();
            format!(",\"metrics\":[{}]", m.join(","))
        };
        format!(
            "{{\"suite\":\"{}\",\"config\":{{\"samples\":{},\"min_sample_ms\":{},\"nproc\":{}}},\"results\":[{}]{}}}\n",
            json_escape(&self.suite),
            self.samples,
            self.min_sample.as_millis(),
            nproc(),
            body.join(","),
            metrics
        )
    }

    /// Writes [`Runner::to_json`] to `<dir>/BENCH_<suite>.json`.
    pub fn write_json(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.suite));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Prints a closing summary line. Convention: every bench `main` ends
    /// with this so the harness output is recognizably complete. When
    /// `PQE_BENCH_JSON_DIR` is set, also drops `BENCH_<suite>.json` there.
    pub fn finish(&self) {
        if let Ok(dir) = std::env::var("PQE_BENCH_JSON_DIR") {
            match self.write_json(std::path::Path::new(&dir)) {
                Ok(path) => println!("  wrote {}", path.display()),
                Err(e) => eprintln!("  BENCH json write failed: {e}"),
            }
        }
        println!(
            "== {}: {} benchmark(s) done ==",
            self.suite,
            self.results.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_measures_and_reports() {
        std::env::set_var("PQE_BENCH_SAMPLES", "3");
        std::env::set_var("PQE_BENCH_MIN_SAMPLE_MS", "1");
        let mut r = Runner::new("unit");
        r.start();
        let mut acc = 0u64;
        r.bench("wrapping_sum", || {
            acc = black_box(acc.wrapping_add(black_box(17)));
        });
        r.finish();
        assert_eq!(r.results().len(), 1);
        let s = &r.results()[0];
        assert!(s.min_ns > 0.0 && s.min_ns <= s.mean_ns * 1.5);
        assert!(s.iters_per_sample >= 1);
    }

    #[test]
    fn paired_bench_records_both_sides_per_round() {
        std::env::set_var("PQE_BENCH_SAMPLES", "3");
        std::env::set_var("PQE_BENCH_MIN_SAMPLE_MS", "1");
        let mut r = Runner::new("unit_paired");
        let (mut na, mut nb) = (0u64, 0u64);
        let pairs = r.bench_paired(("a", || na += 1), ("b", || nb += 1));
        assert_eq!(pairs.len(), 3);
        assert!(pairs.iter().all(|&(a, b)| a > 0.0 && b > 0.0));
        let names: Vec<&str> = r.results().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(r.results()[0].iters_per_sample, r.results()[1].iters_per_sample);
        assert!(na > 0 && nb > 0);
    }

    #[test]
    fn json_output_is_well_formed() {
        std::env::set_var("PQE_BENCH_SAMPLES", "3");
        std::env::set_var("PQE_BENCH_MIN_SAMPLE_MS", "1");
        let mut r = Runner::new("unit_json");
        r.bench("noop \"quoted\"", || {
            black_box(1u64);
        });
        let json = r.to_json();
        assert!(json.starts_with("{\"suite\":\"unit_json\",\"config\":{"));
        assert!(json.contains(&format!(
            "\"config\":{{\"samples\":3,\"min_sample_ms\":1,\"nproc\":{}}}",
            nproc()
        )));
        assert!(json.contains("\"name\":\"noop \\\"quoted\\\"\""));
        assert!(json.contains("\"median_ns\":"));
        assert!(json.trim_end().ends_with("]}"));
        let dir = std::env::temp_dir();
        let path = r.write_json(&dir).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), json);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn metrics_ride_along_in_json() {
        let mut r = Runner::new("unit_metrics");
        r.metric("throughput_rps", 123.5);
        r.metric("hit_rate", 0.75);
        let json = r.to_json();
        assert!(json.contains("\"metrics\":[{\"name\":\"throughput_rps\",\"value\":123.5}"));
        assert!(json.contains("{\"name\":\"hit_rate\",\"value\":0.75}"));
        assert_eq!(r.metrics().len(), 2);
        r.metric("undefined", f64::NAN);
        assert!(r.to_json().contains("{\"name\":\"undefined\",\"value\":null}"));
    }

    #[test]
    fn black_box_is_identity() {
        assert_eq!(black_box(42), 42);
        assert_eq!(black_box(String::from("x")), "x");
    }
}
