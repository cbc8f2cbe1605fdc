//! The in-process (batch) workload runner: one query answered at a time,
//! each op timed from outside around public library calls.
//!
//! A workload is a corpus of at least 100 ops (an instance and its FPRAS
//! seed). An untraced run answers every op once per pass, in one seeded
//! order, for a fixed number of passes, and checks every answer outside
//! its timed span; the reference computation of `speed` is timed between
//! ops. A traced run repeats a fixed op list, each op once untraced and
//! once traced, so per-op counts repeat exactly for a seed and the paired
//! times give the tracing overhead.

use crate::metrics::Values;
use crate::procfs;
use crate::speed::Speed;
use crate::stats::{median, percentile};
use crate::trace::{Table, Tracer};
use crate::{Ctx, Outcome};
use pqe_rand::rngs::StdRng;
use pqe_rand::seq::SliceRandom;
use pqe_rand::SeedableRng;
use std::time::{Duration, Instant};

/// The answer of one op, as the CLI would print it.
pub struct Answer {
    /// `format!("{:.6}", p)` — the digits `pqe estimate` prints.
    pub digits: String,
    pub value: f64,
    /// The exact rational, on exact routes.
    pub exact: Option<String>,
    /// Automaton states and size (0 on exact routes).
    pub states: usize,
    pub transitions: usize,
}

pub trait Batch {
    /// FPRAS worker threads per op.
    const THREADS: usize;
    /// One pass over the corpus on the reference machine: a run of `S`
    /// seconds makes `S / PASS_SECONDS` passes (rounded, at least one), so
    /// every run at the same `--seconds` does the same work.
    const PASS_SECONDS: f64;

    /// Program-side set-up: loads and parses every generated input text.
    /// Timed (median of several) as `setup_s`.
    fn setup(&mut self) -> Result<(), String>;
    /// Exact answers for the checks, computed before any timing.
    fn oracles(&mut self) -> Result<(), String>;
    /// Ops in the corpus.
    fn ops(&self) -> usize;
    /// Ops in one traced round.
    fn trace_round(&self) -> usize;
    /// Runs op `i` with FPRAS seed `seed` on `threads` workers.
    fn op(&self, i: usize, seed: u64, threads: usize, tr: &Tracer) -> Result<Answer, String>;
    /// Checks op `i`'s answer; `Ok` carries the relative error over ε
    /// (0 for exact answers).
    fn check(&self, i: usize, a: &Answer) -> Result<f64, String>;
    /// Per-layer metrics of this workload from a traced run.
    fn layers(&self, t: &TraceRun, v: &mut Values);
}

/// What a traced run measured.
pub struct TraceRun<'a> {
    pub tracer: &'a Tracer,
    pub table: Table,
    /// Ops in all traced rounds.
    pub ops: usize,
    /// `pqe-obs` counter deltas over the traced rounds.
    pub counters: Vec<(String, u64)>,
    pub answers: Vec<Answer>,
    /// Largest relative error over ε among the traced answers.
    pub max_err_over_eps: f64,
}

impl TraceRun<'_> {
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    }

    /// Median duration of the harness span `name`, in ms.
    pub fn span_ms(&self, name: &str) -> f64 {
        let d = self.tracer.durations_us(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d) / 1e3
        }
    }

    /// Per-op means of the automaton counters, plus the quality ratio.
    pub fn automata_counts(&self, v: &mut Values) {
        let per_op = |x: f64| x / self.ops as f64;
        v.set("automata.samples", per_op(self.counter("fpras.samples")));
        v.set(
            "automata.sample_tries",
            per_op(self.counter("fpras.sample_tries")),
        );
        v.set(
            "automata.member_checks",
            per_op(self.counter("fpras.member_checks")),
        );
        v.set(
            "automata.union_ests",
            per_op(self.counter("fpras.union_ests")),
        );
        let tries = self.counter("fpras.sample_tries");
        if tries > 0.0 {
            v.set(
                "automata.accept_ratio",
                self.counter("fpras.samples") / tries,
            );
        }
        // Sizes are averaged over the ops that built an automaton.
        let built: Vec<&Answer> = self.answers.iter().filter(|a| a.states > 0).collect();
        let mean = |f: fn(&Answer) -> usize| {
            built.iter().map(|a| f(a) as f64).sum::<f64>() / built.len().max(1) as f64
        };
        v.set("automata.states", mean(|a| a.states));
        v.set("automata.transitions", mean(|a| a.transitions));
        v.set("automata.max_rel_err_over_eps", self.max_err_over_eps);
    }

    /// The counting-phase layers shared by the NFTA and NFA counters.
    pub fn counting_layers(&self, v: &mut Values, counting_ops: usize) {
        let per = |ms: f64| {
            if counting_ops == 0 {
                0.0
            } else {
                ms / counting_ops as f64
            }
        };
        v.set(
            "automata.union_mc_self_ms",
            per(self.table.self_of("union_mc")),
        );
        v.set(
            "automata.execute_unattributed_ms",
            per(self.table.execute_unattributed_ms()),
        );
        let counting = self.table.total("count.nfta") + self.table.total("count.nfa");
        if counting > 0.0 {
            v.set(
                "par.busy_ratio",
                self.table.cpu("rep") / (self.table.threads as f64 * counting),
            );
        }
    }
}

/// Milliseconds between reference samples during the timed passes.
const SAMPLE_EVERY_MS: f64 = 250.0;
/// Set-ups repeated through the timed passes, evenly spread over the ops;
/// `setup_s` is their median.
const SETUPS: usize = 15;

fn seed_for(run_seed: u64, op: usize) -> u64 {
    pqe_rand::mix_seed(&[run_seed, op as u64])
}

pub fn run<B: Batch>(mut b: B, ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seed = ctx.seed;
    b.setup()?;
    b.oracles()?;

    // Warm-up and the thread-count invariant: op 0 at 1 and at the
    // workload's thread count must print the same digits.
    let off = Tracer::new(false);
    let s0 = seed_for(seed, 0);
    let one = b.op(0, s0, 1, &off)?;
    let many = b.op(0, s0, B::THREADS, &off)?;
    out.attempt(if one.digits == many.digits {
        Ok(())
    } else {
        Err(format!(
            "op 0 printed {} at 1 thread but {} at {}",
            one.digits,
            many.digits,
            B::THREADS
        ))
    });
    procfs::reset_peak_rss(None);

    if ctx.trace {
        run_traced(&b, ctx, &mut out)?;
    } else {
        run_timed(&mut b, ctx, &mut out)?;
    }
    Ok(out)
}

/// Passes a run of `seconds` makes over a corpus whose pass takes about
/// `pass_seconds`.
fn passes(seconds: f64, pass_seconds: f64) -> usize {
    ((seconds / pass_seconds).round() as usize).max(1)
}

fn run_timed<B: Batch>(b: &mut B, ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let seed = ctx.seed;
    let off = Tracer::new(false);
    let mut order: Vec<usize> = (0..b.ops()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut speed = Speed::default();
    // Start and duration of every set-up and every op.
    let (mut setups, mut ops) = (Vec::new(), Vec::new());
    let total = passes(ctx.seconds, B::PASS_SECONDS) * order.len();
    for (k, &i) in order.iter().cycle().take(total).enumerate() {
        if k % (total / SETUPS).max(1) == 0 {
            // Between two reference samples, so the host's speed around
            // the set-up is known.
            speed.sample();
            let t = Instant::now();
            b.setup()?;
            setups.push((t, t.elapsed()));
            speed.sample();
        }
        speed.sample_every(SAMPLE_EVERY_MS);
        let t = Instant::now();
        let a = b.op(i, seed_for(seed, i), B::THREADS, &off);
        ops.push((t, t.elapsed()));
        out.attempt(a.and_then(|a| b.check(i, &a).map(|_| ())));
    }
    speed.sample();
    out.slowness = Some(speed.mean_slowness());
    // Times in reference-speed units.
    let ms: Vec<f64> = ops.iter().map(|&(t, d)| speed.scaled(t, d) * 1e3).collect();
    let setup_s: Vec<f64> = setups.iter().map(|&(t, d)| speed.scaled(t, d)).collect();
    let v = &mut out.values;
    v.set("setup_s", median(&setup_s));
    v.set("latency_p25_ms", percentile(&ms, 25.0, ctx.min_tail)?);
    v.set("latency_p90_ms", percentile(&ms, 90.0, ctx.min_tail)?);
    v.set(
        "throughput_ops_s",
        1e3 * ms.len() as f64 / ms.iter().sum::<f64>(),
    );
    v.set("peak_rss_mb", procfs::peak_rss_mb(None)?);
    Ok(())
}

fn run_traced<B: Batch>(b: &B, ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let seed = ctx.seed;
    let off = Tracer::new(false);
    let tracer = Tracer::new(true);
    let round = b.trace_round();
    let budget = Duration::from_secs_f64(ctx.seconds);
    pqe_obs::span::reset();
    // Traced over untraced time, per op; and the traced wall time.
    let (mut ratios, mut traced_s) = (Vec::new(), 0.0);
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut answers = Vec::new();
    let mut max_err: f64 = 0.0;
    let mut rounds = 0;
    let start = Instant::now();
    // One more round must still fit the budget.
    while rounds == 0 || start.elapsed() + start.elapsed() / rounds as u32 <= budget {
        for i in 0..round {
            // Each op runs untraced and traced back to back, in alternating
            // order, so drift in machine speed and warm caches fall on both
            // sides of the overhead equally.
            let mut pair = [0.0; 2];
            for traced in [(rounds + i) % 2 == 0, (rounds + i) % 2 == 1] {
                let s = seed_for(seed, i);
                if !traced {
                    let t = Instant::now();
                    let a = b.op(i, s, B::THREADS, &off);
                    pair[0] = t.elapsed().as_secs_f64();
                    out.attempt(a.and_then(|a| b.check(i, &a).map(|_| ())));
                    continue;
                }
                let before = pqe_obs::metrics::snapshot().counters;
                tracer.set_op(rounds * round + i);
                pqe_obs::span::set_enabled(true);
                let t = Instant::now();
                let a = tracer.span("op", || b.op(i, s, B::THREADS, &tracer));
                pair[1] = t.elapsed().as_secs_f64();
                traced_s += pair[1];
                pqe_obs::span::set_enabled(false);
                for (name, after) in pqe_obs::metrics::snapshot().counters {
                    let prior = before
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0, |(_, v)| *v);
                    match counters.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, v)) => *v += after - prior,
                        None => counters.push((name, after - prior)),
                    }
                }
                match a.and_then(|a| b.check(i, &a).map(|e| (a, e))) {
                    Ok((a, e)) => {
                        max_err = max_err.max(e);
                        answers.push(a);
                        out.attempt(Ok(()));
                    }
                    Err(e) => out.attempt(Err(e)),
                }
            }
            ratios.push(pair[1] / pair[0]);
        }
        rounds += 1;
    }
    let table = Table::build(&pqe_obs::span::snapshot(), traced_s * 1e3, B::THREADS);
    let run = TraceRun {
        tracer: &tracer,
        table,
        ops: rounds * round,
        counters,
        answers,
        max_err_over_eps: max_err,
    };
    out.values
        .set("obs.trace_overhead_pct", 100.0 * (median(&ratios) - 1.0));
    b.layers(&run, &mut out.values);
    out.trace = Some(crate::TraceOut {
        table: run.table.render(),
        json: crate::json::Json::obj([
            ("self_time", run.table.to_json()),
            ("spans", tracer.records_json()),
        ]),
    });
    Ok(())
}
