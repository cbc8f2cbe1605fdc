//! `serve_read` and `serve_update`: a real `pqe serve --workers 2
//! --threads 1 --cache-capacity 64` child driven over NDJSON.
//!
//! The served database is a fixed fixture — a 3-relation pattern
//! (tripartite R1 ⊆ A×B, R2 ⊆ B×C, R3 ⊆ C×A plus a few B×A facts in R3,
//! 20 facts, probabilities 1/4 or 3/4) — because the FPRAS cost of its hot
//! queries moves by a third between random instances of this size, which
//! would swamp any change being measured. The seed draws the request
//! stream: which queries, their seeds, the renamings and the updates.
//!
//! Four hot query shapes: the triangle and the 3-path (FPRAS route), a safe
//! 2-path and a safe star over R2, R3 (lifted route). The mix is 60% hot
//! with one fixed (ε, seed) pair the result memo answers, 20% hot with a
//! fresh seed (plan hit, recount) and 20% never-repeated variable renamings
//! (compile plus count) — about five times the plan cache over a run. On
//! `serve_update`, 10% of requests become `update` ops on connection 0,
//! touching only R1: the triangle and 3-path plans invalidate, the R2/R3
//! plans must stay `hit`.
//!
//! Phases: warm-up at `lo`; five rounds of an open loop at `lo` and a
//! closed loop with one outstanding request per connection (saturation);
//! then an open loop at `hi`. The end-to-end numbers are medians over the
//! five windows of each kind.

use crate::client::{self, Server};
use crate::json::Json;
use crate::loadgen::{self, Request, Response};
use crate::path_fpras::within_epsilon;
use crate::procfs;
use crate::speed::Speed;
use crate::stats::{median, percentile};
use crate::{Ctx, Outcome, TraceOut};
use pqe_arith::Rational;
use pqe_automata::FprasConfig;
use pqe_core::baselines::{dnf_probability, Lineage};
use pqe_core::{Method, RoutedAnswer, RoutedPlan};
use pqe_rand::rngs::StdRng;
use pqe_rand::seq::SliceRandom;
use pqe_rand::{Rng, RngCore, SeedableRng};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const EPSILON: f64 = 0.2;
const SERVE_ARGS: &[&str] = &["--workers", "2", "--threads", "1", "--cache-capacity", "64"];
/// Server spawns timed in each gap between windows; `setup_s` is the
/// median over the run.
const SPAWNS_PER_GAP: usize = 2;
/// The open-loop arrival times come from this fixed seed; the run seed
/// draws what arrives. How requests bunch up sets the queueing in a window,
/// and with arrivals drawn afresh per seed it moved the window's p90 more
/// than the host's noise does.
const ARRIVALS_SEED: u64 = 0x6172_7276;
/// Rounds of a `lo` window and a saturation window.
const WINDOWS: usize = 5;
/// Reference samples between windows.
const QUIET_SAMPLES: usize = 4;

/// Open-loop rates, in requests per second of reference time (see
/// `speed`): `lo` about 30% and `hi` about 60% of the closed-loop
/// saturation throughput. The generator sends at `rate / slowness` for
/// `seconds × slowness`, the same requests over a longer window in a slow
/// spell, so the server stays as busy while the host's speed drifts. At a
/// fixed real rate a slow spell pushed the workers towards saturation, and
/// since memo hits queue behind recounts, the first quartile jumped from
/// 0.3 ms to over 2 ms.
const READ_RATES: (f64, f64) = (170.0, 340.0);
const UPDATE_RATES: (f64, f64) = (95.0, 185.0);
/// Shares of the run's seconds: warm-up at `lo`, the `lo` windows and the
/// saturation windows together, and `hi`. Reference time except for
/// saturation, whose windows last the same in real time.
const WARM_UP: f64 = 0.05;
const LO: f64 = 0.4;
const SATURATION: f64 = 0.3;
const HI: f64 = 0.1;

/// The hot shapes as templates over a variable suffix, and whether the
/// router sends them to the FPRAS.
const SHAPES: [(&str, bool); 4] = [
    ("R1(x#,y#), R2(y#,z#), R3(z#,x#)", true),
    ("R1(x#,y#), R2(y#,z#), R3(z#,w#)", true),
    ("R2(x#,y#), R3(y#,z#)", false),
    ("R2(x#,y#), R3(x#,z#)", false),
];

fn shape(k: usize, suffix: &str) -> String {
    SHAPES[k].0.replace('#', suffix)
}

/// The served database, as text. Of the fact patterns this generator
/// draws, this one (20 facts) makes the triangle cost about 6 ms and the
/// 3-path about 20 ms to count at ε = 0.2 on one thread.
fn database() -> String {
    let mut pattern = StdRng::seed_from_u64(2);
    let mut probs = StdRng::seed_from_u64(1);
    let mut out = String::new();
    let mut fact = |rel: &str, a: String, b: String, keep: u32, pattern: &mut StdRng| {
        if pattern.random_range(0..100u32) < keep {
            let p = ["1/4", "3/4"][probs.random_range(0..2usize)];
            out += &format!("{p} {rel}({a},{b})\n");
        }
    };
    for (rel, from, to) in [("R1", 'a', 'b'), ("R2", 'b', 'c'), ("R3", 'c', 'a')] {
        for i in 0..4 {
            for j in 0..4 {
                fact(
                    rel,
                    format!("{from}{i}"),
                    format!("{to}{j}"),
                    40,
                    &mut pattern,
                );
            }
        }
    }
    for i in 0..4 {
        for j in 0..4 {
            fact("R3", format!("b{i}"), format!("a{j}"), 20, &mut pattern);
        }
    }
    out
}

#[derive(Clone, Copy)]
enum Kind {
    /// A hot shape at the fixed (ε, seed) pair.
    Hot,
    /// A hot shape at a fresh seed.
    Fresh,
    /// A never-repeated variable renaming of a shape.
    Cold,
}

/// What a response must satisfy.
#[derive(Clone)]
enum Check {
    /// Hot shape at the fixed pair: byte-equal to the in-process digits.
    Hot(usize),
    /// Any other estimate of a shape: within ε of exact (or exact-equal
    /// on the lifted route).
    Shape(usize),
    Update,
}

/// How the server answered a request.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    /// Without sampling: a result-memo hit, or a cached lifted plan.
    MemoHit,
    /// A cached plan, counted afresh.
    Count,
    /// Compiled for this request.
    Cold,
    /// A cached plan refreshed after an update, then counted.
    Invalidated,
    Update,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::MemoHit => "memo_hit",
            Class::Count => "count",
            Class::Cold => "cold",
            Class::Invalidated => "invalidated",
            Class::Update => "update",
        }
    }
}

struct Expected {
    /// In-process digits (and exact value on the lifted route) of each
    /// hot shape at the fixed pair.
    hot_digits: Vec<String>,
    exact: Vec<Rational>,
}

/// The seeded request stream. The mix is dealt from shuffled decks rather
/// than drawn independently, so every run sees the same proportions and
/// only their order varies with the seed: 40 estimates per deck (each of
/// the four shapes 6× hot, 2× fresh seed, 2× renamed), and on
/// `serve_update` every tenth request an update — sent, in order, on
/// connection 0 only (a slot falling to connection 1 passes to the next
/// request on connection 0).
struct Gen {
    rng: StdRng,
    update: bool,
    hot_seed: u64,
    deck: Vec<(Kind, usize)>,
    sent: usize,
    update_due: bool,
    cold: usize,
    r1: Vec<String>,
    fresh_fact: Option<String>,
    fresh: usize,
    /// Every generated request's check, by request index.
    checks: Vec<Check>,
    /// Update batches in send order.
    deltas: Vec<String>,
}

impl Gen {
    /// A request seed; JSON numbers carry 53 bits exactly.
    fn seed(&mut self) -> u64 {
        self.rng.next_u64() >> 11
    }

    /// The next request, to go out on connection `conn`.
    fn next(&mut self, conn: usize) -> Request {
        self.sent += 1;
        self.update_due |= self.update && self.sent.is_multiple_of(10);
        if self.update_due && conn == 0 {
            self.update_due = false;
            let delta = if self.rng.random_bool(0.8) {
                let f = &self.r1[self.rng.random_range(0..self.r1.len())];
                format!("~ {} {f}", ["1/4", "3/4"][self.rng.random_range(0..2usize)])
            } else if let Some(f) = self.fresh_fact.take() {
                format!("- {f}")
            } else {
                self.fresh += 1;
                // Fresh constants on both sides: the fact joins nothing, so
                // the triangle and 3-path plans recompile (a structural
                // change) but count as much as before.
                let f = format!("R1(f{0},g{0})", self.fresh);
                self.fresh_fact = Some(f.clone());
                format!("+ 1/2 {f}")
            };
            self.deltas.push(delta.clone());
            self.checks.push(Check::Update);
            let line = Json::obj([("op", Json::str("update")), ("delta", Json::str(delta))]);
            return Request {
                line: line.to_string(),
                conn: 0,
            };
        }
        if self.deck.is_empty() {
            for k in 0..SHAPES.len() {
                self.deck.extend([(Kind::Hot, k); 6]);
                self.deck.extend([(Kind::Fresh, k); 2]);
                self.deck.extend([(Kind::Cold, k); 2]);
            }
            self.deck.shuffle(&mut self.rng);
        }
        let (kind, k) = self.deck.pop().expect("deck refilled");
        let (query, seed, check) = match kind {
            Kind::Hot => (shape(k, ""), self.hot_seed, Check::Hot(k)),
            Kind::Fresh => (shape(k, ""), self.seed(), Check::Shape(k)),
            Kind::Cold => {
                self.cold += 1;
                (
                    shape(k, &format!("_{}", self.cold)),
                    self.seed(),
                    Check::Shape(k),
                )
            }
        };
        self.checks.push(check);
        Request {
            line: client::estimate(&query, EPSILON, seed).to_string(),
            conn,
        }
    }
}

/// Classifies a response by how the server answered it.
fn class_of(body: &Json, check: &Check) -> Class {
    if matches!(check, Check::Update) {
        return Class::Update;
    }
    match (
        body.get("cache").and_then(Json::as_str),
        body.get("memo").and_then(Json::as_str),
    ) {
        (Some("miss"), _) => Class::Cold,
        (Some("invalidated"), _) => Class::Invalidated,
        // The lifted route answers a cached plan without sampling.
        (_, Some("miss")) => Class::Count,
        _ => Class::MemoHit,
    }
}

/// One blocking call over a load connection between phases.
fn call(stream: &TcpStream, req: &Json) -> Result<Json, String> {
    use std::io::{BufRead, BufReader, Write};
    let mut w = stream.try_clone().map_err(|e| e.to_string())?;
    w.write_all(format!("{req}\n").as_bytes())
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| e.to_string())?;
    Json::parse(line.trim())
}

/// What the ledger measures between windows, while the measured server is
/// idle: the reference computation, and the set-up — spawning `pqe serve`
/// until its first `stats` reply.
struct Gaps<'a> {
    pqe: &'a Path,
    args: Vec<&'a str>,
    speed: Speed,
    /// Start and duration of every timed spawn.
    setups: Vec<(Instant, Duration)>,
}

impl Gaps<'_> {
    /// Spawns a server, timed between two reference samples.
    fn spawn(&mut self) -> Result<Server, String> {
        self.speed.sample();
        let t = Instant::now();
        let s = Server::spawn(self.pqe, &self.args)?;
        s.connect()?.call(&op("stats"))?;
        self.setups.push((t, t.elapsed()));
        self.speed.sample();
        Ok(s)
    }

    /// Times the reference a few times once the measured server has gone
    /// quiet (its I/O loop spins for a moment after the last response
    /// before it sleeps), then a few set-ups.
    fn quiet(&mut self) -> Result<(), String> {
        for _ in 0..QUIET_SAMPLES {
            std::thread::sleep(Duration::from_millis(10));
            self.speed.sample();
        }
        for _ in 0..SPAWNS_PER_GAP {
            self.spawn()?.shutdown()?;
        }
        Ok(())
    }
}

fn op(name: &str) -> Json {
    Json::obj([("op", Json::str(name))])
}

pub fn run(ctx: &Ctx, update: bool) -> Result<Outcome, String> {
    let name = if update { "serve_update" } else { "serve_read" };
    let mut out = Outcome::default();
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let db_text = database();
    let db_path = ctx.out_dir.join(format!("{name}_{}.db", ctx.seed));
    std::fs::write(&db_path, &db_text).map_err(|e| format!("{}: {e}", db_path.display()))?;
    let db_arg = db_path.to_str().ok_or("non-UTF-8 output path")?;
    let hot_seed = rng.next_u64() >> 11;
    let expected = oracles(&db_text, hot_seed)?;
    let pqe = crate::build_pqe()?;
    let mut gaps = Gaps {
        pqe: &pqe,
        args: [&["--db", db_arg], SERVE_ARGS].concat(),
        speed: Speed::default(),
        setups: Vec::new(),
    };
    gaps.quiet()?;
    let server = gaps.spawn()?;
    let prioritized = loadgen::Prioritized::acquire();
    println!("# load generator threads: {}", prioritized.class);
    let mut streams = vec![
        server.connect()?.into_stream(),
        server.connect()?.into_stream(),
    ];

    let r1 = db_text
        .lines()
        .filter_map(|l| l.split_once(' ').map(|(_, f)| f.to_owned()))
        .filter(|f| f.starts_with("R1("))
        .collect();
    let mut gen = Gen {
        rng: StdRng::seed_from_u64(rng.next_u64()),
        update,
        hot_seed,
        deck: Vec::new(),
        sent: 0,
        update_due: false,
        cold: 0,
        r1,
        fresh_fact: None,
        fresh: 0,
        checks: Vec::new(),
        deltas: Vec::new(),
    };
    let (lo, hi) = if update { UPDATE_RATES } else { READ_RATES };
    // The `lo` and saturation windows alternate; the reference is timed
    // between windows, while the server is idle.
    let windows = if ctx.smoke { 1 } else { WINDOWS };
    let lo_secs = ctx.seconds * LO / windows as f64;
    let sat_secs = ctx.seconds * SATURATION / windows as f64;
    let mut arrivals = StdRng::seed_from_u64(ARRIVALS_SEED);
    // An open-loop window of `secs` reference seconds at `rate` per
    // reference second, stretched by the host's latest slowness.
    let mut open = |rate: f64, secs: f64, slow: f64, gen: &mut Gen, streams: &mut [TcpStream]| {
        let offsets = loadgen::poisson_offsets(rate / slow, secs * slow, &mut arrivals);
        let base = gen.checks.len();
        let reqs: Vec<Request> = (0..offsets.len()).map(|i| gen.next(i % 2)).collect();
        let (mut resp, late) = loadgen::open_loop(streams, &reqs, &offsets)?;
        resp.iter_mut().for_each(|r| r.idx += base);
        Ok::<_, String>((resp, late))
    };
    let now = |gaps: &Gaps| gaps.speed.at(Instant::now());

    open(
        lo,
        ctx.seconds * WARM_UP,
        now(&gaps),
        &mut gen,
        &mut streams,
    )?;
    let (stats0, metrics0) = (
        call(&streams[0], &op("stats"))?,
        call(&streams[0], &op("metrics"))?,
    );
    procfs::reset_peak_rss(Some(server.pid()));
    // Every measured window, with its middle: the host's speed there is
    // read off the reference samples around the window.
    let mut phases = Vec::new();
    let mut late = Vec::new();
    // Requests the saturation windows completed inside them.
    let mut saturated = Vec::new();
    gaps.quiet()?;
    for _ in 0..windows {
        let t = Instant::now();
        let (resp, l) = open(lo, lo_secs, now(&gaps), &mut gen, &mut streams)?;
        phases.push(("lo", t + t.elapsed() / 2, resp));
        gaps.quiet()?;
        late.extend(l);
        let base = gen.checks.len();
        let t = Instant::now();
        let (mut resp, in_window) = loadgen::closed_loop(
            &mut streams,
            |conn| gen.next(conn),
            Duration::from_secs_f64(sat_secs),
        )?;
        resp.iter_mut().for_each(|r| r.idx += base);
        phases.push(("sat", t + t.elapsed() / 2, resp));
        saturated.push(in_window);
        gaps.quiet()?;
    }
    let t = Instant::now();
    let (hi_resp, hi_late) = open(hi, ctx.seconds * HI, now(&gaps), &mut gen, &mut streams)?;
    late.extend(hi_late);
    phases.push(("hi", t + t.elapsed() / 2, hi_resp));
    let (stats1, metrics1) = (
        call(&streams[0], &op("stats"))?,
        call(&streams[0], &op("metrics"))?,
    );
    let peak_rss = procfs::peak_rss_mb(Some(server.pid()))?;
    drop(prioritized);

    // Answer checks over every measured response.
    for (_, _, rs) in &phases {
        for r in rs {
            out.attempt(check(&r.body, &gen.checks[r.idx], &expected, update));
        }
    }
    if update {
        final_state_check(
            ctx,
            &pqe,
            &streams[0],
            &gen.deltas,
            db_arg,
            hot_seed,
            &mut out,
        )?;
    }
    drop(streams);
    server.shutdown()?;

    // Times in reference-speed units; each end-to-end number is the median
    // of its per-window values, so a stall of the host that spoils one
    // window does not move it.
    let speed = &gaps.speed;
    out.slowness = Some(speed.mean_slowness());
    let tail = ctx.min_tail;
    let window = |name: &'static str| phases.iter().filter(move |(p, _, _)| *p == name);
    let (mut p25, mut p90) = (Vec::new(), Vec::new());
    for (_, mid, rs) in window("lo") {
        let ms: Vec<f64> = rs.iter().map(|r| r.latency_ms / speed.at(*mid)).collect();
        p25.push(percentile(&ms, 25.0, tail)?);
        p90.push(percentile(&ms, 90.0, tail)?);
    }
    let rates: Vec<f64> = window("sat")
        .zip(&saturated)
        .map(|((_, mid, _), &n)| n as f64 / sat_secs * speed.at(*mid))
        .collect();
    let setup_s: Vec<f64> = gaps
        .setups
        .iter()
        .map(|&(t, d)| speed.scaled(t, d))
        .collect();
    let v = &mut out.values;
    v.set("setup_s", median(&setup_s));
    v.set("latency_p25_ms", median(&p25));
    v.set("latency_p90_ms", median(&p90));
    v.set("throughput_ops_s", median(&rates));
    v.set("peak_rss_mb", peak_rss);

    let m = Measured::new(phases, &gen.checks, [metrics0, metrics1]);
    let lo_ms = m.latencies("lo", |_| true);

    match loadgen::check_lateness(&late) {
        Ok(p99) => v.set("loadgen.lateness_p99_ms", p99),
        Err(e) => {
            v.set(
                "loadgen.lateness_p99_ms",
                late.iter().copied().fold(0.0, f64::max),
            );
            out.invalid = Some(e);
        }
    }
    // Per-layer quantiles of thin samples (a class the run barely saw)
    // read 0 rather than fail the run.
    let q = |xs: Vec<f64>, p: f64| percentile(&xs, p, tail).unwrap_or(0.0);
    let open = |c: Class| {
        let mut xs = m.latencies("lo", |k| k == c);
        xs.extend(m.latencies("hi", |k| k == c));
        xs
    };
    v.set("lo.latency_p50_ms", q(lo_ms.clone(), 50.0));
    v.set("lo.latency_p95_ms", q(lo_ms, 95.0));
    v.set("hi.latency_p50_ms", q(m.latencies("hi", |_| true), 50.0));
    v.set("hi.latency_p95_ms", q(m.latencies("hi", |_| true), 95.0));
    // Updates are a tenth of the requests: every phase is needed for a p90.
    let updates = ["lo", "sat", "hi"]
        .iter()
        .flat_map(|p| m.latencies(p, |k| k == Class::Update))
        .collect();
    v.set("update.latency_p90_ms", q(updates, 90.0));
    v.set(
        "serve.memo_hit.latency_p50_ms",
        q(open(Class::MemoHit), 50.0),
    );
    v.set("serve.count.latency_p50_ms", q(open(Class::Count), 50.0));
    v.set("serve.cold.latency_p50_ms", q(open(Class::Cold), 50.0));
    v.set(
        "serve.invalidated.latency_p50_ms",
        q(open(Class::Invalidated), 50.0),
    );

    let d = |k: &str| stats1.num(k) - stats0.num(k);
    let (hits, misses) = (d("cache_hits"), d("cache_misses"));
    v.set("serve.plan_hit_rate", hits / (hits + misses).max(1.0));
    v.set(
        "serve.memo_hit_rate",
        d("memo_hits") / d("estimates").max(1.0),
    );
    v.set("serve.evictions", d("cache_evictions"));
    v.set("delta.applied", d("delta.applied"));
    v.set(
        "router.refresh.incremental",
        d("router.refresh.incremental"),
    );
    v.set("router.refresh.recompiled", d("router.refresh.recompiled"));
    v.set(
        "serve.delta.invalidated_plans",
        d("delta.invalidated_plans"),
    );
    v.set("serve.delta.kept_plans", d("delta.kept_plans"));
    v.set("serve.executions", m.counter_delta("serve.executions"));
    v.set(
        "serve.queue_rejected",
        m.counter_delta("serve.queue_rejected"),
    );
    v.set(
        "serve.queue_wait_us.p50",
        m.histogram("serve.queue_wait_us", "p50"),
    );
    v.set(
        "serve.queue_wait_us.p99",
        m.histogram("serve.queue_wait_us", "p99"),
    );
    v.set(
        "serve.server_us.p50",
        m.histogram("serve.request_us.estimate", "p50"),
    );
    v.set(
        "serve.server_us.p99",
        m.histogram("serve.request_us.estimate", "p99"),
    );
    let mut reads = m.latencies("lo", |k| k != Class::Update);
    reads.extend(m.latencies("hi", |k| k != Class::Update));
    v.set(
        "serve.wire_us.p50",
        q(reads, 50.0) * 1e3 - m.histogram("serve.request_us.estimate", "p50"),
    );
    // The server runs no in-process spans here; the client timestamps
    // cost nothing measurable.
    v.set("obs.trace_overhead_pct", 0.0);
    out.trace = Some(m.breakdown());
    Ok(out)
}

/// What the measured phases produced: each response with its phase and
/// how the server answered it.
struct Measured {
    responses: Vec<(&'static str, Response, Class)>,
    /// `metrics` op snapshots before and after the measured phases.
    metrics: [Json; 2],
}

impl Measured {
    fn new(
        phases: Vec<(&'static str, Instant, Vec<Response>)>,
        checks: &[Check],
        metrics: [Json; 2],
    ) -> Self {
        let responses = phases
            .into_iter()
            .flat_map(|(phase, _, rs)| rs.into_iter().map(move |r| (phase, r)))
            .map(|(phase, r)| {
                let body = Json::parse(&r.body).unwrap_or(Json::Null);
                let class = class_of(&body, &checks[r.idx]);
                (phase, r, class)
            })
            .collect();
        Measured { responses, metrics }
    }

    fn responses(&self) -> impl Iterator<Item = &(&'static str, Response, Class)> {
        self.responses.iter()
    }

    /// Latencies (ms) of `phase`'s responses whose class passes `keep`.
    fn latencies(&self, phase: &str, keep: impl Fn(Class) -> bool) -> Vec<f64> {
        self.responses()
            .filter(|(p, _, c)| *p == phase && keep(*c))
            .map(|(_, r, _)| r.latency_ms)
            .collect()
    }

    fn counter_delta(&self, k: &str) -> f64 {
        let c = |m: &Json| {
            m.path(&["counters", k])
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        c(&self.metrics[1]) - c(&self.metrics[0])
    }

    /// A server histogram's cumulative statistic at the end of the run.
    fn histogram(&self, k: &str, stat: &str) -> f64 {
        self.metrics[1]
            .path(&["histograms", k, stat])
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    /// A server histogram's mean over the measured phases only.
    fn window_mean(&self, k: &str) -> f64 {
        let get = |m: &Json, stat: &str| {
            m.path(&["histograms", k, stat])
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let [m0, m1] = &self.metrics;
        let (c0, c1) = (get(m0, "count"), get(m1, "count"));
        (get(m1, "mean") * c1 - get(m0, "mean") * c0) / (c1 - c0).max(1.0)
    }

    /// Where a served estimate's time goes, as means over the measured
    /// phases: queue wait and evaluation from the server's histograms, the
    /// rest of the client-observed latency (in-order delivery behind
    /// slower requests on the same connection, the I/O loop, the wire and
    /// the client) unattributed.
    fn breakdown(&self) -> TraceOut {
        let reads: Vec<f64> = self
            .responses()
            .filter(|(_, _, c)| *c != Class::Update)
            .map(|(_, r, _)| r.latency_ms)
            .collect();
        let client_us = 1e3 * reads.iter().sum::<f64>() / reads.len().max(1) as f64;
        let queue_us = self.window_mean("serve.queue_wait_us");
        let server_us = self.window_mean("serve.request_us.estimate");
        let rows = [
            ("serve.queue_wait", queue_us),
            ("serve.eval (request_us - queue_wait)", server_us - queue_us),
            (
                "unattributed (in-order delivery, I/O loop, wire, client)",
                client_us - server_us,
            ),
        ];
        let mut table = format!(
            "{:<58} {:>12} {:>7}\n",
            "layer (mean per served estimate)", "us", "share"
        );
        for (n, us) in rows {
            table += &format!("{n:<58} {us:>12.1} {:>6.1}%\n", 100.0 * us / client_us);
        }
        table += &format!("{:<58} {client_us:>12.1} 100.0%\n", "client latency");
        let requests = self
            .responses()
            .map(|(p, r, c)| {
                Json::obj([
                    ("op", Json::from(r.idx)),
                    ("phase", Json::str(*p)),
                    ("class", Json::str(c.name())),
                    ("latency_ms", Json::from(r.latency_ms)),
                ])
            })
            .collect();
        let [m0, m1] = self.metrics.clone();
        TraceOut {
            table,
            json: Json::obj([
                (
                    "layers_us",
                    Json::obj(rows.map(|(n, us)| (n, Json::from(us)))),
                ),
                ("client_us", Json::from(client_us)),
                ("requests", Json::Arr(requests)),
                ("metrics_before", m0),
                ("metrics_after", m1),
            ]),
        }
    }
}

/// In-process answers for the checks: the hot digits exactly as a served
/// estimate formats them, and each shape's exact probability.
fn oracles(db_text: &str, hot_seed: u64) -> Result<Expected, String> {
    let h = pqe_db::io::load_str(db_text).map_err(|e| e.to_string())?;
    let cfg = FprasConfig::with_epsilon(EPSILON)
        .with_seed(hot_seed)
        .with_threads(1);
    let mut hot_digits = Vec::new();
    let mut exact = Vec::new();
    for (k, &(_, fpras)) in SHAPES.iter().enumerate() {
        let q = pqe_query::parse(&shape(k, "")).map_err(|e| e.to_string())?;
        let plan = RoutedPlan::compile(&q, &h, Method::Auto).map_err(|e| e.to_string())?;
        let route = plan.decision.route.name();
        if (route == "fpras") != fpras {
            return Err(format!("{} routed to {route}", shape(k, "")));
        }
        hot_digits.push(match plan.execute(&cfg) {
            RoutedAnswer::Exact(p) => format!("{:.6}", p.to_f64()),
            RoutedAnswer::Estimate(r) => format!("{:.6}", r.probability.to_f64()),
        });
        let lineage = Lineage::build(&q, h.database(), usize::MAX);
        exact.push(dnf_probability(lineage.clauses(), &h));
    }
    Ok(Expected { hot_digits, exact })
}

fn check(body: &str, c: &Check, e: &Expected, update: bool) -> Result<(), String> {
    let v = Json::parse(body)?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("request failed: {body}"));
    }
    let k = match c {
        Check::Update => return Ok(()),
        Check::Hot(k) | Check::Shape(k) => *k,
    };
    let p = v
        .get("probability")
        .and_then(Json::as_str)
        .ok_or("no probability")?;
    let value: f64 = p.parse().map_err(|_| format!("bad probability {p}"))?;
    if !(0.0..=1.0).contains(&value) {
        return Err(format!("probability {p} outside [0, 1]"));
    }
    if !SHAPES[k].1 {
        // R2/R3 are never updated: lifted answers stay exact and cached.
        if v.get("exact").and_then(Json::as_str) != Some(&e.exact[k].to_string()) {
            return Err(format!(
                "{}: exact {:?} != {}",
                shape(k, ""),
                v.get("exact"),
                e.exact[k]
            ));
        }
        if v.get("cache").and_then(Json::as_str) == Some("invalidated") {
            return Err(format!(
                "{}: R2/R3 plan invalidated by an R1 update",
                shape(k, "")
            ));
        }
        return Ok(());
    }
    if update {
        // R1 moves under the FPRAS shapes; the end-state check covers them.
        return Ok(());
    }
    match c {
        Check::Hot(_) if p != e.hot_digits[k] => Err(format!(
            "{}: served {p} != in-process {}",
            shape(k, ""),
            e.hot_digits[k]
        )),
        // The printed digits carry ±5e-7 of rounding on top of ε.
        _ => within_epsilon(
            value,
            &e.exact[k],
            EPSILON + 5e-7 / e.exact[k].to_f64().max(1e-9),
        )
        .map(|_| ()),
    }
}

/// After the updates: the live server's hot digits must equal those of a
/// fresh server started on `pqe apply-delta` of the same update sequence.
fn final_state_check(
    ctx: &Ctx,
    pqe: &Path,
    live: &TcpStream,
    deltas: &[String],
    db_arg: &str,
    hot_seed: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let stem = format!("serve_update_{}", ctx.seed);
    let delta_path = ctx.out_dir.join(format!("{stem}.delta"));
    let final_db: PathBuf = ctx.out_dir.join(format!("{stem}.final.db"));
    std::fs::write(&delta_path, deltas.join("\n") + "\n").map_err(|e| e.to_string())?;
    apply_delta(pqe, db_arg, &delta_path, &final_db)?;
    let fresh = Server::spawn(
        pqe,
        &[
            &["--db", final_db.to_str().ok_or("non-UTF-8 output path")?],
            SERVE_ARGS,
        ]
        .concat(),
    )?;
    let mut fresh_conn = fresh.connect()?;
    for k in 0..SHAPES.len() {
        let req = client::estimate(&shape(k, ""), EPSILON, hot_seed);
        let a = call(live, &req)?;
        let b = fresh_conn.call(&req)?;
        let digits = |v: &Json| {
            v.get("probability")
                .and_then(Json::as_str)
                .map(str::to_owned)
        };
        out.attempt(match (digits(&a), digits(&b)) {
            (Some(x), Some(y)) if x == y => Ok(()),
            (x, y) => Err(format!(
                "{}: live server {x:?} != fresh server {y:?}",
                shape(k, "")
            )),
        });
    }
    drop(fresh_conn);
    fresh.shutdown()
}

fn apply_delta(pqe: &Path, db: &str, delta: &Path, output: &Path) -> Result<(), String> {
    let status = std::process::Command::new(pqe)
        .args(["apply-delta", "--db", db])
        .arg("--delta")
        .arg(delta)
        .arg("--output")
        .arg(output)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("pqe apply-delta exited with {status}"))
    }
}
