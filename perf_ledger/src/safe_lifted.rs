//! `safe_lifted`: hierarchical (safe) 2-path and star queries, routed
//! `auto` to exact lifted inference.
//!
//! Why: the FPRAS never runs. The cost is parsing, `classify`, route
//! dispatch and exact `Rational` lifted inference, so a counting
//! optimisation must not move this workload, while a dispatch refactor
//! would show its overhead here.

use crate::batch::{Answer, Batch, TraceRun};
use crate::metrics::Values;
use crate::stats::median;
use crate::trace::Tracer;
use pqe_arith::Rational;
use pqe_automata::FprasConfig;
use pqe_core::baselines::{brute_force_pqe, lifted_pqe};
use pqe_core::{landscape, Method, RoutedAnswer, RoutedPlan};
use pqe_db::{generators, Database, ProbDatabase};
use pqe_query::shapes;
use pqe_rand::rngs::StdRng;
use pqe_rand::{Rng, SeedableRng};
use std::time::Instant;

/// Instances small enough (≤ 16 facts) for the brute-force oracle.
const TINY: usize = 4;
/// Larger instances, 200–600 facts.
const LARGE: usize = 156;
/// The instances' facts come from this fixed seed; the run seed draws
/// their probabilities, so every seed measures the same shapes and sizes.
const CORPUS_SEED: u64 = 0x6c69_6674;

struct Instance {
    query: String,
    text: String,
}

pub struct SafeLifted {
    corpus: Vec<Instance>,
    dbs: Vec<ProbDatabase>,
    load_ms: Vec<f64>,
    /// Exact answers of the direct `lifted_pqe` call, and its timings.
    exact: Vec<String>,
    lifted_us: Vec<f64>,
}

fn star(arms: usize, centers: usize, fanout: usize, rng: &mut StdRng) -> (String, Database) {
    let db = generators::star_data(arms, centers, fanout, 0.9, rng);
    (shapes::star_query(arms).to_string(), db)
}

fn two_path(width: usize, cap: usize, rng: &mut StdRng) -> (String, Database) {
    let db = generators::layered_graph_connected(2, width, 0.8, rng);
    (
        shapes::path_query(2).to_string(),
        generators::cap_facts(&db, cap, rng),
    )
}

impl SafeLifted {
    pub fn new(seed: u64, smoke: bool) -> SafeLifted {
        let mut rng = StdRng::seed_from_u64(CORPUS_SEED);
        let mut drawn = Vec::new();
        for i in 0..TINY {
            drawn.push(if i % 2 == 0 {
                star(2 + i / 2, 2, 2, &mut rng)
            } else {
                two_path(3, 16, &mut rng)
            });
        }
        let large = if smoke { 8 } else { LARGE };
        // Half six-arm stars (where the exact rationals grow widest), a
        // quarter narrower stars, a quarter 2-paths; 200–600 facts each.
        for i in 0..large {
            drawn.push(match i % 4 {
                0 | 1 => star(6, rng.random_range(14..=20), 5, &mut rng),
                2 => {
                    let arms = rng.random_range(3..=5);
                    star(arms, rng.random_range(12..=20), 30 / arms, &mut rng)
                }
                _ => two_path(rng.random_range(12..=24), 600, &mut rng),
            });
        }
        // Probabilities w/8: the exact rationals' denominators stay powers
        // of two, so an instance's cost follows its shape and size rather
        // than which primes its probabilities happened to draw.
        let mut probs = StdRng::seed_from_u64(seed);
        let corpus = drawn
            .into_iter()
            .map(|(query, db)| {
                let p = (0..db.len())
                    .map(|_| Rational::from_ratio(probs.random_range(1..8), 8))
                    .collect();
                let h = ProbDatabase::with_probs(db, p).expect("probabilities in (0, 1)");
                Instance {
                    query,
                    text: pqe_db::io::save_string(&h),
                }
            })
            .collect();
        SafeLifted {
            corpus,
            dbs: Vec::new(),
            load_ms: Vec::new(),
            exact: Vec::new(),
            lifted_us: Vec::new(),
        }
    }
}

impl Batch for SafeLifted {
    const THREADS: usize = 2;
    const PASS_SECONDS: f64 = 0.3;

    fn setup(&mut self) -> Result<(), String> {
        self.dbs.clear();
        self.load_ms.clear();
        for inst in &self.corpus {
            let t = Instant::now();
            self.dbs
                .push(pqe_db::io::load_str(&inst.text).map_err(|e| e.to_string())?);
            self.load_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok(())
    }

    fn oracles(&mut self) -> Result<(), String> {
        self.exact.clear();
        self.lifted_us.clear();
        for (inst, h) in self.corpus.iter().zip(&self.dbs) {
            let q = pqe_query::parse(&inst.query).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let p = lifted_pqe(&q, h).map_err(|e| e.to_string())?;
            self.lifted_us.push(t.elapsed().as_secs_f64() * 1e6);
            if h.len() <= 16 {
                let brute = brute_force_pqe(&q, h);
                if brute != p {
                    return Err(format!(
                        "lifted {p} != brute force {brute} on {}",
                        inst.query
                    ));
                }
            }
            self.exact.push(p.to_string());
        }
        Ok(())
    }

    fn ops(&self) -> usize {
        self.corpus.len()
    }

    fn trace_round(&self) -> usize {
        self.corpus.len()
    }

    fn op(&self, i: usize, seed: u64, threads: usize, tr: &Tracer) -> Result<Answer, String> {
        let k = i % self.corpus.len();
        let q = tr
            .span("query.parse", || pqe_query::parse(&self.corpus[k].query))
            .map_err(|e| e.to_string())?;
        let class = tr.span("core.classify", || landscape::classify(&q));
        std::hint::black_box(&class);
        let plan = tr
            .span("core.compile", || {
                RoutedPlan::compile(&q, &self.dbs[k], Method::Auto)
            })
            .map_err(|e| e.to_string())?;
        let cfg = FprasConfig::with_epsilon(0.1)
            .with_seed(seed)
            .with_threads(threads);
        let answer = tr.span("core.execute", || plan.execute(&cfg));
        let RoutedAnswer::Exact(p) = answer else {
            return Err(format!(
                "safe query {} took the FPRAS route",
                self.corpus[k].query
            ));
        };
        let (digits, exact) = tr.span("cli.format", || {
            (format!("{:.6}", p.to_f64()), p.to_string())
        });
        Ok(Answer {
            digits,
            value: p.to_f64(),
            exact: Some(exact),
            states: 0,
            transitions: 0,
        })
    }

    fn check(&self, i: usize, a: &Answer) -> Result<f64, String> {
        let k = i % self.corpus.len();
        if a.exact.as_deref() == Some(self.exact[k].as_str()) {
            Ok(0.0)
        } else {
            Err(format!(
                "{}: routed {:?} != lifted {}",
                self.corpus[k].query, a.exact, self.exact[k]
            ))
        }
    }

    fn layers(&self, t: &TraceRun, v: &mut Values) {
        v.set("query.parse_us", t.span_ms("query.parse") * 1e3);
        v.set("core.classify_us", t.span_ms("core.classify") * 1e3);
        v.set("core.lifted_us", median(&self.lifted_us));
        v.set("db.load_ms", median(&self.load_ms));
        v.set("core.compile_ms", t.span_ms("core.compile"));
    }
}
