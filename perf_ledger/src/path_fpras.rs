//! `path_fpras`: the unsafe 3-path query on layered graphs, each instance
//! answered cold the way `pqe estimate --threads 2` answers it.
//!
//! Why: the counting phase (CountNFTA's union-MC loop, membership checks
//! and SIR draws) is ≥ 97% of the wall time here, so a counting or
//! worker-pool optimisation shows here first.

use crate::batch::{Answer, Batch, TraceRun};
use crate::metrics::Values;
use crate::oracle;
use crate::stats::median;
use crate::trace::Tracer;
use pqe_arith::Rational;
use pqe_automata::FprasConfig;
use pqe_core::baselines::{dnf_probability, Lineage};
use pqe_core::{landscape, Method, RoutedPlan};
use pqe_db::ProbDatabase;
use pqe_rand::rngs::StdRng;
use pqe_rand::{Rng, SeedableRng};
use std::time::Instant;

pub const EPSILON: f64 = 0.3;
/// Layer width and edge density of `pqe_bench::path_workload(3, 3, 0.8, ·)`:
/// 16–24 facts, about 60 ms per answer on two cores, so that 200
/// instances, each answered once, fit a 15-second run. (Width 4 triples
/// the cost per answer and leaves room for only a third as many
/// instances.) Distinct instances rather than repeated passes: the
/// latency tail is then an average over many instances' seeds.
const WIDTH: usize = 3;
const DENSITY: f64 = 0.8;
const QUERY: &str = "R1(x1,x2), R2(x2,x3), R3(x3,x4)";
/// Instances per run: every op answers a different database.
const INSTANCES: usize = 200;
/// The instances' edges and probability denominators come from this fixed
/// seed; the run seed draws the numerators and the FPRAS seeds. The cost of
/// an answer follows the edges and denominators, so every seed measures the
/// same amount of work.
const CORPUS_SEED: u64 = 0x7061_7468;
/// Instances whose oracle is cross-checked against lineage + WMC.
const WMC_CHECKED: usize = 2;

pub struct PathFpras {
    texts: Vec<String>,
    dbs: Vec<ProbDatabase>,
    load_ms: Vec<f64>,
    exact: Vec<Rational>,
    trace_round: usize,
}

impl PathFpras {
    pub fn new(seed: u64, smoke: bool) -> PathFpras {
        let n = if smoke { 12 } else { INSTANCES };
        let mut probs = StdRng::seed_from_u64(seed);
        let texts = (0..n)
            .map(|i| {
                let w = pqe_bench::path_workload(
                    3,
                    WIDTH,
                    DENSITY,
                    pqe_rand::mix_seed(&[CORPUS_SEED, i as u64]),
                );
                // Each fact keeps the corpus's denominator d (which sets the
                // size of its multiplier gadget); the seed draws a numerator
                // coprime to d, so the fraction stays in lowest terms.
                let db = w.h.database();
                let p = db
                    .fact_ids()
                    .map(|f| {
                        let d = w.h.prob(f).denominator().to_u64().expect("d ≤ 8");
                        coprime_fraction(d, &mut probs)
                    })
                    .collect();
                let h = ProbDatabase::with_probs(db.clone(), p).expect("probabilities in (0, 1]");
                pqe_db::io::save_string(&h)
            })
            .collect();
        PathFpras {
            texts,
            dbs: Vec::new(),
            load_ms: Vec::new(),
            exact: Vec::new(),
            trace_round: if smoke { 2 } else { 40 },
        }
    }
}

impl Batch for PathFpras {
    const THREADS: usize = 2;
    const PASS_SECONDS: f64 = 13.0;

    fn setup(&mut self) -> Result<(), String> {
        self.dbs.clear();
        self.load_ms.clear();
        for text in &self.texts {
            let t = Instant::now();
            self.dbs
                .push(pqe_db::io::load_str(text).map_err(|e| e.to_string())?);
            self.load_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok(())
    }

    fn oracles(&mut self) -> Result<(), String> {
        self.exact = self
            .dbs
            .iter()
            .map(|h| oracle::path_probability(h, &["R1", "R2", "R3"]))
            .collect();
        let q = pqe_query::parse(QUERY).map_err(|e| e.to_string())?;
        for (h, exact) in self.dbs.iter().zip(&self.exact).take(WMC_CHECKED) {
            let lineage = Lineage::build(&q, h.database(), usize::MAX);
            let wmc = dnf_probability(lineage.clauses(), h);
            if &wmc != exact {
                return Err(format!(
                    "path oracle {exact} disagrees with lineage + WMC {wmc}"
                ));
            }
        }
        Ok(())
    }

    fn ops(&self) -> usize {
        self.texts.len()
    }

    fn trace_round(&self) -> usize {
        self.trace_round
    }

    fn op(&self, i: usize, seed: u64, threads: usize, tr: &Tracer) -> Result<Answer, String> {
        let h = &self.dbs[i % self.dbs.len()];
        let q = tr
            .span("query.parse", || pqe_query::parse(QUERY))
            .map_err(|e| e.to_string())?;
        // `pqe estimate` classifies once for its landscape line, then the
        // router classifies again inside compile.
        let class = tr.span("core.classify", || landscape::classify(&q));
        std::hint::black_box(&class);
        let plan = tr
            .span("core.compile", || RoutedPlan::compile(&q, h, Method::Auto))
            .map_err(|e| e.to_string())?;
        let cfg = FprasConfig::with_epsilon(EPSILON)
            .with_seed(seed)
            .with_threads(threads);
        let answer = tr.span("core.execute", || plan.execute(&cfg));
        let value = answer.to_f64();
        let digits = tr.span("cli.format", || format!("{value:.6}"));
        if plan.decision.route.name() != "fpras" {
            return Err(format!("3-path routed to {}", plan.decision.route.name()));
        }
        let nfta = plan.nfta().ok_or("FPRAS plan without an automaton")?;
        Ok(Answer {
            digits,
            value,
            exact: None,
            states: nfta.num_states(),
            transitions: nfta.transitions().len(),
        })
    }

    fn check(&self, i: usize, a: &Answer) -> Result<f64, String> {
        within_epsilon(a.value, &self.exact[i % self.exact.len()], EPSILON)
            .map_err(|e| format!("path instance {}: {e}", i % self.exact.len()))
    }

    fn layers(&self, t: &TraceRun, v: &mut Values) {
        v.set("query.parse_us", t.span_ms("query.parse") * 1e3);
        v.set("core.classify_us", t.span_ms("core.classify") * 1e3);
        v.set("db.load_ms", median(&self.load_ms));
        v.set("core.compile_ms", t.span_ms("core.compile"));
        let per_op = |name: &str| t.table.total(name) / t.ops as f64;
        v.set("core.ur_automaton_ms", per_op("ur_automaton"));
        v.set("automata.translate_ms", per_op("translate"));
        v.set("automata.multipliers_ms", per_op("multipliers"));
        v.set("automata.translate_gadgets_ms", per_op("translate_gadgets"));
        v.set("automata.execute_ms", t.span_ms("core.execute"));
        t.counting_layers(v, t.ops);
        t.automata_counts(v);
    }
}

/// A fraction `n/d` in lowest terms with `n` drawn from `1..=d`: the
/// denominator, which sets the size of a fact's multiplier gadget, stays
/// `d` whatever the draw.
pub fn coprime_fraction(d: u64, rng: &mut StdRng) -> Rational {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let coprime: Vec<u64> = (1..=d).filter(|&n| gcd(n, d) == 1).collect();
    Rational::from_ratio(coprime[rng.random_range(0..coprime.len())] as i64, d)
}

/// `Ok(|value/exact − 1| / ε)` when the estimate lies within `(1 ± ε)` of
/// the exact probability (an exact zero must be estimated as zero).
pub fn within_epsilon(value: f64, exact: &Rational, eps: f64) -> Result<f64, String> {
    let x = exact.to_f64();
    if x == 0.0 {
        return if value == 0.0 {
            Ok(0.0)
        } else {
            Err(format!("estimate {value} for exact 0"))
        };
    }
    let rel = (value / x - 1.0).abs();
    if rel <= eps {
        Ok(rel / eps)
    } else {
        Err(format!(
            "estimate {value} is {rel:.3} off exact {x} (ε = {eps})"
        ))
    }
}
