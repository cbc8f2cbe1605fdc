//! `graph_rpq`: corner-to-corner reliability on road grids and short
//! diamond chains, routed `auto` (world enumeration up to 16 edges, the
//! product-NFA FPRAS above).
//!
//! Diamond chains stop at 6 diamonds: from about 21 on, 1–3% of FPRAS
//! estimates at ε = 0.3 miss the closed form by more than ε (150 seeds per
//! length, two threads), while a check here must never fail.
//!
//! Why: it reaches the automata layer through a different door — the NFA
//! counter `count_nfa` and the graph product compiler — and bypasses the
//! hypertree decomposition, the reductions and the NFTA counter.

use crate::batch::{Answer, Batch, TraceRun};
use crate::metrics::Values;
use crate::oracle::{self, Grid};
use crate::path_fpras::{coprime_fraction, within_epsilon};
use crate::stats::median;
use crate::trace::Tracer;
use pqe_arith::Rational;
use pqe_automata::FprasConfig;
use pqe_core::{GraphAnswer, GraphMethod, GraphPlan};
use pqe_graph::ProbGraph;
use pqe_rand::rngs::StdRng;
use pqe_rand::{Rng, SeedableRng};
use std::time::Instant;

pub const EPSILON: f64 = 0.3;
/// Diamond-chain lengths (20 and 24 edges) on the FPRAS route.
const DIAMONDS: &[usize] = &[5, 6];
/// Grids on the enumeration route (7–13 edges).
const ENUMERATED: &[(usize, usize)] = &[(2, 3), (2, 4), (3, 3), (2, 5)];
/// Probability draws per enumerated grid shape.
const DRAWS: usize = 10;
/// FPRAS seeds per counted graph: each is its own op.
const SEEDS: usize = 2;
/// The enumerated grids' probability denominators come from this fixed
/// seed; the run seed draws the numerators.
const CORPUS_SEED: u64 = 0x6772_6964;

/// Every uniform grid shape on the FPRAS route up to 60 edges (2×7 …
/// 6×6, 29 shapes; 8–120 ms per answer on two cores).
fn counted_grids() -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for rows in 2..=6 {
        for cols in rows..=16 {
            let edges = rows * (cols - 1) + (rows - 1) * cols;
            if edges > pqe_graph::MAX_ENUM_EDGES && edges <= 60 {
                out.push((rows, cols));
            }
        }
    }
    out
}

struct Instance {
    text: String,
    rpq: String,
    exact: Rational,
    /// Small enough for world enumeration (the `auto` route takes it).
    enumerated: bool,
}

pub struct GraphRpq {
    corpus: Vec<Instance>,
    graphs: Vec<ProbGraph>,
    load_ms: Vec<f64>,
}

fn grid(rows: usize, cols: usize, mut prob: impl FnMut() -> Rational) -> Grid {
    let right = (0..rows)
        .map(|_| (1..cols).map(|_| prob()).collect())
        .collect();
    let down = (1..rows)
        .map(|_| (0..cols).map(|_| prob()).collect())
        .collect();
    Grid {
        rows,
        cols,
        right,
        down,
    }
}

impl GraphRpq {
    pub fn new(seed: u64, smoke: bool) -> GraphRpq {
        let mut corpus_rng = StdRng::seed_from_u64(CORPUS_SEED);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut corpus = Vec::new();
        let mut push_grid = |g: Grid| {
            corpus.push(Instance {
                text: g.to_text(),
                rpq: format!("v0_0 -> road* -> v{}_{}", g.rows - 1, g.cols - 1),
                exact: g.corner_probability(),
                enumerated: g.edges() <= pqe_graph::MAX_ENUM_EDGES,
            })
        };
        // Probabilities w/d on the enumerated grids, d ≤ 4 from the corpus
        // and w from the seed; uniform 1/2 (no multiplier gadgets) on the
        // counted ones, whose seed-to-seed difference is then only the
        // FPRAS seed.
        let draws = if smoke { 1 } else { DRAWS };
        for &(rows, cols) in ENUMERATED {
            for _ in 0..draws {
                push_grid(grid(rows, cols, || {
                    coprime_fraction(corpus_rng.random_range(2..=4), &mut rng)
                }));
            }
        }
        let mut counted = counted_grids();
        counted.truncate(if smoke { 4 } else { counted.len() });
        for (rows, cols) in counted {
            for _ in 0..SEEDS {
                push_grid(grid(rows, cols, || Rational::from_ratio(1, 2)));
            }
        }
        for &k in &DIAMONDS[..if smoke { 1 } else { DIAMONDS.len() }] {
            for _ in 0..SEEDS {
                corpus.push(Instance {
                    text: oracle::diamond_chain_text(k),
                    rpq: format!("d0 -> r* -> d{k}"),
                    exact: oracle::diamond_chain_probability(k),
                    enumerated: false,
                });
            }
        }
        GraphRpq {
            corpus,
            graphs: Vec::new(),
            load_ms: Vec::new(),
        }
    }
}

impl Batch for GraphRpq {
    const THREADS: usize = 2;
    const PASS_SECONDS: f64 = 5.0;

    fn setup(&mut self) -> Result<(), String> {
        self.graphs.clear();
        self.load_ms.clear();
        for inst in &self.corpus {
            let t = Instant::now();
            self.graphs
                .push(pqe_graph::load_str(&inst.text).map_err(|e| e.to_string())?);
            self.load_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok(())
    }

    fn oracles(&mut self) -> Result<(), String> {
        // Grid oracles and closed forms are computed with the corpus.
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
        let inst = &self.corpus[k];
        let rpq = tr
            .span("graph.parse", || pqe_graph::parse(&inst.rpq))
            .map_err(|e| e.to_string())?;
        let compile = || GraphPlan::compile(&self.graphs[k], &rpq, GraphMethod::Auto);
        let plan = if inst.enumerated {
            tr.span("graph.enumerate", compile)
        } else {
            tr.span("graph.plan", compile)
        }
        .map_err(|e| e.to_string())?;
        let cfg = FprasConfig::with_epsilon(EPSILON)
            .with_seed(seed)
            .with_threads(threads);
        let answer = if inst.enumerated {
            tr.span("graph.exact", || plan.execute(&cfg))
        } else {
            tr.span("graph.execute", || plan.execute(&cfg))
        };
        let value = answer.to_f64();
        let digits = tr.span("cli.format", || format!("{value:.6}"));
        let exact = match &answer {
            GraphAnswer::Exact(p) => Some(p.to_string()),
            GraphAnswer::Estimate { .. } => None,
        };
        let states = plan.automaton_states();
        let transitions = plan.nfa().map_or(0, |n| n.all_transitions().len());
        Ok(Answer {
            digits,
            value,
            exact,
            states,
            transitions,
        })
    }

    fn check(&self, i: usize, a: &Answer) -> Result<f64, String> {
        let inst = &self.corpus[i % self.corpus.len()];
        match (&a.exact, inst.enumerated) {
            (Some(p), true) if *p == inst.exact.to_string() => Ok(0.0),
            (Some(p), true) => Err(format!(
                "{}: enumeration {p} != oracle {}",
                inst.rpq, inst.exact
            )),
            (None, false) => within_epsilon(a.value, &inst.exact, EPSILON)
                .map_err(|e| format!("{}: {e}", inst.rpq)),
            _ => Err(format!("{}: unexpected route", inst.rpq)),
        }
    }

    fn layers(&self, t: &TraceRun, v: &mut Values) {
        let counted: Vec<_> = t.answers.iter().filter(|a| a.states > 0).collect();
        let per = |ms: f64| ms / counted.len().max(1) as f64;
        v.set("graph.load_ms", median(&self.load_ms));
        v.set("graph.parse_us", t.span_ms("graph.parse") * 1e3);
        v.set("graph.enum_ms", t.span_ms("graph.enumerate"));
        v.set("graph.compile_ms", per(t.table.total("graph.compile")));
        v.set("automata.nfa_count_ms", per(t.table.total("count.nfa")));
        v.set("automata.execute_ms", t.span_ms("graph.execute"));
        t.counting_layers(v, counted.len());
        t.automata_counts(v);
        // The automaton counted here is the RPQ × graph product NFA.
        let states = v.get("automata.states").unwrap_or(0.0);
        v.set("graph.product_states", states);
    }
}
