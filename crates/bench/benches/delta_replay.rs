//! E16 — incremental re-estimation under a mutation stream.
//!
//! Builds a database of independent "pods" (disjoint triangle instances
//! `Ai(x,y), Bi(y,z), Ci(z,x)` — each #P-hard exactly, so every plan takes
//! the FPRAS route), compiles one routed plan per pod against a
//! `VersionedDb`, then replays a probability-only delta stream that
//! touches one pod per step. Two replicas answer every (step, pod) pair:
//!
//! * **incremental** — `Plan::revalidate` after each delta; only the
//!   touched pod's plan reweights its retained automaton and recounts,
//!   the other pods' cached answers are reused as-is.
//! * **cold** — every plan recompiled from scratch and recounted after
//!   every delta, as a server without epoch scoping would have to.
//!
//! The replicas must agree **bit-identically** on every answer (the
//! reweighted automaton is the same automaton), and the headline metric
//! `speedup` = cold/incremental wall-clock must clear the E16 bar of 5×.
//! A structural epilogue (`+` insert) verifies the fallback: only the
//! touched pod recompiles, counted under `structural_recompiles`.
//!
//! Run with `PQE_BENCH_JSON_DIR=. cargo bench --bench delta_replay` to
//! drop machine-readable `BENCH_delta.json` next to the invocation.

use pqe_automata::FprasConfig;
use pqe_core::{Method, Plan, Revalidation, Target};
use pqe_db::io::load_str;
use pqe_delta::{Delta, VersionedDb};
use pqe_query::{parse, ConjunctiveQuery};
use pqe_testkit::bench::Runner;
use std::time::Instant;

const PODS: usize = 8;
const DOMAIN: usize = 4;
const STEPS: usize = 8;

/// One disjoint triangle instance per pod: relations `A<i>`, `B<i>`,
/// `C<i>` over a tiny shared domain, probabilities varied deterministically
/// so no two pods are numerically identical.
fn pod_db_text() -> String {
    let mut out = String::new();
    for pod in 0..PODS {
        for (r, rel) in ["A", "B", "C"].iter().enumerate() {
            for x in 0..DOMAIN {
                for y in 0..DOMAIN {
                    if x == y {
                        continue;
                    }
                    let num = (pod * 7 + r * 5 + x * 3 + y) % 9 + 1;
                    out.push_str(&format!("{num}/10 {rel}{pod}(n{x},n{y})\n"));
                }
            }
        }
    }
    out
}

fn pod_queries() -> Vec<ConjunctiveQuery> {
    (0..PODS)
        .map(|i| parse(&format!("A{i}(x,y), B{i}(y,z), C{i}(z,x)")).expect("pod query"))
        .collect()
}

/// Step `s` re-probabilities one existing fact of pod `s % PODS`.
fn prob_delta(step: usize) -> Delta {
    let pod = step % PODS;
    let num = (step * 3) % 9 + 1;
    Delta::parse_str(&format!("~ {num}/10 A{pod}(n0,n1)")).expect("prob delta")
}

/// Compiles `q`'s FPRAS plan at `db`'s current version.
fn compile(q: &ConjunctiveQuery, db: &VersionedDb) -> Plan {
    let target = Target::Query { q: q.clone(), method: Method::Fpras };
    Plan::compile_at(target, db.current(), db.epochs()).expect("compile")
}

fn digits(plan: &Plan, cfg: &FprasConfig) -> String {
    format!("{:.15e}", plan.execute(cfg).expect("execute").to_f64())
}

fn main() {
    let mut r = Runner::new("delta");
    r.start();

    let cfg = FprasConfig::with_epsilon(0.3).with_seed(0xE16);
    let base = load_str(&pod_db_text()).expect("pod database");
    let queries = pod_queries();

    // --- incremental replica -------------------------------------------
    let mut db = VersionedDb::new(base.clone());
    let mut plans: Vec<Plan> = queries.iter().map(|q| compile(q, &db)).collect();
    let mut answers: Vec<String> = plans.iter().map(|p| digits(p, &cfg)).collect();

    let mut incr_log: Vec<Vec<String>> = Vec::with_capacity(STEPS);
    let mut refreshed = 0u64;
    let mut kept = 0u64;
    let t = Instant::now();
    for step in 0..STEPS {
        db.apply(&prob_delta(step)).expect("apply (incremental)");
        for (plan, ans) in plans.iter_mut().zip(answers.iter_mut()) {
            match plan.revalidate(db.current(), db.epochs()).expect("revalidate") {
                Revalidation::Current => kept += 1,
                Revalidation::Refreshed { incremental } => {
                    assert!(incremental, "probability-only delta must not recompile");
                    refreshed += 1;
                    *ans = digits(plan, &cfg);
                }
            }
        }
        incr_log.push(answers.clone());
    }
    let incr = t.elapsed();

    // --- cold replica: recompile + recount everything every step -------
    let mut db = VersionedDb::new(base.clone());
    let mut cold_log: Vec<Vec<String>> = Vec::with_capacity(STEPS);
    let t = Instant::now();
    for step in 0..STEPS {
        db.apply(&prob_delta(step)).expect("apply (cold)");
        let step_answers: Vec<String> = queries
            .iter()
            .map(|q| digits(&compile(q, &db), &cfg))
            .collect();
        cold_log.push(step_answers);
    }
    let cold = t.elapsed();

    assert_eq!(
        incr_log, cold_log,
        "incremental and cold replicas disagree — reweight is not bit-identical"
    );

    // --- structural epilogue: inserts fall back to a scoped recompile --
    let grow = Delta::parse_str("+ 1/2 A0(n0,extra)").expect("structural delta");
    let report = db.apply(&grow).expect("apply structural");
    assert!(!report.is_probability_only());
    let mut structural_recompiles = 0u64;
    for plan in plans.iter_mut() {
        match plan.revalidate(db.current(), db.epochs()).expect("revalidate structural") {
            Revalidation::Current => {}
            Revalidation::Refreshed { incremental } => {
                assert!(!incremental, "structural delta must recompile");
                structural_recompiles += 1;
            }
        }
    }
    assert_eq!(structural_recompiles, 1, "only pod 0 saw the insert");

    let speedup = cold.as_secs_f64() / incr.as_secs_f64();
    println!(
        "  {STEPS} steps × {PODS} pods: incremental {:.1}ms, cold {:.1}ms, speedup {speedup:.1}x",
        incr.as_secs_f64() * 1e3,
        cold.as_secs_f64() * 1e3,
    );

    r.metric("pods", PODS as f64);
    r.metric("steps", STEPS as f64);
    r.metric("facts", base.len() as f64);
    r.metric("incremental_ms", incr.as_secs_f64() * 1e3);
    r.metric("cold_ms", cold.as_secs_f64() * 1e3);
    r.metric("speedup", speedup);
    r.metric("plans_refreshed", refreshed as f64);
    r.metric("plans_kept", kept as f64);
    r.metric("structural_recompiles", structural_recompiles as f64);
    r.finish();

    assert_eq!(refreshed, STEPS as u64, "one refresh per step");
    assert_eq!(kept, (STEPS * (PODS - 1)) as u64, "untouched pods stay current");
    assert!(
        speedup >= 5.0,
        "incremental speedup {speedup:.1}x below the E16 bar of 5x"
    );
}
