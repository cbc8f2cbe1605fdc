//! Delta-vs-rebuild property tests: applying a random delta batch through
//! `VersionedDb` must be observationally identical to building the
//! post-delta database from scratch. "Identical" is the strongest form —
//! revalidated plans (reweighted automata, re-solved lifted closed forms)
//! must print the same digits as plans freshly compiled against the
//! rebuilt database, per seed, at 1 and 4 threads, on both routes. The
//! rebuild goes through the canonical text writer (`save_string` →
//! `load_str`), so this also exercises the round-trip guarantee under
//! mutation: surviving facts keep their order, inserts append.

use pqe::automata::FprasConfig;
use pqe::core::{Method, Plan, Revalidation, Target};
use pqe::db::io::{load_str, save_string};
use pqe::db::ProbDatabase;
use pqe::delta::{Delta, Epochs, VersionedDb};
use pqe::query::{parse, ConjunctiveQuery};
use pqe_testkit::prelude::*;
use std::collections::HashSet;

fn cfg() -> Config {
    Config::cases(16).with_corpus("tests/corpus/delta.corpus")
}

/// A random triangle instance over relations `R1`, `R2`, `R3` and a
/// 2-element domain. The `(0,1)` fact of every relation is always present
/// so each relation exists in the schema regardless of `edge_bits`.
fn db_text(edge_bits: u64, probs: &[(u8, u8)]) -> String {
    let mut out = String::new();
    let mut bit = 0usize;
    for rel in ["R1", "R2", "R3"] {
        for a in 0..2 {
            for b in 0..2 {
                if (edge_bits >> (bit % 64)) & 1 == 1 || (a == 0 && b == 1) {
                    let (w, d) = probs[bit % probs.len()];
                    let d = (d % 7) as u64 + 2; // 2..=8
                    let w = (w as u64 % d).max(1); // 1..=d
                    out.push_str(&format!("{w}/{d} {rel}(c{a},c{b})\n"));
                }
                bit += 1;
            }
        }
    }
    out
}

/// Builds a valid random batch against `h`: re-probabilities and deletes
/// target existing facts (never a fact already deleted earlier in the
/// batch), inserts use fresh constants so they can't collide.
fn random_delta(h: &ProbDatabase, picks: &[(u8, u8, u8)]) -> Delta {
    let db = h.database();
    let facts: Vec<String> = db.fact_ids().map(|id| db.display_fact(id)).collect();
    let mut text = String::new();
    let mut gone: HashSet<String> = HashSet::new();
    for (i, &(op, target, pnum)) in picks.iter().enumerate() {
        let d = (pnum % 7) as u64 + 2;
        match op % 3 {
            0 => {
                let f = &facts[target as usize % facts.len()];
                if !gone.contains(f) {
                    text.push_str(&format!("~ 1/{d} {f}\n"));
                }
            }
            1 => {
                let f = facts[target as usize % facts.len()].clone();
                if gone.insert(f.clone()) {
                    text.push_str(&format!("- {f}\n"));
                }
            }
            _ => {
                let rel = ["R1", "R2", "R3"][target as usize % 3];
                text.push_str(&format!("+ 1/{d} {rel}(zz{i},c0)\n"));
            }
        }
    }
    Delta::parse_str(&text).expect("generated delta parses")
}

fn digits(plan: &Plan, cfg: &FprasConfig) -> String {
    format!("{:.15e}", plan.execute(cfg).unwrap().to_f64())
}

fn query_plan(q: &ConjunctiveQuery, method: Method, h: &ProbDatabase, epochs: &Epochs) -> Plan {
    Plan::compile_at(Target::Query { q: q.clone(), method }, h, epochs).unwrap()
}

#[test]
fn delta_equals_rebuild_bit_for_bit() {
    let gens = (
        any::<u64>(),
        vec((any::<u8>(), any::<u8>()), 4..8),
        vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..5),
        any::<u64>(),
    );
    check(
        "delta_equals_rebuild_bit_for_bit",
        &cfg(),
        &gens,
        |(edge_bits, probs, picks, seed)| {
            let base = load_str(&db_text(*edge_bits, probs)).unwrap();
            let delta = random_delta(&base, picks);
            prop_assume!(!delta.is_empty());

            // Safe (routes lifted) and #P-hard (routes FPRAS) queries over
            // the same mutating relations.
            let safe_q = parse("R1(x,y), R2(y,z)").unwrap();
            let hard_q = parse("R1(x,y), R2(y,z), R3(z,x)").unwrap();

            // Compile against the base, mutate, revalidate in place.
            let mut vdb = VersionedDb::new(base);
            let mut plans = [
                query_plan(&safe_q, Method::Auto, vdb.current(), vdb.epochs()),
                query_plan(&hard_q, Method::Fpras, vdb.current(), vdb.epochs()),
            ];
            let report = vdb.apply(&delta);
            prop_assert!(report.is_ok(), "apply failed: {}", report.unwrap_err());

            // A delta can empty a relation, after which queries over it no
            // longer compile on a rebuilt database; out of scope here.
            let canonical = save_string(vdb.current());
            prop_assume!(["R1(", "R2(", "R3("].iter().all(|r| canonical.contains(r)));

            let prob_only = delta.is_probability_only();
            for plan in plans.iter_mut() {
                let r = plan.revalidate(vdb.current(), vdb.epochs());
                prop_assert!(r.is_ok(), "revalidate failed: {}", r.unwrap_err());
                if prob_only {
                    prop_assert!(
                        matches!(
                            r.unwrap(),
                            Revalidation::Current
                                | Revalidation::Refreshed { incremental: true }
                        ),
                        "probability-only delta must never force a recompile"
                    );
                }
            }

            // From-scratch replica of the post-delta database, via the
            // canonical writer (preserves surviving-fact order).
            let rebuilt = load_str(&canonical).unwrap();
            let fresh = [
                query_plan(&safe_q, Method::Auto, &rebuilt, &Epochs::new()),
                query_plan(&hard_q, Method::Fpras, &rebuilt, &Epochs::new()),
            ];

            let mut single_threaded: Vec<String> = Vec::new();
            for threads in [1usize, 4] {
                let fc = FprasConfig::with_epsilon(0.4).with_seed(*seed).with_threads(threads);
                for (plan, fresh_plan) in plans.iter().zip(fresh.iter()) {
                    let got = digits(plan, &fc);
                    prop_assert_eq!(
                        &got,
                        &digits(fresh_plan, &fc),
                        "revalidated vs rebuilt digits diverged at {} thread(s)",
                        threads
                    );
                    single_threaded.push(got);
                }
            }
            // The thread count must never change an estimate.
            let (one, four) = single_threaded.split_at(plans.len());
            prop_assert_eq!(one, four, "digits depend on the thread count");
            Ok(())
        },
    );
}

#[test]
fn second_revalidate_is_a_noop() {
    let gens = (any::<u64>(), vec((any::<u8>(), any::<u8>()), 4..8));
    check(
        "second_revalidate_is_a_noop",
        &cfg(),
        &gens,
        |(edge_bits, probs)| {
            let base = load_str(&db_text(*edge_bits, probs)).unwrap();
            let mut vdb = VersionedDb::new(base);
            let q = parse("R1(x,y), R2(y,z), R3(z,x)").unwrap();
            let mut plan = query_plan(&q, Method::Fpras, vdb.current(), vdb.epochs());

            let delta = Delta::parse_str("~ 1/3 R1(c0,c1)").unwrap();
            vdb.apply(&delta).unwrap();
            let first = plan.revalidate(vdb.current(), vdb.epochs()).unwrap();
            prop_assert_eq!(first, Revalidation::Refreshed { incremental: true });
            let second = plan.revalidate(vdb.current(), vdb.epochs()).unwrap();
            prop_assert_eq!(second, Revalidation::Current);
            Ok(())
        },
    );
}
