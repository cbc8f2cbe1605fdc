//! Determinism: with a fixed seed, the estimators must be pure functions
//! of their inputs — two runs produce bit-identical outputs. This is the
//! contract that makes `FprasConfig::with_seed` + the in-tree `pqe-rand`
//! PRNG a reproducibility story rather than a convenience.

use pqe::automata::FprasConfig;
use pqe::core::{
    path_pqe_estimate, path_ur_estimate, pqe_estimate, ur_estimate, GraphMethod, GraphPlan,
    RoutedAnswer,
};
use pqe::db::generators;
use pqe::query::shapes;
use pqe_rand::rngs::StdRng;
use pqe_rand::SeedableRng;

fn fixture() -> (pqe::query::ConjunctiveQuery, pqe::db::ProbDatabase) {
    let mut rng = StdRng::seed_from_u64(0xDE7E_4141);
    let db = generators::layered_graph_connected(3, 3, 0.7, &mut rng);
    let h = generators::with_random_probs(db, 6, &mut rng);
    (shapes::path_query(3), h)
}

#[test]
fn instance_generation_is_deterministic() {
    let (q1, h1) = fixture();
    let (q2, h2) = fixture();
    assert_eq!(q1.to_string(), q2.to_string());
    assert_eq!(h1.len(), h2.len());
    for i in 0..h1.len() {
        let f = pqe::db::FactId(i as u32);
        assert_eq!(h1.prob(f), h2.prob(f), "prob of fact {i} differs");
    }
}

#[test]
fn pqe_estimate_is_bit_identical_across_runs() {
    let (q, h) = fixture();
    let cfg = FprasConfig::with_epsilon(0.3).with_seed(0x5EED);
    let a = pqe_estimate(&q, &h, &cfg).unwrap();
    let b = pqe_estimate(&q, &h, &cfg).unwrap();
    assert_eq!(a.probability.to_string(), b.probability.to_string());
    assert_eq!(a.target_size, b.target_size);
    assert_eq!(a.denominator, b.denominator);
    assert_eq!(a.automaton_states, b.automaton_states);
    assert_eq!(a.automaton_size, b.automaton_size);
}

#[test]
fn ur_estimate_is_bit_identical_across_runs() {
    let (q, h) = fixture();
    let db = h.database().clone();
    let cfg = FprasConfig::with_epsilon(0.3).with_seed(0xBEEF);
    let a = ur_estimate(&q, &db, &cfg).unwrap();
    let b = ur_estimate(&q, &db, &cfg).unwrap();
    assert_eq!(a.reliability.to_string(), b.reliability.to_string());
    assert_eq!(a.target_size, b.target_size);
    assert_eq!(a.dropped_facts, b.dropped_facts);
}

#[test]
fn path_ur_estimate_is_bit_identical_across_runs() {
    let (q, h) = fixture();
    let db = h.database().clone();
    let cfg = FprasConfig::with_epsilon(0.3).with_seed(0xF00D);
    let a = path_ur_estimate(&q, &db, &cfg).unwrap();
    let b = path_ur_estimate(&q, &db, &cfg).unwrap();
    assert_eq!(a.reliability.to_string(), b.reliability.to_string());
    assert_eq!(a.target_size, b.target_size);
}

#[test]
fn pqe_estimate_is_bit_identical_across_thread_counts() {
    // The tentpole invariant of the parallel FPRAS: thread count changes
    // wall-clock only, never the estimate (NFTA route).
    let (q, h) = fixture();
    let base = FprasConfig::with_epsilon(0.3).with_seed(0x5EED);
    let reference = pqe_estimate(&q, &h, &base.clone().with_threads(1)).unwrap();
    for threads in [2usize, 4, 8] {
        let r = pqe_estimate(&q, &h, &base.clone().with_threads(threads)).unwrap();
        assert_eq!(
            r.probability.to_string(),
            reference.probability.to_string(),
            "threads={threads}"
        );
        assert_eq!(r.threads, threads);
    }
    // Auto (threads = 0) resolves to whatever the host offers — same value.
    let auto = pqe_estimate(&q, &h, &base).unwrap();
    assert_eq!(
        auto.probability.to_string(),
        reference.probability.to_string()
    );
    assert!(auto.threads >= 1);
}

#[test]
fn path_ur_estimate_is_bit_identical_across_thread_counts() {
    // Same invariant along the NFA route.
    let (q, h) = fixture();
    let db = h.database().clone();
    let base = FprasConfig::with_epsilon(0.3).with_seed(0xF00D);
    let reference = path_ur_estimate(&q, &db, &base.clone().with_threads(1)).unwrap();
    for threads in [2usize, 4, 8] {
        let r = path_ur_estimate(&q, &db, &base.clone().with_threads(threads)).unwrap();
        assert_eq!(
            r.reliability.to_string(),
            reference.reliability.to_string(),
            "threads={threads}"
        );
    }
}

#[test]
fn env_thread_override_reproduces_single_threaded_values() {
    // `PQE_THREADS=1` (the env knob behind `threads = 0`) must reproduce
    // the explicit single-threaded run bit for bit.
    let (q, h) = fixture();
    let base = FprasConfig::with_epsilon(0.3).with_seed(0x5EED);
    let reference = pqe_estimate(&q, &h, &base.clone().with_threads(1)).unwrap();
    std::env::set_var("PQE_THREADS", "1");
    let through_env = pqe_estimate(&q, &h, &base).unwrap();
    let resolved = through_env.threads;
    std::env::remove_var("PQE_THREADS");
    assert_eq!(
        through_env.probability.to_string(),
        reference.probability.to_string()
    );
    assert_eq!(resolved, 1);
}

#[test]
fn single_threaded_values_are_pinned() {
    // Golden digits at threads = 1. Any change here means the sampling
    // schedule changed — a deliberate, documented break in reproducibility,
    // not an accident. (The same digits come out at any thread count; see
    // the cross-thread tests above.)
    let (q, h) = fixture();
    let cfg = FprasConfig::with_epsilon(0.3).with_seed(0x5EED).with_threads(1);
    let pqe = pqe_estimate(&q, &h, &cfg).unwrap();
    assert_eq!(pqe.probability.to_string(), "8.589671e-1");
    let db = h.database().clone();
    let cfg = FprasConfig::with_epsilon(0.3).with_seed(0xBEEF).with_threads(1);
    let ur = ur_estimate(&q, &db, &cfg).unwrap();
    assert_eq!(ur.reliability.to_string(), "8.829016e5");
}

#[test]
fn profiling_is_invisible_to_the_estimate() {
    // Observability must be deterministic-by-construction: spans, counters
    // and event logging never touch the RNG streams, so the golden digits
    // come out unchanged with profiling on — at one thread and at four.
    let (q, h) = fixture();
    pqe_obs::span::reset();
    pqe_obs::span::set_enabled(true);
    pqe_obs::log::set_filter(Some(pqe_obs::log::Level::Debug));
    let _root = pqe_obs::span::span("test_root");
    for threads in [1usize, 4] {
        let cfg = FprasConfig::with_epsilon(0.3)
            .with_seed(0x5EED)
            .with_threads(threads);
        let pqe = pqe_estimate(&q, &h, &cfg).unwrap();
        assert_eq!(
            pqe.probability.to_string(),
            "8.589671e-1",
            "threads={threads} with profiling on"
        );
        let db = h.database().clone();
        let cfg = FprasConfig::with_epsilon(0.3)
            .with_seed(0xBEEF)
            .with_threads(threads);
        let ur = ur_estimate(&q, &db, &cfg).unwrap();
        assert_eq!(
            ur.reliability.to_string(),
            "8.829016e5",
            "threads={threads} with profiling on"
        );
    }
    drop(_root);
    // The instrumented run actually recorded the phase tree.
    let snap = pqe_obs::span::snapshot();
    pqe_obs::span::set_enabled(false);
    pqe_obs::log::set_filter(None);
    let root = snap
        .iter()
        .find(|n| n.name == "test_root")
        .expect("root span recorded");
    assert!(
        root.children.iter().any(|c| c.name == "compile"),
        "compile phase recorded under the root"
    );
    assert!(
        root.children.iter().any(|c| c.name == "execute"),
        "execute phase recorded under the root"
    );
}

#[test]
fn golden_digits_survive_profiling_and_debug_logging_at_every_thread_count() {
    // The inner-loop rework (arena scratch reuse, fixed-width arithmetic,
    // batched RNG blocks) must be invisible under every observability and
    // scheduling combination at once: profiling spans on, the `PQE_LOG`
    // filter at debug, and 1/2/4/8 workers — the golden digits of
    // `single_threaded_values_are_pinned` come out unchanged everywhere.
    let (q, h) = fixture();
    let db = h.database().clone();
    std::env::set_var(pqe_obs::log::LOG_ENV, "debug");
    pqe_obs::span::reset();
    pqe_obs::span::set_enabled(true);
    pqe_obs::log::set_filter(Some(pqe_obs::log::Level::Debug));
    for threads in [1usize, 2, 4, 8] {
        let cfg = FprasConfig::with_epsilon(0.3)
            .with_seed(0x5EED)
            .with_threads(threads);
        let pqe = pqe_estimate(&q, &h, &cfg).unwrap();
        assert_eq!(
            pqe.probability.to_string(),
            "8.589671e-1",
            "pqe golden digits, threads={threads}, profile+debug log"
        );
        let cfg = FprasConfig::with_epsilon(0.3)
            .with_seed(0xBEEF)
            .with_threads(threads);
        let ur = ur_estimate(&q, &db, &cfg).unwrap();
        assert_eq!(
            ur.reliability.to_string(),
            "8.829016e5",
            "ur golden digits, threads={threads}, profile+debug log"
        );
    }
    pqe_obs::span::set_enabled(false);
    pqe_obs::log::set_filter(None);
    std::env::remove_var(pqe_obs::log::LOG_ENV);
}

#[test]
fn different_seeds_are_actually_different_streams() {
    // Guard against a seed that is accepted but ignored.
    let (q, h) = fixture();
    let a = pqe_estimate(&q, &h, &FprasConfig::with_epsilon(0.3).with_seed(1)).unwrap();
    let b = pqe_estimate(&q, &h, &FprasConfig::with_epsilon(0.3).with_seed(2)).unwrap();
    // Estimates at different seeds agree to within the FPRAS tolerance but
    // are produced by different sample paths; identical digit strings for
    // every field would mean the seed is dead. Tolerate the (unlikely)
    // coincidence on the headline number only.
    assert!(
        a.probability.to_string() != b.probability.to_string()
            || a.elapsed != b.elapsed,
        "seeds 1 and 2 produced identical outputs"
    );
}

#[test]
fn weighted_path_nfa_estimate_is_pinned() {
    // The §3 string route weighs each fact with a multiplier gadget. The
    // fixture's denominators go up to 6, so gadgets are up to 3 bits wide.
    // The automaton's shape and the digits pin the weighing step: any change
    // to gadget state allocation or transition order moves them.
    let (q, h) = fixture();
    let cfg = FprasConfig::with_epsilon(0.3).with_seed(0xFACE).with_threads(1);
    let r = path_pqe_estimate(&q, &h, &cfg).unwrap();
    assert_eq!(r.probability.to_string(), "9.186181e-1");
    assert_eq!(r.target_size, 36);
    assert_eq!((r.automaton_states, r.automaton_size), (599, 1010));
}

/// A chain of four diamonds `d_j → {a_j, b_j} → d_{j+1}` whose edge
/// probabilities differ from 1/2, so every edge carries a gadget.
fn weighted_diamond_chain() -> pqe::graph::ProbGraph {
    let probs = ["1/3", "2/5", "3/4", "5/7"];
    let text: String = (0..4)
        .map(|j| {
            let n = j + 1;
            let p = |i: usize| probs[(j + i) % probs.len()];
            format!(
                "{} d{j} -r-> a{j}\n{} d{j} -r-> b{j}\n{} a{j} -r-> d{n}\n{} b{j} -r-> d{n}\n",
                p(0),
                p(1),
                p(2),
                p(3)
            )
        })
        .collect();
    pqe::graph::load_str(&text).unwrap()
}

#[test]
fn weighted_graph_fpras_estimate_is_pinned() {
    // The RPQ product route weighs each edge position with a multiplier
    // gadget; forcing the FPRAS route pins the weighed product NFA.
    let g = weighted_diamond_chain();
    let rpq = pqe::graph::parse("d0 -> r* -> d4").unwrap();
    let plan = GraphPlan::compile(&g, &rpq, GraphMethod::Fpras).unwrap();
    let cfg = FprasConfig::with_epsilon(0.3).with_seed(0xD1A).with_threads(1);
    let RoutedAnswer::Estimate(r) = plan.execute(&cfg) else {
        panic!("forced FPRAS route returned an exact answer");
    };
    assert_eq!(r.probability.to_string(), "4.778273e-2");
    assert_eq!(r.target_size, 48);
    assert_eq!((r.automaton_states, r.automaton_size), (221, 372));
}
