//! Property-based cross-validation of the graph pipeline: on randomly
//! generated small probabilistic DAGs, the FPRAS route (RPQ → product NFA
//! → CountNFA) must track the exact world-enumeration oracle within the
//! requested ε, and a fixed seed must give bit-identical estimates at
//! 1/2/4/8 worker threads.

use pqe::arith::{BigFloat, Rational};
use pqe::automata::FprasConfig;
use pqe::core::{GraphMethod, GraphPlan, RoutedAnswer};
use pqe::graph::{enumerate_probability, parse, ProbGraph};
use pqe_testkit::prelude::*;

fn cfg() -> Config {
    Config::cases(24).with_corpus("tests/corpus/graph_oracle.corpus")
}

/// A random layered DAG from a bitmask: `s → {a0,a1} → {b0,b1} → t`, with
/// up to 8 candidate edges (presence from `edge_bits`) and probabilities
/// drawn from small numerator/denominator pairs. Acyclic by construction
/// and ≤ 8 edges, so the 2^m oracle stays instant.
fn tiny_dag(edge_bits: u8, probs: &[(u8, u8)]) -> ProbGraph {
    let mut g = ProbGraph::new();
    for v in ["s", "a0", "a1", "b0", "b1", "t"] {
        g.add_vertex(v);
    }
    let candidates: [(&str, &str, &str); 8] = [
        ("s", "x", "a0"),
        ("s", "x", "a1"),
        ("a0", "y", "b0"),
        ("a0", "y", "b1"),
        ("a1", "y", "b0"),
        ("a1", "y", "b1"),
        ("b0", "z", "t"),
        ("b1", "z", "t"),
    ];
    for (i, (src, label, dst)) in candidates.iter().enumerate() {
        if (edge_bits >> i) & 1 == 1 {
            let (w, d) = probs[i % probs.len()];
            let d = (d % 7).max(1) as u64 + 1; // 2..=8
            let w = (w as i64 % d as i64).max(1); // 1..=d-1 (strictly inside)
            g.add_edge(src, label, dst, Rational::from_ratio(w, d));
        }
    }
    g
}

const QUERIES: [&str; 3] = [
    "s -> x y z -> t",
    "s -> x (y | z)* z -> t",
    "_ -> x y -> _",
];

#[test]
fn fpras_tracks_the_enumeration_oracle_on_random_dags() {
    let gens = (any::<u8>(), vec((any::<u8>(), any::<u8>()), 4..8), 0usize..3, any::<u64>());
    check(
        "fpras_tracks_the_enumeration_oracle_on_random_dags",
        &cfg(),
        &gens,
        |(edge_bits, probs, qi, seed)| {
            let g = tiny_dag(*edge_bits, probs);
            prop_assume!(g.num_edges() >= 1);
            let rpq = parse(QUERIES[*qi]).unwrap();
            let exact = enumerate_probability(&g, &rpq).unwrap();

            let plan = GraphPlan::compile(&g, &rpq, GraphMethod::Fpras).unwrap();
            let epsilon = 0.2;
            // CountNFA is an (ε, δ) estimator: any single seed may miss.
            // Three independent seeds with a 2-of-3 majority keeps the
            // property sound without weakening the per-run tolerance.
            let exact_f = BigFloat::from_rational(&exact);
            let hits = (0..3u64)
                .filter(|t| {
                    let cfg = FprasConfig::with_epsilon(epsilon).with_seed(seed ^ (t * 0x9E37));
                    let est = plan.execute(&cfg).to_bigfloat();
                    if exact.is_zero() {
                        est.to_f64() == 0.0
                    } else {
                        est.relative_error_to(&exact_f) <= epsilon
                    }
                })
                .count();
            prop_assert!(
                hits >= 2,
                "{hits}/3 seeds within ε = {epsilon} of oracle {exact} on {} edges",
                g.num_edges()
            );
            Ok(())
        },
    );
}

#[test]
fn graph_estimates_are_bit_identical_across_thread_counts() {
    let gens = (any::<u8>(), vec((any::<u8>(), any::<u8>()), 4..8), 0usize..3, any::<u64>());
    check(
        "graph_estimates_are_bit_identical_across_thread_counts",
        &cfg(),
        &gens,
        |(edge_bits, probs, qi, seed)| {
            let g = tiny_dag(*edge_bits, probs);
            prop_assume!(g.num_edges() >= 1);
            let rpq = parse(QUERIES[*qi]).unwrap();
            let plan = GraphPlan::compile(&g, &rpq, GraphMethod::Fpras).unwrap();

            let run = |threads: usize| {
                let cfg = FprasConfig::with_epsilon(0.3).with_seed(*seed).with_threads(threads);
                match plan.execute(&cfg) {
                    RoutedAnswer::Estimate(report) => report.probability,
                    RoutedAnswer::Exact(_) => unreachable!("forced fpras route"),
                }
            };
            let baseline = run(1);
            for threads in [2usize, 4, 8] {
                let est = run(threads);
                prop_assert!(
                    est == baseline,
                    "estimate at {threads} threads diverged from the 1-thread run"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn auto_route_answers_match_between_enum_and_forced_fpras_on_certain_graphs() {
    // Probability-1 edges: the FPRAS has nothing to estimate (every world
    // is the same), so both routes must answer exactly alike.
    let mut g = ProbGraph::new();
    for v in ["s", "m", "t"] {
        g.add_vertex(v);
    }
    let one = Rational::from_ratio(1, 1);
    g.add_edge("s", "r", "m", one.clone());
    g.add_edge("m", "r", "t", one);
    let rpq = parse("s -> r r -> t").unwrap();

    let auto = GraphPlan::compile(&g, &rpq, GraphMethod::Auto).unwrap();
    let cfg = FprasConfig::with_epsilon(0.1).with_seed(3);
    let RoutedAnswer::Exact(exact) = auto.execute(&cfg) else {
        panic!("2-edge graph must auto-route to enumeration");
    };
    assert_eq!(exact.to_string(), "1");

    let fpras = GraphPlan::compile(&g, &rpq, GraphMethod::Fpras).unwrap();
    let est = fpras.execute(&cfg).to_f64();
    assert_eq!(est, 1.0, "certain path must estimate to exactly 1");
}
