//! Cross-oracle integration tests: four independent implementations of
//! `Pr_H(Q)` must agree on shared random instances.
//!
//! * brute force over all worlds (exponential, exact);
//! * lineage materialization + exact weighted model counting (the
//!   intensional approach);
//! * lifted inference (safe queries only, exact);
//! * the paper's reduction with the *exact* tree-counting oracle
//!   substituted for CountNFTA (removes sampling error: any disagreement
//!   is a reduction bug, not noise).

use pqe::arith::Rational;
use pqe::automata::count_trees_exact;
use pqe::core::baselines::{brute_force_pqe, dnf_probability, lifted_pqe, Lineage};
use pqe::core::reductions::build_pqe_automaton;
use pqe::db::{generators, ProbDatabase};
use pqe::query::{analysis, shapes, ConjunctiveQuery};
use pqe_rand::rngs::StdRng;
use pqe_rand::SeedableRng;

fn exact_via_reduction(q: &ConjunctiveQuery, h: &ProbDatabase) -> Rational {
    let pqe = build_pqe_automaton(q, h).unwrap();
    let trees = count_trees_exact(&pqe.nfta, pqe.target_size);
    Rational::new(trees.into(), pqe.denominator.clone())
}

fn check_all_oracles(q: &ConjunctiveQuery, h: &ProbDatabase, ctx: &str) {
    let brute = brute_force_pqe(q, h);
    let lin = Lineage::build(q, h.database(), 200_000);
    assert!(!lin.truncated(), "{ctx}: lineage truncated");
    let wmc = dnf_probability(lin.clauses(), h);
    assert_eq!(wmc, brute, "{ctx}: lineage+WMC disagrees with brute force");

    let reduction = exact_via_reduction(q, h);
    assert_eq!(reduction, brute, "{ctx}: reduction disagrees with brute force");

    if analysis::is_hierarchical(q) && q.is_self_join_free() {
        let lifted = lifted_pqe(q, h).unwrap();
        assert_eq!(lifted, brute, "{ctx}: lifted disagrees with brute force");
    }
}

#[test]
fn oracles_agree_on_random_path_instances() {
    let mut rng = StdRng::seed_from_u64(1001);
    for len in 2..=4usize {
        for trial in 0..3 {
            let db = generators::layered_graph(len, 2, 0.65, &mut rng);
            if db.len() > 13 {
                continue;
            }
            let h = generators::with_random_probs(db, 6, &mut rng);
            check_all_oracles(
                &shapes::path_query(len),
                &h,
                &format!("path len={len} trial={trial}"),
            );
        }
    }
}

#[test]
fn oracles_agree_on_random_star_instances() {
    let mut rng = StdRng::seed_from_u64(1002);
    for arms in 2..=3usize {
        for trial in 0..3 {
            let db = generators::star_data(arms, 2, 2, 0.7, &mut rng);
            if db.len() > 13 {
                continue;
            }
            let h = generators::with_random_probs(db, 5, &mut rng);
            check_all_oracles(
                &shapes::star_query(arms),
                &h,
                &format!("star arms={arms} trial={trial}"),
            );
        }
    }
}

#[test]
fn oracles_agree_on_h0_instances() {
    let mut rng = StdRng::seed_from_u64(1003);
    for trial in 0..4 {
        let db = generators::random_instance(&[("R", 1), ("S", 2), ("T", 1)], 3, 4, &mut rng);
        if db.len() > 12 {
            continue;
        }
        let h = generators::with_random_probs(db, 5, &mut rng);
        check_all_oracles(&shapes::h0_query(), &h, &format!("h0 trial={trial}"));
    }
}

#[test]
fn oracles_agree_on_cyclic_width2_instances() {
    let mut rng = StdRng::seed_from_u64(1004);
    for trial in 0..3 {
        let db =
            generators::random_instance(&[("R1", 2), ("R2", 2), ("R3", 2)], 3, 4, &mut rng);
        if db.len() > 12 {
            continue;
        }
        let h = generators::with_random_probs(db, 4, &mut rng);
        check_all_oracles(&shapes::cycle_query(3), &h, &format!("cycle trial={trial}"));
    }
}

#[test]
fn oracles_agree_with_extreme_probabilities() {
    // Mix of 0, 1, and interior probabilities stresses the
    // dropped-transition paths of the multiplier construction.
    let mut rng = StdRng::seed_from_u64(1005);
    let db = generators::layered_graph_connected(3, 2, 0.7, &mut rng);
    if db.len() <= 13 {
        let mut h = generators::with_random_probs(db, 5, &mut rng);
        let ids: Vec<_> = h.database().fact_ids().collect();
        h.set_prob(ids[0], Rational::one());
        if ids.len() > 2 {
            h.set_prob(ids[2], Rational::zero());
        }
        check_all_oracles(&shapes::path_query(3), &h, "extreme probabilities");
    }
}

/// `with_probs` over `db` with every denominator drawn from
/// {3, 5, 7, 8, 10}: odd primes and non-powers of two, which the lifted
/// route's cross-cancelling products must reduce exactly as a full gcd
/// would.
fn with_mixed_denominators(db: pqe::db::Database, rng: &mut StdRng) -> ProbDatabase {
    use pqe_rand::Rng;
    const DENOMINATORS: [u64; 5] = [3, 5, 7, 8, 10];
    let probs = (0..db.len())
        .map(|_| {
            let d = DENOMINATORS[rng.random_range(0..DENOMINATORS.len())];
            Rational::from_ratio(rng.random_range(1..d) as i64, d)
        })
        .collect();
    ProbDatabase::with_probs(db, probs).unwrap()
}

#[test]
fn oracles_agree_with_non_power_of_two_denominators() {
    let mut rng = StdRng::seed_from_u64(1008);
    let mut checked = 0;
    for trial in 0..4 {
        let arms = 2 + trial % 2;
        let db = generators::star_data(arms, 2, 2, 0.7, &mut rng);
        if db.len() <= 12 {
            let h = with_mixed_denominators(db, &mut rng);
            check_all_oracles(&shapes::star_query(arms), &h, &format!("star trial={trial}"));
            checked += 1;
        }
        let db = generators::layered_graph_connected(2, 2, 0.7, &mut rng);
        if db.len() <= 12 {
            let h = with_mixed_denominators(db, &mut rng);
            check_all_oracles(&shapes::path_query(2), &h, &format!("2-path trial={trial}"));
            checked += 1;
        }
    }
    assert!(checked >= 4, "only {checked} instances were small enough");
}

#[test]
fn lifted_matches_brute_force_on_constants_repeats_and_missing_relations() {
    // Safe queries the shape generators never produce; ≤ 16 facts so the
    // brute-force oracle can enumerate every world.
    let queries = [
        "R(x,'c1'), S(x,y)",
        "R('c0',y), S(y,z)",
        "R(x,x), S(x,y)",
        "R(x,y), S(y,y)",
        "U(x), R(x,y), S(x,y)",
        "R(x,y), M(x)",
        "R(x,y), U(z)",
        "R(x,y), S(y,z), U('c2')",
    ];
    let mut rng = StdRng::seed_from_u64(1009);
    for trial in 0..6 {
        let db = generators::random_instance(&[("R", 2), ("S", 2), ("U", 1)], 3, 5, &mut rng);
        let h = with_mixed_denominators(db, &mut rng);
        assert!(h.len() <= 16, "{} facts", h.len());
        for text in queries {
            let q = pqe::query::parse(text).unwrap();
            assert_eq!(
                lifted_pqe(&q, &h).unwrap(),
                brute_force_pqe(&q, &h),
                "{text} trial={trial}"
            );
        }
    }
}

#[test]
fn router_agrees_with_itself_across_routes() {
    // For every `ExactAndFpras` query the router has a real choice: auto
    // must pick the lifted route (matching the classification), and the
    // forced-FPRAS route must land within ε of the routed exact answer.
    use pqe::automata::FprasConfig;
    use pqe::core::landscape::{self, Verdict};
    use pqe::core::{Method, Route, RoutedAnswer, RoutedPlan};

    let mut rng = StdRng::seed_from_u64(1007);
    let cases: Vec<(ConjunctiveQuery, ProbDatabase)> = vec![
        {
            let db = generators::layered_graph_connected(2, 2, 0.8, &mut rng);
            (shapes::path_query(2), generators::with_random_probs(db, 6, &mut rng))
        },
        {
            let db = generators::star_data(2, 2, 2, 0.8, &mut rng);
            (shapes::star_query(2), generators::with_random_probs(db, 5, &mut rng))
        },
    ];
    for (i, (q, h)) in cases.iter().enumerate() {
        let class = landscape::classify(q);
        assert_eq!(class.verdict, Verdict::ExactAndFpras, "case {i}: wrong cell");

        let auto = RoutedPlan::compile(q, h, Method::Auto).unwrap();
        assert_eq!(auto.decision.route, Route::Lifted, "case {i}: auto must go lifted");
        assert!(!auto.decision.forced, "case {i}");
        let cfg = FprasConfig::with_epsilon(0.2).with_seed(4242 + i as u64);
        let RoutedAnswer::Exact(exact) = auto.execute(&cfg) else {
            panic!("case {i}: lifted route must answer exactly");
        };
        assert_eq!(exact, brute_force_pqe(q, h), "case {i}: lifted wrong");

        let forced = RoutedPlan::compile(q, h, Method::Fpras).unwrap();
        assert_eq!(forced.decision.route, Route::Fpras, "case {i}");
        assert!(forced.decision.forced, "case {i}");
        let est = forced.execute(&cfg).to_f64();
        let truth = exact.to_f64();
        assert!(
            (est / truth - 1.0).abs() <= 0.2,
            "case {i}: est {est} vs exact {truth}"
        );
    }

    // And where there is no choice (unsafe, FprasOnly), auto must follow
    // the classification to the FPRAS.
    let db = generators::layered_graph_connected(3, 2, 0.8, &mut rng);
    let h = generators::with_random_probs(db, 6, &mut rng);
    let q = shapes::path_query(3);
    assert_eq!(landscape::classify(&q).verdict, Verdict::FprasOnly);
    let auto = RoutedPlan::compile(&q, &h, Method::Auto).unwrap();
    assert_eq!(auto.decision.route, Route::Fpras);
    assert!(auto.decision.rationale.contains("unsafe"), "{}", auto.decision.rationale);
}

#[test]
fn run_based_estimator_agrees_on_pqe_automata() {
    // The run-based importance estimator (unbiased, exact run DP) must
    // agree with exact tree counting on the reduction's automata.
    use pqe::automata::count_nfta_run_based;
    use pqe::core::reductions::build_pqe_automaton;
    let mut rng = StdRng::seed_from_u64(1006);
    let db = generators::layered_graph_connected(3, 2, 0.6, &mut rng);
    let h = generators::with_random_probs(db, 5, &mut rng);
    let q = shapes::path_query(3);
    let pqe = build_pqe_automaton(&q, &h).unwrap();
    let exact = pqe::automata::count_trees_exact(&pqe.nfta, pqe.target_size);
    let est = count_nfta_run_based(&pqe.nfta, pqe.target_size, 3000, 9);
    let rel = est.relative_error_to(&pqe::arith::BigFloat::from_biguint(&exact));
    assert!(rel < 0.15, "exact {exact}, est {est}, rel {rel}");
}
