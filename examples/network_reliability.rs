//! Uniform reliability (§4): counting satisfying subinstances.
//!
//! `UR(Q, D)` counts the sub-networks of `D` in which `Q` still holds —
//! the combinatorial core of PQE (`Pr_{π≡½}(Q) = UR / 2^{|D|}`, paper §2).
//! This example runs the two reduction routes side by side on the same
//! instance:
//!
//! * Theorem 2 (`PathEstimate`): path query → string automaton → CountNFA;
//! * Theorem 3 (`UREstimate`):  query → tree automaton → CountNFTA;
//!
//! and cross-checks both against exact brute force.
//!
//! ```sh
//! cargo run --release --example network_reliability
//! ```

use pqe::automata::FprasConfig;
use pqe::core::baselines::brute_force_ur;
use pqe::core::{path_ur_estimate, ur_estimate};
use pqe::db::generators;
use pqe::query::shapes;
use pqe_rand::rngs::StdRng;
use pqe_rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(77);
    let hops = 3;
    let db = generators::layered_graph_connected(hops, 2, 0.7, &mut rng);
    let q = shapes::path_query(hops);
    println!("instance : {} facts;  query: {q}", db.len());

    let exact = brute_force_ur(&q, &db);
    println!("exact UR : {exact}  (of 2^{} = {} subinstances)", db.len(), 1u64 << db.len());

    let cfg = FprasConfig::with_epsilon(0.1).with_seed(42);

    let via_nfa = path_ur_estimate(&q, &db, &cfg).unwrap();
    println!(
        "Thm 2 (NFA route)  : {:.1}   [{} states, strings of length {}]",
        via_nfa.reliability.to_f64(),
        via_nfa.automaton_states,
        via_nfa.target_size
    );

    let via_nfta = ur_estimate(&q, &db, &cfg).unwrap();
    println!(
        "Thm 3 (NFTA route) : {:.1}   [{} states, trees of size {}]",
        via_nfta.reliability.to_f64(),
        via_nfta.automaton_states,
        via_nfta.target_size
    );

    let exact_f = exact.to_f64();
    for (name, est) in [("NFA", &via_nfa.reliability), ("NFTA", &via_nfta.reliability)] {
        let rel = (est.to_f64() / exact_f - 1.0).abs();
        println!("{name} relative error : {rel:.4}");
        assert!(rel <= cfg.epsilon, "{name} estimate outside ε");
    }

    // Scale up: a larger instance far beyond brute force (2^60 worlds),
    // where only the FPRAS routes remain feasible.
    let big = generators::layered_graph_connected(5, 4, 0.6, &mut rng);
    let qb = shapes::path_query(5);
    println!("\nscaled-up instance: {} facts (2^{} subinstances)", big.len(), big.len());
    let est = ur_estimate(&qb, &big, &FprasConfig::with_epsilon(0.2).with_seed(1)).unwrap();
    println!(
        "UREstimate ≈ {}  in {:?} ({} automaton states)",
        est.reliability, est.elapsed, est.automaton_states
    );
}
