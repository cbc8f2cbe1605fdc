//! Road-network reliability: corner-to-corner reachability across a grid
//! of flaky road segments — graph reliability as a regular path query
//! over a probabilistic graph.
//!
//! Each road segment is open independently with a surveyed probability;
//! the query asks for the probability that *some* open route
//! `v0_0 -road*-> v{r}_{c}` exists. Exact evaluation is #P-hard (it
//! contains two-terminal network reliability), but on a DAG the RPQ
//! compiles to a product NFA whose string counts the CountNFA FPRAS
//! approximates in polynomial time.
//!
//! ```sh
//! cargo run --release --example road_network
//! ```

use pqe::automata::FprasConfig;
use pqe::core::{GraphMethod, GraphPlan, RoutedAnswer};
use pqe::graph::generators::road_grid;
use pqe::graph::{enumerate_probability, parse};
use pqe_rand::rngs::StdRng;
use pqe_rand::SeedableRng;

fn main() {
    let (rows, cols) = (3, 3);
    let mut rng = StdRng::seed_from_u64(2026);

    // Topology: rows × cols intersections, right/down road segments each
    // open with a random surveyed probability w/d, d ≤ 8.
    let g = road_grid(rows, cols, 8, &mut rng);
    println!(
        "network  : {rows}×{cols} grid, {} intersections, {} segments",
        g.num_vertices(),
        g.num_edges()
    );

    let rpq = parse(&format!("v0_0 -> road* -> v{}_{}", rows - 1, cols - 1)).unwrap();
    println!("query    : {rpq}");

    // Force the FPRAS so both engines run side by side (auto would route
    // this 12-edge instance to enumeration).
    let plan = GraphPlan::compile(&g, &rpq, GraphMethod::Fpras).expect("grid is a DAG");
    let cfg = FprasConfig::with_epsilon(0.1).with_seed(99);
    let RoutedAnswer::Estimate(report) = plan.execute(&cfg) else {
        unreachable!("forced fpras route");
    };
    let probability = report.probability;
    println!(
        "FPRAS    : route open with probability ≈ {:.6}  ({} product-NFA states, {:?})",
        probability.to_f64(),
        report.automaton_states,
        report.elapsed
    );

    if g.num_edges() <= 16 {
        let exact = enumerate_probability(&g, &rpq).unwrap();
        let rel = (probability.to_f64() / exact.to_f64() - 1.0).abs();
        println!("exact    : {:.6} = {exact}  (rel. error {rel:.4})", exact.to_f64());
    } else {
        println!("exact    : skipped ({0} segments ⇒ 2^{0} worlds)", g.num_edges());
    }
}
