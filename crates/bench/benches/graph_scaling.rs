//! E15 (graph axis) — the two graph-reliability engines head to head.
//!
//! Part 1 (crossover): on 2×c uniform road grids small enough for both
//! engines (m = 3c−2 ≤ 16 edges), wall-clock of exact world enumeration
//! (a pruned edge-factoring search, exponential in the worst case)
//! against the compiled FPRAS (polynomial). The derived
//! `e15_crossover_edges` metric records the first size where the FPRAS
//! is faster, or NaN when enumeration stays ahead up to the bound.
//!
//! Part 2 (scale): FPRAS-only corner-to-corner reliability on n×n uniform
//! grids up to ≥10³ edges — sizes where 2^m enumeration is physically
//! impossible (2^1012 worlds) but the product-NFA route keeps polynomial
//! wall-clock.
//!
//! Run with `PQE_BENCH_JSON_DIR=. cargo bench --bench graph_scaling` to
//! also drop machine-readable `BENCH_graph.json` next to the invocation.

use pqe_automata::FprasConfig;
use pqe_core::{GraphMethod, GraphPlan};
use pqe_graph::generators::road_grid_uniform;
use pqe_graph::{enumerate_probability, parse};
use pqe_testkit::bench::{black_box, Runner};

fn main() {
    let mut r = Runner::new("graph");
    r.start();

    // Part 1 — crossover on 2×c grids (m = 3c−2 edges, all within the
    // enumeration bound).
    for cols in [2usize, 3, 4, 5, 6] {
        let g = road_grid_uniform(2, cols);
        let m = g.num_edges();
        let rpq = parse(&format!("v0_0 -> road* -> v1_{}", cols - 1)).unwrap();
        r.bench(format!("e15_enum/m{m}"), || {
            black_box(enumerate_probability(&g, &rpq).unwrap());
        });
        let plan = GraphPlan::compile(&g, &rpq, GraphMethod::Fpras).unwrap();
        let cfg = FprasConfig::with_epsilon(0.3).with_seed(15);
        r.bench(format!("e15_fpras/m{m}"), || {
            black_box(plan.execute(&cfg));
        });
    }

    // Derived crossover row: smallest edge count where the FPRAS median
    // beats enumeration (enumeration's cost grows exponentially, so once
    // it loses on these grids it does not recover).
    let results = r.results().to_vec();
    let median = |name: &str| results.iter().find(|s| s.name == name).map(|s| s.median_ns);
    let crossover = [4usize, 7, 10, 13, 16].into_iter().find(|m| {
        matches!(
            (median(&format!("e15_enum/m{m}")), median(&format!("e15_fpras/m{m}"))),
            (Some(e), Some(f)) if f < e
        )
    });
    if let Some(m) = crossover {
        println!("  crossover: FPRAS overtakes enumeration at m = {m} edges");
        r.metric("e15_crossover_edges", m as f64);
    } else {
        println!("  crossover: enumeration still ahead at m = 16 (see BENCH_graph.json)");
        r.metric("e15_crossover_edges", f64::NAN);
    }

    // Part 2 — FPRAS scale sweep to ≥10³ edges (2n(n−1) edges on an n×n
    // grid; n = 23 → 1012 edges → 2^1012 worlds, far beyond enumeration).
    // `PQE_BENCH_GRAPH_MAX_EDGES` truncates the sweep for CI smoke runs —
    // skipped sizes are reported, never silently dropped.
    let max_edges: usize = std::env::var("PQE_BENCH_GRAPH_MAX_EDGES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX);
    for n in [4usize, 8, 16, 23] {
        let g = road_grid_uniform(n, n);
        let m = g.num_edges();
        if m > max_edges {
            println!("  e15_fpras_scale/m{m}: skipped (> PQE_BENCH_GRAPH_MAX_EDGES = {max_edges})");
            continue;
        }
        let rpq = parse(&format!("v0_0 -> road* -> v{}_{}", n - 1, n - 1)).unwrap();
        let plan = GraphPlan::compile(&g, &rpq, GraphMethod::Fpras).unwrap();
        let cfg = FprasConfig::with_epsilon(0.5).with_seed(15).with_threads(4);
        r.bench(format!("e15_fpras_scale/m{m}"), || {
            black_box(plan.execute(&cfg));
        });
        r.metric(format!("e15_product_states/m{m}"), plan.automaton_states() as f64);
    }

    r.finish();
}
