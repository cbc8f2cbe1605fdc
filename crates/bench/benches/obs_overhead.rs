//! Observability overhead — the cost of running the full FPRAS with span
//! recording enabled versus disabled. The `pqe-obs` design budget is ≤5%
//! on a realistic estimate: spans sit at phase granularity (per rep, per
//! union call, resolved through a thread-local cache), never inside the
//! per-sample inner loops, which touch only sharded counters that are on
//! in both configurations.
//!
//! Run with `PQE_BENCH_JSON_DIR=. cargo bench --bench obs_overhead` to
//! also drop machine-readable `BENCH_obs.json` next to the invocation.
//!
//! Span-off and span-on samples alternate (one of each per round), so a
//! host that speeds up or slows down mid-run moves both sides of a pair
//! alike. The bench asserts the budget on the median of the paired
//! deltas: it exits non-zero if that overhead exceeds 5%.

use pqe_automata::FprasConfig;
use pqe_bench::path_workload;
use pqe_core::pqe_estimate;
use pqe_testkit::bench::{black_box, Runner};

fn main() {
    let mut r = Runner::new("obs");
    r.start();

    let w = path_workload(3, 3, 0.8, 710);
    let cfg = FprasConfig::with_epsilon(0.25).with_seed(72).with_threads(1);
    let estimate = |spans: bool| {
        pqe_obs::span::set_enabled(spans);
        black_box(pqe_estimate(&w.query, &w.h, &cfg).unwrap());
    };

    pqe_obs::span::reset();
    let pairs = r.bench_paired(
        ("estimate_obs_off", || estimate(false)),
        ("estimate_obs_on", || estimate(true)),
    );
    pqe_obs::span::set_enabled(false);

    // The budget is judged on the median of the per-round deltas; the
    // minima and medians of each side are reported for reference.
    let mut deltas: Vec<f64> = pairs.iter().map(|(off, on)| (on / off - 1.0) * 100.0).collect();
    deltas.sort_by(|a, b| a.total_cmp(b));
    let overhead_paired = deltas[deltas.len() / 2];
    let (off, on) = (&r.results()[0], &r.results()[1]);
    let overhead_min = (on.min_ns / off.min_ns - 1.0) * 100.0;
    let overhead_median = (on.median_ns / off.median_ns - 1.0) * 100.0;
    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    r.metric("overhead_paired_median_pct", round2(overhead_paired));
    r.metric("overhead_min_pct", round2(overhead_min));
    r.metric("overhead_median_pct", round2(overhead_median));

    r.finish();

    assert!(
        overhead_paired <= 5.0,
        "span recording cost {overhead_paired:.2}% (median of paired deltas) > 5% budget"
    );
    println!("  overhead within the 5% budget");
}
