//! The metric catalogue: every name the ledger emits, with its unit.
//! `BENCHMARK.json` lists the same names (the smoke test checks that).

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload on untraced runs, with
/// times in reference-speed units (see `speed`). Batch workloads time one
/// answered query per op; the serve workloads report their `lo`-rate
/// open-loop windows for latency and their closed-loop saturation windows
/// for throughput, as medians over the windows. The typical latency is the
/// first quartile, not the median: `serve_update`'s median falls into the
/// gap between answers served without sampling (under 1 ms) and recounts
/// (over 5 ms), where it jumps from seed to seed.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p25_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload on traced runs; a layer
/// the workload never reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("query.parse_us", "us"),
    ("core.classify_us", "us"),
    ("core.lifted_us", "us"),
    ("db.load_ms", "ms"),
    ("graph.load_ms", "ms"),
    ("graph.parse_us", "us"),
    ("core.compile_ms", "ms"),
    ("core.ur_automaton_ms", "ms"),
    ("automata.translate_ms", "ms"),
    ("automata.multipliers_ms", "ms"),
    ("automata.translate_gadgets_ms", "ms"),
    ("automata.execute_ms", "ms"),
    ("automata.union_mc_self_ms", "ms"),
    ("automata.execute_unattributed_ms", "ms"),
    ("automata.samples", "count"),
    ("automata.sample_tries", "count"),
    ("automata.member_checks", "count"),
    ("automata.union_ests", "count"),
    ("automata.states", "count"),
    ("automata.transitions", "count"),
    ("automata.accept_ratio", "ratio"),
    ("automata.max_rel_err_over_eps", "ratio"),
    ("automata.nfa_count_ms", "ms"),
    ("graph.compile_ms", "ms"),
    ("graph.enum_ms", "ms"),
    ("graph.product_states", "count"),
    ("par.busy_ratio", "ratio"),
    ("lo.latency_p50_ms", "ms"),
    ("lo.latency_p95_ms", "ms"),
    ("hi.latency_p50_ms", "ms"),
    ("hi.latency_p95_ms", "ms"),
    ("update.latency_p90_ms", "ms"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.server_us.p50", "us"),
    ("serve.server_us.p99", "us"),
    ("serve.wire_us.p50", "us"),
    ("serve.plan_hit_rate", "ratio"),
    ("serve.memo_hit_rate", "ratio"),
    ("serve.evictions", "count"),
    ("serve.executions", "count"),
    ("serve.queue_rejected", "count"),
    ("serve.memo_hit.latency_p50_ms", "ms"),
    ("serve.count.latency_p50_ms", "ms"),
    ("serve.cold.latency_p50_ms", "ms"),
    ("serve.invalidated.latency_p50_ms", "ms"),
    ("delta.applied", "count"),
    ("router.refresh.incremental", "count"),
    ("router.refresh.recompiled", "count"),
    ("serve.delta.invalidated_plans", "count"),
    ("serve.delta.kept_plans", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("loadgen.lateness_p99_ms", "ms"),
];

/// Metric values collected by one workload run.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the metric catalogue"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The catalogue entries of `set` in catalogue order, unreached layers
    /// as 0 (end-to-end metrics are always measured).
    pub fn select(
        &self,
        set: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        set.iter()
            .map(|&(n, u)| (n, self.get(n).unwrap_or(0.0), u))
            .collect()
    }
}
