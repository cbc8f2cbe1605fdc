//! Zero-dependency observability for the PQE workspace.
//!
//! The paper's headline claim is a *runtime bound* — `poly(|Q|, |H|, ε⁻¹)`
//! through a chain of reductions — so the repo needs to attribute
//! wall-clock to individual phases (compile vs. count, serve read/eval/
//! write), not just whole commands. This crate provides that with `std`
//! alone, in keeping with the workspace's hermetic dependency policy:
//!
//! * [`span`] — RAII guards recording hierarchical phase timings into a
//!   global thread-safe registry. Span identity is the *name path*
//!   (`(parent, name)`), never the thread, so trees are identical at any
//!   worker count; `pqe-par` workers adopt their spawner's span context
//!   via [`span::current_context`] / [`span::enter_context`].
//! * [`metrics`] — named counters, gauges and log-linear histograms
//!   (p50/p95/p99) behind sharded atomics: hot sample loops pay one
//!   relaxed atomic add, never a lock. A [`metrics::Registry`] is a
//!   value (each `pqe-serve` server owns one); the free functions
//!   address the process-wide default registry.
//! * [`log`] — optional event logging to stderr, gated by the `PQE_LOG`
//!   environment variable (`off`/`error`/`warn`/`info`/`debug`/`trace`).
//!
//! **Determinism contract**: nothing in this crate touches RNG streams or
//! feeds back into estimator control flow. Estimates are bit-identical
//! with profiling enabled vs. compiled-in-but-idle (asserted in
//! `tests/determinism.rs`). When profiling is disabled (the default),
//! a span entry/exit costs a single relaxed atomic load.

pub mod log;
pub mod metrics;
pub mod span;

use std::sync::OnceLock;
use std::time::Instant;

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// The instant this process first touched `pqe-obs` (lazily initialised;
/// call early — e.g. from `main` — for a faithful process start).
pub fn process_start() -> Instant {
    *PROCESS_START.get_or_init(Instant::now)
}

/// Whole seconds elapsed since [`process_start`].
pub fn uptime_seconds() -> u64 {
    process_start().elapsed().as_secs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_start_is_stable() {
        let a = process_start();
        let b = process_start();
        assert_eq!(a, b);
        // uptime is monotone, non-panicking
        let _ = uptime_seconds();
    }
}
