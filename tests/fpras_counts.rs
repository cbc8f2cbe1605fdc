//! The `fpras.*` sampling counters of one golden `pqe_estimate` run, pinned.
//!
//! The counters are process-wide, so this file is its own test binary and
//! holds a single test. The pinned totals say how much sampling the
//! estimator does: the number of union samples and SIR candidate draws,
//! membership checks and union estimates. An optimisation of the exact
//! work inside a sample (run counts, acceptance checks) must leave every
//! one of them unchanged, along with the golden digits.

use pqe::automata::FprasConfig;
use pqe::core::pqe_estimate;
use pqe::db::generators;
use pqe::query::shapes;
use pqe_rand::rngs::StdRng;
use pqe_rand::SeedableRng;

/// The fixture and seed of `tests/determinism.rs`'s golden digits.
fn fixture() -> (pqe::query::ConjunctiveQuery, pqe::db::ProbDatabase) {
    let mut rng = StdRng::seed_from_u64(0xDE7E_4141);
    let db = generators::layered_graph_connected(3, 3, 0.7, &mut rng);
    let h = generators::with_random_probs(db, 6, &mut rng);
    (shapes::path_query(3), h)
}

/// `[samples, sample_tries, member_checks, union_ests]` so far.
fn counters() -> [u64; 4] {
    ["fpras.samples", "fpras.sample_tries", "fpras.member_checks", "fpras.union_ests"]
        .map(|name| pqe_obs::metrics::counter(name).get())
}

#[test]
fn golden_estimate_sampling_counts_are_pinned() {
    let (q, h) = fixture();
    // The counts are a function of the seed alone, like the digits.
    for threads in [1usize, 2, 4] {
        let before = counters();
        let cfg = FprasConfig::with_epsilon(0.3).with_seed(0x5EED).with_threads(threads);
        let pqe = pqe_estimate(&q, &h, &cfg).unwrap();
        assert_eq!(pqe.probability.to_string(), "8.589671e-1");
        let after = counters();
        let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(delta, [2089, 7094, 2089, 3455], "threads={threads}");
    }
}
