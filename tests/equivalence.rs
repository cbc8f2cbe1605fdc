//! Differential equivalence suite for the FPRAS inner-loop rework.
//!
//! The sampling hot path was rebuilt around arena-allocated scratch state,
//! fixed-width (`u128`-first) run-count arithmetic, and batched per-index
//! RNG draws. None of that is allowed to be observable: this suite pins
//! the new path against the `PQE_SLOW_PATH` escape hatch
//! ([`pqe::arith::set_slow_path`]), which forces every [`pqe::arith::FixUint`]
//! into its `BigUint` representation at construction — the historical
//! arithmetic — and asserts bit-identical estimates per seed at 1/2/4/8
//! worker threads, plus scratch-pool-reuse invisibility and a shrinking
//! property over random query/db pairs.

use pqe::automata::FprasConfig;
use pqe::core::{pqe_estimate, ur_estimate};
use pqe::db::{generators, Database, ProbDatabase, Schema};
use pqe::query::shapes;
use pqe_rand::rngs::StdRng;
use pqe_rand::SeedableRng;
use pqe_testkit::prelude::*;
use std::sync::Mutex;

/// Serializes tests that toggle the global slow-path flag, so a "fast"
/// control run can never be silently flipped slow by a neighbour.
static FLAG_LOCK: Mutex<()> = Mutex::new(());

fn fixture() -> (pqe::query::ConjunctiveQuery, ProbDatabase) {
    let mut rng = StdRng::seed_from_u64(0xDE7E_4141);
    let db = generators::layered_graph_connected(3, 3, 0.7, &mut rng);
    let h = generators::with_random_probs(db, 6, &mut rng);
    (shapes::path_query(3), h)
}

#[test]
fn slow_path_matches_fast_path_bitwise_at_every_thread_count() {
    let _guard = FLAG_LOCK.lock().unwrap();
    let (q, h) = fixture();
    let db = h.database().clone();
    for seed in [0x5EEDu64, 0xBEEF, 7] {
        for threads in [1usize, 2, 4, 8] {
            let cfg = FprasConfig::with_epsilon(0.3)
                .with_seed(seed)
                .with_threads(threads);
            pqe::arith::set_slow_path(false);
            let fast_pqe = pqe_estimate(&q, &h, &cfg).unwrap();
            let fast_ur = ur_estimate(&q, &db, &cfg).unwrap();
            pqe::arith::set_slow_path(true);
            let slow_pqe = pqe_estimate(&q, &h, &cfg).unwrap();
            let slow_ur = ur_estimate(&q, &db, &cfg).unwrap();
            pqe::arith::set_slow_path(false);
            assert_eq!(
                fast_pqe.probability.to_string(),
                slow_pqe.probability.to_string(),
                "pqe route, seed={seed:#x}, threads={threads}"
            );
            assert_eq!(
                fast_ur.reliability.to_string(),
                slow_ur.reliability.to_string(),
                "ur route, seed={seed:#x}, threads={threads}"
            );
        }
    }
}

#[test]
fn scratch_pool_reuse_is_invisible() {
    // The thread-local scratch pool persists across estimates on one
    // thread: the second back-to-back run reuses the first run's arenas
    // (non-empty buffers, warmed memo capacity). A fresh thread starts
    // from an empty pool. All three must agree bit for bit.
    let (q, h) = fixture();
    let cfg = FprasConfig::with_epsilon(0.3).with_seed(0x5EED).with_threads(1);
    let first = pqe_estimate(&q, &h, &cfg).unwrap();
    let reused = pqe_estimate(&q, &h, &cfg).unwrap();
    assert_eq!(
        first.probability.to_string(),
        reused.probability.to_string(),
        "back-to-back estimates on one scratch pool"
    );
    let fresh = {
        let (q, h, cfg) = (q.clone(), h.clone(), cfg.clone());
        std::thread::spawn(move || pqe_estimate(&q, &h, &cfg).unwrap())
            .join()
            .unwrap()
    };
    assert_eq!(
        first.probability.to_string(),
        fresh.probability.to_string(),
        "fresh-pool run differs from warmed-pool run"
    );
    // Same invariant along the NFA (string automaton) route.
    let db = h.database().clone();
    let cfg = FprasConfig::with_epsilon(0.3).with_seed(0xBEEF).with_threads(1);
    let a = ur_estimate(&q, &db, &cfg).unwrap();
    let b = ur_estimate(&q, &db, &cfg).unwrap();
    assert_eq!(a.reliability.to_string(), b.reliability.to_string());
}

/// A random tiny layered instance for a path query of length `len` (the
/// `pipeline_properties` generator, kept in sync by hand).
fn tiny_instance(len: usize, edge_bits: u64, width: usize) -> Database {
    let rels: Vec<String> = (1..=len).map(|i| format!("R{i}")).collect();
    let schema = Schema::new(rels.iter().map(|r| (r.as_str(), 2)));
    let mut db = Database::new(schema);
    let mut bit = 0;
    for (i, rel) in rels.iter().enumerate() {
        for a in 0..width {
            for b in 0..width {
                if (edge_bits >> (bit % 64)) & 1 == 1 {
                    let src = format!("n{i}_{a}");
                    let dst = format!("n{}_{b}", i + 1);
                    db.add_fact(rel, &[&src, &dst]).unwrap();
                }
                bit += 1;
            }
        }
    }
    db
}

#[test]
fn slow_and_fast_paths_agree_on_random_instances() {
    // Shrinking property: on arbitrary tiny query/db pairs, the forced
    // BigUint-only arithmetic and the fixed-width fast path produce the
    // same digits at one and at two workers. A failure shrinks to the
    // smallest instance whose sampling walk ever branches on
    // representation.
    let cfg_prop = Config::cases(12).with_corpus("tests/corpus/equivalence.corpus");
    check(
        "slow_and_fast_paths_agree_on_random_instances",
        &cfg_prop,
        &(2usize..4, any::<u64>(), any::<u64>()),
        |&(len, edge_bits, seed)| {
            let db = tiny_instance(len, edge_bits, 2);
            prop_assume!(!db.is_empty() && db.len() <= 10);
            let mut rng = StdRng::seed_from_u64(seed);
            let h = generators::with_random_probs(db, 4, &mut rng);
            let q = shapes::path_query(len);
            let _guard = FLAG_LOCK.lock().unwrap();
            for threads in [1usize, 2] {
                let cfg = FprasConfig::with_epsilon(0.5)
                    .with_seed(seed)
                    .with_threads(threads);
                pqe::arith::set_slow_path(false);
                let fast = pqe_estimate(&q, &h, &cfg);
                pqe::arith::set_slow_path(true);
                let slow = pqe_estimate(&q, &h, &cfg);
                pqe::arith::set_slow_path(false);
                match (fast, slow) {
                    (Ok(f), Ok(s)) => prop_assert_eq!(
                        f.probability.to_string(),
                        s.probability.to_string()
                    ),
                    (f, s) => prop_assert!(
                        f.is_err() && s.is_err(),
                        "one path errored: fast {:?} slow {:?}",
                        f.is_err(),
                        s.is_err()
                    ),
                }
            }
            Ok(())
        },
    );
}
