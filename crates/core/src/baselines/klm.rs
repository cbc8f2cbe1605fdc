//! The Karp–Luby–Madras DNF estimator, run *lineage-free*.
//!
//! The classic approximate intensional approach applies Karp–Luby to the
//! materialized DNF lineage; we run it without materialization:
//!
//! 1. the total clause mass `S = Σ_w ∏_{f∈w} π(f)` and a clause sampler
//!    come from the decomposition DP ([`pqe_engine::sample::WitnessSampler`]);
//! 2. a world is drawn conditioned on the sampled clause being true;
//! 3. the number of clauses true in that world is a homomorphism count on
//!    the world — polynomial for bounded-width queries.
//!
//! Each sample is polynomial in combined complexity, but the estimator's
//! relative variance is `S / Pr(Q) = E[#true clauses | ≥ 1 true]`, which
//! grows **exponentially in `|Q|`** on dense instances — so Karp–Luby is
//! *not* a combined-complexity FPRAS, and the experiment suite measures
//! exactly that failure mode against the paper's tree-automata FPRAS.

use pqe_arith::{BigFloat, Rational};
use pqe_db::{worlds, ProbDatabase};
use pqe_engine::count_homomorphisms;
use pqe_engine::sample::WitnessSampler;
use pqe_query::ConjunctiveQuery;
use pqe_rand::rngs::StdRng;
use pqe_rand::SeedableRng;

/// Result of a Karp–Luby run.
#[derive(Debug, Clone)]
pub struct KarpLubyReport {
    /// The probability estimate.
    pub estimate: BigFloat,
    /// The exact total clause mass `S` (an upper bound on `Pr(Q)` by the
    /// union bound).
    pub clause_mass: Rational,
    /// Samples drawn.
    pub samples: usize,
    /// Mean observed number of true clauses per sampled world — the
    /// variance driver: the sample count needed for `(1±ε)` scales with
    /// this quantity.
    pub mean_true_clauses: f64,
}

/// Approximates `Pr_H(Q)` with `samples` Karp–Luby draws, seeded
/// deterministically.
///
/// Returns an exact `0` when `D ⊭ Q` (no clauses).
pub fn karp_luby_pqe(
    q: &ConjunctiveQuery,
    h: &ProbDatabase,
    samples: usize,
    seed: u64,
) -> KarpLubyReport {
    assert!(samples > 0, "need at least one sample");
    let db = h.database();
    let weight = |_: usize, f: pqe_db::FactId| h.prob(f).clone();
    let sampler = WitnessSampler::new(q, db, &weight);
    let s_mass = sampler.total_mass().clone();
    if s_mass.is_zero() {
        return KarpLubyReport {
            estimate: BigFloat::zero(),
            clause_mass: s_mass,
            samples: 0,
            mean_true_clauses: 0.0,
        };
    }

    // Trial `i` draws from its own RNG stream, `i` jumps past `seed`
    // (derived incrementally — one jump per index), so the estimate is
    // bit-identical for a fixed seed at any thread count.
    let threads = pqe_par::default_threads();
    let mut head = StdRng::seed_from_u64(seed);
    let rngs: Vec<StdRng> = (0..samples)
        .map(|_| {
            let r = head.clone();
            head.jump();
            r
        })
        .collect();
    let draw = |mut rng: StdRng| -> (f64, f64) {
        // Sample a clause ∝ its weight, then a world ⊇ clause.
        let clause = sampler.sample(q, &mut rng);
        let mut world = worlds::sample_world(h, &mut rng);
        for &f in &clause {
            world[f.index()] = true;
        }
        let sub = db.subinstance(&world);
        // Number of clauses true in this world (≥ 1: the sampled one).
        let n = count_homomorphisms(q, &sub).to_f64().max(1.0);
        (1.0 / n, n)
    };
    let vals = pqe_par::map_chunks(threads, samples, 16, |r| {
        r.map(|i| draw(rngs[i].clone())).collect()
    });
    let mut inv_sum = 0.0f64;
    let mut true_clause_sum = 0.0f64;
    for (inv, n) in vals {
        // Summed in sample-index order: deterministic.
        inv_sum += inv;
        true_clause_sum += n;
    }
    let estimate = BigFloat::from_rational(&s_mass) * (inv_sum / samples as f64);
    KarpLubyReport {
        estimate,
        clause_mass: s_mass,
        samples,
        mean_true_clauses: true_clause_sum / samples as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::brute_force_pqe;
    use pqe_db::generators;
    use pqe_query::shapes;
    use pqe_rand::rngs::StdRng;
    use pqe_rand::SeedableRng;

    #[test]
    fn converges_to_brute_force() {
        let mut rng = StdRng::seed_from_u64(41);
        let db = generators::layered_graph_connected(3, 2, 0.6, &mut rng);
        let h = generators::with_random_probs(db, 5, &mut rng);
        let q = shapes::path_query(3);
        let exact = brute_force_pqe(&q, &h);
        let report = karp_luby_pqe(&q, &h, 4000, 7);
        let rel = report
            .estimate
            .relative_error_to(&BigFloat::from_rational(&exact));
        assert!(
            rel < 0.1,
            "exact {exact}, estimate {}, rel {rel}",
            report.estimate
        );
    }

    #[test]
    fn unsatisfiable_returns_zero() {
        let mut rng = StdRng::seed_from_u64(42);
        let db = generators::layered_graph(3, 2, 0.0, &mut rng); // no edges
        let h = generators::with_uniform_probs(db, Rational::from_ratio(1, 2));
        let q = shapes::path_query(3);
        let report = karp_luby_pqe(&q, &h, 100, 1);
        assert!(report.estimate.is_zero());
    }

    #[test]
    fn clause_mass_upper_bounds_probability() {
        let mut rng = StdRng::seed_from_u64(43);
        let db = generators::layered_graph_connected(2, 2, 0.8, &mut rng);
        let h = generators::with_random_probs(db, 4, &mut rng);
        let q = shapes::path_query(2);
        let mass = karp_luby_pqe(&q, &h, 1, 3).clause_mass;
        let exact = brute_force_pqe(&q, &h);
        assert!(mass >= exact, "union bound violated: {mass} < {exact}");
    }

    #[test]
    fn mean_true_clauses_grows_with_density() {
        // Denser instances have more simultaneously-true clauses — the
        // variance driver the report exposes.
        let mut rng = StdRng::seed_from_u64(44);
        let sparse = generators::layered_graph_connected(3, 2, 0.3, &mut rng);
        let dense = generators::layered_graph(3, 4, 1.0, &mut rng);
        let q = shapes::path_query(3);
        let hs = generators::with_uniform_probs(sparse, Rational::from_ratio(9, 10));
        let hd = generators::with_uniform_probs(dense, Rational::from_ratio(9, 10));
        let rs = karp_luby_pqe(&q, &hs, 300, 5);
        let rd = karp_luby_pqe(&q, &hd, 300, 5);
        assert!(rd.mean_true_clauses > rs.mean_true_clauses);
    }
}
