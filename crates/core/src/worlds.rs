//! Sampling possible worlds *conditioned on the query holding*.
//!
//! The CountNFTA machinery is a counting/sampling pair (Arenas et al.'s
//! result covers uniform generation too): a near-uniform sample from
//! `L_k(T)` decodes — through the Proposition 1 bijection — into a
//! subinstance `D' ⊨ Q`. This module exposes both directions the paper's
//! constructions support:
//!
//! * [`UniformWorldSampler`] — near-uniform satisfying subinstances of `D`
//!   (the sampling companion of `UREstimate`);
//! * [`WeightedWorldSampler`] — satisfying subinstances of `H = (D, π)`
//!   drawn with probability ≈ `Pr_H(D') / Pr_H(Q)` (the gadget paths of
//!   §5.2 weight each tree by `∏ w_f ∏ (d_f − w_f)`, so uniform trees are
//!   weighted worlds).
//!
//! Conditioned sampling is the workhorse of downstream tasks the paper's
//! introduction motivates (think: "show me likely repairs in which the
//! query is satisfied") and is intractable by rejection when `Pr_H(Q)` is
//! small.

use crate::reductions::{build_pqe_automaton, build_ur_automaton, ReductionError, UrAutomaton};
use crate::{check_arities, EstimateError};
use pqe_automata::{Ambiguity, FprasConfig, Nfta, NftaCounter, RunTables, SymbolId};
use pqe_db::{Database, FactId, ProbDatabase};
use pqe_query::ConjunctiveQuery;
use std::collections::HashMap;

/// What both samplers share: the automaton whose accepted trees encode the
/// satisfying subinstances, its run tables and ambiguity analysis (built
/// once, shared by every draw), and the decoding from trees to worlds.
struct Conditioned {
    nfta: Nfta,
    runs: RunTables,
    ambiguity: Ambiguity,
    /// Positive fact symbols of the *projected* database → fact ids of the
    /// original one.
    by_symbol: HashMap<SymbolId, FactId>,
    /// Facts over relations not mentioned by `Q`: unconstrained.
    free_facts: Vec<FactId>,
    cfg: FprasConfig,
}

impl Conditioned {
    /// Checks the query's arities against `db`'s schema, then runs
    /// `reduce`: the Proposition 1 or Theorem 1 reduction of `(q, db)`,
    /// returning the automaton to sample from, its target size and the
    /// Proposition 1 automaton it was built on.
    fn new(
        q: &ConjunctiveQuery,
        db: &Database,
        cfg: FprasConfig,
        reduce: impl FnOnce() -> Result<(Nfta, usize, UrAutomaton), ReductionError>,
    ) -> Result<Self, EstimateError> {
        check_arities(q, db.schema())?;
        let (nfta, target_size, ur) = reduce()?;
        // Projected fact ids back to original ids, by fact value.
        let back: Vec<FactId> = ur
            .projected
            .fact_ids()
            .map(|pf| {
                db.fact_id(ur.projected.fact(pf))
                    .expect("projected fact exists in the original database")
            })
            .collect();
        let by_symbol = ur
            .fact_symbols
            .iter()
            .copied()
            .zip(back.iter().copied())
            .collect();
        let covered: std::collections::BTreeSet<FactId> = back.into_iter().collect();
        let free_facts = db.fact_ids().filter(|f| !covered.contains(f)).collect();
        let runs = RunTables::new(&nfta, target_size);
        let ambiguity = Ambiguity::new(&nfta, cfg.naive_unions);
        Ok(Conditioned {
            nfta,
            runs,
            ambiguity,
            by_symbol,
            free_facts,
            cfg,
        })
    }

    /// A fresh counter seeded from the caller's RNG: the sampler's
    /// randomness stays under the caller's control.
    fn counter<R: pqe_rand::Rng + ?Sized>(&self, rng: &mut R) -> NftaCounter<'_> {
        NftaCounter::new(
            &self.nfta,
            &self.runs,
            &self.ambiguity,
            self.cfg.clone().with_seed(rng.random()),
        )
    }

    /// Draws one satisfying world over `num_facts` facts: an accepted tree
    /// decoded into the facts whose positive symbol it contains (padding
    /// and gadget-bit symbols are skipped), then every free fact `f`
    /// present with probability `coin(f)`. `None` iff no subinstance
    /// satisfies `Q`.
    fn draw<R: pqe_rand::Rng + ?Sized>(
        &self,
        counter: &NftaCounter<'_>,
        rng: &mut R,
        num_facts: usize,
        coin: impl Fn(FactId) -> f64,
    ) -> Option<Vec<bool>> {
        let tree = counter.sample_tree(rng)?;
        let mut world = vec![false; num_facts];
        for sym in tree.labels_preorder() {
            if let Some(&f) = self.by_symbol.get(&sym) {
                world[f.index()] = true;
            }
        }
        for &f in &self.free_facts {
            world[f.index()] = rng.random_bool(coin(f));
        }
        Some(world)
    }
}

/// Near-uniform sampler over `{D' ⊆ D : D' ⊨ Q}`.
///
/// Facts over relations not mentioned by `Q` are unconstrained and are
/// sampled as independent fair coins, matching the uniform distribution
/// over satisfying subinstances of the *full* database.
pub struct UniformWorldSampler<'a> {
    db: &'a Database,
    inner: Conditioned,
}

impl<'a> UniformWorldSampler<'a> {
    /// Builds the sampler (checks the query's arities against the schema,
    /// runs the Proposition 1 reduction and builds the exact run tables and
    /// ambiguity analysis once).
    pub fn new(
        q: &ConjunctiveQuery,
        db: &'a Database,
        cfg: FprasConfig,
    ) -> Result<Self, EstimateError> {
        let inner = Conditioned::new(q, db, cfg, || {
            let ur = build_ur_automaton(q, db)?;
            let (nfta, _) = ur.aug.translate();
            Ok((nfta, ur.target_size, ur))
        })?;
        Ok(UniformWorldSampler { db, inner })
    }

    /// Draws one satisfying subinstance (inclusion vector indexed by
    /// [`FactId`]); `None` iff no subinstance satisfies `Q`. Each call
    /// builds a fresh estimate table; for repeated sampling use
    /// [`sample_batch`](UniformWorldSampler::sample_batch).
    pub fn sample<R: pqe_rand::Rng + ?Sized>(&self, rng: &mut R) -> Option<Vec<bool>> {
        let counter = self.inner.counter(rng);
        self.inner.draw(&counter, rng, self.db.len(), |_| 0.5)
    }

    /// Draws `count` worlds reusing one estimate table (much faster than
    /// repeated [`UniformWorldSampler::sample`] calls).
    pub fn sample_batch<R: pqe_rand::Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
    ) -> Vec<Vec<bool>> {
        let counter = self.inner.counter(rng);
        (0..count)
            .filter_map(|_| self.inner.draw(&counter, rng, self.db.len(), |_| 0.5))
            .collect()
    }
}

/// Sampler over satisfying subinstances of a probabilistic database,
/// weighted by world probability: `P(D') ≈ Pr_H(D') / Pr_H(Q)`.
pub struct WeightedWorldSampler<'a> {
    h: &'a ProbDatabase,
    inner: Conditioned,
}

impl<'a> WeightedWorldSampler<'a> {
    /// Builds the sampler (checks the query's arities against the schema,
    /// runs the Theorem 1 reduction and builds the exact run tables and
    /// ambiguity analysis once).
    pub fn new(
        q: &ConjunctiveQuery,
        h: &'a ProbDatabase,
        cfg: FprasConfig,
    ) -> Result<Self, EstimateError> {
        let inner = Conditioned::new(q, h.database(), cfg, || {
            let pqe = build_pqe_automaton(q, h)?;
            Ok((pqe.nfta, pqe.target_size, pqe.ur))
        })?;
        Ok(WeightedWorldSampler { h, inner })
    }

    /// Draws `count` worlds with one shared estimate table.
    pub fn sample_batch<R: pqe_rand::Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
    ) -> Vec<Vec<bool>> {
        let counter = self.inner.counter(rng);
        // Unconstrained facts keep their own independent law.
        let coin = |f| self.h.prob(f).to_f64().clamp(0.0, 1.0);
        (0..count)
            .filter_map(|_| self.inner.draw(&counter, rng, self.h.len(), coin))
            .collect()
    }

    /// Estimates the *conditional marginals* `P(f ∈ D' | D' ⊨ Q)` for every
    /// fact, from `count` conditioned samples — the per-fact "output
    /// probability attribution" a probabilistic-database UI would display.
    /// Returns `None` if `Pr_H(Q) = 0` (nothing to condition on).
    pub fn marginals<R: pqe_rand::Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
    ) -> Option<Vec<f64>> {
        let samples = self.sample_batch(count, rng);
        if samples.is_empty() {
            return None;
        }
        let n = samples.len() as f64;
        let mut acc = vec![0usize; self.h.len()];
        for w in &samples {
            for (slot, &present) in acc.iter_mut().zip(w.iter()) {
                if present {
                    *slot += 1;
                }
            }
        }
        Some(acc.into_iter().map(|c| c as f64 / n).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::brute_force_pqe;
    use pqe_arith::Rational;
    use pqe_db::{worlds, Schema};
    use pqe_engine::eval_boolean;
    use pqe_query::shapes;
    use pqe_rand::rngs::StdRng;
    use pqe_rand::SeedableRng;
    use std::collections::HashMap as StdMap;

    fn two_path_db() -> Database {
        let mut db = Database::new(Schema::new([("R1", 2), ("R2", 2)]));
        db.add_fact("R1", &["a", "b"]).unwrap();
        db.add_fact("R2", &["b", "c"]).unwrap();
        db.add_fact("R2", &["b", "d"]).unwrap();
        db
    }

    #[test]
    fn uniform_samples_satisfy_query() {
        let db = two_path_db();
        let q = shapes::path_query(2);
        let cfg = FprasConfig::with_epsilon(0.2).with_seed(1);
        let sampler = UniformWorldSampler::new(&q, &db, cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for world in sampler.sample_batch(200, &mut rng) {
            let sub = db.subinstance(&world);
            assert!(eval_boolean(&q, &sub), "sampled world violates Q");
        }
    }

    #[test]
    fn uniform_sampler_covers_all_satisfying_worlds_near_uniformly() {
        let db = two_path_db();
        let q = shapes::path_query(2);
        // Ground truth: 3 satisfying subinstances.
        let satisfying: Vec<Vec<bool>> = worlds::enumerate(db.len())
            .filter(|w| eval_boolean(&q, &db.subinstance(w)))
            .collect();
        assert_eq!(satisfying.len(), 3);

        let cfg = FprasConfig::with_epsilon(0.1).with_seed(2);
        let sampler = UniformWorldSampler::new(&q, &db, cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut counts: StdMap<Vec<bool>, usize> = StdMap::new();
        let n = 3000;
        for world in sampler.sample_batch(n, &mut rng) {
            *counts.entry(world).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 3, "all satisfying worlds reachable");
        for (world, c) in &counts {
            let freq = *c as f64 / n as f64;
            assert!(
                (freq - 1.0 / 3.0).abs() < 0.07,
                "world {world:?} frequency {freq}"
            );
        }
    }

    #[test]
    fn weighted_sampler_matches_conditional_distribution() {
        let db = two_path_db();
        let probs = vec![
            Rational::from_ratio(1, 2),
            Rational::from_ratio(4, 5), // R2(b,c) likely
            Rational::from_ratio(1, 5), // R2(b,d) unlikely
        ];
        let h = ProbDatabase::with_probs(db.clone(), probs).unwrap();
        let q = shapes::path_query(2);
        let pr_q = brute_force_pqe(&q, &h);

        let cfg = FprasConfig::with_epsilon(0.1).with_seed(3);
        let sampler = WeightedWorldSampler::new(&q, &h, cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 4000;
        let samples = sampler.sample_batch(n, &mut rng);
        assert!(samples.len() >= n * 9 / 10);

        // Check the marginal P(R2(b,c) ∈ D' | Q) against exact arithmetic.
        let marginal_exact = {
            let mut mass = Rational::zero();
            for w in worlds::enumerate(db.len()) {
                if w[1] && eval_boolean(&q, &db.subinstance(&w)) {
                    mass = &mass + &h.world_prob(&w);
                }
            }
            (&mass / &pr_q).to_f64()
        };
        let marginal_sampled =
            samples.iter().filter(|w| w[1]).count() as f64 / samples.len() as f64;
        assert!(
            (marginal_sampled - marginal_exact).abs() < 0.05,
            "exact {marginal_exact}, sampled {marginal_sampled}"
        );
    }

    #[test]
    fn free_facts_get_independent_coins() {
        let mut full = Database::new(Schema::new([("R1", 2), ("R2", 2), ("Z", 1)]));
        for (rel, a, b) in [
            ("R1", "a", "b"),
            ("R2", "b", "c"),
            ("R2", "b", "d"),
            ("R2", "x", "y"),
        ] {
            full.add_fact(rel, &[a, b]).unwrap();
        }
        full.add_fact("Z", &["free"]).unwrap();
        let q = shapes::path_query(2);
        let cfg = FprasConfig::with_epsilon(0.2).with_seed(4);
        let sampler = UniformWorldSampler::new(&q, &full, cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let samples = sampler.sample_batch(800, &mut rng);
        let z_idx = full.len() - 1;
        let frac = samples.iter().filter(|w| w[z_idx]).count() as f64 / samples.len() as f64;
        assert!((frac - 0.5).abs() < 0.08, "free fact frequency {frac}");
    }

    #[test]
    fn marginals_match_exact_conditionals() {
        let db = two_path_db();
        let probs = vec![
            Rational::from_ratio(1, 2),
            Rational::from_ratio(4, 5),
            Rational::from_ratio(1, 5),
        ];
        let h = ProbDatabase::with_probs(db.clone(), probs).unwrap();
        let q = shapes::path_query(2);
        let pr_q = brute_force_pqe(&q, &h);
        let sampler =
            WeightedWorldSampler::new(&q, &h, FprasConfig::with_epsilon(0.1).with_seed(11))
                .unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let marginals = sampler.marginals(4000, &mut rng).unwrap();
        for f in db.fact_ids() {
            let mut joint = Rational::zero();
            for w in worlds::enumerate(db.len()) {
                if w[f.index()] && eval_boolean(&q, &db.subinstance(&w)) {
                    joint = &joint + &h.world_prob(&w);
                }
            }
            let exact = (&joint / &pr_q).to_f64();
            assert!(
                (marginals[f.index()] - exact).abs() < 0.05,
                "fact {f}: sampled {} vs exact {exact}",
                marginals[f.index()]
            );
        }
        // The witness R fact is certain given Q.
        assert!((marginals[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unsatisfiable_query_yields_no_samples() {
        let mut db = Database::new(Schema::new([("R1", 2), ("R2", 2)]));
        db.add_fact("R1", &["a", "b"]).unwrap();
        db.add_fact("R2", &["x", "y"]).unwrap();
        let q = shapes::path_query(2);
        let cfg = FprasConfig::with_epsilon(0.2).with_seed(5);
        let sampler = UniformWorldSampler::new(&q, &db, cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        assert!(sampler.sample(&mut rng).is_none());
        assert!(sampler.sample_batch(10, &mut rng).is_empty());
    }

    #[test]
    fn arity_mismatched_query_is_refused() {
        let mut db = Database::new(Schema::new([("R", 3), ("S", 2)]));
        db.add_fact("R", &["a", "b", "c"]).unwrap();
        db.add_fact("S", &["b", "c"]).unwrap();
        let h = ProbDatabase::uniform(db.clone(), Rational::from_ratio(1, 2));
        let q = pqe_query::parse("R(x,y), S(y,z)").unwrap();
        let cfg = FprasConfig::with_epsilon(0.2).with_seed(1);
        assert!(matches!(
            UniformWorldSampler::new(&q, &db, cfg.clone()),
            Err(EstimateError::Arity(_))
        ));
        assert!(matches!(
            WeightedWorldSampler::new(&q, &h, cfg),
            Err(EstimateError::Arity(_))
        ));
    }
}
