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

use crate::reductions::{build_pqe_automaton, build_ur_automaton};
use crate::{check_arities, EstimateError};
use pqe_automata::{Ambiguity, FprasConfig, Nfta, NftaCounter, RunTables, SymbolId, Tree};
use pqe_db::{Database, FactId, ProbDatabase};
use pqe_query::ConjunctiveQuery;
use std::collections::HashMap;

/// Decodes an accepted tree into the subinstance it encodes: facts whose
/// positive symbol appears in the tree are present; padding and gadget-bit
/// symbols are skipped. `by_symbol` maps positive fact symbols of the
/// *projected* database back to fact ids of the original one.
fn decode_tree(
    tree: &Tree,
    by_symbol: &HashMap<SymbolId, FactId>,
    num_facts: usize,
) -> Vec<bool> {
    let mut world = vec![false; num_facts];
    for sym in tree.labels_preorder() {
        if let Some(&f) = by_symbol.get(&sym) {
            world[f.index()] = true;
        }
    }
    world
}

/// Maps projected fact ids back to original ids by fact value.
fn back_map(original: &Database, projected: &Database) -> Vec<FactId> {
    projected
        .fact_ids()
        .map(|pf| {
            original
                .fact_id(projected.fact(pf))
                .expect("projected fact exists in the original database")
        })
        .collect()
}

/// Near-uniform sampler over `{D' ⊆ D : D' ⊨ Q}`.
///
/// Facts over relations not mentioned by `Q` are unconstrained and are
/// sampled as independent fair coins, matching the uniform distribution
/// over satisfying subinstances of the *full* database.
pub struct UniformWorldSampler<'a> {
    db: &'a Database,
    nfta: Nfta,
    /// Exact run tables of `nfta` at the target size, built once and
    /// shared by every draw.
    runs: RunTables,
    /// Ambiguity analysis of `nfta`, built once like `runs`.
    ambiguity: Ambiguity,
    by_symbol: HashMap<SymbolId, FactId>,
    free_facts: Vec<FactId>,
    cfg: FprasConfig,
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
        check_arities(q, db.schema())?;
        let ur = build_ur_automaton(q, db)?;
        let (nfta, _) = ur.aug.translate();
        let back = back_map(db, &ur.projected);
        let by_symbol: HashMap<SymbolId, FactId> = ur
            .fact_symbols
            .iter()
            .enumerate()
            .map(|(pf, &sym)| (sym, back[pf]))
            .collect();
        let covered: std::collections::BTreeSet<FactId> = back.iter().copied().collect();
        let free_facts = db.fact_ids().filter(|f| !covered.contains(f)).collect();
        let runs = RunTables::new(&nfta, ur.target_size);
        let ambiguity = Ambiguity::new(&nfta, cfg.naive_unions);
        Ok(UniformWorldSampler {
            db,
            nfta,
            runs,
            ambiguity,
            by_symbol,
            free_facts,
            cfg,
        })
    }

    /// Draws one satisfying subinstance (inclusion vector indexed by
    /// [`FactId`]); `None` iff no subinstance satisfies `Q`.
    pub fn sample<R: pqe_rand::Rng + ?Sized>(&self, rng: &mut R) -> Option<Vec<bool>> {
        // A fresh counter seeded from the caller's RNG keeps the sampler's
        // randomness under the caller's control while reusing estimates is
        // the counter's job; for repeated sampling use `sample_batch`.
        let counter = NftaCounter::new(
            &self.nfta,
            &self.runs,
            &self.ambiguity,
            self.cfg.clone().with_seed(rng.random()),
        );
        self.sample_with(&counter, rng)
    }

    /// Draws `count` worlds reusing one estimate table (much faster than
    /// repeated [`UniformWorldSampler::sample`] calls).
    pub fn sample_batch<R: pqe_rand::Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
    ) -> Vec<Vec<bool>> {
        let counter = NftaCounter::new(
            &self.nfta,
            &self.runs,
            &self.ambiguity,
            self.cfg.clone().with_seed(rng.random()),
        );
        (0..count)
            .filter_map(|_| self.sample_with(&counter, rng))
            .collect()
    }

    fn sample_with<R: pqe_rand::Rng + ?Sized>(
        &self,
        counter: &NftaCounter<'_>,
        rng: &mut R,
    ) -> Option<Vec<bool>> {
        let tree = counter.sample_tree(rng)?;
        let mut world = decode_tree(&tree, &self.by_symbol, self.db.len());
        for &f in &self.free_facts {
            world[f.index()] = rng.random_bool(0.5);
        }
        Some(world)
    }
}

/// Sampler over satisfying subinstances of a probabilistic database,
/// weighted by world probability: `P(D') ≈ Pr_H(D') / Pr_H(Q)`.
pub struct WeightedWorldSampler<'a> {
    h: &'a ProbDatabase,
    nfta: Nfta,
    /// Exact run tables and ambiguity analysis of `nfta` (see
    /// [`UniformWorldSampler`]).
    runs: RunTables,
    ambiguity: Ambiguity,
    by_symbol: HashMap<SymbolId, FactId>,
    free_facts: Vec<FactId>,
    cfg: FprasConfig,
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
        check_arities(q, h.database().schema())?;
        let pqe = build_pqe_automaton(q, h)?;
        let back = back_map(h.database(), &pqe.ur.projected);
        let by_symbol: HashMap<SymbolId, FactId> = pqe
            .ur
            .fact_symbols
            .iter()
            .enumerate()
            .map(|(pf, &sym)| (sym, back[pf]))
            .collect();
        let covered: std::collections::BTreeSet<FactId> = back.iter().copied().collect();
        let free_facts = h
            .database()
            .fact_ids()
            .filter(|f| !covered.contains(f))
            .collect();
        let runs = RunTables::new(&pqe.nfta, pqe.target_size);
        let ambiguity = Ambiguity::new(&pqe.nfta, cfg.naive_unions);
        Ok(WeightedWorldSampler {
            h,
            nfta: pqe.nfta,
            runs,
            ambiguity,
            by_symbol,
            free_facts,
            cfg,
        })
    }

    /// Draws `count` worlds with one shared estimate table.
    pub fn sample_batch<R: pqe_rand::Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
    ) -> Vec<Vec<bool>> {
        let counter = NftaCounter::new(
            &self.nfta,
            &self.runs,
            &self.ambiguity,
            self.cfg.clone().with_seed(rng.random()),
        );
        (0..count)
            .filter_map(|_| {
                let tree = counter.sample_tree(rng)?;
                let mut world = decode_tree(&tree, &self.by_symbol, self.h.len());
                // Unconstrained facts keep their own independent law.
                for &f in &self.free_facts {
                    let p = self.h.prob(f).to_f64();
                    world[f.index()] = rng.random_bool(p.clamp(0.0, 1.0));
                }
                Some(world)
            })
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
        for (rel, a, b) in [("R1", "a", "b"), ("R2", "b", "c"), ("R2", "b", "d"), ("R2", "x", "y")] {
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
        assert!(matches!(WeightedWorldSampler::new(&q, &h, cfg), Err(EstimateError::Arity(_))));
    }
}
