//! Weighted witness sampling.
//!
//! The Karp–Luby–Madras baseline needs to sample a lineage clause (= a
//! witness) with probability proportional to its weight
//! `∏_{f ∈ w} π(f)` — *without* materializing the exponentially many
//! clauses. This module runs the bag dynamic program once with `Rational`
//! values and then samples top-down through the decomposition, which takes
//! time polynomial in `|Q|` and `|D|` per sample.

use crate::bags::{BagPlan, BagTuple};
use pqe_arith::{BigUint, Rational};
use pqe_db::{Const, Database, FactId};
use pqe_query::ConjunctiveQuery;
use pqe_rand::Rng;
use std::collections::HashMap;

/// Draws an index `i` with probability `weights[i] / Σ weights`, exactly
/// (up to the 2⁻¹²⁸ granularity of the uniform draw). Panics if all weights
/// are zero.
pub fn pick_weighted<R: Rng + ?Sized>(weights: &[Rational], rng: &mut R) -> usize {
    let total = weights.iter().fold(Rational::zero(), |acc, w| &acc + w);
    assert!(!total.is_zero(), "cannot sample from all-zero weights");
    // threshold = total * r / 2^128 for uniform r.
    let r: u128 = rng.random();
    let threshold =
        &total * &Rational::new(BigUint::from(r).into(), (&BigUint::one() << 128).clone());
    let mut acc = Rational::zero();
    for (i, w) in weights.iter().enumerate() {
        acc = &acc + w;
        if threshold < acc {
            return i;
        }
    }
    // Rounding fallback: return the last positive-weight index.
    weights
        .iter()
        .rposition(|w| !w.is_zero())
        .expect("some weight is positive")
}

/// A prepared sampler drawing witnesses of `Q` on `D` with probability
/// proportional to `∏_atoms weight(atom, fact)`.
pub struct WitnessSampler {
    plan: BagPlan,
    /// DP value per (node, tuple).
    values: Vec<Vec<Rational>>,
    /// Per node, per child slot: map from shared-variable key to the list
    /// of consistent child tuple indices.
    child_indexes: Vec<Vec<ChildIndex>>,
    total: Rational,
}

struct ChildIndex {
    /// Positions of the key variables in the *parent* tuple.
    parent_pos: Vec<usize>,
    /// Shared-key → consistent child tuples.
    by_key: HashMap<Vec<Const>, Vec<usize>>,
}

impl WitnessSampler {
    /// Builds the sampler. `weight(atom, fact)` must be non-negative.
    pub fn new(
        q: &ConjunctiveQuery,
        db: &Database,
        weight: &dyn Fn(usize, FactId) -> Rational,
    ) -> Self {
        let plan = BagPlan::new(q, db);
        let order = plan.tree.bfs_order();
        let n = plan.tree.len();
        let mut values: Vec<Vec<Rational>> = vec![Vec::new(); n];
        let mut child_indexes: Vec<Vec<ChildIndex>> = (0..n).map(|_| Vec::new()).collect();

        for &id in order.iter().rev() {
            let node = plan.tree.node(id);
            let mut indexes = Vec::new();
            for &c in &node.children {
                let parent_chi = &plan.chi_sorted[id.0];
                let child_chi = &plan.chi_sorted[c.0];
                let shared: Vec<(usize, usize)> = parent_chi
                    .iter()
                    .enumerate()
                    .filter_map(|(i, v)| child_chi.iter().position(|w| w == v).map(|j| (i, j)))
                    .collect();
                let mut by_key: HashMap<Vec<Const>, Vec<usize>> = HashMap::new();
                for (ti, t) in plan.bags[c.0].iter().enumerate() {
                    if values[c.0][ti].is_zero() {
                        continue;
                    }
                    let key: Vec<Const> = shared.iter().map(|&(_, j)| t.chi_vals[j]).collect();
                    by_key.entry(key).or_default().push(ti);
                }
                indexes.push(ChildIndex {
                    parent_pos: shared.iter().map(|&(i, _)| i).collect(),
                    by_key,
                });
            }

            let mut vals = Vec::with_capacity(plan.bags[id.0].len());
            for t in &plan.bags[id.0] {
                let mut v = Rational::one();
                for &(atom, fact) in &t.assigned_facts {
                    v = &v * &weight(atom, fact);
                }
                for (slot, idx) in indexes.iter().enumerate() {
                    if v.is_zero() {
                        break;
                    }
                    let c = node.children[slot];
                    let key: Vec<Const> = idx.parent_pos.iter().map(|&i| t.chi_vals[i]).collect();
                    let sum = idx
                        .by_key
                        .get(&key)
                        .map(|tis| {
                            tis.iter()
                                .fold(Rational::zero(), |acc, &ti| &acc + &values[c.0][ti])
                        })
                        .unwrap_or_else(Rational::zero);
                    v = &v * &sum;
                }
                vals.push(v);
            }
            values[id.0] = vals;
            child_indexes[id.0] = indexes;
        }

        let root = plan.tree.root();
        let total = values[root.0]
            .iter()
            .fold(Rational::zero(), |acc, v| &acc + v);
        WitnessSampler {
            plan,
            values,
            child_indexes,
            total,
        }
    }

    /// The total weighted witness mass `Σ_w ∏ weight` (zero iff `D ⊭ Q`).
    pub fn total_mass(&self) -> &Rational {
        &self.total
    }

    /// Samples a witness (one fact per atom, atom order). Panics if the
    /// total mass is zero.
    pub fn sample<R: Rng + ?Sized>(&self, q: &ConjunctiveQuery, rng: &mut R) -> Vec<FactId> {
        assert!(
            !self.total.is_zero(),
            "query unsatisfiable: nothing to sample"
        );
        let mut facts: Vec<Option<FactId>> = vec![None; q.len()];
        let root = self.plan.tree.root();
        let ti = pick_weighted(&self.values[root.0], rng);
        self.descend(root, ti, rng, &mut facts);
        facts
            .into_iter()
            .map(|f| f.expect("every atom assigned at its covering vertex"))
            .collect()
    }

    fn descend<R: Rng + ?Sized>(
        &self,
        id: pqe_hypertree::NodeId,
        tuple_idx: usize,
        rng: &mut R,
        facts: &mut [Option<FactId>],
    ) {
        let t: &BagTuple = &self.plan.bags[id.0][tuple_idx];
        for &(atom, fact) in &t.assigned_facts {
            facts[atom] = Some(fact);
        }
        let children = &self.plan.tree.node(id).children;
        for (slot, &c) in children.iter().enumerate() {
            let idx = &self.child_indexes[id.0][slot];
            let key: Vec<Const> = idx.parent_pos.iter().map(|&i| t.chi_vals[i]).collect();
            let candidates = idx
                .by_key
                .get(&key)
                .expect("consistent child exists for sampled parent tuple");
            let weights: Vec<Rational> = candidates
                .iter()
                .map(|&ti| self.values[c.0][ti].clone())
                .collect();
            let pick = pick_weighted(&weights, rng);
            self.descend(c, candidates[pick], rng, facts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqe_db::Schema;
    use pqe_query::parse;
    use pqe_rand::rngs::StdRng;
    use pqe_rand::SeedableRng;

    #[test]
    fn pick_weighted_distribution() {
        let weights = vec![
            Rational::from_ratio(1, 2),
            Rational::from_ratio(1, 4),
            Rational::from_ratio(1, 4),
        ];
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        let n = 8000;
        for _ in 0..n {
            counts[pick_weighted(&weights, &mut rng)] += 1;
        }
        let f0 = counts[0] as f64 / n as f64;
        assert!((f0 - 0.5).abs() < 0.03, "f0 = {f0}");
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn pick_weighted_rejects_all_zero() {
        let mut rng = StdRng::seed_from_u64(2);
        pick_weighted(&[Rational::zero()], &mut rng);
    }

    fn two_path_db() -> Database {
        let mut db = Database::new(Schema::new([("R", 2), ("S", 2)]));
        db.add_fact("R", &["a", "b"]).unwrap();
        db.add_fact("S", &["b", "c"]).unwrap();
        db.add_fact("S", &["b", "d"]).unwrap();
        db
    }

    #[test]
    fn sampler_total_matches_weighted_count() {
        let db = two_path_db();
        let q = parse("R(x,y), S(y,z)").unwrap();
        let probs = [
            Rational::from_ratio(1, 2),
            Rational::from_ratio(1, 3),
            Rational::from_ratio(1, 5),
        ];
        let s = WitnessSampler::new(&q, &db, &|_, f| probs[f.index()].clone());
        assert_eq!(s.total_mass().to_string(), "4/15");
    }

    #[test]
    fn sampler_draws_witnesses_proportionally() {
        let db = two_path_db();
        let q = parse("R(x,y), S(y,z)").unwrap();
        let probs = [
            Rational::from_ratio(1, 2),
            Rational::from_ratio(1, 3),
            Rational::from_ratio(1, 5),
        ];
        let s = WitnessSampler::new(&q, &db, &|_, f| probs[f.index()].clone());
        let mut rng = StdRng::seed_from_u64(3);
        let mut with_c = 0usize;
        let n = 6000;
        for _ in 0..n {
            let w = s.sample(&q, &mut rng);
            assert_eq!(w.len(), 2);
            if w[1] == FactId(1) {
                with_c += 1;
            }
        }
        // P(clause with S(b,c)) = (1/6) / (4/15) = 5/8 = 0.625.
        let f = with_c as f64 / n as f64;
        assert!((f - 0.625).abs() < 0.03, "f = {f}");
    }

    #[test]
    fn sampler_uniform_weights_sample_all_witnesses() {
        let db = two_path_db();
        let q = parse("R(x,y), S(y,z)").unwrap();
        let s = WitnessSampler::new(&q, &db, &|_, _| Rational::one());
        assert_eq!(s.total_mass().to_string(), "2");
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(s.sample(&q, &mut rng));
        }
        assert_eq!(seen.len(), 2);
    }
}
