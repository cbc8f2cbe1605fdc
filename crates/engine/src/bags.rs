//! Decomposition-based homomorphism counting: the Yannakakis-style dynamic
//! program over a complete hypertree decomposition, generic over a
//! [`Semiring`].
//!
//! Witnesses of a query correspond one-to-one to homomorphisms
//! `vars(Q) → U` (each atom's image fact is determined by the variable
//! assignment), so counting either counts both. The DP runs in
//! `O(|T| · |D|^{2k})` for width `k` — polynomial in combined complexity
//! for bounded width, which is what lets experiment E5 report the
//! `> 10^12` lineage clause count of the paper's introduction without
//! materializing a single clause.

use crate::{join_atoms, Semiring};
use pqe_arith::BigUint;
use pqe_db::{Const, Database, FactId};
use pqe_hypertree::{complete, decompose, Hypertree, NodeId};
use pqe_query::{ConjunctiveQuery, Term, Var};
use std::collections::{BTreeMap, HashMap};

/// One distinct assignment of a vertex's `χ(p)`, plus the witnessing fact
/// per atom *assigned to* (minimally covered at) `p`.
#[derive(Debug, Clone)]
pub(crate) struct BagTuple {
    /// Values of `χ(p)` in sorted-variable order.
    pub(crate) chi_vals: Vec<Const>,
    /// `(atom index, witnessing fact)` for each atom whose minimal covering
    /// vertex is `p`.
    pub(crate) assigned_facts: Vec<(usize, FactId)>,
}

/// A prepared evaluation plan: a complete decomposition plus materialized
/// bag relations, reusable across semirings and worlds.
pub struct BagPlan {
    pub(crate) tree: Hypertree,
    /// Sorted `χ(p)` per node, aligned with `BagTuple::chi_vals`.
    pub(crate) chi_sorted: Vec<Vec<Var>>,
    /// Distinct-projection bag tuples per node.
    pub(crate) bags: Vec<Vec<BagTuple>>,
}

impl BagPlan {
    /// Builds a plan for `q` on `db`, decomposing the query internally.
    ///
    /// Panics if the query cannot be decomposed (never happens: every CQ
    /// has width ≤ |Q|).
    pub fn new(q: &ConjunctiveQuery, db: &Database) -> Self {
        let mut tree = decompose(q).expect("every CQ admits a decomposition");
        complete(q, &mut tree);
        Self::with_tree(q, db, tree)
    }

    /// Builds a plan from an existing complete decomposition.
    pub fn with_tree(q: &ConjunctiveQuery, db: &Database, tree: Hypertree) -> Self {
        assert!(tree.is_complete(q), "decomposition must be complete");
        let min_cover = tree.min_covering_vertices(q);
        let mut assigned: HashMap<NodeId, Vec<usize>> = HashMap::new();
        for (atom, cov) in min_cover.iter().enumerate() {
            assigned.entry(cov.unwrap()).or_default().push(atom);
        }

        let n = tree.len();
        let mut chi_sorted = vec![Vec::new(); n];
        let mut bags = vec![Vec::new(); n];
        for id in tree.bfs_order() {
            let node = tree.node(id);
            let chi: Vec<Var> = node.chi.iter().copied().collect();
            let xi: Vec<usize> = node.xi.iter().copied().collect();
            let own_atoms = assigned.get(&id).cloned().unwrap_or_default();

            // Join the ξ(p) atoms, project to χ(p), dedupe projections.
            // For each distinct projection record the facts of the atoms
            // assigned here (determined by the projection, since their
            // variables lie inside χ(p)).
            let mut seen: BTreeMap<Vec<Const>, BagTuple> = BTreeMap::new();
            if xi.is_empty() {
                // Degenerate vertex (empty ξ arises only for the empty
                // query); single empty tuple.
                seen.insert(
                    Vec::new(),
                    BagTuple {
                        chi_vals: Vec::new(),
                        assigned_facts: Vec::new(),
                    },
                );
            } else {
                for sel in join_atoms(q, db, &xi) {
                    let assignment = assignment_of(q, db, &xi, &sel);
                    let proj: Vec<Const> = chi.iter().map(|v| assignment[v]).collect();
                    seen.entry(proj.clone()).or_insert_with(|| {
                        let assigned_facts = own_atoms
                            .iter()
                            .map(|&a| {
                                let pos = xi.iter().position(|&x| x == a).expect(
                                    "assigned atom must belong to ξ of its covering vertex",
                                );
                                (a, sel[pos])
                            })
                            .collect();
                        BagTuple {
                            chi_vals: proj,
                            assigned_facts,
                        }
                    });
                }
            }
            chi_sorted[id.0] = chi;
            bags[id.0] = seen.into_values().collect();
        }

        BagPlan {
            tree,
            chi_sorted,
            bags,
        }
    }

    /// The decomposition used by the plan.
    pub fn tree(&self) -> &Hypertree {
        &self.tree
    }

    /// Evaluates `Σ_homs ∏_atoms weight(atom, image fact)` in semiring `S`.
    ///
    /// With `weight ≡ 1` over `BigUint` this is the homomorphism count;
    /// with `weight = π` over `Rational` it is the weighted clause mass.
    pub fn evaluate<S: Semiring>(&self, weight: &dyn Fn(usize, FactId) -> S) -> S {
        let order = self.tree.bfs_order();
        // values[node.0][tuple_idx] = DP value C_p(τ)
        let mut values: Vec<Vec<S>> = vec![Vec::new(); self.tree.len()];
        for &id in order.iter().rev() {
            let node = self.tree.node(id);
            let mut vals = Vec::with_capacity(self.bags[id.0].len());
            // For each child, index its tuples by the shared-variable
            // projection, accumulating sums.
            type ChildIndex<S> = (Vec<usize>, HashMap<Vec<Const>, S>);
            let child_indexes: Vec<ChildIndex<S>> = node
                .children
                .iter()
                .map(|&c| {
                    let shared = shared_positions(&self.chi_sorted[id.0], &self.chi_sorted[c.0]);
                    let mut index: HashMap<Vec<Const>, S> = HashMap::new();
                    for (ti, t) in self.bags[c.0].iter().enumerate() {
                        let key: Vec<Const> =
                            shared.iter().map(|&(_, cj)| t.chi_vals[cj]).collect();
                        let entry = index.entry(key).or_insert_with(S::zero);
                        *entry = entry.add(&values[c.0][ti]);
                    }
                    (shared.iter().map(|&(pi, _)| pi).collect(), index)
                })
                .collect();

            for t in &self.bags[id.0] {
                let mut v = S::one();
                for &(atom, fact) in &t.assigned_facts {
                    v = v.mul(&weight(atom, fact));
                    if v.is_zero() {
                        break;
                    }
                }
                if !v.is_zero() {
                    for (parent_pos, index) in &child_indexes {
                        let key: Vec<Const> = parent_pos.iter().map(|&pi| t.chi_vals[pi]).collect();
                        match index.get(&key) {
                            Some(s) => v = v.mul(s),
                            None => {
                                v = S::zero();
                            }
                        }
                        if v.is_zero() {
                            break;
                        }
                    }
                }
                vals.push(v);
            }
            values[id.0] = vals;
        }
        let root = self.tree.root();
        values[root.0].iter().fold(S::zero(), |acc, v| acc.add(v))
    }
}

/// Variable assignment induced by selecting fact `sel[i]` for atom `xi[i]`
/// (shared with the automaton constructions of `pqe-core`, which enumerate
/// the same consistent selections as states).
pub fn assignment_of(
    q: &ConjunctiveQuery,
    db: &Database,
    xi: &[usize],
    sel: &[FactId],
) -> BTreeMap<Var, Const> {
    let mut m = BTreeMap::new();
    for (&atom_idx, &f) in xi.iter().zip(sel.iter()) {
        let atom = &q.atoms()[atom_idx];
        let fact = db.fact(f);
        for (term, &val) in atom.terms.iter().zip(fact.args.iter()) {
            if let Term::Var(v) = term {
                let prev = m.insert(*v, val);
                debug_assert!(prev.is_none_or(|p| p == val), "inconsistent selection");
            }
        }
    }
    m
}

/// Positions of shared variables: pairs `(i, j)` with
/// `parent_chi[i] == child_chi[j]`.
fn shared_positions(parent_chi: &[Var], child_chi: &[Var]) -> Vec<(usize, usize)> {
    let parent_set: BTreeMap<Var, usize> = parent_chi
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i))
        .collect();
    child_chi
        .iter()
        .enumerate()
        .filter_map(|(j, v)| parent_set.get(v).map(|&i| (i, j)))
        .collect()
}

/// `#homs(Q → D)` — the number of witnesses (= DNF lineage clauses) of `Q`
/// on `D`, computed in polynomial combined complexity for bounded-width
/// queries.
pub fn count_homomorphisms(q: &ConjunctiveQuery, db: &Database) -> BigUint {
    if q.is_empty() {
        return BigUint::one();
    }
    BagPlan::new(q, db).evaluate::<BigUint>(&|_, _| BigUint::one())
}

/// `Σ_w ∏_{i} weight(atom i, w[i])` over all witnesses `w` — the weighted
/// witness mass under an arbitrary per-(atom, fact) semiring weight.
pub fn weighted_hom_count<S: Semiring>(
    q: &ConjunctiveQuery,
    db: &Database,
    weight: &dyn Fn(usize, FactId) -> S,
) -> S {
    if q.is_empty() {
        return S::one();
    }
    BagPlan::new(q, db).evaluate::<S>(weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate_witnesses;
    use pqe_arith::Rational;
    use pqe_db::generators;
    use pqe_db::Schema;
    use pqe_query::{parse, shapes};
    use pqe_rand::rngs::StdRng;
    use pqe_rand::SeedableRng;

    #[test]
    fn count_matches_enumeration_on_paths() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in 1..=4 {
            let q = shapes::path_query(n);
            let db = generators::layered_graph(n, 3, 0.7, &mut rng);
            let fast = count_homomorphisms(&q, &db);
            let slow = enumerate_witnesses(&q, &db, None).len() as u64;
            assert_eq!(fast.to_u64(), Some(slow), "n = {n}");
        }
    }

    #[test]
    fn count_matches_enumeration_on_cycles() {
        let mut rng = StdRng::seed_from_u64(12);
        for n in 3..=5 {
            let q = shapes::cycle_query(n);
            let names: Vec<String> = (1..=n).map(|i| format!("R{i}")).collect();
            let rels: Vec<(&str, usize)> = names.iter().map(|s| (s.as_str(), 2)).collect();
            let db = generators::random_instance(&rels, 4, 10, &mut rng);
            let fast = count_homomorphisms(&q, &db);
            let slow = enumerate_witnesses(&q, &db, None).len() as u64;
            assert_eq!(fast.to_u64(), Some(slow), "n = {n}");
        }
    }

    #[test]
    fn dense_path_count_is_width_pow() {
        // Complete layered graph: #homs = width^(n+1) paths... each layer
        // transition has width×width edges; #paths = width^(n+1).
        let mut rng = StdRng::seed_from_u64(13);
        let (n, w) = (5usize, 3usize);
        let q = shapes::path_query(n);
        let db = generators::layered_graph(n, w, 1.0, &mut rng);
        let count = count_homomorphisms(&q, &db);
        assert_eq!(count.to_u64(), Some((w as u64).pow(n as u32 + 1)));
    }

    #[test]
    fn weighted_count_sums_clause_probabilities() {
        let mut db = Database::new(Schema::new([("R", 2), ("S", 2)]));
        db.add_fact("R", &["a", "b"]).unwrap();
        db.add_fact("S", &["b", "c"]).unwrap();
        db.add_fact("S", &["b", "d"]).unwrap();
        let q = parse("R(x,y), S(y,z)").unwrap();
        // π(R(a,b)) = 1/2, π(S(b,c)) = 1/3, π(S(b,d)) = 1/5.
        let probs = [
            Rational::from_ratio(1, 2),
            Rational::from_ratio(1, 3),
            Rational::from_ratio(1, 5),
        ];
        let mass = weighted_hom_count::<Rational>(&q, &db, &|_, f| probs[f.index()].clone());
        // 1/2·1/3 + 1/2·1/5 = 1/6 + 1/10 = 4/15.
        assert_eq!(mass.to_string(), "4/15");
    }

    #[test]
    fn unsatisfiable_query_counts_zero() {
        let mut db = Database::new(Schema::new([("R", 2), ("S", 2)]));
        db.add_fact("R", &["a", "b"]).unwrap();
        db.add_fact("S", &["x", "y"]).unwrap();
        let q = parse("R(x,y), S(y,z)").unwrap();
        assert!(count_homomorphisms(&q, &db).is_zero());
    }

    #[test]
    fn empty_query_counts_one() {
        let db = Database::new(Schema::new([("R", 2)]));
        let q = parse("R(x,y)").unwrap().restrict_atoms(&[]);
        assert!(count_homomorphisms(&q, &db).is_one());
    }

    #[test]
    fn huge_counts_do_not_overflow() {
        // 12-atom path over complete 4-wide layers: 4^13 ≈ 6.7e7 fits u64,
        // but 20 layers of width 8: 8^21 ≈ 9.2e18 — exceeds u32 math easily;
        // verify exact value against pow.
        let mut rng = StdRng::seed_from_u64(14);
        let (n, w) = (20usize, 8usize);
        let q = shapes::path_query(n);
        let db = generators::layered_graph(n, w, 1.0, &mut rng);
        let count = count_homomorphisms(&q, &db);
        assert_eq!(count, BigUint::from(w as u64).pow(n as u32 + 1));
    }

    #[test]
    fn star_count_is_product_of_arms() {
        let mut rng = StdRng::seed_from_u64(15);
        let q = shapes::star_query(3);
        let db = generators::star_data(3, 2, 4, 1.0, &mut rng);
        // Per center: 4 choices per arm ⇒ 4^3; two centers ⇒ 2·64 = 128.
        assert_eq!(count_homomorphisms(&q, &db).to_u64(), Some(128));
    }
}
