//! Proposition 1: the augmented-NFTA construction for uniform reliability.
//!
//! Given a self-join-free CQ `Q` of bounded hypertree width and a database
//! `D` over `Q`'s relations, builds an augmented NFTA `T⁺` whose accepted
//! trees of size `|D| + c` are in bijection with the subinstances
//! `D' ⊆ D` satisfying `Q`.
//!
//! Construction notes (deviations documented in DESIGN.md §2):
//!
//! * The hypertree decomposition is **completed** and **binarized** first,
//!   keeping the transition relation polynomial.
//! * Vertices that are not the `≺`-minimal covering vertex of any atom
//!   emit a single padding symbol `⊥` instead of a λ-transition; `c`
//!   counts them, shifting every accepted tree's size by the same constant.
//! * States are the consistent witness selections of each vertex's `ξ(p)`
//!   atoms (the paper's `S(p)`), enumerated by indexed joins, not filtered
//!   cross products.
//! * The paper's initial-state *set* `S(p₀)` is inlined into a single
//!   fresh initial state carrying a copy of every root state's
//!   transitions — the accepted language (a union over root witness
//!   choices) is unchanged.

use pqe_automata::{Alphabet, AugSymbol, AugTransition, AugmentedNfta, StateId, SymbolId};
use pqe_db::{Const, Database, FactId, RelId};
use pqe_engine::{assignment_of, join_atoms};
use pqe_hypertree::{binarize, complete, decompose, Hypertree, NodeId};
use pqe_query::{ConjunctiveQuery, Var};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Why a reduction could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReductionError {
    /// The query repeats a relation symbol; Theorem 1 requires
    /// self-join-freeness.
    NotSelfJoinFree,
    /// The path-query reduction (§3) was invoked on a non-path query.
    NotAPathQuery,
    /// No decomposition within the configured width bound.
    Decomposition(String),
}

impl std::fmt::Display for ReductionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReductionError::NotSelfJoinFree => {
                write!(
                    f,
                    "query contains self-joins; the FPRAS requires self-join-freeness"
                )
            }
            ReductionError::NotAPathQuery => write!(f, "query is not a path query"),
            ReductionError::Decomposition(msg) => write!(f, "decomposition failed: {msg}"),
        }
    }
}

impl std::error::Error for ReductionError {}

/// Output of the Proposition 1 construction.
pub struct UrAutomaton {
    /// The augmented NFTA `T⁺`.
    pub aug: AugmentedNfta,
    /// Symbol per projected fact.
    pub fact_symbols: Vec<SymbolId>,
    /// The padding symbol `⊥`.
    pub padding: SymbolId,
    /// Accepted trees have exactly this size: `|D'| + c`.
    pub target_size: usize,
    /// Number of padding vertices `c`.
    pub padding_count: usize,
    /// Facts of `D` over relations outside `Q`, each contributing a free
    /// binary choice: `UR(Q, D) = 2^dropped_facts · |L_target(T⁺)|`.
    pub dropped_facts: usize,
    /// The projected database the symbols index into.
    pub projected: Database,
    /// The (complete, binarized) decomposition used.
    pub tree: Hypertree,
}

/// One automaton state of `S(p)`: a consistent selection of witness facts
/// for the atoms of `ξ(p)`, with its induced variable assignment.
struct VertexState {
    id: StateId,
    assignment: BTreeMap<Var, Const>,
    /// Witness fact per atom of `ξ(p)` (aligned with the vertex's sorted
    /// atom list).
    selection: Vec<FactId>,
}

/// Builds the Proposition 1 automaton.
pub fn build_ur_automaton(
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<UrAutomaton, ReductionError> {
    if !q.is_self_join_free() {
        return Err(ReductionError::NotSelfJoinFree);
    }

    // Project D onto Q's relations (Theorem 3 preprocessing).
    let keep: BTreeSet<RelId> = q
        .atoms()
        .iter()
        .filter_map(|a| db.schema().relation(&a.relation))
        .collect();
    let (proj, _) = db.project(|r| keep.contains(&r));
    let dropped_facts = db.len() - proj.len();

    // Complete, binarized decomposition with BFS vertex order.
    let mut tree = decompose(q).map_err(|e| ReductionError::Decomposition(e.to_string()))?;
    complete(q, &mut tree);
    binarize(&mut tree);
    let order = tree.bfs_order();

    // ≺_vertices-minimal covering vertex per atom; group by vertex,
    // atoms sorted by query order (the fixed ≺_atoms).
    let min_cover = tree.min_covering_vertices(q);
    let mut covered_at: HashMap<NodeId, Vec<usize>> = HashMap::new();
    for (atom, cov) in min_cover.iter().enumerate() {
        // Completion guarantees coverage.
        covered_at
            .entry(cov.expect("complete decomposition covers every atom"))
            .or_default()
            .push(atom);
    }

    // Alphabet: one symbol per projected fact, plus padding.
    let mut alphabet = Alphabet::new();
    let fact_symbols: Vec<SymbolId> = proj
        .fact_ids()
        .map(|f| alphabet.intern(&proj.display_fact(f)))
        .collect();
    let padding = alphabet.intern("⊥");

    let mut aug = AugmentedNfta::new(alphabet);
    let s_init = aug.initial();

    // Enumerate S(p) for every vertex.
    let mut vertex_states: Vec<Vec<VertexState>> = Vec::with_capacity(tree.len());
    let mut vertex_atoms: Vec<Vec<usize>> = Vec::with_capacity(tree.len());
    for idx in 0..tree.len() {
        let node = tree.node(NodeId(idx));
        let atoms: Vec<usize> = node.xi.iter().copied().collect();
        let states = join_atoms(q, &proj, &atoms)
            .into_iter()
            .map(|selection| VertexState {
                id: aug.add_state(),
                assignment: assignment_of(q, &proj, &atoms, &selection),
                selection,
            })
            .collect();
        vertex_atoms.push(atoms);
        vertex_states.push(states);
    }

    // Label string of a state at vertex p: for each atom minimally covered
    // at p (in ≺_atoms order), all facts of its relation in ≺_i order, the
    // witness plain and the rest optional. Padding symbol when no atom is
    // covered here.
    let label_of = |p: NodeId, state: &VertexState| -> Vec<AugSymbol> {
        let covered = covered_at.get(&p);
        let Some(covered) = covered else {
            return vec![AugSymbol::plain(padding)];
        };
        let mut label = Vec::new();
        for &atom in covered {
            let rel = proj
                .schema()
                .relation(&q.atoms()[atom].relation)
                .expect("state exists, so the relation has facts");
            let pos_in_xi = vertex_atoms[p.0]
                .iter()
                .position(|&a| a == atom)
                .expect("covered atom belongs to ξ(p)");
            let witness = state.selection[pos_in_xi];
            for &f in proj.facts_of(rel) {
                label.push(if f == witness {
                    AugSymbol::plain(fact_symbols[f.index()])
                } else {
                    AugSymbol::optional(fact_symbols[f.index()])
                });
            }
        }
        label
    };

    // Transition enumeration with shared-variable indexes.
    let root = tree.root();
    for &p in &order {
        let children: Vec<NodeId> = tree.node(p).children.clone();
        debug_assert!(children.len() <= 2, "tree must be binarized");
        for state in &vertex_states[p.0] {
            let label = label_of(p, state);
            let child_ids: Vec<Vec<StateId>> = match children.len() {
                0 => vec![vec![]],
                1 => consistent_children(state, &vertex_states[children[0].0])
                    .into_iter()
                    .map(|c| vec![c.id])
                    .collect(),
                2 => {
                    let c1s = consistent_children(state, &vertex_states[children[0].0]);
                    let c2s = consistent_children(state, &vertex_states[children[1].0]);
                    let mut combos = Vec::new();
                    for c1 in &c1s {
                        for c2 in &c2s {
                            if consistent(&c1.assignment, &c2.assignment) {
                                combos.push(vec![c1.id, c2.id]);
                            }
                        }
                    }
                    combos
                }
                _ => unreachable!(),
            };
            for kids in child_ids {
                aug.add_transition(AugTransition {
                    src: state.id,
                    label: label.clone(),
                    children: kids.clone(),
                });
                // Inline the paper's initial-state set: root states'
                // transitions are mirrored onto the single initial state.
                if p == root {
                    aug.add_transition(AugTransition {
                        src: s_init,
                        label: label.clone(),
                        children: kids,
                    });
                }
            }
        }
    }

    // Padding count and target size.
    let padding_count = order
        .iter()
        .filter(|&&p| !covered_at.contains_key(&p))
        .count();
    let target_size = proj.len() + padding_count;

    // Sanity: each fact of the projected database is emitted exactly once
    // across all covering vertices.
    debug_assert_eq!(
        covered_at
            .values()
            .flatten()
            .map(|&atom| {
                proj.schema()
                    .relation(&q.atoms()[atom].relation)
                    .map_or(0, |r| proj.facts_of(r).len())
            })
            .sum::<usize>(),
        proj.len()
    );

    Ok(UrAutomaton {
        aug,
        fact_symbols,
        padding,
        target_size,
        padding_count,
        dropped_facts,
        projected: proj,
        tree,
    })
}

/// Child states whose assignment is consistent with the parent state's.
fn consistent_children<'a>(
    parent: &VertexState,
    child_states: &'a [VertexState],
) -> Vec<&'a VertexState> {
    child_states
        .iter()
        .filter(|c| consistent(&parent.assignment, &c.assignment))
        .collect()
}

fn consistent(a: &BTreeMap<Var, Const>, b: &BTreeMap<Var, Const>) -> bool {
    // Iterate over the smaller map.
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small
        .iter()
        .all(|(v, c)| large.get(v).is_none_or(|c2| c2 == c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::brute_force_ur;
    use pqe_arith::BigUint;
    use pqe_automata::count_trees_exact;
    use pqe_db::{generators, Schema};
    use pqe_query::{parse, shapes};
    use pqe_rand::rngs::StdRng;
    use pqe_rand::SeedableRng;

    /// Exact UR through the automaton: translate and count trees exactly.
    fn exact_via_automaton(ur: &UrAutomaton) -> BigUint {
        let (nfta, _) = ur.aug.translate();
        let trees = count_trees_exact(&nfta, ur.target_size);
        &trees * &(&BigUint::one() << ur.dropped_facts as u64)
    }

    #[test]
    fn two_path_bijection() {
        let mut db = Database::new(Schema::new([("R1", 2), ("R2", 2)]));
        db.add_fact("R1", &["a", "b"]).unwrap();
        db.add_fact("R2", &["b", "c"]).unwrap();
        db.add_fact("R2", &["b", "d"]).unwrap();
        let q = shapes::path_query(2);
        let ur = build_ur_automaton(&q, &db).unwrap();
        assert_eq!(exact_via_automaton(&ur).to_u64(), Some(3));
        assert_eq!(brute_force_ur(&q, &db).to_u64(), Some(3));
    }

    #[test]
    fn matches_brute_force_on_random_paths() {
        let mut rng = StdRng::seed_from_u64(100);
        for len in 2..=4usize {
            for _ in 0..4 {
                let db = generators::layered_graph(len, 2, 0.6, &mut rng);
                if db.len() > 14 {
                    continue;
                }
                let q = shapes::path_query(len);
                let ur = build_ur_automaton(&q, &db).unwrap();
                assert_eq!(
                    exact_via_automaton(&ur),
                    brute_force_ur(&q, &db),
                    "len={len} |D|={}",
                    db.len()
                );
            }
        }
    }

    #[test]
    fn matches_brute_force_on_stars() {
        let mut rng = StdRng::seed_from_u64(200);
        for arms in 2..=3usize {
            let db = generators::star_data(arms, 2, 2, 0.8, &mut rng);
            if db.len() > 14 {
                continue;
            }
            let q = shapes::star_query(arms);
            let ur = build_ur_automaton(&q, &db).unwrap();
            assert_eq!(exact_via_automaton(&ur), brute_force_ur(&q, &db));
        }
    }

    #[test]
    fn matches_brute_force_on_h0() {
        // The canonical unsafe query R(x), S(x,y), T(y).
        let mut db = Database::new(Schema::new([("R", 1), ("S", 2), ("T", 1)]));
        db.add_fact("R", &["a"]).unwrap();
        db.add_fact("R", &["b"]).unwrap();
        db.add_fact("S", &["a", "u"]).unwrap();
        db.add_fact("S", &["b", "v"]).unwrap();
        db.add_fact("T", &["u"]).unwrap();
        db.add_fact("T", &["v"]).unwrap();
        let q = shapes::h0_query();
        let ur = build_ur_automaton(&q, &db).unwrap();
        assert_eq!(exact_via_automaton(&ur), brute_force_ur(&q, &db));
    }

    #[test]
    fn matches_brute_force_on_cycles() {
        // Width-2 query: the decomposition exercises multi-atom bags.
        let mut db = Database::new(Schema::new([("R1", 2), ("R2", 2), ("R3", 2)]));
        db.add_fact("R1", &["a", "b"]).unwrap();
        db.add_fact("R1", &["a", "c"]).unwrap();
        db.add_fact("R2", &["b", "c"]).unwrap();
        db.add_fact("R2", &["c", "c"]).unwrap();
        db.add_fact("R3", &["c", "a"]).unwrap();
        let q = shapes::cycle_query(3);
        let ur = build_ur_automaton(&q, &db).unwrap();
        assert_eq!(exact_via_automaton(&ur), brute_force_ur(&q, &db));
    }

    #[test]
    fn unsatisfiable_counts_zero() {
        let mut db = Database::new(Schema::new([("R1", 2), ("R2", 2)]));
        db.add_fact("R1", &["a", "b"]).unwrap();
        db.add_fact("R2", &["x", "y"]).unwrap(); // does not join
        let q = shapes::path_query(2);
        let ur = build_ur_automaton(&q, &db).unwrap();
        assert!(exact_via_automaton(&ur).is_zero());
        assert!(brute_force_ur(&q, &db).is_zero());
    }

    #[test]
    fn dropped_relations_scale_by_powers_of_two() {
        let mut db = Database::new(Schema::new([("R1", 2), ("Z", 1)]));
        db.add_fact("R1", &["a", "b"]).unwrap();
        db.add_fact("Z", &["q"]).unwrap();
        db.add_fact("Z", &["r"]).unwrap();
        db.add_fact("Z", &["s"]).unwrap();
        let q = shapes::path_query(1);
        let ur = build_ur_automaton(&q, &db).unwrap();
        assert_eq!(ur.dropped_facts, 3);
        assert_eq!(exact_via_automaton(&ur).to_u64(), Some(8));
    }

    #[test]
    fn rejects_self_joins() {
        let db = Database::new(Schema::new([("R", 2)]));
        assert!(matches!(
            build_ur_automaton(&shapes::self_join_path(2), &db),
            Err(ReductionError::NotSelfJoinFree)
        ));
    }

    #[test]
    fn automaton_size_is_polynomial() {
        let mut rng = StdRng::seed_from_u64(300);
        let db = generators::layered_graph(4, 3, 1.0, &mut rng);
        let q = shapes::path_query(4);
        let ur = build_ur_automaton(&q, &db).unwrap();
        let d = db.len();
        // Size must stay within a small polynomial of |Q|·|D|.
        assert!(
            ur.aug.size() <= 4 * q.len() * d * d + 100,
            "size {} too large for |Q|={} |D|={d}",
            ur.aug.size(),
            q.len()
        );
    }

    #[test]
    fn queries_with_constants_are_supported() {
        let mut db = Database::new(Schema::new([("R", 2), ("S", 2)]));
        db.add_fact("R", &["a", "b"]).unwrap();
        db.add_fact("R", &["z", "b"]).unwrap();
        db.add_fact("S", &["b", "c"]).unwrap();
        let q = parse("R('a',y), S(y,z)").unwrap();
        let ur = build_ur_automaton(&q, &db).unwrap();
        assert_eq!(exact_via_automaton(&ur), brute_force_ur(&q, &db));
    }

    #[test]
    fn target_size_accounts_for_padding() {
        let mut rng = StdRng::seed_from_u64(400);
        let db = generators::star_data(5, 1, 2, 1.0, &mut rng);
        let q = shapes::star_query(5);
        let ur = build_ur_automaton(&q, &db).unwrap();
        assert_eq!(ur.target_size, ur.projected.len() + ur.padding_count);
        // Binarization of the 5-arm star introduces padding copies.
        assert!(ur.tree.max_fanout() <= 2);
    }
}
