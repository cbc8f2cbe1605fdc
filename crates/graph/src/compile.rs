//! RPQ → `#NFA` compilation: the layered world-scan product construction.
//!
//! The reduction mirrors the paper's §3 path-query encoding, replacing the
//! database fact scan with an *edge* scan. Fix a DAG `G` with edges
//! `e_0 … e_{m−1}` sorted by `(topo(src), edge id)` — along any directed
//! path of a DAG the source topo-indices strictly increase, so every
//! path's edges form a strictly increasing subsequence of the scan order.
//! A world of `G` is encoded as the length-`m` string
//! `w_0 w_1 … w_{m−1}` with `w_i ∈ {eᵢ⁺, eᵢ⁻}` (edge present / absent);
//! distinct strings are distinct worlds, so `|L_m(M)|` counts worlds
//! exactly — the same string ↔ subinstance bijection Proposition 1 uses.
//!
//! The compiled NFA simulates one *witness attempt* while scanning: a
//! state `(i, v, q)` means "after the first `i` edges, the partial path
//! ends at vertex `v` with the query NFA in state `q`". Reading `w_i`:
//!
//! * every state self-advances on both symbols (the witness simply does
//!   not use edge `e_i`, whether or not it is present);
//! * if `v = src(e_i)`, the witness may consume a *present* edge:
//!   `(i, v, q) --eᵢ⁺--> (i+1, dst(e_i), q')` for each `q' ∈ δ(q, label)`.
//!
//! Any transition *into* an accepting configuration (`q` accepting, `v`
//! compatible with the target endpoint) is redirected to a per-layer
//! `done` state that self-advances on everything and accepts at layer
//! `m` — once some witness is complete the world is accepted no matter
//! what the remaining symbols say. The automaton is ambiguous (several
//! witnesses, several runs — one world), which CountNFA tolerates by
//! design: it counts distinct *strings*.
//!
//! Probabilities ride on the §5.1 multiplier gadget exactly as in the
//! database path reduction: edge `e` with probability `w/d` multiplies
//! `eᵢ⁺`-transitions by `w` and `eᵢ⁻`-transitions by `d − w` (a zero
//! multiplier drops the transition), both padded to a common bit width, so
//! `Pr(Q) = |L_k(M^c)| / ∏ d_e` with `k = m + Σ K_e`. Uniform `p = 1/2`
//! graphs have `K_e = 0` throughout — no gadget overhead at bench scale.
//!
//! Cyclic graphs are out of scope for this construction (a witness there
//! may need an edge arbitrarily many times; no combined FPRAS is known —
//! the Amarilli–van Bremen–Gaspard–Meel approximability result is for
//! DAGs). [`compile`] reports [`CompileError::CyclicGraph`]; the router
//! falls back to world enumeration when the graph is small enough.

use crate::model::{EdgeId, ProbGraph, VertexId};
use crate::rpq::{Endpoint, Rpq};
use pqe_arith::BigUint;
use pqe_automata::{weigh_nfa, Alphabet, Nfa, SymbolWeights};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Why compilation refused the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The graph has a directed cycle; the world-scan construction needs a
    /// DAG edge order.
    CyclicGraph {
        /// Vertices of the offending graph.
        vertices: usize,
        /// Edges of the offending graph.
        edges: usize,
    },
    /// An endpoint constant names no vertex of the graph.
    UnknownVertex(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::CyclicGraph { vertices, edges } => write!(
                f,
                "graph with {vertices} vertices / {edges} edges has a directed cycle; \
                 the RPQ→NFA world-scan construction requires a DAG \
                 (no combined FPRAS is known for cyclic probabilistic graphs)"
            ),
            CompileError::UnknownVertex(v) => {
                write!(f, "endpoint {v:?} names no vertex of the graph")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// The compiled `#NFA` instance: `Pr(Q) = |L_k(nfa)| / denominator` with
/// `k = target_len`.
#[derive(Debug)]
pub struct CompiledRpq {
    /// The translated automaton (multiplier gadgets spliced in).
    pub nfa: Nfa,
    /// String length `k = m + Σ K_e` to count at.
    pub target_len: usize,
    /// `∏_e d_e` — the global probability denominator.
    pub denominator: BigUint,
    /// Edge count `m` of the source graph (worlds are `2^m`).
    pub num_edges: usize,
    /// Product states before multiplier translation (diagnostics).
    pub product_states: usize,
}

/// A configuration of the layered scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Cfg {
    /// Partial witness: current path head + query-NFA state.
    Pair(VertexId, usize),
    /// A witness completed at or before this layer.
    Done,
}

/// Compiles `(graph, rpq)` into a `#NFA` instance. Emits the
/// `graph.compile` span for `--profile`.
pub fn compile(g: &ProbGraph, rpq: &Rpq) -> Result<CompiledRpq, CompileError> {
    let _span = pqe_obs::span::span("graph.compile");
    let topo = g.topo_order().ok_or(CompileError::CyclicGraph {
        vertices: g.num_vertices(),
        edges: g.num_edges(),
    })?;
    let mut topo_index = vec![0usize; g.num_vertices()];
    for (i, &v) in topo.iter().enumerate() {
        topo_index[v.index()] = i;
    }
    let source = resolve(g, &rpq.source)?;
    let target = resolve(g, &rpq.target)?;
    let query = rpq.regex.to_label_nfa();
    // Graph label id → query label index (labels absent from the regex
    // can never be consumed by a witness).
    let label_map: Vec<Option<usize>> = (0..g.num_labels())
        .map(|l| query.label_index(g.label_name(crate::LabelId(l as u32))))
        .collect();

    // The scan order: edges sorted by (topo(src), edge id).
    let mut order: Vec<EdgeId> = g.edge_ids().collect();
    order.sort_by_key(|&e| (topo_index[g.edge(e).src.index()], e.index()));
    let m = order.len();

    let accepting_cfg =
        |v: VertexId, q: usize| -> bool { query.accepting[q] && target.is_none_or(|t| t == v) };

    // Layer 0: the initial configurations. If any is already accepting
    // (ε ∈ L(R) with compatible endpoints), every world is accepted and
    // the automaton collapses to the done chain.
    let mut init: Vec<Cfg> = Vec::new();
    let sources: Vec<VertexId> = match source {
        Some(s) => vec![s],
        None => (0..g.num_vertices() as u32).map(VertexId).collect(),
    };
    let mut always = false;
    for &s in &sources {
        for &q in &query.initial {
            if accepting_cfg(s, q) {
                always = true;
            } else {
                init.push(Cfg::Pair(s, q));
            }
        }
    }
    if always {
        init = vec![Cfg::Done];
    }

    // Forward pass: materialize reachable configurations layer by layer.
    // `layers[i]` interns the layer-i configurations; `steps[i]` holds the
    // transitions (src index in layer i, edge-present?, dst index in
    // layer i+1).
    let mut layers: Vec<Vec<Cfg>> = Vec::with_capacity(m + 1);
    let mut index: Vec<HashMap<Cfg, usize>> = Vec::with_capacity(m + 1);
    let mut steps: Vec<Vec<(usize, bool, usize)>> = Vec::with_capacity(m);
    let mut first = HashMap::new();
    let mut first_v = Vec::new();
    for c in init {
        if let Entry::Vacant(slot) = first.entry(c) {
            slot.insert(first_v.len());
            first_v.push(c);
        }
    }
    layers.push(first_v);
    index.push(first);

    for (i, &eid) in order.iter().enumerate() {
        let edge = g.edge(eid);
        let mut next: Vec<Cfg> = Vec::new();
        let mut next_index: HashMap<Cfg, usize> = HashMap::new();
        let intern = |c: Cfg, next: &mut Vec<Cfg>, next_index: &mut HashMap<Cfg, usize>| {
            *next_index.entry(c).or_insert_with(|| {
                next.push(c);
                next.len() - 1
            })
        };
        let mut layer_steps: Vec<(usize, bool, usize)> = Vec::new();
        for (src_idx, &cfg) in layers[i].iter().enumerate() {
            match cfg {
                Cfg::Done => {
                    let d = intern(Cfg::Done, &mut next, &mut next_index);
                    layer_steps.push((src_idx, true, d));
                    layer_steps.push((src_idx, false, d));
                }
                Cfg::Pair(v, q) => {
                    // Witness skips this edge, present or not.
                    let stay = intern(Cfg::Pair(v, q), &mut next, &mut next_index);
                    layer_steps.push((src_idx, true, stay));
                    layer_steps.push((src_idx, false, stay));
                    // Witness consumes the present edge.
                    if v == edge.src {
                        if let Some(l) = label_map[edge.label.index()] {
                            for &(lab, q2) in &query.trans[q] {
                                if lab != l {
                                    continue;
                                }
                                let dst_cfg = if accepting_cfg(edge.dst, q2) {
                                    Cfg::Done
                                } else {
                                    Cfg::Pair(edge.dst, q2)
                                };
                                let d = intern(dst_cfg, &mut next, &mut next_index);
                                layer_steps.push((src_idx, true, d));
                            }
                        }
                    }
                }
            }
        }
        layer_steps.sort_unstable();
        layer_steps.dedup();
        steps.push(layer_steps);
        layers.push(next);
        index.push(next_index);
    }

    // Backward prune: keep only configurations that can still reach the
    // accepting `done` at layer m. Useless states never change the
    // language but inflate every CountNFA level.
    let mut useful: Vec<Vec<bool>> = layers.iter().map(|l| vec![false; l.len()]).collect();
    if let Some(&d) = index[m].get(&Cfg::Done) {
        useful[m][d] = true;
    }
    for i in (0..m).rev() {
        for &(s, _, d) in &steps[i] {
            if useful[i + 1][d] {
                useful[i][s] = true;
            }
        }
    }

    // Materialize the product NFA. Positional symbols `eᵢ⁺` / `eᵢ⁻` are
    // interned for every layer (names carry the edge for DOT readability).
    let mut alphabet = Alphabet::new();
    let mut pos_syms = Vec::with_capacity(m);
    let mut neg_syms = Vec::with_capacity(m);
    for (i, &eid) in order.iter().enumerate() {
        let e = g.edge(eid);
        let desc = format!(
            "{} -{}-> {} #{i}",
            g.vertex_name(e.src),
            g.label_name(e.label),
            g.vertex_name(e.dst)
        );
        pos_syms.push(alphabet.intern(&desc));
        neg_syms.push(alphabet.intern(&format!("¬{desc}")));
    }
    let mut nfa = Nfa::new(alphabet);
    let mut ids: Vec<Vec<Option<pqe_automata::StateId>>> =
        layers.iter().map(|l| vec![None; l.len()]).collect();
    for (i, layer) in layers.iter().enumerate() {
        for idx in 0..layer.len() {
            if useful[i][idx] {
                ids[i][idx] = Some(nfa.add_state());
            }
        }
    }
    let empty_language = layers[0].iter().enumerate().all(|(idx, _)| !useful[0][idx]);
    if empty_language {
        // No world satisfies the query: a single initial, non-accepting
        // state with no transitions counts zero at every length.
        let s = nfa.add_state();
        nfa.set_initial(s);
    } else {
        for &s in ids[0].iter().flatten() {
            nfa.set_initial(s);
        }
        if let Some(&d) = index[m].get(&Cfg::Done) {
            if let Some(s) = ids[m][d] {
                nfa.set_accepting(s);
            }
        }
        for (i, layer_steps) in steps.iter().enumerate() {
            for &(s, present, d) in layer_steps {
                if let (Some(src), Some(dst)) = (ids[i][s], ids[i + 1][d]) {
                    let sym = if present { pos_syms[i] } else { neg_syms[i] };
                    nfa.add_transition(src, sym, dst);
                }
            }
        }
    }
    let product_states = nfa.num_states();

    // Weigh the scan with the §5.1 multiplier gadget: one (w, d − w)
    // pair per position, shared by every transition reading that symbol.
    let mut weights = SymbolWeights::new();
    let mut extra = 0usize;
    for (i, &eid) in order.iter().enumerate() {
        let p = &g.edge(eid).prob;
        let w = p.numerator().magnitude().clone();
        let c = p.denominator() - &w;
        extra += weights.set_pair(pos_syms[i], neg_syms[i], w, c) as usize;
    }

    Ok(CompiledRpq {
        nfa: weigh_nfa(&nfa, &weights),
        target_len: m + extra,
        denominator: g.denominator_product(),
        num_edges: m,
        product_states,
    })
}

fn resolve(g: &ProbGraph, e: &Endpoint) -> Result<Option<VertexId>, CompileError> {
    match e {
        Endpoint::Any => Ok(None),
        Endpoint::Vertex(name) => g
            .vertex(name)
            .map(Some)
            .ok_or_else(|| CompileError::UnknownVertex(name.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::enumerate_probability;
    use crate::rpq;
    use pqe_arith::{BigFloat, Rational};

    fn graph(src: &str) -> ProbGraph {
        crate::io::load_str(src).unwrap()
    }

    /// Exact `Pr(Q)` through the compiled automaton, using the exact
    /// distinct-string counter as the counting back end.
    fn exact_via_nfa(g: &ProbGraph, q: &str) -> Rational {
        let rpq = rpq::parse(q).unwrap();
        let c = compile(g, &rpq).unwrap();
        let count = c.nfa.count_strings_exact(c.target_len);
        &Rational::from(count) / &Rational::from(c.denominator.clone())
    }

    fn oracle(g: &ProbGraph, q: &str) -> Rational {
        enumerate_probability(g, &rpq::parse(q).unwrap()).unwrap()
    }

    #[test]
    fn two_hop_path_is_the_product_of_edge_probabilities() {
        let g = graph("1/2 a -r-> b\n1/3 b -r-> c\n");
        assert_eq!(exact_via_nfa(&g, "a -> r.r -> c").to_string(), "1/6");
        assert_eq!(exact_via_nfa(&g, "a -> r -> b").to_string(), "1/2");
        assert_eq!(exact_via_nfa(&g, "a -> r -> c").to_string(), "0");
    }

    #[test]
    fn alternation_is_union_not_sum() {
        // Two disjoint routes a→c: direct ferry (1/2) or two roads (1/4).
        // P(union) = 1/2 + 1/4 − 1/8 = 5/8.
        let g = graph("1/2 a -road-> b\n1/2 b -road-> c\n1/2 a -ferry-> c\n");
        assert_eq!(
            exact_via_nfa(&g, "a -> road.road | ferry -> c").to_string(),
            "5/8"
        );
        assert_eq!(oracle(&g, "a -> road.road | ferry -> c").to_string(), "5/8");
    }

    #[test]
    fn star_and_optional_match_the_oracle() {
        let g = graph("1/2 a -r-> b\n1/3 b -r-> c\n2/3 a -s-> c\n1/5 c -r-> d\n");
        for q in [
            "a -> r* -> c",
            "a -> r*.s? -> c",
            "a -> (r|s)* -> d",
            "_ -> r.r -> _",
            "a -> s.r? -> _",
        ] {
            assert_eq!(exact_via_nfa(&g, q), oracle(&g, q), "query {q}");
        }
    }

    #[test]
    fn empty_word_with_matching_endpoints_is_certain() {
        let g = graph("1/2 a -r-> b\n");
        assert_eq!(exact_via_nfa(&g, "a -> r? -> a").to_string(), "1");
        assert_eq!(exact_via_nfa(&g, "_ -> r* -> _").to_string(), "1");
        // ε matches but endpoints differ: only the real edge helps.
        assert_eq!(exact_via_nfa(&g, "a -> r? -> b").to_string(), "1/2");
    }

    #[test]
    fn certain_and_impossible_edges_collapse() {
        let g = graph("a -r-> b\n0/1 b -r-> c\n1/2 b -s-> c\n");
        assert_eq!(exact_via_nfa(&g, "a -> r -> b").to_string(), "1");
        assert_eq!(exact_via_nfa(&g, "a -> r.r -> c").to_string(), "0");
        assert_eq!(exact_via_nfa(&g, "a -> r.s -> c").to_string(), "1/2");
    }

    #[test]
    fn parallel_edges_are_independent() {
        let g = graph("1/2 a -r-> b\n1/2 a -r-> b\n");
        // Either parallel edge present: 1 − 1/4.
        assert_eq!(exact_via_nfa(&g, "a -> r -> b").to_string(), "3/4");
    }

    #[test]
    fn unknown_vertex_and_cycles_are_structured_errors() {
        let g = graph("1/2 a -r-> b\n1/2 b -r-> a\n");
        match compile(&g, &rpq::parse("a -> r -> b").unwrap()) {
            Err(CompileError::CyclicGraph {
                vertices: 2,
                edges: 2,
            }) => {}
            other => panic!("expected CyclicGraph, got {other:?}"),
        }
        let g = graph("1/2 a -r-> b\n");
        match compile(&g, &rpq::parse("a -> r -> nowhere").unwrap()) {
            Err(CompileError::UnknownVertex(v)) => assert_eq!(v, "nowhere"),
            other => panic!("expected UnknownVertex, got {other:?}"),
        }
    }

    #[test]
    fn weighted_count_matches_bigfloat_pipeline() {
        // Same path the estimator takes: BigFloat division of the exact
        // count — sanity-checks target_len / denominator bookkeeping.
        let g = graph("2/3 a -r-> b\n3/4 b -r-> c\n");
        let c = compile(&g, &rpq::parse("a -> r.r -> c").unwrap()).unwrap();
        let count = c.nfa.count_strings_exact(c.target_len);
        let p = BigFloat::from_biguint(&count) / BigFloat::from_biguint(&c.denominator);
        assert!((p.to_f64() - 0.5).abs() < 1e-12, "got {}", p.to_f64());
    }

    #[test]
    fn random_dags_agree_with_the_oracle() {
        use pqe_rand::rngs::StdRng;
        use pqe_rand::SeedableRng;
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = crate::generators::road_grid(2, 3, 4, &mut rng);
            for q in ["v0_0 -> road* -> v1_2", "_ -> road.road -> _"] {
                assert_eq!(exact_via_nfa(&g, q), oracle(&g, q), "seed {seed} query {q}");
            }
        }
    }
}
