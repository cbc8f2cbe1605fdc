//! Exact world enumeration — the ground-truth oracle for small graphs.
//!
//! `Pr(Q) = Σ_{W ⊨ Q} Pr(W)` over the `2^m` edge subsets, summed by a
//! depth-first **edge-factoring** search instead of a scan of every
//! world. An edge `e` with probability `n_e/d_e` weighs `n_e` when
//! present and `d_e − n_e` when absent, so a world's probability is its
//! integer weight over `Π_e d_e`; the search sums `BigUint` weights and
//! builds one [`Rational`] at the end. RPQ satisfaction is monotone in
//! the edge set, which prunes whole subtrees: once the present edges
//! satisfy the query every completion does (their weights sum to the
//! remaining `Π d_j`), and once present ∪ undecided edges cannot, none
//! does. Edges whose label the query never reads, or that no source
//! reaches, are dropped up front (each contributes `d/d = 1`). The rest
//! are decided in depth-first preorder from the source, so the edges of
//! one path come first and pruning starts early. Each check is a
//! product-reachability walk (graph restricted to the allowed edges ×
//! query label NFA, fixpoint DFS — cycles are fine here, unlike the
//! compiled route). The worst case stays exponential in the edge count;
//! [`MAX_ENUM_EDGES`] bounds what the router will enumerate.

use crate::model::{LabelId, ProbGraph, VertexId};
use crate::rpq::{Endpoint, LabelNfa, Rpq};
use pqe_arith::{BigInt, BigUint, Rational};

/// Largest edge count the enumeration oracle accepts (`2^16` worlds).
pub const MAX_ENUM_EDGES: usize = 16;

// The search holds edge sets as `u32` masks.
const _: () = assert!(MAX_ENUM_EDGES < 32);

/// Why the oracle refused the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// Too many edges to enumerate.
    TooLarge {
        /// Edges of the offending graph.
        edges: usize,
        /// The enumeration bound.
        bound: usize,
    },
    /// An endpoint constant names no vertex of the graph.
    UnknownVertex(String),
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::TooLarge { edges, bound } => write!(
                f,
                "{edges} edges exceed the world-enumeration bound of {bound} (2^{edges} worlds)"
            ),
            OracleError::UnknownVertex(v) => {
                write!(f, "endpoint {v:?} names no vertex of the graph")
            }
        }
    }
}

impl std::error::Error for OracleError {}

/// Exact `Pr(Q)` summed over every world. Works on cyclic graphs (each
/// check is a reachability fixpoint, not a scan).
pub fn enumerate_probability(g: &ProbGraph, rpq: &Rpq) -> Result<Rational, OracleError> {
    let m = g.num_edges();
    if m > MAX_ENUM_EDGES {
        return Err(OracleError::TooLarge {
            edges: m,
            bound: MAX_ENUM_EDGES,
        });
    }
    let source = resolve(g, &rpq.source)?;
    let target = resolve(g, &rpq.target)?;
    let query = rpq.regex.to_label_nfa();
    Ok(Search::new(g, &query, source, target).run())
}

/// The edge-factoring search. Edges `0..i` are decided (the bits of
/// `present`), edges `i..` are undecided; the weight of a node is the
/// product of its decided edges' weights.
struct Search<'a> {
    query: &'a LabelNfa,
    /// The searched edges as `(query label, dst)`.
    edges: Vec<(usize, usize)>,
    /// The mask of all searched edges.
    all: u32,
    /// `n_e`: an edge's weight when present.
    present_weight: Vec<BigUint>,
    /// `d_e − n_e`: an edge's weight when absent.
    absent_weight: Vec<BigUint>,
    /// `suffix[i] = Π_{j ≥ i} d_j`; `suffix[k] = 1`.
    suffix: Vec<BigUint>,
    /// Per-vertex out-edges, as indices into `edges`.
    out: Vec<Vec<usize>>,
    sources: Vec<usize>,
    target: Option<usize>,
    /// `(vertex, query state)` pairs visited by the current check carry
    /// the current `stamp`, so the buffer is never cleared.
    seen: Vec<u32>,
    stamp: u32,
    stack: Vec<(usize, usize)>,
    total: BigUint,
}

impl<'a> Search<'a> {
    fn new(
        g: &ProbGraph,
        query: &'a LabelNfa,
        source: Option<VertexId>,
        target: Option<VertexId>,
    ) -> Search<'a> {
        let n = g.num_vertices();
        let sources: Vec<usize> = match source {
            Some(s) => vec![s.index()],
            None => (0..n).collect(),
        };
        let mut edges = Vec::new();
        let mut present_weight = Vec::new();
        let mut absent_weight = Vec::new();
        let mut dens = Vec::new();
        let mut out = vec![Vec::new(); n];
        for (e, l) in relevant_edges(g, query, &sources) {
            let e = &g.edges()[e];
            let num = e.prob.numerator().magnitude();
            let den = e.prob.denominator();
            out[e.src.index()].push(edges.len());
            edges.push((l, e.dst.index()));
            present_weight.push(num.clone());
            absent_weight.push(den - num);
            dens.push(den.clone());
        }
        let mut suffix = vec![BigUint::one(); edges.len() + 1];
        for i in (0..edges.len()).rev() {
            suffix[i] = &suffix[i + 1] * &dens[i];
        }
        Search {
            query,
            all: (1u32 << edges.len()) - 1,
            edges,
            present_weight,
            absent_weight,
            suffix,
            out,
            sources,
            target: target.map(VertexId::index),
            seen: vec![0; n * query.num_states],
            stamp: 0,
            stack: Vec::new(),
            total: BigUint::zero(),
        }
    }

    /// `Σ_{W ⊨ Q} Π_e weight_e(W) / Π_e d_e`.
    fn run(mut self) -> Rational {
        if self.satisfies(0) {
            self.total = self.suffix[0].clone();
        } else if self.satisfies(self.all) {
            self.descend(0, 0, BigUint::one());
        }
        Rational::new(BigInt::from(self.total), self.suffix.swap_remove(0))
    }

    /// Splits on edge `i`. Invariant: `present` does not satisfy the
    /// query, `present ∪ {i..}` does — so `i < k`, and each branch needs
    /// only the one check its change can flip: adding edge `i` can only
    /// satisfy the lower bound, dropping it can only break the upper.
    fn descend(&mut self, i: usize, present: u32, w: BigUint) {
        let bit = 1u32 << i;
        let rest = self.all & !((bit << 1) - 1);
        if !self.present_weight[i].is_zero() {
            let w1 = &w * &self.present_weight[i];
            if self.satisfies(present | bit) {
                self.total += &w1 * &self.suffix[i + 1];
            } else {
                self.descend(i + 1, present | bit, w1);
            }
        }
        if !self.absent_weight[i].is_zero() && self.satisfies(present | rest) {
            let w0 = &w * &self.absent_weight[i];
            self.descend(i + 1, present, w0);
        }
    }

    /// Whether the edges in `allowed` contain a matching path: fixpoint
    /// DFS over `(vertex, query state)` pairs.
    fn satisfies(&mut self, allowed: u32) -> bool {
        let qn = self.query.num_states;
        self.stamp += 1;
        let stamp = self.stamp;
        self.stack.clear();
        for &v in &self.sources {
            for &q in &self.query.initial {
                if self.seen[v * qn + q] != stamp {
                    self.seen[v * qn + q] = stamp;
                    self.stack.push((v, q));
                }
            }
        }
        while let Some((v, q)) = self.stack.pop() {
            if self.query.accepting[q] && self.target.is_none_or(|t| t == v) {
                return true;
            }
            for &e in &self.out[v] {
                if allowed >> e & 1 == 0 {
                    continue;
                }
                let (l, dst) = self.edges[e];
                for &(lab, q2) in &self.query.trans[q] {
                    if lab == l && self.seen[dst * qn + q2] != stamp {
                        self.seen[dst * qn + q2] = stamp;
                        self.stack.push((dst, q2));
                    }
                }
            }
        }
        false
    }
}

/// The edges the search decides, in depth-first preorder from the
/// sources, each with its query label index. An edge the query's label
/// set never reads, or whose tail no source reaches, lies on no matching
/// path; its two branches sum to `d/d = 1`, so it is left out. Preorder
/// decides the edges of one path from a source first, so a satisfying
/// path (and the pruning it allows) shows up early.
fn relevant_edges(g: &ProbGraph, query: &LabelNfa, sources: &[usize]) -> Vec<(usize, usize)> {
    let label_map: Vec<Option<usize>> = (0..g.num_labels())
        .map(|l| query.label_index(g.label_name(LabelId(l as u32))))
        .collect();
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); g.num_vertices()];
    for (i, e) in g.edges().iter().enumerate() {
        if let Some(l) = label_map[e.label.index()] {
            adj[e.src.index()].push((i, l));
        }
    }
    let mut visited = vec![false; g.num_vertices()];
    let mut order = Vec::new();
    // `(vertex, next out-edge position)`: an explicit-stack preorder.
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for &s in sources {
        if visited[s] {
            continue;
        }
        visited[s] = true;
        stack.push((s, 0));
        while let Some(top) = stack.last_mut() {
            let (v, pos) = *top;
            let Some(&(e, l)) = adj[v].get(pos) else {
                stack.pop();
                continue;
            };
            top.1 += 1;
            order.push((e, l));
            let dst = g.edges()[e].dst.index();
            if !visited[dst] {
                visited[dst] = true;
                stack.push((dst, 0));
            }
        }
    }
    order
}

fn resolve(g: &ProbGraph, e: &Endpoint) -> Result<Option<VertexId>, OracleError> {
    match e {
        Endpoint::Any => Ok(None),
        Endpoint::Vertex(name) => g
            .vertex(name)
            .map(Some)
            .ok_or_else(|| OracleError::UnknownVertex(name.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpq;

    fn prob(src: &str, q: &str) -> Rational {
        let g = crate::io::load_str(src).unwrap();
        enumerate_probability(&g, &rpq::parse(q).unwrap()).unwrap()
    }

    /// The mask loop the edge-factoring search replaced: every one of the
    /// `2^m` worlds, its probability as a product of `Rational`s, and a
    /// fresh reachability walk per world.
    fn mask_loop(g: &ProbGraph, rpq: &Rpq) -> Result<Rational, OracleError> {
        let m = g.num_edges();
        if m > MAX_ENUM_EDGES {
            return Err(OracleError::TooLarge {
                edges: m,
                bound: MAX_ENUM_EDGES,
            });
        }
        let source = resolve(g, &rpq.source)?;
        let target = resolve(g, &rpq.target)?;
        let query = rpq.regex.to_label_nfa();
        let label_map: Vec<Option<usize>> = (0..g.num_labels())
            .map(|l| query.label_index(g.label_name(LabelId(l as u32))))
            .collect();
        let mut total = Rational::zero();
        for mask in 0u64..(1u64 << m) {
            let mut p = Rational::one();
            for (i, e) in g.edges().iter().enumerate() {
                if mask >> i & 1 == 1 {
                    p = &p * &e.prob;
                } else {
                    p = &p * &e.prob.complement();
                }
            }
            if !p.is_zero() && world_satisfies(g, &query, &label_map, source, target, mask) {
                total = &total + &p;
            }
        }
        Ok(total)
    }

    fn world_satisfies(
        g: &ProbGraph,
        query: &LabelNfa,
        label_map: &[Option<usize>],
        source: Option<VertexId>,
        target: Option<VertexId>,
        mask: u64,
    ) -> bool {
        let n = g.num_vertices();
        let qn = query.num_states;
        let mut seen = vec![false; n * qn];
        let mut stack: Vec<(usize, usize)> = Vec::new();
        let sources: Vec<usize> = match source {
            Some(s) => vec![s.index()],
            None => (0..n).collect(),
        };
        for v in sources {
            for &q in &query.initial {
                if !seen[v * qn + q] {
                    seen[v * qn + q] = true;
                    stack.push((v, q));
                }
            }
        }
        while let Some((v, q)) = stack.pop() {
            if query.accepting[q] && target.is_none_or(|t| t.index() == v) {
                return true;
            }
            for (i, e) in g.edges().iter().enumerate() {
                if mask >> i & 1 == 0 || e.src.index() != v {
                    continue;
                }
                let Some(l) = label_map[e.label.index()] else {
                    continue;
                };
                for &(lab, q2) in &query.trans[q] {
                    if lab == l && !seen[e.dst.index() * qn + q2] {
                        seen[e.dst.index() * qn + q2] = true;
                        stack.push((e.dst.index(), q2));
                    }
                }
            }
        }
        false
    }

    /// Property: the edge-factoring search returns exactly the mask
    /// loop's `Rational` (or its error) on random multigraphs with
    /// cycles, self-loops, parallel edges, probabilities 0 and 1, labels
    /// the query never reads, `_` endpoints and ε-accepting regexes.
    #[test]
    fn search_matches_the_mask_loop() {
        use pqe_testkit::prelude::*;
        const VERTICES: [&str; 4] = ["a", "b", "c", "d"];
        // `t` is read by no query below.
        const LABELS: [&str; 3] = ["r", "s", "t"];
        const PROBS: [(i64, u64); 8] = [
            (1, 2),
            (0, 1),
            (1, 1),
            (1, 3),
            (2, 3),
            (3, 4),
            (2, 5),
            (5, 7),
        ];
        const REGEXES: [&str; 9] = [
            "r*", "r?", "r", "r.s", "(r|s)*", "r*.s", "s?.r", "(r.s)*", "r.r",
        ];
        const ENDPOINTS: [&str; 5] = ["a", "b", "c", "_", "d"];
        let edge = (0usize..4, 0usize..3, 0usize..4, 0usize..8);
        let gen = (
            vec(edge, 0..=12),
            0usize..REGEXES.len(),
            0usize..ENDPOINTS.len(),
            0usize..ENDPOINTS.len(),
            any::<bool>(),
        );
        check(
            "search_matches_the_mask_loop",
            &Config::cases(128),
            &gen,
            |(edges, regex, source, target, isolated)| {
                let mut g = ProbGraph::new();
                if *isolated {
                    for v in VERTICES {
                        g.add_vertex(v);
                    }
                }
                for &(src, label, dst, p) in edges {
                    let (num, den) = PROBS[p];
                    let p = Rational::from_ratio(num, den);
                    g.add_edge(VERTICES[src], LABELS[label], VERTICES[dst], p);
                }
                let q = rpq::parse(&format!(
                    "{} -> {} -> {}",
                    ENDPOINTS[*source], REGEXES[*regex], ENDPOINTS[*target]
                ))
                .unwrap();
                prop_assert_eq!(enumerate_probability(&g, &q), mask_loop(&g, &q));
                Ok(())
            },
        );
    }

    #[test]
    fn single_edge_is_its_probability() {
        assert_eq!(prob("1/3 a -r-> b\n", "a -> r -> b").to_string(), "1/3");
        assert_eq!(prob("1/3 a -r-> b\n", "b -> r -> a").to_string(), "0");
    }

    #[test]
    fn cycles_are_handled_by_the_fixpoint() {
        // a→b→a cycle plus an exit; r* can loop arbitrarily.
        let src = "1/2 a -r-> b\n1/2 b -r-> a\n1/2 b -s-> c\n";
        // a reaches c iff a→b present and b→c present: 1/4.
        assert_eq!(prob(src, "a -> r*.s -> c").to_string(), "1/4");
        // a reaches a via ε regardless of any edge.
        assert_eq!(prob(src, "a -> r* -> a").to_string(), "1");
        // Odd r-walks a→…→a need the full cycle... any odd-length walk
        // ending at a uses both edges: 1/4.
        assert_eq!(prob(src, "a -> r.r -> a").to_string(), "1/4");
    }

    #[test]
    fn zero_probability_edges_never_help() {
        assert_eq!(
            prob("0/1 a -r-> b\n1/2 a -s-> b\n", "a -> r|s -> b").to_string(),
            "1/2"
        );
    }

    #[test]
    fn bound_is_enforced() {
        let mut big = String::new();
        for i in 0..=MAX_ENUM_EDGES {
            big.push_str(&format!("1/2 v{i} -r-> v{}\n", i + 1));
        }
        let g = crate::io::load_str(&big).unwrap();
        match enumerate_probability(&g, &rpq::parse("v0 -> r -> v1").unwrap()) {
            Err(OracleError::TooLarge { edges, bound }) => {
                assert_eq!(edges, MAX_ENUM_EDGES + 1);
                assert_eq!(bound, MAX_ENUM_EDGES);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn unknown_vertices_are_reported() {
        let g = crate::io::load_str("1/2 a -r-> b\n").unwrap();
        match enumerate_probability(&g, &rpq::parse("ghost -> r -> b").unwrap()) {
            Err(OracleError::UnknownVertex(v)) => assert_eq!(v, "ghost"),
            other => panic!("expected UnknownVertex, got {other:?}"),
        }
    }
}
