//! The edge-labeled probabilistic graph model.
//!
//! A [`ProbGraph`] is a finite directed multigraph whose edges carry a
//! label (from a finite label set) and an independent existence
//! probability — the tuple-independent semantics of the probabilistic
//! databases in `pqe-db`, specialized to binary relations: a *world* keeps
//! each edge independently with its probability, and a regular path query
//! asks for the probability that a world contains a matching path.
//!
//! Vertices and labels are interned; edges are plain indexed records, so
//! the compiler and the oracle can address them by [`EdgeId`] without
//! hashing.

use pqe_arith::{BigUint, Rational};
use std::collections::HashMap;
use std::fmt;

/// An interned vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned edge label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelId(pub u32);

impl LabelId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An edge, addressed by insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One labeled probabilistic edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Edge label.
    pub label: LabelId,
    /// Target vertex.
    pub dst: VertexId,
    /// Existence probability (a rational in `[0, 1]`).
    pub prob: Rational,
}

/// An edge-labeled probabilistic directed multigraph.
#[derive(Debug, Clone, Default)]
pub struct ProbGraph {
    vertex_names: Vec<String>,
    vertex_ids: HashMap<String, VertexId>,
    label_names: Vec<String>,
    label_ids: HashMap<String, LabelId>,
    edges: Vec<Edge>,
}

impl ProbGraph {
    /// An empty graph.
    pub fn new() -> ProbGraph {
        ProbGraph::default()
    }

    /// Interns a vertex by name (idempotent).
    pub fn add_vertex(&mut self, name: &str) -> VertexId {
        if let Some(&v) = self.vertex_ids.get(name) {
            return v;
        }
        let v = VertexId(self.vertex_names.len() as u32);
        self.vertex_names.push(name.to_owned());
        self.vertex_ids.insert(name.to_owned(), v);
        v
    }

    /// Looks up a vertex by name.
    pub fn vertex(&self, name: &str) -> Option<VertexId> {
        self.vertex_ids.get(name).copied()
    }

    /// The name of `v`.
    pub fn vertex_name(&self, v: VertexId) -> &str {
        &self.vertex_names[v.index()]
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertex_names.len()
    }

    /// Interns a label by name (idempotent).
    fn add_label(&mut self, name: &str) -> LabelId {
        if let Some(&l) = self.label_ids.get(name) {
            return l;
        }
        let l = LabelId(self.label_names.len() as u32);
        self.label_names.push(name.to_owned());
        self.label_ids.insert(name.to_owned(), l);
        l
    }

    /// Looks up a label by name.
    pub fn label(&self, name: &str) -> Option<LabelId> {
        self.label_ids.get(name).copied()
    }

    /// The name of `l`.
    pub fn label_name(&self, l: LabelId) -> &str {
        &self.label_names[l.index()]
    }

    /// Number of distinct labels.
    pub fn num_labels(&self) -> usize {
        self.label_names.len()
    }

    /// Adds an edge, interning endpoints and label. Parallel edges are
    /// allowed (each is an independent event). Panics if `prob` lies
    /// outside `[0, 1]` — loaders validate before calling.
    pub fn add_edge(&mut self, src: &str, label: &str, dst: &str, prob: Rational) -> EdgeId {
        assert!(
            prob.is_probability(),
            "edge probability {prob} outside [0, 1]"
        );
        let src = self.add_vertex(src);
        let label = self.add_label(label);
        let dst = self.add_vertex(dst);
        let e = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            src,
            label,
            dst,
            prob,
        });
        e
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All edges in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge record of `e`.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// All edge ids in insertion order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// A topological order of the vertices (Kahn), or `None` when the
    /// graph has a directed cycle. Edge probabilities are ignored: an
    /// edge with probability zero still counts for acyclicity (routing
    /// stays a function of the graph's shape, not its numbers).
    pub fn topo_order(&self) -> Option<Vec<VertexId>> {
        let n = self.num_vertices();
        let mut indegree = vec![0usize; n];
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.edges {
            if e.src == e.dst {
                return None; // self-loop
            }
            indegree[e.dst.index()] += 1;
            out[e.src.index()].push(e.dst.index());
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        // Pop smallest-id first: the order (hence the compiled automaton)
        // is deterministic for a fixed graph.
        queue.sort_unstable_by(|a, b| b.cmp(a));
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            order.push(VertexId(v as u32));
            for &w in &out[v] {
                indegree[w] -= 1;
                if indegree[w] == 0 {
                    // Insertion keeps the pending set sorted descending.
                    let pos = queue.partition_point(|&x| x > w);
                    queue.insert(pos, w);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Whether the graph is a DAG.
    pub fn is_acyclic(&self) -> bool {
        self.topo_order().is_some()
    }

    /// The global denominator `∏_e d_e` over all edge probabilities
    /// (mirrors `ProbDatabase::denominator_product`).
    pub fn denominator_product(&self) -> BigUint {
        let mut d = BigUint::one();
        for e in &self.edges {
            d = &d * e.prob.denominator();
        }
        d
    }
}

impl fmt::Display for ProbGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "graph({} vertices, {} edges, {} labels)",
            self.num_vertices(),
            self.num_edges(),
            self.num_labels()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half() -> Rational {
        Rational::from_ratio(1, 2)
    }

    #[test]
    fn interning_is_idempotent() {
        let mut g = ProbGraph::new();
        g.add_edge("a", "road", "b", half());
        g.add_edge("a", "road", "c", half());
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_labels(), 1);
        assert_eq!(g.vertex("a"), Some(VertexId(0)));
        assert_eq!(g.vertex_name(VertexId(1)), "b");
        assert_eq!(g.label("road"), Some(LabelId(0)));
    }

    #[test]
    fn topo_order_on_a_dag() {
        let mut g = ProbGraph::new();
        g.add_edge("a", "r", "b", half());
        g.add_edge("b", "r", "c", half());
        g.add_edge("a", "r", "c", half());
        let order = g.topo_order().unwrap();
        let pos = |name: &str| {
            order
                .iter()
                .position(|&v| g.vertex_name(v) == name)
                .unwrap()
        };
        assert!(pos("a") < pos("b"));
        assert!(pos("b") < pos("c"));
        assert!(g.is_acyclic());
    }

    #[test]
    fn cycles_and_self_loops_are_detected() {
        let mut g = ProbGraph::new();
        g.add_edge("a", "r", "b", half());
        g.add_edge("b", "r", "a", half());
        assert!(!g.is_acyclic());

        let mut g = ProbGraph::new();
        g.add_edge("a", "r", "a", half());
        assert!(!g.is_acyclic());
    }

    #[test]
    fn denominator_product_multiplies_edge_denominators() {
        let mut g = ProbGraph::new();
        g.add_edge("a", "r", "b", Rational::from_ratio(1, 3));
        g.add_edge("b", "r", "c", Rational::from_ratio(2, 5));
        assert_eq!(g.denominator_product().to_u64(), Some(15));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_out_of_range_probability() {
        let mut g = ProbGraph::new();
        g.add_edge("a", "r", "b", Rational::from_ratio(3, 2));
    }
}
