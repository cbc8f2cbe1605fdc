//! The hypertree data structure `⟨T, χ, ξ⟩`.

use pqe_query::{ConjunctiveQuery, Var};
use std::collections::BTreeSet;

/// Index of a vertex in a [`Hypertree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// One decomposition vertex `p` with its labels `χ(p)` (variables) and
/// `ξ(p)` (atom indices into the query).
#[derive(Debug, Clone)]
pub struct Node {
    /// `χ(p)` ⊆ vars(Q).
    pub chi: BTreeSet<Var>,
    /// `ξ(p)` ⊆ atoms(Q), as indices into `q.atoms()`.
    pub xi: BTreeSet<usize>,
    /// Children in the rooted tree.
    pub children: Vec<NodeId>,
    /// Parent (`None` for the root).
    pub parent: Option<NodeId>,
}

/// A rooted hypertree `⟨T, χ, ξ⟩` for a conjunctive query (paper §2).
///
/// Whether it is a valid (generalized) hypertree *decomposition* is checked
/// separately by [`crate::validate`].
#[derive(Debug, Clone)]
pub struct Hypertree {
    nodes: Vec<Node>,
    root: NodeId,
}

impl Hypertree {
    /// Creates a single-vertex tree.
    pub fn singleton(chi: BTreeSet<Var>, xi: BTreeSet<usize>) -> Self {
        Hypertree {
            nodes: vec![Node {
                chi,
                xi,
                children: Vec::new(),
                parent: None,
            }],
            root: NodeId(0),
        }
    }

    /// The root vertex.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Vertex accessor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has no vertices (never true for constructed trees).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a fresh vertex under `parent`, returning its id.
    pub fn add_child(
        &mut self,
        parent: NodeId,
        chi: BTreeSet<Var>,
        xi: BTreeSet<usize>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            chi,
            xi,
            children: Vec::new(),
            parent: Some(parent),
        });
        self.nodes[parent.0].children.push(id);
        id
    }

    /// Grafts `sub` (an entire hypertree) under `parent`, returning the id
    /// of `sub`'s root in `self`.
    pub fn graft(&mut self, parent: NodeId, sub: &Hypertree) -> NodeId {
        let offset = self.nodes.len();
        for (i, n) in sub.nodes.iter().enumerate() {
            self.nodes.push(Node {
                chi: n.chi.clone(),
                xi: n.xi.clone(),
                children: n.children.iter().map(|c| NodeId(c.0 + offset)).collect(),
                parent: Some(match n.parent {
                    Some(p) => NodeId(p.0 + offset),
                    None => parent,
                }),
            });
            if i == sub.root.0 {
                let new_id = NodeId(sub.root.0 + offset);
                self.nodes[parent.0].children.push(new_id);
            }
        }
        NodeId(sub.root.0 + offset)
    }

    /// Replaces the child list of `p` (crate-internal; used by binarize).
    pub(crate) fn set_children_internal(&mut self, p: NodeId, children: Vec<NodeId>) {
        self.nodes[p.0].children = children;
    }

    /// Re-parents `c` under `p` (crate-internal; used by binarize).
    pub(crate) fn set_parent_internal(&mut self, c: NodeId, p: NodeId) {
        self.nodes[c.0].parent = Some(p);
    }

    /// Replaces `ξ(p)` (crate-internal; used by the greedy decomposer's
    /// bag-cover step).
    pub(crate) fn set_xi_internal(&mut self, p: NodeId, xi: BTreeSet<usize>) {
        self.nodes[p.0].xi = xi;
    }

    /// All vertex ids in breadth-first order from the root.
    ///
    /// This order satisfies the paper's `≺_vertices` requirement
    /// (`p ≺ q ⇒ depth(p) ≤ depth(q)`), and is the canonical vertex order
    /// used by the automaton constructions.
    pub fn bfs_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut queue = std::collections::VecDeque::from([self.root]);
        while let Some(id) = queue.pop_front() {
            order.push(id);
            queue.extend(self.node(id).children.iter().copied());
        }
        debug_assert_eq!(order.len(), self.nodes.len(), "tree is disconnected");
        order
    }

    /// Depth of each vertex (root = 0), indexed by `NodeId`.
    pub fn depths(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.nodes.len()];
        for id in self.bfs_order() {
            if let Some(p) = self.node(id).parent {
                d[id.0] = d[p.0] + 1;
            }
        }
        d
    }

    /// The decomposition width: `max_p |ξ(p)|`.
    pub fn width(&self) -> usize {
        self.nodes.iter().map(|n| n.xi.len()).max().unwrap_or(0)
    }

    /// Maximum number of children of any vertex.
    pub fn max_fanout(&self) -> usize {
        self.nodes.iter().map(|n| n.children.len()).max().unwrap_or(0)
    }

    /// Whether `p` is a covering vertex for atom `atom_idx`:
    /// `A ∈ ξ(p)` and `vars(A) ⊆ χ(p)`.
    pub fn is_covering(&self, q: &ConjunctiveQuery, p: NodeId, atom_idx: usize) -> bool {
        let n = self.node(p);
        n.xi.contains(&atom_idx) && q.atoms()[atom_idx].vars().is_subset(&n.chi)
    }

    /// For each atom, its `≺_vertices`-minimal covering vertex (BFS order),
    /// or `None` if uncovered. Index `i` corresponds to atom `i`.
    pub fn min_covering_vertices(&self, q: &ConjunctiveQuery) -> Vec<Option<NodeId>> {
        let mut out = vec![None; q.len()];
        for id in self.bfs_order() {
            for (i, slot) in out.iter_mut().enumerate() {
                if slot.is_none() && self.is_covering(q, id, i) {
                    *slot = Some(id);
                }
            }
        }
        out
    }

    /// Whether every atom has a covering vertex (paper §2: *complete*
    /// decomposition).
    pub fn is_complete(&self, q: &ConjunctiveQuery) -> bool {
        self.min_covering_vertices(q).iter().all(Option::is_some)
    }

    /// Renders the tree for debugging, one vertex per line.
    pub fn display(&self, q: &ConjunctiveQuery) -> String {
        let mut s = String::new();
        let depths = self.depths();
        for id in self.bfs_order() {
            let n = self.node(id);
            let chi: Vec<&str> = n.chi.iter().map(|&v| q.var_name(v)).collect();
            let xi: Vec<String> = n
                .xi
                .iter()
                .map(|&a| q.atoms()[a].relation.clone())
                .collect();
            s.push_str(&format!(
                "{}p{}: chi={{{}}} xi={{{}}}\n",
                "  ".repeat(depths[id.0]),
                id.0,
                chi.join(","),
                xi.join(",")
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqe_query::parse;

    fn two_node_tree(q: &ConjunctiveQuery) -> Hypertree {
        let mut t = Hypertree::singleton(q.atoms()[0].vars(), [0].into());
        t.add_child(t.root(), q.atoms()[1].vars(), [1].into());
        t
    }

    #[test]
    fn build_and_accessors() {
        let q = parse("R(x,y), S(y,z)").unwrap();
        let t = two_node_tree(&q);
        assert_eq!(t.len(), 2);
        assert_eq!(t.width(), 1);
        assert_eq!(t.max_fanout(), 1);
        assert_eq!(t.bfs_order(), vec![NodeId(0), NodeId(1)]);
        assert_eq!(t.depths(), vec![0, 1]);
    }

    #[test]
    fn covering_vertices() {
        let q = parse("R(x,y), S(y,z)").unwrap();
        let t = two_node_tree(&q);
        assert!(t.is_covering(&q, NodeId(0), 0));
        assert!(!t.is_covering(&q, NodeId(0), 1));
        let mins = t.min_covering_vertices(&q);
        assert_eq!(mins, vec![Some(NodeId(0)), Some(NodeId(1))]);
        assert!(t.is_complete(&q));
    }

    #[test]
    fn incomplete_when_atom_uncovered() {
        let q = parse("R(x,y), S(y,z)").unwrap();
        // Single vertex covering only atom 0.
        let t = Hypertree::singleton(q.atoms()[0].vars(), [0].into());
        assert!(!t.is_complete(&q));
    }

    #[test]
    fn graft_preserves_structure() {
        let q = parse("R(x,y), S(y,z), T(z,w)").unwrap();
        let mut t = Hypertree::singleton(q.atoms()[0].vars(), [0].into());
        let mut sub = Hypertree::singleton(q.atoms()[1].vars(), [1].into());
        sub.add_child(sub.root(), q.atoms()[2].vars(), [2].into());
        let sub_root = t.graft(t.root(), &sub);
        assert_eq!(t.len(), 3);
        assert_eq!(t.node(sub_root).parent, Some(t.root()));
        assert_eq!(t.node(sub_root).children.len(), 1);
        assert_eq!(t.bfs_order().len(), 3);
    }

    #[test]
    fn bfs_respects_depth_monotonicity() {
        let q = parse("R(x,y), S(y,z), T(z,w), U(w,v)").unwrap();
        let mut t = Hypertree::singleton(q.atoms()[0].vars(), [0].into());
        let c1 = t.add_child(t.root(), q.atoms()[1].vars(), [1].into());
        t.add_child(t.root(), q.atoms()[2].vars(), [2].into());
        t.add_child(c1, q.atoms()[3].vars(), [3].into());
        let depths = t.depths();
        let order = t.bfs_order();
        for w in order.windows(2) {
            assert!(depths[w[0].0] <= depths[w[1].0]);
        }
    }
}
