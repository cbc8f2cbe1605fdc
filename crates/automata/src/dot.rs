//! Graphviz DOT rendering of compiled automata (`--dump-automaton`).
//!
//! Debug tooling for the reduction pipelines: the emitted digraph shows
//! states (initial = bold, accepting = doublecircle), transitions labelled
//! by their alphabet symbol, and — for NFTAs — hyperedge transitions as a
//! point-shaped junction node fanning out to the ordered child states.
//! Output is deterministic (states and transitions in id/insertion order),
//! so dumps diff cleanly across runs.

use crate::{Nfa, Nfta};
use std::fmt::Write;

/// Escapes a label for a double-quoted DOT string.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders an NFA as a Graphviz digraph.
pub fn nfa_to_dot(m: &Nfa) -> String {
    let mut out = String::new();
    out.push_str("digraph nfa {\n  rankdir=LR;\n  node [shape=circle];\n");
    for q in 0..m.num_states() {
        let id = crate::StateId(q as u32);
        let mut attrs = Vec::new();
        if m.accepting_states().contains(&id) {
            attrs.push("shape=doublecircle");
        }
        if m.initial_states().contains(&id) {
            attrs.push("style=bold");
        }
        if attrs.is_empty() {
            let _ = writeln!(out, "  q{q};");
        } else {
            let _ = writeln!(out, "  q{q} [{}];", attrs.join(", "));
        }
    }
    for &(src, sym, dst) in m.all_transitions() {
        let _ = writeln!(
            out,
            "  q{} -> q{} [label=\"{}\"];",
            src.index(),
            dst.index(),
            escape(m.alphabet().name(sym))
        );
    }
    out.push_str("}\n");
    out
}

/// Renders an NFTA as a Graphviz digraph. Each transition
/// `(src, symbol, children)` becomes a point-shaped junction `tK`: one
/// labelled edge `src → tK`, then ordered edges `tK → child_i` labelled by
/// the child position.
pub fn nfta_to_dot(m: &Nfta) -> String {
    let mut out = String::new();
    out.push_str("digraph nfta {\n  rankdir=LR;\n  node [shape=circle];\n");
    for q in 0..m.num_states() {
        if q == m.initial().index() {
            let _ = writeln!(out, "  q{q} [style=bold];");
        } else {
            let _ = writeln!(out, "  q{q};");
        }
    }
    for (k, t) in m.transitions().iter().enumerate() {
        let label = escape(m.alphabet().name(t.symbol));
        if t.children.is_empty() {
            // Leaf transition: an accepting frontier for this symbol.
            let _ = writeln!(out, "  t{k} [shape=point];");
            let _ = writeln!(out, "  q{} -> t{k} [label=\"{label}\"];", t.src.index());
        } else {
            let _ = writeln!(out, "  t{k} [shape=point];");
            let _ = writeln!(out, "  q{} -> t{k} [label=\"{label}\"];", t.src.index());
            for (i, c) in t.children.iter().enumerate() {
                let _ = writeln!(out, "  t{k} -> q{} [label=\"{i}\"];", c.index());
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Alphabet, Transition};

    #[test]
    fn nfa_dot_lists_states_and_labelled_edges() {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a \"quoted\"");
        let mut m = Nfa::new(alpha);
        let s = m.add_state();
        let f = m.add_state();
        m.set_initial(s);
        m.set_accepting(f);
        m.add_transition(s, a, f);
        let dot = nfa_to_dot(&m);
        assert!(dot.starts_with("digraph nfa {"), "{dot}");
        assert!(dot.contains("q0 [style=bold];"), "{dot}");
        assert!(dot.contains("q1 [shape=doublecircle];"), "{dot}");
        assert!(
            dot.contains("q0 -> q1 [label=\"a \\\"quoted\\\"\"];"),
            "{dot}"
        );
        // Deterministic output.
        assert_eq!(dot, nfa_to_dot(&m));
    }

    #[test]
    fn nfta_dot_renders_hyperedges_as_junctions() {
        let mut alpha = Alphabet::new();
        let f = alpha.intern("f");
        let x = alpha.intern("x");
        let mut m = Nfta::new(alpha);
        let q0 = crate::StateId(0); // `Nfta::new` pre-creates state 0
        let q1 = m.add_state();
        m.set_initial(q0);
        m.add_transition(Transition {
            src: q0,
            symbol: f,
            children: vec![q1, q1],
        });
        m.add_transition(Transition {
            src: q1,
            symbol: x,
            children: vec![],
        });
        let dot = nfta_to_dot(&m);
        assert!(dot.contains("q0 [style=bold];"), "{dot}");
        assert!(dot.contains("q0 -> t0 [label=\"f\"];"), "{dot}");
        assert!(dot.contains("t0 -> q1 [label=\"0\"];"), "{dot}");
        assert!(dot.contains("t0 -> q1 [label=\"1\"];"), "{dot}");
        assert!(dot.contains("q1 -> t1 [label=\"x\"];"), "{dot}");
    }
}
