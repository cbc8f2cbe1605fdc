//! A plain-text interchange format for probabilistic graphs: one edge
//! `src -label-> dst` per line, after an optional probability, and
//! `node NAME` lines declaring isolated vertices. A line with an arrow is
//! always an edge, so a vertex may be named `node`. Comments, the
//! probability token, identifiers (every vertex and label name is one)
//! and the shape of a [`LoadError`] are the shared line format of
//! [`pqe_arith::text`].
//!
//! ```text
//! # a two-hop road network
//! 0.9   a -road-> b
//! 3/4   b -road-> c
//!       a -ferry-> c      # deterministic edge
//! node island
//! ```

use crate::model::ProbGraph;
use pqe_arith::text::{is_identifier, leading_probability, records, LoadError, Weighted};

/// Parses the text format into a probabilistic graph.
pub fn load_str(src: &str) -> Result<ProbGraph, LoadError> {
    let mut g = ProbGraph::new();
    for rec in records(src) {
        let node = rec
            .body
            .strip_prefix("node ")
            .filter(|_| !rec.body.contains("->"));
        if let Some(name) = node {
            let name = name.trim();
            if !is_identifier(name) {
                return Err(rec.error(format!("bad vertex name {name:?}")));
            }
            g.add_vertex(name);
            continue;
        }
        let (prob, edge_src) =
            leading_probability(rec.body, "an edge").map_err(|m| rec.error(m))?;
        let (s, label, t) = parse_edge(edge_src).map_err(|m| rec.error(m))?;
        g.add_edge(s, label, t, prob);
    }
    Ok(g)
}

/// Parses `src -label-> dst`.
fn parse_edge(src: &str) -> Result<(&str, &str, &str), String> {
    let (left, dst) = src
        .split_once("->")
        .ok_or_else(|| format!("expected `src -label-> dst` in {src:?}"))?;
    let dst = dst.trim();
    let left = left.trim_end();
    let (s, label) = left
        .split_once('-')
        .ok_or_else(|| format!("expected `src -label-> dst` in {src:?}"))?;
    let s = s.trim();
    let label = label.trim();
    if !is_identifier(s) {
        return Err(format!("bad source vertex {s:?}"));
    }
    if !is_identifier(label) {
        return Err(format!("bad edge label {label:?}"));
    }
    if !is_identifier(dst) {
        return Err(format!("bad target vertex {dst:?}"));
    }
    Ok((s, label, dst))
}

/// Serializes a graph in the same format (round-trips through
/// [`load_str`]).
pub fn save_string(g: &ProbGraph) -> String {
    let mut out = String::new();
    let mut isolated: Vec<bool> = vec![true; g.num_vertices()];
    for e in g.edges() {
        isolated[e.src.index()] = false;
        isolated[e.dst.index()] = false;
        let arrow = format!(
            "{} -{}-> {}",
            g.vertex_name(e.src),
            g.label_name(e.label),
            g.vertex_name(e.dst)
        );
        out.push_str(&format!("{}\n", Weighted(&e.prob, &arrow)));
    }
    for (v, lonely) in isolated.iter().enumerate() {
        if *lonely {
            out.push_str(&format!(
                "node {}\n",
                g.vertex_name(crate::VertexId(v as u32))
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_mixed_probability_syntax() {
        let g = load_str(
            "# roads\n0.5 a -road-> b\n3/4 b -road-> c\na -ferry-> c  # certain\n\nnode island\n",
        )
        .unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.edges()[0].prob.to_string(), "1/2");
        assert_eq!(g.edges()[1].prob.to_string(), "3/4");
        assert!(g.edges()[2].prob.is_one());
        assert!(g.vertex("island").is_some());
        assert_eq!(g.label_name(g.edges()[2].label), "ferry");
    }

    #[test]
    fn roundtrips_through_save() {
        let src = "1/2 a -r-> b\nb -r-> c\n99/100 a -s-> c\nnode lonely\n";
        let g = load_str(src).unwrap();
        let g2 = load_str(&save_string(&g)).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
        assert_eq!(g.num_vertices(), g2.num_vertices());
        for (e, e2) in g.edges().iter().zip(g2.edges()) {
            assert_eq!(e.prob, e2.prob);
            assert_eq!(g.vertex_name(e.src), g2.vertex_name(e2.src));
            assert_eq!(g.label_name(e.label), g2.label_name(e2.label));
            assert_eq!(g.vertex_name(e.dst), g2.vertex_name(e2.dst));
        }
    }

    #[test]
    fn rejects_bad_lines_with_line_numbers() {
        let e = load_str("a -r-> b\n\nbroken line here\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(e.text, "broken line here");
        let shown = e.to_string();
        assert!(shown.contains("line 3"), "display: {shown}");
        assert!(shown.contains("broken line here"), "display: {shown}");

        let e = load_str("0.5\n").unwrap_err();
        assert!(e.message.contains("expected an edge"), "{}", e.message);

        let e = load_str("3/2 a -r-> b\n").unwrap_err();
        assert!(e.message.contains("outside"), "{}", e.message);

        let e = load_str("0.x5 a -r-> b\n").unwrap_err();
        assert!(e.message.contains("bad probability"), "{}", e.message);

        let e = load_str("a -r b\n").unwrap_err();
        assert!(e.message.contains("src -label-> dst"), "{}", e.message);

        let e = load_str("node bad name\n").unwrap_err();
        assert!(e.message.contains("bad vertex name"), "{}", e.message);
    }

    #[test]
    fn save_output_loads_again() {
        // Saved without its probability, a certain edge from vertex `1`
        // would read `1` as the probability; an edge from a vertex named
        // `node` would read as a vertex declaration.
        for (src, saved) in [
            ("1 1 -r-> 2\n", "1 1 -r-> 2\n"),
            ("1 node -r-> b\n", "node -r-> b\n"),
            ("node node\n", "node node\n"),
        ] {
            let g = load_str(src).unwrap();
            assert_eq!(save_string(&g), saved, "{src:?}");
            let g2 = load_str(saved).unwrap();
            assert_eq!(save_string(&g2), saved, "{src:?}");
            assert_eq!(g2.num_edges(), g.num_edges());
        }
    }

    #[test]
    fn parallel_edges_are_independent_events() {
        let g = load_str("1/2 a -r-> b\n1/3 a -r-> b\n").unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.denominator_product().to_u64(), Some(6));
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = load_str("  \n# nothing\n").unwrap();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_vertices(), 0);
    }
}
