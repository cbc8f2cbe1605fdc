//! A plain-text interchange format for probabilistic graphs.
//!
//! One edge per line: an optional probability (rational `w/d`, decimal, or
//! integer) followed by `src -label-> dst`. Comments (`#`) and blank lines
//! are ignored; edges without an explicit probability default to `1`
//! (certain), matching the `pqe_db::io` convention. `node NAME` lines
//! declare isolated vertices.
//!
//! ```text
//! # a two-hop road network
//! 0.9   a -road-> b
//! 3/4   b -road-> c
//!       a -ferry-> c      # deterministic edge
//! node island
//! ```
//!
//! Vertex, label, and node names are identifiers (`[A-Za-z0-9_]+`).
//! Failures carry the 1-based line number and the offending line, shown in
//! the same format as database load errors.

use crate::model::ProbGraph;
use pqe_arith::Rational;

/// A parse failure with its 1-based line number and the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphLoadError {
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, verbatim (trailing whitespace trimmed).
    pub text: String,
    /// Description of the failure.
    pub message: String,
}

impl std::fmt::Display for GraphLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.text.is_empty() {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(
                f,
                "line {}: {}\n  {} | {}",
                self.line, self.message, self.line, self.text
            )
        }
    }
}

impl std::error::Error for GraphLoadError {}

fn err(line: usize, text: &str, message: impl Into<String>) -> GraphLoadError {
    GraphLoadError {
        line,
        text: text.trim_end().to_owned(),
        message: message.into(),
    }
}

fn is_identifier(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses the text format into a probabilistic graph.
pub fn load_str(src: &str) -> Result<ProbGraph, GraphLoadError> {
    let mut g = ProbGraph::new();
    for (i, raw) in src.lines().enumerate() {
        let lineno = i + 1;
        let line = match raw.split_once('#') {
            Some((body, _comment)) => body,
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("node ") {
            let name = name.trim();
            if !is_identifier(name) {
                return Err(err(lineno, raw, format!("bad vertex name {name:?}")));
            }
            g.add_vertex(name);
            continue;
        }
        let (prob, edge_src) = split_probability(line).map_err(|m| err(lineno, raw, m))?;
        if !prob.is_probability() {
            return Err(err(
                lineno,
                raw,
                format!("probability {prob} outside [0, 1]"),
            ));
        }
        let (s, label, t) = parse_edge(edge_src).map_err(|m| err(lineno, raw, m))?;
        g.add_edge(s, label, t, prob);
    }
    Ok(g)
}

/// Splits an optional leading probability token from the edge text (a line
/// starting with a digit carries a probability, like the database format).
fn split_probability(line: &str) -> Result<(Rational, &str), String> {
    let first = line.chars().next().unwrap();
    if !first.is_ascii_digit() {
        return Ok((Rational::one(), line));
    }
    let split = line
        .find(|c: char| c.is_whitespace())
        .ok_or_else(|| "expected an edge after the probability".to_owned())?;
    let (tok, rest) = line.split_at(split);
    let prob: Rational = tok
        .parse()
        .map_err(|e| format!("bad probability {tok:?}: {e}"))?;
    Ok((prob, rest.trim_start()))
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
        if e.prob.is_one() {
            out.push_str(&format!("{arrow}\n"));
        } else {
            out.push_str(&format!("{} {arrow}\n", e.prob));
        }
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
