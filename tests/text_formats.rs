//! Properties of the three text formats that share `pqe_arith::text`:
//! probabilistic databases (`pqe::db::io`), probabilistic graphs
//! (`pqe::graph::io`) and delta batches (`Delta::parse_str`).
//!
//! * Each writer's output loads back to what was written (graph
//!   `save_string` → `load_str`, delta `Display` → `parse_str`; the
//!   database round trip is `crates/db/tests/io_roundtrip.rs`).
//! * Arbitrary text, weighted toward the pieces of the three grammars,
//!   never panics a parser. It parses, or its error names a line of the
//!   input and quotes that line; and what parses saves to text that loads
//!   to the same saved text.

use pqe::arith::text::{LoadError, MAX_ECHO_LEN};
use pqe::arith::Rational;
use pqe::db::io as dbio;
use pqe::delta::{Delta, DeltaOp};
use pqe::graph::ProbGraph;
use pqe_testkit::prelude::*;
use pqe_testkit::Source;

fn cfg(cases: u32) -> Config {
    Config::cases(cases).with_corpus("tests/corpus/text_formats.corpus")
}

/// A probability `w/d` with `d ∈ 1..=10` and `w ≤ d`, so 0 and 1 occur.
fn prob((w, d): (u8, u8)) -> Rational {
    let d = u64::from(d % 10) + 1;
    Rational::from_ratio(i64::from(w) % (d as i64 + 1), d)
}

/// Identifiers a writer must keep apart from the format's own syntax: a
/// leading digit reads as a probability, `node` as a vertex declaration.
const NAMES: &[&str] = &["a", "b", "1", "node", "0x_", "_"];

/// Edges `(src, label, dst, prob)` and then isolated vertices, by index
/// into [`NAMES`].
type GraphSpec = (Vec<(u8, u8, u8, (u8, u8))>, Vec<u8>);

fn build_graph((edges, isolated): &GraphSpec) -> ProbGraph {
    let mut g = ProbGraph::new();
    for v in isolated {
        g.add_vertex(NAMES[*v as usize]);
    }
    for (s, l, t, p) in edges {
        let name = |i: &u8| NAMES[*i as usize];
        g.add_edge(name(s), name(l), name(t), prob(*p));
    }
    g
}

/// Every edge as `(src, label, dst, prob)` by name, in edge order.
fn edge_list(g: &ProbGraph) -> Vec<(&str, &str, &str, Rational)> {
    g.edges()
        .iter()
        .map(|e| {
            let (s, t) = (g.vertex_name(e.src), g.vertex_name(e.dst));
            (s, g.label_name(e.label), t, e.prob.clone())
        })
        .collect()
}

#[test]
fn graph_save_load_roundtrip() {
    let index = || 0u8..NAMES.len() as u8;
    let edge = (index(), index(), index(), (any::<u8>(), any::<u8>()));
    let gens = (vec(edge, 0..=8usize), vec(index(), 0..=3usize));
    check("graph_save_load_roundtrip", &cfg(256), &gens, |spec| {
        let g = build_graph(spec);
        let saved = pqe::graph::save_string(&g);
        let g2 = pqe::graph::load_str(&saved)
            .map_err(|e| CaseFail::fail(format!("reload: {e}\nsaved:\n{saved}")))?;
        prop_assert_eq!(edge_list(&g), edge_list(&g2));
        prop_assert_eq!(g.num_vertices(), g2.num_vertices());
        for name in NAMES {
            prop_assert_eq!(g.vertex(name).is_some(), g2.vertex(name).is_some());
        }
        prop_assert_eq!(&saved, &pqe::graph::save_string(&g2));
        Ok(())
    });
}

#[test]
fn delta_display_parse_roundtrip() {
    const RELS: &[&str] = &["R", "S_2", "1R", "node"];
    const ARGS: &[&str] = &["a", "b", "0", "x y"];
    let op = (
        0u8..3,
        0u8..RELS.len() as u8,
        vec(0u8..ARGS.len() as u8, 1..=3usize),
        (any::<u8>(), any::<u8>()),
    );
    check(
        "delta_display_parse_roundtrip",
        &cfg(256),
        &vec(op, 0..=6usize),
        |ops| {
            let mut d = Delta::new();
            for (sigil, rel, args, p) in ops {
                let rel = RELS[*rel as usize].to_owned();
                let args = args.iter().map(|a| ARGS[*a as usize].to_owned()).collect();
                d.push(match sigil {
                    0 => DeltaOp::Insert {
                        rel,
                        args,
                        prob: prob(*p),
                    },
                    1 => DeltaOp::Delete { rel, args },
                    _ => DeltaOp::SetProb {
                        rel,
                        args,
                        prob: prob(*p),
                    },
                });
            }
            let text = d.to_string();
            let parsed = Delta::parse_str(&text)
                .map_err(|e| CaseFail::fail(format!("parse: {e}\ntext:\n{text}")))?;
            prop_assert_eq!(parsed, d);
            Ok(())
        },
    );
}

/// Pieces of the three grammars, for lines of loose pieces.
const PIECES: &[&str] = &[
    "\n", " ", "#", "0", "1", "2", "9", "/", ".", "(", ")", ",", "->", "-", "node", "+", "~", "R",
    "a", "b", "r", "_", "1/2", "0.5", "3/2", "\t", "\r", "é", "\u{a0}", "\0",
];

/// One of `options`.
fn pick(options: &'static [&'static str]) -> impl Gen<Value = &'static str> {
    (0..options.len()).prop_map(move |i| options[i])
}

/// A byte picking a piece: below 224 one of [`PIECES`], else one of the
/// Latin-1 characters `à`..`ÿ` (two bytes each in UTF-8).
fn piece() -> impl Gen<Value = String> {
    any::<u8>().prop_map(|b| match b {
        0..=223 => PIECES[b as usize % PIECES.len()].to_owned(),
        _ => char::from(b).to_string(),
    })
}

/// A fact `Rel(args)` over names a writer must take care with.
fn fact() -> impl Gen<Value = String> {
    const RELS: &[&str] = &["R", "S", "1R", "node"];
    const ARGS: &[&str] = &["a", "b", "1", " c d "];
    (pick(RELS), vec(pick(ARGS), 1..=2usize))
        .prop_map(|(rel, args)| format!("{rel}({})", args.join(",")))
}

/// One line: loose pieces (some past `MAX_ECHO_LEN` bytes), or a record of one of the three formats with
/// an optional (sometimes invalid) probability and comment.
fn line() -> impl Gen<Value = String> {
    const PROBS: &[&str] = &["", "1 ", "1/2 ", "0.5 ", "0 ", "3/2 ", "1/0 "];
    const VERTICES: &[&str] = &["a", "b", "1", "node", "_"];
    const COMMENTS: &[&str] = &["", "  # note", "#"];
    one_of(vec![
        vec(piece(), 0..=12usize).prop_map(|p| p.concat()).boxed(),
        // Long enough that an error quotes an excerpt of it.
        vec(piece(), 80..=160usize)
            .prop_map(|p| p.concat().replace('\n', " "))
            .boxed(),
        (pick(PROBS), fact(), pick(COMMENTS))
            .prop_map(|(p, f, c)| format!("{p}{f}{c}"))
            .boxed(),
        (
            pick(PROBS),
            pick(VERTICES),
            pick(&["r", "s", "1"]),
            pick(VERTICES),
        )
            .prop_map(|(p, s, l, t)| format!("{p}{s} -{l}-> {t}"))
            .boxed(),
        pick(VERTICES).prop_map(|v| format!("node {v}")).boxed(),
        (pick(&["+ ", "- ", "~ ", "* "]), pick(PROBS), fact())
            .prop_map(|(op, p, f)| format!("{op}{p}{f}"))
            .boxed(),
    ])
}

/// Arbitrary text: up to six lines, weighted toward the three grammars.
fn text() -> impl Gen<Value = String> {
    vec(line(), 0..=6usize).prop_map(|lines| lines.join("\n"))
}

/// The error names a line of `src` and quotes it, trailing space trimmed:
/// whole up to `MAX_ECHO_LEN` bytes, as a prefix of at most that many
/// bytes plus the line's length beyond.
fn names_its_line(src: &str, e: &LoadError) -> CaseResult {
    let line = e.line.checked_sub(1).and_then(|i| src.lines().nth(i));
    prop_assert!(line.is_some(), "error on line {} of {src:?}: {e}", e.line);
    let line = line.unwrap().trim_end();
    if line.len() <= MAX_ECHO_LEN {
        prop_assert_eq!(e.text.as_str(), line);
    } else {
        let suffix = format!("… ({} bytes)", line.len());
        let prefix = e.text.strip_suffix(&suffix);
        prop_assert!(prefix.is_some(), "{:?} lacks {suffix:?}", e.text);
        let prefix = prefix.unwrap();
        prop_assert!(prefix.len() <= MAX_ECHO_LEN && line.starts_with(prefix));
        prop_assert!((prefix.len() + 1..=MAX_ECHO_LEN).all(|i| !line.is_char_boundary(i)));
    }
    Ok(())
}

/// Loads `src` with `load`; on success, the saved text loads again and
/// saves to itself.
fn loads_or_names_its_line<T>(
    src: &str,
    load: impl Fn(&str) -> Result<T, LoadError>,
    save: impl Fn(&T) -> String,
) -> CaseResult {
    match load(src) {
        Err(e) => names_its_line(src, &e),
        Ok(v) => {
            let saved = save(&v);
            let again = load(&saved)
                .map_err(|e| CaseFail::fail(format!("{src:?} saved as {saved:?}: {e}")))?;
            prop_assert_eq!(saved, save(&again));
            Ok(())
        }
    }
}

#[test]
fn arbitrary_text_loads_or_names_its_line() {
    check(
        "arbitrary_text_loads_or_names_its_line",
        &cfg(8192),
        &text(),
        |src| {
            loads_or_names_its_line(src, dbio::load_str, dbio::save_string)?;
            loads_or_names_its_line(src, pqe::graph::load_str, pqe::graph::save_string)?;
            loads_or_names_its_line(src, Delta::parse_str, Delta::to_string)
        },
    );
}

/// The corpus pins the inputs whose saved text once failed to load, and
/// one that panicked: each hex entry must still decode to its input.
#[test]
fn corpus_entries_decode_to_the_pinned_inputs() {
    // One line (1) of loose pieces (0): a piece count, then one byte per
    // piece, indexing PIECES.
    for (bytes, input) in [
        (&[1, 0, 9, 4, 1, 4, 1, 13, 20, 12, 1, 5][..], "1 1 -r-> 2"),
        (
            &[1, 0, 9, 4, 1, 14, 1, 13, 20, 12, 1, 19][..],
            "1 node -r-> b",
        ),
        (&[1, 0, 7, 4, 1, 4, 17, 9, 18, 10][..], "1 1R(a)"),
        (&[1, 0, 9, 15, 1, 4, 1, 4, 17, 9, 18, 10][..], "+ 1 1R(a)"),
        (
            &[1, 0, 10, 3, 12, 3, 3, 3, 3, 15, 224, 1, 3][..],
            "0->0000+à 0",
        ),
    ] {
        assert_eq!(text().generate(&mut Source::replay(bytes)), input);
    }
}
