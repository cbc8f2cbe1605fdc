//! Property tests for the query crate: the parser must never panic, must
//! round-trip its own rendering, and the analyses must agree with their
//! definitions on random queries.

use pqe_query::{analysis, parse, Atom, ConjunctiveQuery, Term, Var};
use pqe_testkit::prelude::*;
use pqe_testkit::{arb_string, BoxedGen, Source};

fn cfg() -> Config {
    Config::cases(256).with_corpus("tests/corpus/proptests.corpus")
}

const IDENT_FIRST: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_";
const IDENT_REST: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_";

fn random_query() -> BoxedGen<ConjunctiveQuery> {
    vec((vec(0u32..5, 1..=3), any::<bool>()), 1..=5)
        .prop_map(|atoms_spec| {
            let atoms: Vec<Atom> = atoms_spec
                .into_iter()
                .enumerate()
                .map(|(i, (vars, self_join))| {
                    let rel = if self_join {
                        "R0".to_owned()
                    } else {
                        format!("R{i}")
                    };
                    Atom::new(rel, vars.into_iter().map(|v| Term::Var(Var(v))).collect())
                })
                .collect();
            ConjunctiveQuery::new(atoms, (0..5).map(|i| format!("v{i}")).collect())
        })
        .boxed()
}

/// The corpus hex must decode to the `"\u{a0}"` input the old
/// `proptest-regressions` file pinned.
#[test]
fn corpus_entry_decodes_to_the_pinned_regression() {
    let input = arb_string(0..=60usize).generate(&mut Source::replay(&[0x01, 0xA0, 0, 0, 0]));
    assert_eq!(input, "\u{a0}");
}

#[test]
fn parser_never_panics() {
    check(
        "parser_never_panics",
        &cfg(),
        &arb_string(0..=60usize),
        |input| {
            let _ = parse(input); // Ok or Err, never a panic
            Ok(())
        },
    );
}

#[test]
fn parser_handles_structured_garbage() {
    let rel = (
        string_from(IDENT_FIRST, 1),
        string_from(IDENT_REST, 0..=6usize),
    )
        .prop_map(|(head, rest)| head + &rest);
    let args = vec(
        string_from("abcdefghijklmnopqrstuvwxyz0123456789'", 0..=5usize),
        0..4,
    );
    let tail = string_from(",()'. ", 0..=6usize);
    check(
        "parser_handles_structured_garbage",
        &cfg(),
        &(rel, args, tail),
        |(rel, args, tail)| {
            let src = format!("{rel}({}){tail}", args.join(","));
            let _ = parse(&src);
            Ok(())
        },
    );
}

#[test]
fn display_parse_roundtrip() {
    check("display_parse_roundtrip", &cfg(), &random_query(), |q| {
        let rendered = q.to_string();
        let reparsed = parse(&rendered).unwrap();
        // Structural equality up to variable interning: re-render.
        prop_assert_eq!(reparsed.to_string(), rendered);
        prop_assert_eq!(reparsed.len(), q.len());
        prop_assert_eq!(reparsed.is_self_join_free(), q.is_self_join_free());
        Ok(())
    });
}

#[test]
fn hierarchy_matches_definition() {
    check(
        "hierarchy_matches_definition",
        &cfg(),
        &random_query(),
        |q| {
            // Re-check is_hierarchical against the quantified definition.
            let sets = analysis::atom_sets(q);
            let vars: Vec<_> = sets.keys().copied().collect();
            let mut expected = true;
            for (i, x) in vars.iter().enumerate() {
                for y in &vars[i + 1..] {
                    let (a, b) = (&sets[x], &sets[y]);
                    if !(a.is_disjoint(b) || a.is_subset(b) || b.is_subset(a)) {
                        expected = false;
                    }
                }
            }
            prop_assert_eq!(analysis::is_hierarchical(q), expected);
            Ok(())
        },
    );
}

#[test]
fn components_partition_atoms() {
    check("components_partition_atoms", &cfg(), &random_query(), |q| {
        let comps = analysis::connected_components(q);
        let mut all: Vec<usize> = comps.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..q.len()).collect::<Vec<_>>());
        // Atoms in different components share no variables.
        for (i, c1) in comps.iter().enumerate() {
            for c2 in comps.iter().skip(i + 1) {
                for &a in c1 {
                    for &b in c2 {
                        let va = q.atoms()[a].vars();
                        let vb = q.atoms()[b].vars();
                        prop_assert!(va.is_disjoint(&vb));
                    }
                }
            }
        }
        Ok(())
    });
}

#[test]
fn root_variables_occur_everywhere() {
    check(
        "root_variables_occur_everywhere",
        &cfg(),
        &random_query(),
        |q| {
            for v in analysis::root_variables(q) {
                for a in q.atoms() {
                    prop_assert!(a.vars().contains(&v));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn substitution_eliminates_the_variable() {
    check(
        "substitution_eliminates_the_variable",
        &cfg(),
        &random_query(),
        |q| {
            let vars = q.vars();
            if let Some(&v) = vars.iter().next() {
                let sub = q.substitute(v, "c0");
                prop_assert!(!sub.vars().contains(&v));
                prop_assert_eq!(sub.len(), q.len());
            }
            Ok(())
        },
    );
}
