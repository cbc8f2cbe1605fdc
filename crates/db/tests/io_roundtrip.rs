//! Round-trip property of the text format: `load_str(save_string(h))`
//! reconstructs `h` exactly — same facts in the same order, same
//! probabilities — for databases whose sources mix all three probability
//! syntaxes (rational `w/d`, decimal, omitted-means-certain).

use pqe_db::io::{load_str, save_string};
use pqe_db::ProbDatabase;
use pqe_testkit::prelude::*;
use pqe_testkit::BoxedGen;

fn cfg() -> Config {
    Config::cases(128).with_corpus("tests/corpus/io_roundtrip.corpus")
}

/// One source line: `(relation index, args, probability token)`. The
/// probability token exercises rational, decimal, and omitted syntax.
fn line_gen() -> BoxedGen<(u8, Vec<u8>, String)> {
    let prob = one_of(vec![
        // rational w/d with w ≤ d (a valid probability)
        (1u64..50, 0u64..50)
            .prop_map(|(d, w)| format!("{}/{}", w % (d + 1), d + 1))
            .boxed(),
        // decimal in [0,1): one to four digits
        (0u64..10000).prop_map(|n| format!("0.{n:04}")).boxed(),
        // integer 0 or 1
        (0u64..2).prop_map(|n| format!("{n}")).boxed(),
        // omitted → certain
        (0u64..1).prop_map(|_| String::new()).boxed(),
    ])
    .boxed();
    (any::<u8>(), vec(any::<u8>(), 1..=3usize), prob).boxed()
}

/// Renders lines into source text, keeping relation arities consistent
/// (the relation name encodes the arity) and skipping duplicate facts.
/// Half the relation names start with a digit, so a certain fact of one
/// must keep its explicit probability to read back as a fact.
fn render(lines: &[(u8, Vec<u8>, String)]) -> String {
    let mut seen = std::collections::BTreeSet::new();
    let mut src = String::new();
    for (rel, args, prob) in lines {
        let rel = match rel % 16 {
            r @ 0..=7 => format!("R{r}_{}", args.len()),
            r => format!("{}R_{}", r - 8, args.len()),
        };
        let args: Vec<String> = args.iter().map(|a| format!("n{}", a % 16)).collect();
        if !seen.insert((rel.clone(), args.clone())) {
            continue;
        }
        if prob.is_empty() && rel.starts_with('R') {
            src.push_str(&format!("{rel}({})\n", args.join(",")));
        } else {
            let prob = if prob.is_empty() { "1" } else { prob };
            src.push_str(&format!("{prob} {rel}({})\n", args.join(",")));
        }
    }
    src
}

fn assert_same(h: &ProbDatabase, h2: &ProbDatabase) -> CaseResult {
    prop_assert_eq!(h.len(), h2.len());
    for f in h.database().fact_ids() {
        prop_assert_eq!(h.prob(f), h2.prob(f));
        prop_assert_eq!(h.database().display_fact(f), h2.database().display_fact(f));
    }
    Ok(())
}

#[test]
fn parse_format_parse_is_identity() {
    check(
        "parse_format_parse_is_identity",
        &cfg(),
        &vec(line_gen(), 0..=20usize),
        |lines| {
            let src = render(lines);
            let h =
                load_str(&src).map_err(|e| CaseFail::fail(format!("load: {e}\nsrc:\n{src}")))?;
            let saved = save_string(&h);
            let h2 = load_str(&saved)
                .map_err(|e| CaseFail::fail(format!("reload: {e}\nsaved:\n{saved}")))?;
            assert_same(&h, &h2)?;
            // Saving is itself a fixed point: the second save is identical.
            prop_assert_eq!(&saved, &save_string(&h2));
            Ok(())
        },
    );
}

#[test]
fn mixed_syntax_fixture_roundtrips() {
    let src = "1/2 R(a,b)\n0.25 R(b,c)\nS(c)\n1 T(a)\n0 T(b)\n3/4 U(a,b,c)\n";
    let h = load_str(src).unwrap();
    let h2 = load_str(&save_string(&h)).unwrap();
    assert_same(&h, &h2).unwrap();
    // Decimal 0.25 normalizes to the rational 1/4 on the way through.
    assert!(save_string(&h).contains("1/4 R(b,c)"));
}
