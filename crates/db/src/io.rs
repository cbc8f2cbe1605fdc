//! A plain-text interchange format for probabilistic databases: one fact
//! `Rel(arg, …)` per line, after an optional probability. Comments, the
//! probability token, identifiers and the shape of a [`LoadError`] are
//! the shared line format of [`pqe_arith::text`].
//!
//! ```text
//! # links of a sensor network
//! 0.9   Link(gate, relay1)
//! 3/4   Link(relay1, relay2)
//!       Link(relay2, sink)     # deterministic edge
//! ```
//!
//! Relations and arities are inferred from the facts; redeclaring a
//! relation with a different arity is an error.

use crate::{Database, ProbDatabase, Schema};
use pqe_arith::text::{is_identifier, leading_probability, records, LoadError, Weighted};
use std::path::Path;

/// Parses the text format into a probabilistic database.
pub fn load_str(src: &str) -> Result<ProbDatabase, LoadError> {
    // Every line is parsed before the schema is inferred, so a syntax
    // error anywhere is reported before an arity or duplicate error.
    let mut rows = Vec::new();
    for rec in records(src) {
        let (prob, fact_src) = leading_probability(rec.body, "a fact").map_err(|m| rec.error(m))?;
        let (rel, args) = parse_fact(fact_src).map_err(|m| rec.error(m))?;
        rows.push((rec, prob, rel, args));
    }

    let mut schema = Schema::default();
    for (rec, _, rel, args) in &rows {
        if let Some(id) = schema.relation(rel) {
            if schema.arity(id) != args.len() {
                return Err(rec.error(format!(
                    "relation {rel} used with arity {} after arity {}",
                    args.len(),
                    schema.arity(id)
                )));
            }
        } else {
            schema.add_relation(rel, args.len());
        }
    }

    let mut db = Database::new(schema);
    let mut probs = Vec::with_capacity(rows.len());
    for (rec, prob, rel, args) in rows {
        let id = db
            .add_fact(rel, &args)
            .map_err(|e| rec.error(e.to_string()))?;
        if id.index() < probs.len() {
            return Err(rec.error(format!("duplicate fact {rel}({})", args.join(","))));
        }
        probs.push(prob);
    }
    Ok(ProbDatabase::with_probs(db, probs).expect("probabilities are checked while parsing"))
}

/// Parses a fact `Rel(arg, arg, ...)` into its relation name and its
/// arguments (trimmed, non-empty).
pub fn parse_fact(src: &str) -> Result<(&str, Vec<&str>), String> {
    let open = src
        .find('(')
        .ok_or_else(|| format!("expected Rel(args...) in {src:?}"))?;
    let rel = src[..open].trim();
    if !is_identifier(rel) {
        return Err(format!("bad relation name {rel:?}"));
    }
    let close = src
        .rfind(')')
        .ok_or_else(|| "missing closing parenthesis".to_owned())?;
    if !src[close + 1..].trim().is_empty() {
        return Err("trailing input after fact".to_owned());
    }
    let args: Vec<&str> = src[open + 1..close].split(',').map(str::trim).collect();
    if args.iter().any(|a| a.is_empty()) {
        return Err("empty argument".to_owned());
    }
    Ok((rel, args))
}

/// Serializes a probabilistic database in the same format (round-trips
/// through [`load_str`]).
pub fn save_string(h: &ProbDatabase) -> String {
    let mut out = String::new();
    let db = h.database();
    for f in db.fact_ids() {
        out.push_str(&format!("{}\n", Weighted(h.prob(f), &db.display_fact(f))));
    }
    out
}

/// A file-level load failure: either the file could not be read, or its
/// contents did not parse.
#[derive(Debug)]
pub enum FileError {
    /// Reading the file failed.
    Io(std::io::Error),
    /// The contents failed to parse; carries the 1-based line number.
    Parse(LoadError),
}

impl std::fmt::Display for FileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileError::Io(e) => write!(f, "{e}"),
            FileError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FileError {}

impl From<std::io::Error> for FileError {
    fn from(e: std::io::Error) -> Self {
        FileError::Io(e)
    }
}

impl From<LoadError> for FileError {
    fn from(e: LoadError) -> Self {
        FileError::Parse(e)
    }
}

/// Reads a probabilistic database from a file in the text format.
pub fn load(path: impl AsRef<Path>) -> Result<ProbDatabase, FileError> {
    let src = std::fs::read_to_string(path)?;
    Ok(load_str(&src)?)
}

/// Writes `h` to a file in the text format — the canonical inverse of
/// [`load`]: facts in [`FactId`](crate::FactId) order (the paper's
/// consistent fact order), probabilities as exact rationals, certain facts
/// with the probability omitted. `load(save(h)) == h` including fact order,
/// so saved databases re-compile to byte-identical plans.
pub fn save(h: &ProbDatabase, path: impl AsRef<Path>) -> std::io::Result<()> {
    std::fs::write(path, save_string(h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqe_arith::Rational;
    use pqe_testkit::prelude::*;

    #[test]
    fn loads_mixed_probability_syntax() {
        let h =
            load_str("# comment\n0.5 R(a,b)\n3/4 R(b,c)\nS(c)  # certain\n\n1/3 S(d)\n").unwrap();
        assert_eq!(h.len(), 4);
        assert_eq!(h.prob(crate::FactId(0)).to_string(), "1/2");
        assert_eq!(h.prob(crate::FactId(1)).to_string(), "3/4");
        assert!(h.prob(crate::FactId(2)).is_one());
        assert_eq!(h.prob(crate::FactId(3)).to_string(), "1/3");
    }

    #[test]
    fn roundtrips_through_save() {
        let src = "1/2 R(a,b)\nS(c)\n99/100 T(a,b,c)\n";
        let h = load_str(src).unwrap();
        let saved = save_string(&h);
        let h2 = load_str(&saved).unwrap();
        assert_eq!(h.len(), h2.len());
        for f in h.database().fact_ids() {
            assert_eq!(h.prob(f), h2.prob(f));
            assert_eq!(h.database().display_fact(f), h2.database().display_fact(f));
        }
    }

    #[test]
    fn rejects_bad_lines() {
        assert!(load_str("0.5")
            .unwrap_err()
            .message
            .contains("expected a fact"));
        assert!(load_str("R a,b").unwrap_err().message.contains("Rel(args"));
        assert!(load_str("R(a,b) extra")
            .unwrap_err()
            .message
            .contains("trailing"));
        assert!(load_str("R(a,,b)")
            .unwrap_err()
            .message
            .contains("empty argument"));
        assert!(load_str("3/2 R(a)")
            .unwrap_err()
            .message
            .contains("outside"));
        assert!(load_str("R(a,b)\nR(a)")
            .unwrap_err()
            .message
            .contains("arity"));
        assert!(load_str("R(a,b)\nR(a,b)")
            .unwrap_err()
            .message
            .contains("duplicate"));
    }

    #[test]
    fn certain_fact_of_a_digit_led_relation_keeps_its_probability() {
        // Saved without its probability, `1R(a)` would read as the token
        // `1R(a)` with no fact after it.
        let h = load_str("1 1R(a)\n").unwrap();
        let saved = save_string(&h);
        assert_eq!(saved, "1 1R(a)\n");
        assert_eq!(save_string(&load_str(&saved).unwrap()), saved);
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = load_str("R(a,b)\n\n# fine\nbroken line here").unwrap_err();
        assert_eq!(e.line, 4);
        assert_eq!(e.text, "broken line here");
    }

    #[test]
    fn malformed_probability_reports_line_and_text() {
        let e = load_str("1/2 R(a,b)\n0.x5 R(b,c)\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.text, "0.x5 R(b,c)");
        assert!(
            e.message.contains("bad probability"),
            "message: {}",
            e.message
        );
        let shown = e.to_string();
        assert!(shown.contains("line 2"), "display: {shown}");
        assert!(shown.contains("0.x5 R(b,c)"), "display: {shown}");
    }

    #[test]
    fn malformed_fact_reports_line_and_text() {
        let e = load_str("R(a,b)\n1/2 S(a\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.text, "1/2 S(a");
        assert!(
            e.message.contains("closing parenthesis"),
            "message: {}",
            e.message
        );
        assert!(e.to_string().contains("1/2 S(a"));

        let e = load_str("0.9 not_a_fact here\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert_eq!(e.text, "0.9 not_a_fact here");

        // Out-of-range probability keeps the raw line too.
        let e = load_str("S(a)\n3/2 R(a)  # bad\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.text, "3/2 R(a)  # bad");
        assert!(e.message.contains("outside"));
    }

    #[test]
    fn empty_input_is_empty_database() {
        let h = load_str("  \n# nothing\n").unwrap();
        assert!(h.is_empty());
    }

    #[test]
    fn save_and_load_roundtrip_through_files() {
        let h = load_str("1/2 R(a,b)\nS(c)\n0.25 R(b,a)\n").unwrap();
        let path = std::env::temp_dir().join(format!("pqe_io_rt_{}.pdb", std::process::id()));
        save(&h, &path).unwrap();
        let h2 = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(save_string(&h), save_string(&h2));
        assert!(matches!(
            load("/nonexistent/pqe_io_rt.pdb").unwrap_err(),
            FileError::Io(_)
        ));
    }

    /// A random probabilistic database: up to three relations of arity one
    /// or two, fact presence from a bitmask, probabilities from small
    /// rationals (including 0, 1, and non-dyadic values).
    fn random_pdb(rel_bits: u8, fact_bits: u64, seed_probs: &[(u8, u8)]) -> ProbDatabase {
        let rels: Vec<(String, usize)> = (0..3)
            .map(|i| (format!("R{i}"), 1 + ((rel_bits >> i) & 1) as usize))
            .collect();
        let schema = Schema::new(rels.iter().map(|(n, a)| (n.as_str(), *a)));
        let mut db = Database::new(schema);
        let mut bit = 0;
        for (name, arity) in &rels {
            for a in 0..3u8 {
                for b in 0..3u8 {
                    if (fact_bits >> (bit % 64)) & 1 == 1 {
                        let args = [format!("c{a}"), format!("d{b}")];
                        let refs: Vec<&str> =
                            args.iter().take(*arity).map(String::as_str).collect();
                        db.add_fact(name, &refs).unwrap();
                    }
                    bit += 1;
                }
            }
        }
        let probs: Vec<Rational> = (0..db.len())
            .map(|i| {
                let (w, d) = seed_probs[i % seed_probs.len()];
                let d = (d % 9).max(1) as u64 + 1; // 2..=10
                Rational::from_ratio((w as i64) % (d as i64 + 1), d)
            })
            .collect();
        ProbDatabase::with_probs(db, probs).unwrap()
    }

    #[test]
    fn load_save_load_roundtrip_property() {
        let gens = (
            any::<u8>(),
            any::<u64>(),
            vec((any::<u8>(), any::<u8>()), 4..8),
        );
        check(
            "load_save_load_roundtrip_property",
            &Config::cases(48),
            &gens,
            |(rel_bits, fact_bits, seed_probs)| {
                let h = random_pdb(*rel_bits, *fact_bits, seed_probs);
                let saved = save_string(&h);
                let reloaded = load_str(&saved);
                prop_assert!(reloaded.is_ok(), "reload failed: {:?}", reloaded.err());
                let h2 = reloaded.unwrap();
                // Same facts in the same global order, same exact probabilities.
                prop_assert_eq!(h.len(), h2.len());
                for f in h.database().fact_ids() {
                    prop_assert_eq!(h.database().display_fact(f), h2.database().display_fact(f));
                    prop_assert_eq!(h.prob(f), h2.prob(f));
                }
                // And the writer is canonical: save ∘ load ∘ save = save.
                prop_assert_eq!(saved, save_string(&h2));
                Ok(())
            },
        );
    }
}
