//! Delta batches and their text format.
//!
//! One operation per line, a sigil first:
//!
//! ```text
//! # promote the gate link, drop a stale edge, ingest a new reading
//! ~ 0.95  Link(gate, relay1)      # set probability
//! - Link(relay1, relay9)          # delete
//! + 3/4   Link(relay1, relay2)    # insert with probability (default 1)
//! ```
//!
//! Comments (`#`) and blank lines are ignored; failures carry 1-based line
//! numbers and the offending line, mirroring `pqe_db::io`.

use pqe_arith::Rational;
use std::collections::BTreeSet;
use std::fmt;

/// One mutation against a probabilistic database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Insert a new fact with probability `prob` (sigil `+`). Inserting a
    /// fact that is already present is an error — use
    /// [`DeltaOp::SetProb`] to adjust an existing fact.
    Insert {
        /// Relation name.
        rel: String,
        /// Argument constants, by name.
        args: Vec<String>,
        /// Probability of the new fact.
        prob: Rational,
    },
    /// Delete an existing fact (sigil `-`).
    Delete {
        /// Relation name.
        rel: String,
        /// Argument constants, by name.
        args: Vec<String>,
    },
    /// Overwrite the probability of an existing fact (sigil `~`). This is
    /// the *non-structural* mutation: it never changes which facts exist,
    /// so compiled automata survive it (only multipliers change).
    SetProb {
        /// Relation name.
        rel: String,
        /// Argument constants, by name.
        args: Vec<String>,
        /// New probability.
        prob: Rational,
    },
}

impl DeltaOp {
    /// The relation this operation touches.
    pub fn relation(&self) -> &str {
        match self {
            DeltaOp::Insert { rel, .. }
            | DeltaOp::Delete { rel, .. }
            | DeltaOp::SetProb { rel, .. } => rel,
        }
    }

    /// Whether the operation changes *which* facts exist (insert/delete),
    /// as opposed to only re-labelling probabilities.
    pub fn is_structural(&self) -> bool {
        !matches!(self, DeltaOp::SetProb { .. })
    }

    fn fact_text(rel: &str, args: &[String]) -> String {
        format!("{rel}({})", args.join(","))
    }
}

impl fmt::Display for DeltaOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaOp::Insert { rel, args, prob } if prob.is_one() => {
                write!(f, "+ {}", DeltaOp::fact_text(rel, args))
            }
            DeltaOp::Insert { rel, args, prob } => {
                write!(f, "+ {prob} {}", DeltaOp::fact_text(rel, args))
            }
            DeltaOp::Delete { rel, args } => {
                write!(f, "- {}", DeltaOp::fact_text(rel, args))
            }
            DeltaOp::SetProb { rel, args, prob } => {
                write!(f, "~ {prob} {}", DeltaOp::fact_text(rel, args))
            }
        }
    }
}

/// A parse failure with its 1-based line number and the offending line
/// (same shape as `pqe_db::io::LoadError`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaParseError {
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, verbatim (trailing whitespace trimmed).
    pub text: String,
    /// Description of the failure.
    pub message: String,
}

impl fmt::Display for DeltaParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.text.is_empty() {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "line {}: {}\n  {} | {}", self.line, self.message, self.line, self.text)
        }
    }
}

impl std::error::Error for DeltaParseError {}

fn err(line: usize, text: &str, message: impl Into<String>) -> DeltaParseError {
    DeltaParseError {
        line,
        text: text.trim_end().to_owned(),
        message: message.into(),
    }
}

/// An ordered batch of mutations, applied atomically by
/// [`VersionedDb::apply`](crate::VersionedDb::apply): either every
/// operation validates and the whole batch lands, or nothing changes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta {
    ops: Vec<DeltaOp>,
}

impl Delta {
    /// An empty batch.
    pub fn new() -> Self {
        Delta::default()
    }

    /// The operations in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends an operation.
    pub fn push(&mut self, op: DeltaOp) {
        self.ops.push(op);
    }

    /// Appends a probability overwrite.
    pub fn set_prob(&mut self, rel: &str, args: &[&str], prob: Rational) {
        self.push(DeltaOp::SetProb {
            rel: rel.to_owned(),
            args: args.iter().map(|a| (*a).to_owned()).collect(),
            prob,
        });
    }

    /// The invalidation oracle: the set of relation names this delta
    /// touches. A cached plan whose query mentions none of these relations
    /// is untouched by the delta — its compiled automaton *and* its
    /// `(ε, seed)` memo both stay valid.
    pub fn touched_relations(&self) -> BTreeSet<String> {
        self.ops.iter().map(|op| op.relation().to_owned()).collect()
    }

    /// The relations touched *structurally* (by an insert or delete).
    /// Plans over these need a full recompile; plans over relations that
    /// are touched but not structural only need multipliers recomputed.
    pub fn structural_relations(&self) -> BTreeSet<String> {
        self.ops
            .iter()
            .filter(|op| op.is_structural())
            .map(|op| op.relation().to_owned())
            .collect()
    }

    /// Whether the delta only re-labels probabilities — the case the
    /// incremental FPRAS path absorbs without recompiling.
    pub fn is_probability_only(&self) -> bool {
        self.ops.iter().all(|op| !op.is_structural())
    }

    /// Parses the text format.
    pub fn parse_str(src: &str) -> Result<Delta, DeltaParseError> {
        let mut ops = Vec::new();
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
            let sigil = line.chars().next().expect("line is non-empty");
            let rest = line[sigil.len_utf8()..].trim_start();
            let op = match sigil {
                '+' => {
                    let (prob, fact_src) =
                        split_probability(rest).map_err(|m| err(lineno, raw, m))?;
                    let (rel, args) = parse_fact(fact_src).map_err(|m| err(lineno, raw, m))?;
                    check_probability(&prob).map_err(|m| err(lineno, raw, m))?;
                    DeltaOp::Insert { rel, args, prob }
                }
                '-' => {
                    let (rel, args) = parse_fact(rest).map_err(|m| err(lineno, raw, m))?;
                    DeltaOp::Delete { rel, args }
                }
                '~' => {
                    if !rest.starts_with(|c: char| c.is_ascii_digit()) {
                        return Err(err(
                            lineno,
                            raw,
                            "set-probability requires an explicit probability, e.g. `~ 1/2 R(a,b)`",
                        ));
                    }
                    let (prob, fact_src) =
                        split_probability(rest).map_err(|m| err(lineno, raw, m))?;
                    let (rel, args) = parse_fact(fact_src).map_err(|m| err(lineno, raw, m))?;
                    check_probability(&prob).map_err(|m| err(lineno, raw, m))?;
                    DeltaOp::SetProb { rel, args, prob }
                }
                other => {
                    return Err(err(
                        lineno,
                        raw,
                        format!("expected an operation sigil (+, -, or ~), found {other:?}"),
                    ));
                }
            };
            ops.push(op);
        }
        Ok(Delta { ops })
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for op in &self.ops {
            writeln!(f, "{op}")?;
        }
        Ok(())
    }
}

fn check_probability(p: &Rational) -> Result<(), String> {
    if p.is_probability() {
        Ok(())
    } else {
        Err(format!("probability {p} outside [0, 1]"))
    }
}

/// Splits an optional leading probability token from the fact text (same
/// convention as `pqe_db::io`: a leading digit starts a probability).
fn split_probability(src: &str) -> Result<(Rational, &str), String> {
    let first = src
        .chars()
        .next()
        .ok_or_else(|| "expected a fact after the operation sigil".to_owned())?;
    if !first.is_ascii_digit() {
        return Ok((Rational::one(), src));
    }
    let split = src
        .find(|c: char| c.is_whitespace())
        .ok_or_else(|| "expected a fact after the probability".to_owned())?;
    let (tok, rest) = src.split_at(split);
    let prob: Rational = tok
        .parse()
        .map_err(|e| format!("bad probability {tok:?}: {e}"))?;
    Ok((prob, rest.trim_start()))
}

/// Parses `Rel(arg, arg, ...)` — same grammar as the database format.
fn parse_fact(src: &str) -> Result<(String, Vec<String>), String> {
    let open = src
        .find('(')
        .ok_or_else(|| format!("expected Rel(args...) in {src:?}"))?;
    let rel = src[..open].trim();
    if rel.is_empty() || !rel.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(format!("bad relation name {rel:?}"));
    }
    let close = src
        .rfind(')')
        .ok_or_else(|| "missing closing parenthesis".to_owned())?;
    if !src[close + 1..].trim().is_empty() {
        return Err("trailing input after fact".to_owned());
    }
    let args: Vec<String> = src[open + 1..close]
        .split(',')
        .map(|a| a.trim().to_owned())
        .collect();
    if args.iter().any(String::is_empty) {
        return Err("empty argument".to_owned());
    }
    Ok((rel.to_owned(), args))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_three_sigils() {
        let d = Delta::parse_str(
            "# a batch\n+ 1/2 R(a,b)\n- S(c)   # stale\n~ 0.25 R(b,c)\n\n+ T(x,y)\n",
        )
        .unwrap();
        assert_eq!(d.len(), 4);
        assert!(matches!(&d.ops()[0], DeltaOp::Insert { prob, .. } if prob.to_string() == "1/2"));
        assert!(matches!(&d.ops()[1], DeltaOp::Delete { rel, .. } if rel == "S"));
        assert!(matches!(&d.ops()[2], DeltaOp::SetProb { prob, .. } if prob.to_string() == "1/4"));
        assert!(matches!(&d.ops()[3], DeltaOp::Insert { prob, .. } if prob.is_one()));
    }

    #[test]
    fn display_roundtrips_through_parse() {
        let src = "+ 1/2 R(a,b)\n- S(c)\n~ 1/4 R(b,c)\n+ T(x,y)\n";
        let d = Delta::parse_str(src).unwrap();
        assert_eq!(d.to_string(), src);
        assert_eq!(Delta::parse_str(&d.to_string()).unwrap(), d);
    }

    #[test]
    fn oracle_classifies_relations() {
        let d = Delta::parse_str("~ 1/2 R(a,b)\n+ S(c)\n~ 1/3 R(b,c)\n").unwrap();
        let touched: Vec<String> = d.touched_relations().into_iter().collect();
        assert_eq!(touched, ["R", "S"]);
        let structural: Vec<String> = d.structural_relations().into_iter().collect();
        assert_eq!(structural, ["S"]);
        assert!(!d.is_probability_only());
        assert!(Delta::parse_str("~ 1/2 R(a,b)\n").unwrap().is_probability_only());
    }

    #[test]
    fn errors_carry_line_numbers_and_text() {
        let e = Delta::parse_str("+ R(a,b)\n\nx R(a)\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(e.text, "x R(a)");
        assert!(e.message.contains("sigil"), "message: {}", e.message);
        assert!(e.to_string().contains("3 | x R(a)"));

        let e = Delta::parse_str("~ R(a,b)\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("explicit probability"));

        let e = Delta::parse_str("+ 3/2 R(a)\n").unwrap_err();
        assert!(e.message.contains("outside"));

        let e = Delta::parse_str("- R(a\n").unwrap_err();
        assert!(e.message.contains("closing parenthesis"));

        let e = Delta::parse_str("+ 0.x R(a)\n").unwrap_err();
        assert!(e.message.contains("bad probability"));
    }
}
