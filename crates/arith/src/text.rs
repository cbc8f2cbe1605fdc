//! The line format shared by the workspace's three text inputs:
//! probabilistic databases (`pqe_db::io`), probabilistic graphs
//! (`pqe_graph::io`) and delta batches (`pqe_delta::Delta::parse_str`).
//! Each of those modules adds only its own record grammar; everything
//! below is common to all three.
//!
//! * **Records.** Input is read line by line, one record per line.
//!   Everything from the first `#` to the end of a line is a comment, and
//!   a line that is blank once its comment is gone holds no record.
//!   [`records`] yields the others with their 1-based line numbers.
//! * **The leading probability.** A record body that starts with an ASCII
//!   digit starts with a probability token, which runs to the first
//!   whitespace: a rational `w/d`, a decimal `0.25` or an integer, lying
//!   in `[0, 1]`. A body without one is certain (probability 1), so an
//!   ordinary database is a probabilistic one as it stands. A token longer
//!   than [`MAX_PROBABILITY_LEN`] bytes is refused unread, because parsing
//!   a rational costs time quadratic in its length. [`leading_probability`]
//!   reads the token; [`Weighted`] writes it back, omitting a probability
//!   of 1 unless the body itself starts with a digit (which a reader would
//!   take for the token).
//! * **Identifiers** — relation names, vertex names, edge labels — are
//!   non-empty runs of `[A-Za-z0-9_]` ([`is_identifier`]).
//! * **Errors.** A refused record is a [`LoadError`]: its line number, the
//!   line as written (trailing whitespace trimmed; a line longer than
//!   [`MAX_ECHO_LEN`] bytes is cut to an excerpt, see [`echo`]) and a
//!   message, shown as
//!
//!   ```text
//!   line 2: bad probability "0.x5": invalid digit 'x'
//!     2 | 0.x5 R(b,c)
//!   ```
//!
//! ```
//! use pqe_arith::text::{leading_probability, records};
//!
//! let src = "# two records\n3/4 R(a)  # weighted\n\nS(b)\n";
//! let bodies: Vec<(usize, &str)> = records(src).map(|r| (r.line, r.body)).collect();
//! assert_eq!(bodies, [(2, "3/4 R(a)"), (4, "S(b)")]);
//!
//! let (p, rest) = leading_probability("3/4 R(a)", "a fact").unwrap();
//! assert_eq!((p.to_string().as_str(), rest), ("3/4", "R(a)"));
//! assert!(leading_probability("S(b)", "a fact").unwrap().0.is_one());
//! ```

use crate::Rational;
use std::fmt;

/// Longest probability token [`leading_probability`] parses, in bytes.
pub const MAX_PROBABILITY_LEN: usize = 64;

/// Longest line a [`LoadError`] quotes whole, in bytes; see [`echo`].
pub const MAX_ECHO_LEN: usize = 160;

/// A refused record: its 1-based line number, the line and what is wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadError {
    /// 1-based line number.
    pub line: usize,
    /// The offending line as written, trailing whitespace trimmed, or
    /// an excerpt of it when it is long (see [`echo`]).
    pub text: String,
    /// Description of the failure.
    pub message: String,
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let LoadError {
            line,
            text,
            message,
        } = self;
        write!(f, "line {line}: {message}\n  {line} | {text}")
    }
}

impl std::error::Error for LoadError {}

/// One record of a text input; see [`records`].
#[derive(Debug, Clone, Copy)]
pub struct Record<'a> {
    /// 1-based line number.
    pub line: usize,
    /// The whole line, comment included.
    pub raw: &'a str,
    /// The line without its comment and surrounding whitespace; never
    /// empty.
    pub body: &'a str,
}

impl Record<'_> {
    /// A [`LoadError`] for this record's line.
    pub fn error(&self, message: impl Into<String>) -> LoadError {
        LoadError {
            line: self.line,
            text: echo(self.raw.trim_end()),
            message: message.into(),
        }
    }
}

/// How a [`LoadError`] quotes `line`: whole when it is at most
/// [`MAX_ECHO_LEN`] bytes long, otherwise its longest prefix of at most
/// that many bytes that ends on a char boundary, followed by
/// `… (N bytes)`, `N` the line's length. A refused megabyte line thus
/// costs a short error, not a second megabyte.
pub fn echo(line: &str) -> String {
    if line.len() <= MAX_ECHO_LEN {
        return line.to_owned();
    }
    let cut = (0..=MAX_ECHO_LEN)
        .rev()
        .find(|&i| line.is_char_boundary(i))
        .unwrap_or(0);
    format!("{}… ({} bytes)", &line[..cut], line.len())
}

/// The records of `src`: every line that is not blank once its `#`
/// comment is stripped.
pub fn records(src: &str) -> impl Iterator<Item = Record<'_>> {
    src.lines().enumerate().filter_map(|(i, raw)| {
        let body = raw
            .split_once('#')
            .map_or(raw, |(body, _comment)| body)
            .trim();
        (!body.is_empty()).then_some(Record {
            line: i + 1,
            raw,
            body,
        })
    })
}

/// Whether `body` starts with a probability token (an ASCII digit).
pub fn starts_with_probability(body: &str) -> bool {
    body.starts_with(|c: char| c.is_ascii_digit())
}

/// Splits the optional leading probability off a record body, returning
/// it (1 when absent) and the rest of the body. `what` names the record
/// that must follow a probability, as in "expected `what` after the
/// probability".
pub fn leading_probability<'a>(body: &'a str, what: &str) -> Result<(Rational, &'a str), String> {
    if !starts_with_probability(body) {
        return Ok((Rational::one(), body));
    }
    let (token, rest) = body
        .split_once(char::is_whitespace)
        .ok_or_else(|| format!("expected {what} after the probability"))?;
    if token.len() > MAX_PROBABILITY_LEN {
        return Err(format!(
            "probability token of {} bytes exceeds the {MAX_PROBABILITY_LEN}-byte limit",
            token.len()
        ));
    }
    let p: Rational = token
        .parse()
        .map_err(|e| format!("bad probability {token:?}: {e}"))?;
    if !p.is_probability() {
        return Err(format!("probability {p} outside [0, 1]"));
    }
    Ok((p, rest.trim_start()))
}

/// Displays a record body after its probability, so that
/// [`leading_probability`] reads both back: the probability is omitted
/// when it is 1 and the body does not start with a digit.
pub struct Weighted<'a>(pub &'a Rational, pub &'a str);

impl fmt::Display for Weighted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Weighted(prob, body) = self;
        if prob.is_one() && !starts_with_probability(body) {
            f.write_str(body)
        } else {
            write!(f, "{prob} {body}")
        }
    }
}

/// Whether `s` is an identifier: a non-empty run of `[A-Za-z0-9_]`.
pub fn is_identifier(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_skip_comments_and_blank_lines_and_keep_line_numbers() {
        let src = "# header\n  \n0.5 R(a)   # trailing\n\tS(b)\r\n#\n";
        let recs: Vec<(usize, &str, &str)> =
            records(src).map(|r| (r.line, r.raw, r.body)).collect();
        assert_eq!(
            recs,
            [
                (3, "0.5 R(a)   # trailing", "0.5 R(a)"),
                (4, "\tS(b)", "S(b)")
            ]
        );
    }

    #[test]
    fn errors_show_the_line_number_and_the_trimmed_line() {
        let rec = records("ok\nbad line  # why  \n").nth(1).unwrap();
        let e = rec.error("broken");
        assert_eq!((e.line, e.text.as_str()), (2, "bad line  # why"));
        assert_eq!(e.to_string(), "line 2: broken\n  2 | bad line  # why");
    }

    #[test]
    fn long_lines_are_quoted_as_a_bounded_excerpt() {
        let exact = "x".repeat(MAX_ECHO_LEN);
        assert_eq!(echo(&exact), exact);
        let long = format!("1/{} R(a)", "9".repeat(1_000_000));
        let e = records(&long).next().unwrap().error("too long");
        assert_eq!(
            e.text,
            format!("{}… ({} bytes)", &long[..MAX_ECHO_LEN], long.len())
        );
        // A cut inside a multi-byte char backs off to its start.
        let wide = format!("{}é{}", "a".repeat(MAX_ECHO_LEN - 1), "b".repeat(10));
        assert_eq!(
            echo(&wide),
            format!("{}… ({} bytes)", "a".repeat(MAX_ECHO_LEN - 1), wide.len())
        );
    }

    #[test]
    fn leading_probability_reads_every_syntax_and_checks_the_range() {
        for (body, p, rest) in [
            ("1/3 R(a)", "1/3", "R(a)"),
            ("0.25\t R(a)", "1/4", "R(a)"),
            ("0 R(a)", "0", "R(a)"),
            ("1 1R(a)", "1", "1R(a)"),
            ("R(a)", "1", "R(a)"),
        ] {
            let (got, tail) = leading_probability(body, "a fact").unwrap();
            assert_eq!((got.to_string().as_str(), tail), (p, rest), "{body:?}");
        }
        let refused = |body| leading_probability(body, "an edge").unwrap_err();
        assert_eq!(refused("0.5"), "expected an edge after the probability");
        assert_eq!(refused("3/2 a"), "probability 3/2 outside [0, 1]");
        assert!(refused("0.x5 a").starts_with("bad probability \"0.x5\""));
        assert!(refused("1/0 a").contains("zero denominator"));
    }

    #[test]
    fn overlong_probability_tokens_are_refused_unparsed() {
        let at_limit = format!("0.{} R(a)", "5".repeat(MAX_PROBABILITY_LEN - 2));
        assert!(leading_probability(&at_limit, "a fact").is_ok());
        // A megabyte of digits would take seconds to parse; it is refused
        // on its length alone.
        let huge = format!("1/{} R(a)", "9".repeat(1 << 20));
        let started = std::time::Instant::now();
        let e = leading_probability(&huge, "a fact").unwrap_err();
        assert_eq!(
            e,
            format!(
                "probability token of {} bytes exceeds the 64-byte limit",
                (1 << 20) + 2
            )
        );
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn weighted_writes_what_leading_probability_reads() {
        let half = Rational::from_ratio(1, 2);
        let one = Rational::one();
        assert_eq!(Weighted(&half, "R(a)").to_string(), "1/2 R(a)");
        assert_eq!(Weighted(&one, "R(a)").to_string(), "R(a)");
        // A body starting with a digit keeps its probability of 1.
        assert_eq!(Weighted(&one, "1R(a)").to_string(), "1 1R(a)");
        for (p, body) in [(&half, "R(a)"), (&one, "R(a)"), (&one, "1 -r-> 2")] {
            let line = Weighted(p, body).to_string();
            assert_eq!(
                leading_probability(&line, "a fact").unwrap(),
                (p.clone(), body)
            );
        }
    }

    #[test]
    fn identifiers_are_nonempty_word_characters() {
        assert!(is_identifier("R_1") && is_identifier("1"));
        assert!(!is_identifier("") && !is_identifier("a-b") && !is_identifier("é"));
    }
}
