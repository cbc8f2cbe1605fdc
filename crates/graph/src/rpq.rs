//! Regular path queries: AST, concrete syntax, and the label NFA.
//!
//! An RPQ is `endpoint -> regex -> endpoint`: a source, a regular
//! expression over edge labels, and a target. Endpoints are either vertex
//! constants (identifiers) or `_` (existential). The regex grammar:
//!
//! ```text
//! alternation := concat ('|' concat)*
//! concat      := postfix (('.')? postfix)*        (juxtaposition allowed)
//! postfix     := atom ('*' | '?')*
//! atom        := label | '(' alternation ')'
//! ```
//!
//! so `a -> road* -> b`, `_ -> (road | ferry) . road? -> sink`, and
//! `a -> x y* z -> _` are all well-formed. [`Rpq`]'s `Display` prints the
//! normalized form — the serve layer keys its plan cache on parse → print,
//! so formatting differences collapse onto one cache entry.
//!
//! Queries are untrusted input, so the parser bounds the depth of the
//! tree it builds. Stacked postfix operators collapse while parsing
//! (`r**` and `r?*` and `r*?` are `r*`, `r??` is `r?`: same language), and
//! parentheses nested deeper than [`MAX_REGEX_DEPTH`] are an
//! [`RpqParseError`]. Every recursive pass over a [`Regex`] (parser,
//! printer, NFA builder, `Drop`) then stays far inside a thread's stack.
//!
//! [`Regex::to_label_nfa`] compiles the regex into an ε-free NFA over label
//! names (Thompson construction followed by ε-closure elimination) — the
//! query-side factor of the product construction in [`crate::compile()`] and
//! the world-walk oracle in [`crate::oracle`].

use pqe_arith::text::is_identifier;
use std::fmt;

/// One end of a path query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A vertex constant.
    Vertex(String),
    /// Existential: any vertex witnesses.
    Any,
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Vertex(v) => write!(f, "{v}"),
            Endpoint::Any => write!(f, "_"),
        }
    }
}

/// A regular expression over edge labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Regex {
    /// A single edge label.
    Label(String),
    /// Concatenation (≥ 2 factors).
    Concat(Vec<Regex>),
    /// Alternation (≥ 2 branches).
    Alt(Vec<Regex>),
    /// Kleene star.
    Star(Box<Regex>),
    /// Zero or one.
    Opt(Box<Regex>),
}

impl fmt::Display for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Regex::Label(l) => write!(f, "{l}"),
            Regex::Concat(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ".")?;
                    }
                    if matches!(p, Regex::Alt(_)) {
                        write!(f, "({p})")?;
                    } else {
                        write!(f, "{p}")?;
                    }
                }
                Ok(())
            }
            Regex::Alt(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            Regex::Star(r) => write_postfix(f, r, '*'),
            Regex::Opt(r) => write_postfix(f, r, '?'),
        }
    }
}

fn write_postfix(f: &mut fmt::Formatter<'_>, r: &Regex, op: char) -> fmt::Result {
    if matches!(r, Regex::Alt(_) | Regex::Concat(_)) {
        write!(f, "({r}){op}")
    } else {
        write!(f, "{r}{op}")
    }
}

/// A regular path query `source -> regex -> target`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rpq {
    /// Path start.
    pub source: Endpoint,
    /// Label language along the path.
    pub regex: Regex,
    /// Path end.
    pub target: Endpoint,
}

impl fmt::Display for Rpq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {} -> {}", self.source, self.regex, self.target)
    }
}

/// Deepest parenthesis nesting [`parse_regex`] accepts.
pub const MAX_REGEX_DEPTH: usize = 64;

/// A syntax error with a description (RPQs are single-line; no position
/// tracking beyond the message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpqParseError(pub String);

impl fmt::Display for RpqParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad RPQ: {}", self.0)
    }
}

impl std::error::Error for RpqParseError {}

fn bad(msg: impl Into<String>) -> RpqParseError {
    RpqParseError(msg.into())
}

fn parse_endpoint(s: &str) -> Result<Endpoint, RpqParseError> {
    let s = s.trim();
    if s == "_" {
        return Ok(Endpoint::Any);
    }
    if is_identifier(s) {
        Ok(Endpoint::Vertex(s.to_owned()))
    } else {
        Err(bad(format!(
            "endpoint {s:?} is neither an identifier nor `_`"
        )))
    }
}

/// Parses `endpoint -> regex -> endpoint`.
pub fn parse(src: &str) -> Result<Rpq, RpqParseError> {
    let first = src
        .find("->")
        .ok_or_else(|| bad("expected `source -> regex -> target`"))?;
    let last = src.rfind("->").expect("find succeeded");
    if first == last {
        return Err(bad("expected two `->` arrows (source -> regex -> target)"));
    }
    let source = parse_endpoint(&src[..first])?;
    let target = parse_endpoint(&src[last + 2..])?;
    let regex = parse_regex(&src[first + 2..last])?;
    Ok(Rpq {
        source,
        regex,
        target,
    })
}

/// Parses a bare regular expression over labels.
pub fn parse_regex(src: &str) -> Result<Regex, RpqParseError> {
    let mut p = Parser {
        chars: src.char_indices().peekable(),
        src,
        depth: 0,
    };
    let r = p.alternation()?;
    p.skip_ws();
    match p.chars.peek() {
        None => Ok(r),
        Some(&(i, c)) => Err(bad(format!(
            "unexpected {c:?} at byte {i} of regex {src:?}"
        ))),
    }
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    src: &'a str,
    /// Parentheses open at the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(&(_, c)) if c.is_whitespace()) {
            self.chars.next();
        }
    }

    fn alternation(&mut self) -> Result<Regex, RpqParseError> {
        let mut parts = vec![self.concat()?];
        loop {
            self.skip_ws();
            if matches!(self.chars.peek(), Some(&(_, '|'))) {
                self.chars.next();
                parts.push(self.concat()?);
            } else {
                break;
            }
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            Regex::Alt(parts)
        })
    }

    fn concat(&mut self) -> Result<Regex, RpqParseError> {
        let mut parts = vec![self.postfix()?];
        loop {
            self.skip_ws();
            match self.chars.peek() {
                Some(&(_, '.')) => {
                    self.chars.next();
                    parts.push(self.postfix()?);
                }
                // Juxtaposition: another factor starts right here.
                Some(&(_, c)) if c == '(' || c.is_ascii_alphanumeric() || c == '_' => {
                    parts.push(self.postfix()?);
                }
                _ => break,
            }
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            Regex::Concat(parts)
        })
    }

    fn postfix(&mut self) -> Result<Regex, RpqParseError> {
        let mut r = self.atom()?;
        loop {
            self.skip_ws();
            match self.chars.peek() {
                // Idempotent stacks collapse: (r*)* = (r?)* = (r*)? = r*
                // and (r?)? = r?, so the tree stays one postfix deep.
                Some(&(_, '*')) => {
                    self.chars.next();
                    r = match r {
                        Regex::Star(_) => r,
                        Regex::Opt(inner) => Regex::Star(inner),
                        r => Regex::Star(Box::new(r)),
                    };
                }
                Some(&(_, '?')) => {
                    self.chars.next();
                    if !matches!(r, Regex::Star(_) | Regex::Opt(_)) {
                        r = Regex::Opt(Box::new(r));
                    }
                }
                _ => break,
            }
        }
        Ok(r)
    }

    fn atom(&mut self) -> Result<Regex, RpqParseError> {
        self.skip_ws();
        match self.chars.peek() {
            Some(&(i, '(')) => {
                self.chars.next();
                self.depth += 1;
                if self.depth > MAX_REGEX_DEPTH {
                    return Err(bad(format!(
                        "parentheses nest deeper than {MAX_REGEX_DEPTH} levels at byte {i} of the regex"
                    )));
                }
                let r = self.alternation()?;
                self.skip_ws();
                self.depth -= 1;
                match self.chars.next() {
                    Some((_, ')')) => Ok(r),
                    _ => Err(bad(format!("unclosed `(` in regex {:?}", self.src))),
                }
            }
            Some(&(start, c)) if c.is_ascii_alphanumeric() || c == '_' => {
                let mut end = start;
                while let Some(&(i, c)) = self.chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        end = i + c.len_utf8();
                        self.chars.next();
                    } else {
                        break;
                    }
                }
                Ok(Regex::Label(self.src[start..end].to_owned()))
            }
            Some(&(i, c)) => Err(bad(format!(
                "expected a label or `(` at byte {i}, found {c:?} in regex {:?}",
                self.src
            ))),
            None => Err(bad(format!("empty regular expression in {:?}", self.src))),
        }
    }
}

/// The ε-free NFA of a [`Regex`] over label *names* — the query-side
/// factor of the product construction.
#[derive(Debug, Clone)]
pub struct LabelNfa {
    /// Distinct labels appearing in the regex, in first-use order.
    pub labels: Vec<String>,
    /// Number of states.
    pub num_states: usize,
    /// Initial states.
    pub initial: Vec<usize>,
    /// `accepting[q]` — whether state `q` accepts.
    pub accepting: Vec<bool>,
    /// `trans[q]` — outgoing `(label index, target)` pairs of `q`.
    pub trans: Vec<Vec<(usize, usize)>>,
}

impl LabelNfa {
    /// Index of `label` in [`LabelNfa::labels`], if it occurs.
    pub fn label_index(&self, label: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == label)
    }

    /// Whether the empty label string is in the language.
    pub fn accepts_empty(&self) -> bool {
        self.initial.iter().any(|&q| self.accepting[q])
    }
}

/// ε-NFA under construction (Thompson).
struct EpsNfa {
    labels: Vec<String>,
    eps: Vec<Vec<usize>>,
    trans: Vec<Vec<(usize, usize)>>,
}

impl EpsNfa {
    fn add_state(&mut self) -> usize {
        self.eps.push(Vec::new());
        self.trans.push(Vec::new());
        self.eps.len() - 1
    }

    fn label_id(&mut self, name: &str) -> usize {
        if let Some(i) = self.labels.iter().position(|l| l == name) {
            return i;
        }
        self.labels.push(name.to_owned());
        self.labels.len() - 1
    }

    /// Thompson fragment with one entry and one exit state.
    fn fragment(&mut self, r: &Regex) -> (usize, usize) {
        match r {
            Regex::Label(name) => {
                let s = self.add_state();
                let e = self.add_state();
                let l = self.label_id(name);
                self.trans[s].push((l, e));
                (s, e)
            }
            Regex::Concat(parts) => {
                let mut first = None;
                let mut prev_end = 0;
                for p in parts {
                    let (fs, fe) = self.fragment(p);
                    if first.is_none() {
                        first = Some(fs);
                    } else {
                        self.eps[prev_end].push(fs);
                    }
                    prev_end = fe;
                }
                (first.expect("concat is non-empty"), prev_end)
            }
            Regex::Alt(parts) => {
                let s = self.add_state();
                let e = self.add_state();
                for p in parts {
                    let (fs, fe) = self.fragment(p);
                    self.eps[s].push(fs);
                    self.eps[fe].push(e);
                }
                (s, e)
            }
            Regex::Star(inner) => {
                let s = self.add_state();
                let e = self.add_state();
                let (fs, fe) = self.fragment(inner);
                self.eps[s].push(fs);
                self.eps[s].push(e);
                self.eps[fe].push(fs);
                self.eps[fe].push(e);
                (s, e)
            }
            Regex::Opt(inner) => {
                let s = self.add_state();
                let e = self.add_state();
                let (fs, fe) = self.fragment(inner);
                self.eps[s].push(fs);
                self.eps[s].push(e);
                self.eps[fe].push(e);
                (s, e)
            }
        }
    }

    fn closure(&self, q: usize) -> Vec<usize> {
        let mut seen = vec![false; self.eps.len()];
        let mut stack = vec![q];
        seen[q] = true;
        let mut out = Vec::new();
        while let Some(p) = stack.pop() {
            out.push(p);
            for &n in &self.eps[p] {
                if !seen[n] {
                    seen[n] = true;
                    stack.push(n);
                }
            }
        }
        out
    }
}

impl Regex {
    /// Compiles into an ε-free [`LabelNfa`].
    pub fn to_label_nfa(&self) -> LabelNfa {
        let mut eps = EpsNfa {
            labels: Vec::new(),
            eps: Vec::new(),
            trans: Vec::new(),
        };
        let (start, end) = eps.fragment(self);
        let n = eps.eps.len();
        // ε-elimination: q keeps the label transitions of its closure;
        // q accepts iff its closure contains the Thompson exit state.
        let mut accepting = vec![false; n];
        let mut trans: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for q in 0..n {
            for p in eps.closure(q) {
                if p == end {
                    accepting[q] = true;
                }
                for &(l, t) in &eps.trans[p] {
                    if !trans[q].contains(&(l, t)) {
                        trans[q].push((l, t));
                    }
                }
            }
        }
        LabelNfa {
            labels: eps.labels,
            num_states: n,
            initial: vec![start],
            accepting,
            trans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> String {
        parse(src).unwrap().to_string()
    }

    #[test]
    fn parses_and_normalizes() {
        assert_eq!(roundtrip("a -> road -> b"), "a -> road -> b");
        assert_eq!(roundtrip("  a  ->  road *  ->  _ "), "a -> road* -> _");
        assert_eq!(
            roundtrip("_ -> (road | ferry) . road? -> sink"),
            "_ -> (road|ferry).road? -> sink"
        );
        // Juxtaposition and explicit dots normalize identically.
        assert_eq!(
            roundtrip("a -> x y* z -> b"),
            roundtrip("a -> x . y* . z -> b")
        );
        // Nested postfix needs parens only around composites.
        assert_eq!(roundtrip("a -> (x y)* -> b"), "a -> (x.y)* -> b");
        assert_eq!(roundtrip("a -> (x|y)? -> b"), "a -> (x|y)? -> b");
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse("road*").is_err());
        assert!(parse("a -> road").is_err());
        assert!(parse("a -> -> b").is_err());
        assert!(parse("a -> (road -> b").is_err());
        assert!(parse("a -> road) -> b").is_err());
        assert!(parse("a! -> road -> b").is_err());
        assert!(parse("a -> road || ferry -> b").is_err());
    }

    #[test]
    fn stacked_postfix_operators_collapse() {
        assert_eq!(roundtrip("a -> x** -> b"), "a -> x* -> b");
        assert_eq!(roundtrip("a -> x*? -> b"), "a -> x* -> b");
        assert_eq!(roundtrip("a -> x?* -> b"), "a -> x* -> b");
        assert_eq!(roundtrip("a -> x?? -> b"), "a -> x? -> b");
        assert_eq!(roundtrip("a -> ((x y)*)? -> b"), "a -> (x.y)* -> b");
        assert_eq!(roundtrip("a -> x* ?* ? -> b"), "a -> x* -> b");
        // 100 000 stacked stars: one `Star` node, not a 100 000-deep tree.
        let src = format!("a -> x{} -> b", "*".repeat(100_000));
        let q = parse(&src).unwrap();
        assert_eq!(q.regex, Regex::Star(Box::new(Regex::Label("x".to_owned()))));
    }

    #[test]
    fn parenthesis_depth_is_bounded() {
        let nested = |d: usize| format!("a -> {}x{} -> b", "(".repeat(d), ")".repeat(d));
        assert_eq!(roundtrip(&nested(MAX_REGEX_DEPTH)), "a -> x -> b");
        let e = parse(&nested(MAX_REGEX_DEPTH + 1)).unwrap_err();
        assert!(
            e.to_string()
                .contains(&format!("deeper than {MAX_REGEX_DEPTH}")),
            "{e}"
        );
        // 20 000 unclosed `(`s: rejected at the bound, not a stack overflow.
        let e = parse(&format!("a -> {}r -> b", "(".repeat(20_000))).unwrap_err();
        assert!(
            e.to_string()
                .contains(&format!("deeper than {MAX_REGEX_DEPTH}")),
            "{e}"
        );
    }

    /// Membership in the compiled NFA, by direct subset simulation.
    fn accepts(nfa: &LabelNfa, word: &[&str]) -> bool {
        let mut cur: Vec<usize> = nfa.initial.clone();
        for w in word {
            let Some(l) = nfa.label_index(w) else {
                return false;
            };
            let mut next: Vec<usize> = Vec::new();
            for &q in &cur {
                for &(lab, t) in &nfa.trans[q] {
                    if lab == l && !next.contains(&t) {
                        next.push(t);
                    }
                }
            }
            cur = next;
        }
        cur.iter().any(|&q| nfa.accepting[q])
    }

    #[test]
    fn label_nfa_matches_the_language() {
        let r = parse_regex("(a|b)* . c").unwrap();
        let m = r.to_label_nfa();
        assert!(accepts(&m, &["c"]));
        assert!(accepts(&m, &["a", "b", "a", "c"]));
        assert!(!accepts(&m, &["a", "b"]));
        assert!(!accepts(&m, &["c", "c"]));
        assert!(!m.accepts_empty());

        let r = parse_regex("a?").unwrap();
        let m = r.to_label_nfa();
        assert!(m.accepts_empty());
        assert!(accepts(&m, &["a"]));
        assert!(!accepts(&m, &["a", "a"]));

        let r = parse_regex("a*").unwrap();
        let m = r.to_label_nfa();
        assert!(m.accepts_empty());
        assert!(accepts(&m, &["a", "a", "a"]));
    }

    #[test]
    fn star_of_alternation_is_iterated() {
        let m = parse_regex("(x.y | z)*").unwrap().to_label_nfa();
        assert!(m.accepts_empty());
        assert!(accepts(&m, &["z"]));
        assert!(accepts(&m, &["x", "y", "z", "x", "y"]));
        assert!(!accepts(&m, &["x", "z"]));
    }
}
