//! A minimal JSON value type with a hand-rolled parser and serializer.
//!
//! The workspace is hermetic (no `serde`), and the wire protocol only
//! needs flat request/response objects, so this implements exactly
//! RFC 8259 minus two corners we have no use for: numbers are parsed
//! through `f64` (integers stay exact up to 2⁵³ — seeds larger than that
//! are sent, and echoed, as decimal strings), and `\uXXXX` escapes outside the BMP must be
//! paired surrogates. Nesting is bounded by [`MAX_JSON_DEPTH`], so a
//! hostile line of brackets is a parse error, not a stack overflow.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. Wire requests
/// nest one level and responses about three; the bound keeps the
/// recursive-descent parser's stack use small on any input.
pub const MAX_JSON_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (see module docs for integer precision).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on output.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let mut p = Parser { src: src.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(p.err("trailing input after JSON value"));
        }
        Ok(v)
    }

    /// Member lookup on an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The payload as a `u64`: a non-negative integral number, or a string
    /// holding a decimal integer (the escape hatch for seeds above 2⁵³).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            Json::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

/// Lossless, mirroring [`Json::as_u64`]: a number up to 2⁵³, where `f64`
/// is exact, and a decimal string above it, so an echoed seed sent back
/// is the same seed.
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        if v <= 1 << 53 {
            Json::Num(v as f64)
        } else {
            Json::Str(v.to_string())
        }
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => {
                let mut out = String::with_capacity(s.len() + 2);
                escape_into(&mut out, s);
                f.write_str(&out)
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut key = String::with_capacity(k.len() + 2);
                    escape_into(&mut key, k);
                    write!(f, "{key}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { at: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(c @ (b'[' | b'{')) => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_JSON_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if c == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !self.src[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                            // hex4 leaves pos past the digits; skip the
                            // outer pos += 1 below.
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte at once: validating only the run keeps
                    // decoding linear in the string's length. Those bytes
                    // are ASCII, so the run ends on a character boundary
                    // of the input (which came in as &str).
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.src[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.src.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.src[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError { at: start, message: format!("bad number {text:?}") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_request_object() {
        let v = Json::parse(
            r#"{"op":"estimate","query":"R(x,y), S(y,z)","epsilon":0.1,"seed":42,"deep":[1,true,null]}"#,
        )
        .unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("estimate"));
        assert_eq!(v.get("epsilon").and_then(Json::as_f64), Some(0.1));
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(42));
        assert_eq!(
            v.get("deep"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Bool(true), Json::Null]))
        );
    }

    #[test]
    fn roundtrips_through_display() {
        let cases = [
            r#"{"a":"x\"y\\z","b":[1,2.5,-3],"c":{"nested":true},"d":null}"#,
            r#""éA""#,
            "[]",
            "{}",
            "-0.125",
        ];
        for src in cases {
            let v = Json::parse(src).unwrap();
            let v2 = Json::parse(&v.to_string()).unwrap();
            assert_eq!(v, v2, "src {src}");
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::from(42u64).to_string(), "42");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""🦀""#).unwrap();
        assert_eq!(v.as_str(), Some("🦀"));
    }

    #[test]
    fn big_seed_via_string() {
        let v = Json::parse(r#"{"seed":"18446744073709551615"}"#).unwrap();
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(u64::MAX));
    }

    #[test]
    fn every_u64_round_trips() {
        for v in [0, 42, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let back = Json::parse(&Json::from(v).to_string()).unwrap();
            assert_eq!(back.as_u64(), Some(v), "{v}");
        }
        assert_eq!(Json::from(1u64 << 53).to_string(), "9007199254740992");
        assert_eq!(Json::from((1u64 << 53) + 1).to_string(), "\"9007199254740993\"");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            r#"{"a":}"#,
            "tru",
            r#""unterminated"#,
            "1 2",
            r#""\ud800x""#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let nest = |d: usize| format!("{}1{}", open.repeat(d), close.repeat(d));
            assert!(Json::parse(&nest(MAX_JSON_DEPTH)).is_ok(), "{open} × {MAX_JSON_DEPTH}");
            let e = Json::parse(&nest(MAX_JSON_DEPTH + 1)).unwrap_err();
            let bound = format!("nesting deeper than {MAX_JSON_DEPTH} levels");
            assert!(e.message.contains(&bound), "{e}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A megabyte string used to take seconds: each character was
        // decoded by validating the whole rest of the input.
        let body = "é9\\\"".repeat(1 << 18);
        let started = std::time::Instant::now();
        let v = Json::parse(&format!("\"{body}\"")).unwrap();
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
        assert_eq!(v.as_str(), Some("é9\"".repeat(1 << 18).as_str()));
        let e = Json::parse("\"ab\u{1}\"").unwrap_err();
        assert_eq!(
            (e.at, e.message.as_str()),
            (3, "raw control character in string")
        );
    }

    #[test]
    fn control_characters_escape_on_output() {
        let s = Json::Str("a\nb\u{1}".to_owned()).to_string();
        assert_eq!(s, "\"a\\nb\\u0001\"");
        assert_eq!(Json::parse(&s).unwrap().as_str(), Some("a\nb\u{1}"));
    }
}
