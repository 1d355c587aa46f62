//! Dependency-free JSON encoding and decoding.
//!
//! The workspace builds fully offline, so instead of `serde`/`serde_json`
//! this small module provides the only two JSON features the repo needs:
//! a debug codec for `UisrVm`-like structures and experiment output files
//! (`BENCH_*.json`, figure data).
//!
//! Design notes:
//!
//! * Objects preserve insertion order (`Vec<(String, Json)>`), so encoded
//!   output is deterministic — important because experiment files are
//!   diffed across runs.
//! * Numbers keep their integer identity: `u64`/`i64` survive a round trip
//!   bit-for-bit (registers are full-width 64-bit values; an `f64`-only
//!   representation would silently corrupt them above 2^53).
//! * The parser is a strict recursive-descent parser over UTF-8 with a
//!   depth limit, and is total: any byte string either parses or returns
//!   [`JsonError`], never panics.

use std::fmt;

/// Maximum nesting depth accepted by the parser. JSON emitted by this repo
/// is at most ~6 levels deep; 128 leaves plenty of headroom while keeping
/// recursion bounded on untrusted input.
const MAX_DEPTH: u32 = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Non-negative integer literal (no sign, no fraction, no exponent).
    U64(u64),
    /// Negative integer literal.
    I64(i64),
    /// Any other numeric literal.
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object as an order-preserving association list.
    Obj(Vec<(String, Json)>),
}

/// Error produced by [`Json::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where the error was detected.
    pub at: usize,
    /// Human-readable description.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Empty object builder.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a key/value pair (builder style; only meaningful on `Obj`).
    pub fn push(&mut self, key: &str, value: Json) -> &mut Json {
        if let Json::Obj(pairs) = self {
            pairs.push((key.to_string(), value));
        }
        self
    }

    /// Chainable object-literal helper.
    pub fn with(mut self, key: &str, value: Json) -> Json {
        self.push(key, value);
        self
    }

    /// Look a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Index into an array.
    pub fn idx(&self, i: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(i),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::I64(v) => Some(*v),
            Json::U64(v) if *v <= i64::MAX as u64 => Some(*v as i64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Compact single-line encoding.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64);
        self.write(&mut out, None, 0);
        out
    }

    /// Human-oriented encoding with two-space indentation.
    pub fn encode_pretty(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::U64(v) => {
                let buf = itoa_u64(*v);
                out.push_str(&buf);
            }
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => {
                if v.is_finite() {
                    // `{}` on f64 is the shortest representation that
                    // round-trips, matching what serde_json printed.
                    let s = format!("{v}");
                    out.push_str(&s);
                    // Keep a trailing marker so `1.0` doesn't re-parse as
                    // an integer and change variants on a round trip.
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    item.write(out, indent, level + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, level);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                }
                if !pairs.is_empty() {
                    newline_indent(out, indent, level);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Total: never panics on any input.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..level * width {
            out.push(' ');
        }
    }
}

fn itoa_u64(v: u64) -> String {
    v.to_string()
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, lit: &'static str, msg: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("maximum nesting depth exceeded"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", "expected 'null'").map(|_| Json::Null),
            Some(b't') => self
                .literal("true", "expected 'true'")
                .map(|_| Json::Bool(true)),
            Some(b'f') => self
                .literal("false", "expected 'false'")
                .map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // Input is &str, so this slice is valid UTF-8.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| JsonError {
                        at: start,
                        msg: "invalid UTF-8 in string",
                    })?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pair handling.
                            let ch = if (0xd800..0xdc00).contains(&cp) {
                                self.literal("\\u", "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(ch);
                        }
                        _ => return Err(self.err("unknown escape sequence")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let neg = self.peek() == Some(b'-');
        if neg {
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            return Err(self.err("expected digit"));
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                return Err(self.err("expected digit after '.'"));
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // The scanned range is ASCII by construction.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| JsonError {
            at: start,
            msg: "invalid number",
        })?;
        if !is_float {
            if neg {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Json::I64(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        text.parse::<f64>().map(Json::F64).map_err(|_| JsonError {
            at: start,
            msg: "invalid number",
        })
    }
}

/// Convenience: build a `Json::Str`.
pub fn s(v: impl Into<String>) -> Json {
    Json::Str(v.into())
}

/// Convenience: build a `Json::U64`.
pub fn u(v: u64) -> Json {
    Json::U64(v)
}

/// Convenience: build a `Json::F64`.
pub fn f(v: f64) -> Json {
    Json::F64(v)
}

/// Convenience: build a `Json::Arr` from an iterator.
pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
    Json::Arr(items.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-7", "12.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.encode()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn u64_identity_preserved() {
        for v in [0, 1, u64::MAX, u64::MAX - 1, 1 << 53, (1 << 53) + 1] {
            let text = Json::U64(v).encode();
            assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(v));
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::obj()
            .with("zeta", u(1))
            .with("alpha", u(2))
            .with("mid", s("x"));
        assert_eq!(v.encode(), r#"{"zeta":1,"alpha":2,"mid":"x"}"#);
        assert_eq!(Json::parse(&v.encode()).unwrap(), v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let input = "line1\nline2\t\"quoted\" \\ back \u{1} é 漢 🦀";
        let v = Json::Str(input.to_string());
        assert_eq!(Json::parse(&v.encode()).unwrap().as_str(), Some(input));
    }

    #[test]
    fn surrogate_pair_parses() {
        let v = Json::parse("\"\\ud83e\\udd80\"").unwrap();
        assert_eq!(v.as_str(), Some("🦀"));
    }

    #[test]
    fn float_round_trip_keeps_variant() {
        let v = Json::F64(1.0);
        assert_eq!(Json::parse(&v.encode()).unwrap(), v);
        let v = Json::F64(0.25);
        assert_eq!(Json::parse(&v.encode()).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_documents() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "01x",
            "\"\\q\"",
            "nul",
            "truex",
            "1 2",
            "{\"a\":}",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(4096) + &"]".repeat(4096);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn parse_is_total_on_random_garbage() {
        let mut rng = SimRng::new(0x1ee7_c0de);
        for _ in 0..2000 {
            let len = rng.gen_range(64) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0x7f) as u8).collect();
            if let Ok(text) = std::str::from_utf8(&bytes) {
                let _ = Json::parse(text); // must not panic
            }
        }
    }

    #[test]
    fn random_values_round_trip() {
        let mut rng = SimRng::new(0xfeed_beef);
        for _ in 0..200 {
            let v = random_json(&mut rng, 0);
            let text = v.encode();
            assert_eq!(Json::parse(&text).unwrap(), v, "{text}");
            let pretty = v.encode_pretty();
            assert_eq!(Json::parse(&pretty).unwrap(), v, "{pretty}");
        }
    }

    fn random_json(rng: &mut SimRng, depth: u32) -> Json {
        let pick = if depth > 3 {
            rng.gen_range(5)
        } else {
            rng.gen_range(7)
        };
        match pick {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 => Json::U64(rng.next_u64()),
            3 => Json::I64(-((rng.next_u64() >> 1) as i64)),
            4 => Json::Str(format!("k{}", rng.next_u64() % 1000)),
            5 => {
                let n = rng.gen_range(4) as usize;
                Json::Arr((0..n).map(|_| random_json(rng, depth + 1)).collect())
            }
            _ => {
                let n = rng.gen_range(4) as usize;
                Json::Obj(
                    (0..n)
                        .map(|i| (format!("f{i}"), random_json(rng, depth + 1)))
                        .collect(),
                )
            }
        }
    }
}
