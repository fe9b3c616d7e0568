//! A hand-rolled JSON parser — the inverse of the encoder in
//! [`crate::telemetry`].
//!
//! The workspace builds offline without `serde_json`, so the trace
//! files written by [`crate::telemetry::Recorder::write_jsonl`] need a
//! reader of their own. This is a small recursive-descent parser over
//! the full JSON grammar (RFC 8259), with one deliberate refinement:
//! integers without a fraction or exponent are kept **exact** —
//! non-negative ones as [`Json::UInt`], negative ones as [`Json::Int`]
//! — so 64-bit counters survive a round trip without passing through
//! `f64` (which silently loses precision above 2⁵³).
//!
//! # Examples
//!
//! ```
//! use cne_util::json::{parse, Json};
//!
//! let doc = parse(r#"{"type":"counters","switches":18446744073709551615}"#).unwrap();
//! assert_eq!(doc.get("type").and_then(Json::as_str), Some("counters"));
//! assert_eq!(doc.get("switches").and_then(Json::as_u64), Some(u64::MAX));
//! assert!(parse("{\"unterminated\":").is_err());
//! ```

use std::fmt;

/// Maximum nesting depth accepted by [`parse`]; deeper documents are
/// rejected instead of risking a stack overflow. Telemetry lines nest
/// two levels at most.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
///
/// Objects keep their key order (the encoder's output order is part of
/// the telemetry determinism contract, so the reader must preserve it).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal, kept exact.
    UInt(u64),
    /// A negative integer literal, kept exact.
    Int(i64),
    /// Any number with a fraction or exponent, or an integer too large
    /// for the exact representations.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value as `f64`, for any numeric variant.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(u) => Some(*u as f64),
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as `u64`, for non-negative integer literals.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as `&str`, for strings.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The entries of an object, in source order.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// The items of an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a key in an object (first match wins).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Whether the value is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Encodes the value as compact JSON text.
    ///
    /// The output round-trips through [`parse`]: integers print
    /// exactly, floats use Rust's shortest round-trip `Display`
    /// (non-finite floats, which JSON cannot express, encode as
    /// `null`), strings escape per RFC 8259, and object key order is
    /// preserved.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                    // `Display` omits the ".0" of integral floats; keep
                    // the value a float across a round trip.
                    if f.fract() == 0.0 && f.abs() < 1e15 {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => encode_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_string(key, out);
                    out.push(':');
                    value.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// Writes `s` as a JSON string literal (RFC 8259 escaping).
pub(crate) fn encode_string(s: &str, out: &mut String) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong, and at which byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document.
///
/// # Errors
/// Returns a [`JsonError`] on malformed input, trailing garbage, or
/// nesting deeper than an internal limit.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nests too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
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
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("unknown escape sequence")),
                    }
                }
                _ if b < 0x20 => return Err(self.err("unescaped control character")),
                _ => {
                    // Consume the full UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid UTF-8"))?;
                    self.pos = start + len;
                    let chunk = self
                        .bytes
                        .get(start..self.pos)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|c| std::str::from_utf8(c).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code =
            u32::from_str_radix(chunk, 16).map_err(|_| self.err("invalid \\u escape digits"))?;
        self.pos += 4;
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let high = self.hex4()?;
        // Surrogate pairs encode astral-plane characters.
        if (0xD800..=0xDBFF).contains(&high) {
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(self.err("unpaired high surrogate"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&low) {
                return Err(self.err("invalid low surrogate"));
            }
            let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
            return char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"));
        }
        char::from_u32(high).ok_or_else(|| self.err("invalid \\u code point"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII slice");
        if integral {
            // Keep integers exact where possible; otherwise fall back
            // to f64 like any other JSON reader.
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>().map(Json::Float).map_err(|_| JsonError {
            offset: start,
            message: format!("invalid number '{text}'"),
        })
    }
}

/// Length of the UTF-8 sequence starting with `first`, or `None` for a
/// continuation/invalid lead byte.
fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7F => Some(1),
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::UInt(42));
        assert_eq!(parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(parse("-0").unwrap(), Json::Int(0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn large_integers_stay_exact() {
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(parse("-9223372036854775808").unwrap(), Json::Int(i64::MIN));
        // Too large even for u64: falls back to f64.
        assert!(matches!(
            parse("99999999999999999999999").unwrap(),
            Json::Float(_)
        ));
    }

    #[test]
    fn nested_structures_and_key_order() {
        let doc = parse(r#"{"b":1,"a":[true,null,{"x":-2.5}]}"#).unwrap();
        let obj = doc.as_object().unwrap();
        assert_eq!(obj[0].0, "b");
        assert_eq!(obj[1].0, "a");
        let arr = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert!(arr[1].is_null());
        assert_eq!(arr[2].get("x").unwrap().as_f64(), Some(-2.5));
    }

    #[test]
    fn string_escapes_round_trip() {
        let doc = parse(r#""line\nbreak \"q\" \\ A é 😀""#).unwrap();
        assert_eq!(doc.as_str(), Some("line\nbreak \"q\" \\ A é 😀"));
    }

    #[test]
    fn whitespace_tolerated() {
        let doc = parse(" { \"k\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(doc.get("k").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "tru",
            "1.2.3",
            "{} garbage",
            "{\"a\":1,}",
            "\"bad \\q escape\"",
            "\"\\ud800 lonely\"",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input: {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_rejected_gracefully() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn float_formatting_round_trips() {
        for x in [0.1, 1e300, -2.5e-7, 123456.789, f64::MIN_POSITIVE] {
            let text = format!("{x}");
            assert_eq!(parse(&text).unwrap().as_f64(), Some(x));
        }
    }

    #[test]
    fn encode_round_trips() {
        let cases = [
            "null",
            "true",
            r#"{"schema":"cne-bench/v1","entries":[{"name":"slot","value":12.5}]}"#,
            r#"[1,-2,3.25,"x",null,{"k":[]}]"#,
            r#""line\nbreak \"q\" \\""#,
        ];
        for text in cases {
            let doc = parse(text).unwrap();
            assert_eq!(parse(&doc.encode()).unwrap(), doc, "round trip of {text}");
        }
    }

    #[test]
    fn encode_keeps_floats_floats() {
        // An integral float must not silently become an integer
        // literal (and hence a UInt) across a round trip.
        let doc = Json::Obj(vec![("v".into(), Json::Float(2.0))]);
        let text = doc.encode();
        assert_eq!(text, r#"{"v":2.0}"#);
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn encode_exact_integers_and_escapes() {
        let doc = Json::Obj(vec![
            ("max".into(), Json::UInt(u64::MAX)),
            ("min".into(), Json::Int(i64::MIN)),
            ("ctrl".into(), Json::Str("a\u{0001}b\tc".into())),
            ("nan".into(), Json::Float(f64::NAN)),
        ]);
        let rt = parse(&doc.encode()).unwrap();
        assert_eq!(rt.get("max").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(rt.get("min").unwrap(), &Json::Int(i64::MIN));
        assert_eq!(rt.get("ctrl").unwrap().as_str(), Some("a\u{0001}b\tc"));
        assert!(rt.get("nan").unwrap().is_null());
    }
}
