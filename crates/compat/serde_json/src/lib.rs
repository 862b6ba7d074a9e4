//! Offline stand-in for `serde_json`: a JSON document model
//! ([`Value`]), a hand-rolled recursive-descent parser ([`from_str`])
//! and a compact writer ([`to_string`] / [`Value`]'s `Display`).
//!
//! The build environment has no registry access, so this pins exactly
//! the API slice the serving layer needs: build a tree, print it, parse
//! it back, and navigate it. Two properties the workspace relies on:
//!
//! * **floats round-trip bit-exactly** — finite `f64`s are written with
//!   Rust's shortest-round-trip formatting (`{:?}`) and re-parsed with
//!   `str::parse::<f64>`, which is correctly rounding, so the decoded
//!   value has the identical bit pattern (the HTTP serving layer's
//!   bit-exactness guarantee rests on this);
//! * **object key order is preserved** — objects are association lists,
//!   not maps, so documents print deterministically in insertion order.
//!
//! Non-finite floats have no JSON representation and are written as
//! `null`, matching `serde_json`'s default behavior.

use std::fmt;

/// A parsed or constructed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent, kept integral so counts
    /// print as `42`, not `42.0`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as an insertion-ordered association list.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Build an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>>(entries: Vec<(K, Value)>) -> Value {
        Value::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array by converting each element.
    pub fn array<T: Into<Value>, I: IntoIterator<Item = T>>(items: I) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }

    /// Member of an object by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Element of an array by index, if this is an array.
    pub fn at(&self, index: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(index),
            _ => None,
        }
    }

    /// The numeric value, whether stored integral or floating.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The integral value, if stored as one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integral value as unsigned, if stored integral and `>= 0`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Is this `null`?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<u64> for Value {
    fn from(u: u64) -> Value {
        // u64s beyond i64::MAX would wrap; they do not occur in this
        // workspace (epochs, counts), but degrade to float not garbage.
        i64::try_from(u).map_or(Value::Float(u as f64), Value::Int)
    }
}

impl From<u32> for Value {
    fn from(u: u32) -> Value {
        Value::Int(i64::from(u))
    }
}

impl From<usize> for Value {
    fn from(u: usize) -> Value {
        Value::from(u as u64)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::array(items)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(true) => f.write_str("true"),
            Value::Bool(false) => f.write_str("false"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) if x.is_finite() => {
                // `{:?}` is Rust's shortest representation that parses
                // back to the identical f64 — the bit-exactness hinge.
                write!(f, "{x:?}")
            }
            Value::Float(_) => f.write_str("null"),
            Value::Str(s) => write_escaped(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Object(entries) => {
                f.write_str("{")?;
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{08}' => f.write_str("\\b")?,
            '\u{0c}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Serialize a [`Value`] to its compact JSON text.
pub fn to_string(value: &Value) -> String {
    value.to_string()
}

/// A parse failure, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// What went wrong.
    pub message: &'static str,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for Error {}

/// Nesting deeper than this is rejected rather than risking a stack
/// overflow on adversarial request bodies.
const MAX_DEPTH: usize = 64;

/// Parse a JSON document. Trailing non-whitespace is an error.
pub fn from_str(input: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> Error {
        Error {
            message,
            offset: self.pos,
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

    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, text: &'static str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'{', "expected '{'")?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        // SAFETY: every byte in `start..self.pos` was accepted by the
        // scans above, which admit only b'0'..=b'9', b'.', b'e', b'E',
        // b'+', and b'-' — all ASCII — so the slice is valid UTF-8 and
        // the unchecked conversion cannot create an invalid `str`. This
        // is the parser's hottest token; skipping the redundant
        // validation (and the panic path the old `.expect` carried) is
        // exactly the kind of win `unsafe` is reserved for in compat.
        let text = unsafe { std::str::from_utf8_unchecked(&self.bytes[start..self.pos]) };
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy unescaped UTF-8 runs wholesale.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: require a \uXXXX low surrogate.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("unpaired surrogate"));
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?);
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_round_trip() {
        let doc = Value::object(vec![
            ("epoch", Value::from(3u64)),
            ("name", Value::from("p99 \"latency\"\n")),
            ("qs", Value::array([0.5, 0.99])),
            ("ok", Value::from(true)),
            ("none", Value::Null),
            (
                "nested",
                Value::object(vec![("k", Value::array(vec![Value::from(-7i64)]))]),
            ),
        ]);
        let text = to_string(&doc);
        assert_eq!(from_str(&text).unwrap(), doc);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for x in [
            0.0,
            -0.0,
            1.5,
            std::f64::consts::PI,
            1e300,
            5e-324,
            f64::MAX,
            f64::MIN_POSITIVE,
            123_456_789.123_456_78,
        ] {
            let text = to_string(&Value::Float(x));
            let back = from_str(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x:?} -> {text}");
        }
    }

    #[test]
    fn integers_stay_integral() {
        assert_eq!(to_string(&Value::Int(42)), "42");
        assert_eq!(from_str("42").unwrap(), Value::Int(42));
        assert_eq!(from_str("42.0").unwrap(), Value::Float(42.0));
        assert_eq!(from_str("1e2").unwrap(), Value::Float(100.0));
        assert_eq!(
            from_str("9223372036854775807").unwrap(),
            Value::Int(i64::MAX)
        );
        // Integral but beyond i64: degrades to float, not an error.
        assert!(matches!(
            from_str("92233720368547758080").unwrap(),
            Value::Float(_)
        ));
    }

    #[test]
    fn non_finite_floats_write_null() {
        assert_eq!(to_string(&Value::Float(f64::NAN)), "null");
        assert_eq!(to_string(&Value::Float(f64::INFINITY)), "null");
    }

    #[test]
    fn string_escapes_decode() {
        assert_eq!(
            from_str(r#""a\"b\\c\/d\n\t\u0041\u00e9""#).unwrap(),
            Value::Str("a\"b\\c/d\n\tA\u{e9}".to_string())
        );
        // Surrogate pair: U+1F600.
        assert_eq!(
            from_str(r#""\ud83d\ude00""#).unwrap(),
            Value::Str("\u{1F600}".to_string())
        );
        // Control characters are escaped on output.
        assert_eq!(to_string(&Value::from("\u{01}")), r#""\u0001""#);
    }

    #[test]
    fn malformed_documents_error_not_panic() {
        for bad in [
            "",
            "{",
            "[",
            "\"",
            "{\"a\"}",
            "[1,]",
            "{,}",
            "tru",
            "01x",
            "1.",
            "1e",
            "-",
            "[1 2]",
            "{\"a\":1,}",
            "\"\\ud800\"",
            "\"\\q\"",
            "nullx",
            "[null] trailing",
        ] {
            assert!(from_str(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn navigation_helpers() {
        let doc = from_str(r#"{"a": [1, {"b": 2.5}], "s": "x"}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().at(0).unwrap().as_i64(), Some(1));
        assert_eq!(
            doc.get("a")
                .unwrap()
                .at(1)
                .unwrap()
                .get("b")
                .unwrap()
                .as_f64(),
            Some(2.5)
        );
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.at(0), None);
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(from_str(&deep).is_err());
    }
}
