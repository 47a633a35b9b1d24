//! Offline replacement for [`serde_json`](https://crates.io/crates/serde_json):
//! renders the shim's [`serde::Content`] tree to JSON text and parses JSON
//! text back.
//!
//! Covers the workspace's usage — [`to_string`] and [`from_str`] — with
//! exact round-tripping of `f32`/`f64` (Rust's shortest-round-trip `Display`)
//! and of 64-bit integers. Non-finite floats serialize as `null` and
//! deserialize as `NaN`, mirroring "no non-finite numbers in JSON".

use serde::{Content, DeError, Deserialize, Serialize};

/// A serialization or parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(err: DeError) -> Self {
        Error(err.0)
    }
}

/// Serializes `value` to a compact JSON string.
///
/// # Errors
///
/// Never fails for the shim's data model; the `Result` mirrors upstream.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_content(&value.to_content(), &mut out);
    Ok(out)
}

/// Deserializes a value from a JSON string.
///
/// # Errors
///
/// Returns an error on malformed JSON or on a shape mismatch.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut parser = Parser::new(s);
    let content = parser.parse_value()?;
    parser.skip_whitespace();
    if !parser.is_at_end() {
        return Err(Error(format!(
            "trailing characters at offset {}",
            parser.offset
        )));
    }
    T::from_content(&content).map_err(Error::from)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_content(content: &Content, out: &mut String) {
    match content {
        Content::Null => out.push_str("null"),
        Content::Bool(true) => out.push_str("true"),
        Content::Bool(false) => out.push_str("false"),
        Content::Int(v) => {
            out.push_str(&v.to_string());
        }
        Content::UInt(v) => {
            out.push_str(&v.to_string());
        }
        Content::Float(v) => write_float(*v, out),
        Content::Str(s) => write_string(s, out),
        Content::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_content(item, out);
            }
            out.push(']');
        }
        Content::Map(entries) => {
            out.push('{');
            for (i, (key, value)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_content(value, out);
            }
            out.push('}');
        }
    }
}

fn write_float(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let text = v.to_string();
    out.push_str(&text);
    // Keep floats recognizably floating point so integers stay integers.
    if !text.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_string(s: &str, out: &mut String) {
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

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Upstream serde_json's default recursion limit: at most 127 arrays and
/// objects may nest, so hostile input returns an [`Error`] instead of
/// overflowing the stack.
const RECURSION_LIMIT: u8 = 128;

struct Parser<'s> {
    bytes: &'s [u8],
    offset: usize,
    remaining_depth: u8,
}

impl<'s> Parser<'s> {
    fn new(s: &'s str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            offset: 0,
            remaining_depth: RECURSION_LIMIT,
        }
    }

    fn is_at_end(&self) -> bool {
        self.offset >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.offset).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.offset += 1;
        }
    }

    fn error(&self, msg: &str) -> Error {
        Error(format!("{msg} at offset {}", self.offset))
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.offset += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn consume_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.offset..].starts_with(literal.as_bytes()) {
            self.offset += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Content, Error> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') => {
                if self.consume_literal("null") {
                    Ok(Content::Null)
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            Some(b't') => {
                if self.consume_literal("true") {
                    Ok(Content::Bool(true))
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            Some(b'f') => {
                if self.consume_literal("false") {
                    Ok(Content::Bool(false))
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            Some(b'"') => self.parse_string().map(Content::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Runs `parse` one nesting level deeper, failing once the recursion
    /// limit is spent.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Content, Error>) -> Result<Content, Error> {
        self.remaining_depth -= 1;
        if self.remaining_depth == 0 {
            return Err(self.error("recursion limit exceeded"));
        }
        let value = parse(self);
        self.remaining_depth += 1;
        value
    }

    fn parse_array(&mut self) -> Result<Content, Error> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.offset += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.offset += 1,
                Some(b']') => {
                    self.offset += 1;
                    return Ok(Content::Seq(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Content, Error> {
        self.expect_byte(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.offset += 1;
            return Ok(Content::Map(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect_byte(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.offset += 1,
                Some(b'}') => {
                    self.offset += 1;
                    return Ok(Content::Map(entries));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.offset += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.offset += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.parse_unicode_escape()?;
                            out.push(code);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.offset += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = &self.bytes[self.offset..];
                    let text =
                        std::str::from_utf8(rest).map_err(|_| self.error("invalid UTF-8"))?;
                    let c = text.chars().next().expect("non-empty");
                    out.push(c);
                    self.offset += c.len_utf8();
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (plus a surrogate pair if needed);
    /// called with `peek() == Some(b'u')`.
    fn parse_unicode_escape(&mut self) -> Result<char, Error> {
        self.offset += 1; // consume 'u'
        let first = self.parse_hex4()?;
        if (0xD800..0xDC00).contains(&first) {
            // High surrogate: a low surrogate must follow.
            if self.peek() == Some(b'\\') {
                self.offset += 1;
                if self.peek() == Some(b'u') {
                    self.offset += 1;
                    let second = self.parse_hex4()?;
                    if (0xDC00..0xE000).contains(&second) {
                        let combined = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                        return char::from_u32(combined)
                            .ok_or_else(|| self.error("invalid surrogate pair"));
                    }
                }
            }
            return Err(self.error("unpaired surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.error("invalid unicode escape"))
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.error("invalid hex digit")),
            };
            value = value * 16 + digit;
            self.offset += 1;
        }
        Ok(value)
    }

    fn parse_number(&mut self) -> Result<Content, Error> {
        let start = self.offset;
        if self.peek() == Some(b'-') {
            self.offset += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.offset += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.offset += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.offset += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.offset += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.offset += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.offset += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.offset])
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Content::Int(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Content::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Content::Float)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&42i64).unwrap(), "42");
        assert_eq!(from_str::<i64>("42").unwrap(), 42);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert!(!from_str::<bool>("false").unwrap());
        assert_eq!(to_string(&"a\"b\n".to_string()).unwrap(), "\"a\\\"b\\n\"");
        assert_eq!(from_str::<String>("\"a\\\"b\\n\"").unwrap(), "a\"b\n");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &v in &[0.1f32, -1.5, 9.87654, f32::MIN_POSITIVE, 1e30, -0.0] {
            let json = to_string(&v).unwrap();
            let back: f32 = from_str(&json).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "f32 {v} via {json}");
        }
        for &v in &[0.1f64, 1.0 / 3.0, f64::MAX, 5e-324] {
            let json = to_string(&v).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "f64 {v} via {json}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
        assert!(from_str::<f64>("null").unwrap().is_nan());
    }

    #[test]
    fn extreme_integers_round_trip() {
        for &v in &[i64::MIN, -1, 0, i64::MAX] {
            let json = to_string(&v).unwrap();
            assert_eq!(from_str::<i64>(&json).unwrap(), v);
        }
        let json = to_string(&u64::MAX).unwrap();
        assert_eq!(from_str::<u64>(&json).unwrap(), u64::MAX);
    }

    #[test]
    fn collections_round_trip() {
        let v = vec![vec![1i64, 2], vec![], vec![3]];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[[1,2],[],[3]]");
        assert_eq!(from_str::<Vec<Vec<i64>>>(&json).unwrap(), v);
        let opt: Option<f64> = None;
        assert_eq!(to_string(&opt).unwrap(), "null");
    }

    #[test]
    fn whitespace_and_unicode_are_parsed() {
        let v: Vec<i64> = from_str(" [ 1 , 2 ,\n3 ] ").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        let s: String = from_str("\"\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(s, "é😀");
    }

    #[test]
    fn malformed_input_errors() {
        assert!(from_str::<i64>("").is_err());
        assert!(from_str::<i64>("12 34").is_err());
        assert!(from_str::<Vec<i64>>("[1,").is_err());
        assert!(from_str::<String>("\"open").is_err());
        assert!(from_str::<bool>("troo").is_err());
    }

    fn parse(json: &str) -> Result<Content, Error> {
        Parser::new(json).parse_value()
    }

    #[test]
    fn nesting_up_to_the_recursion_limit_parses() {
        let depth = usize::from(RECURSION_LIMIT) - 1;
        let json = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&json).is_ok());
        let err = parse(&format!("[{json}]")).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
    }

    #[test]
    fn deeply_nested_arrays_error_instead_of_overflowing() {
        let json = "[".repeat(100_000);
        let err = from_str::<Vec<i64>>(&json).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
    }

    #[test]
    fn deeply_nested_objects_error_instead_of_overflowing() {
        let json = "{\"a\":".repeat(100_000);
        let err = from_str::<Vec<i64>>(&json).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
    }
}
