//! A minimal JSON parse+emit module for the engine's own documents and
//! the `diversim serve` wire protocol.
//!
//! The workspace builds offline without `serde_json`, so both sides of
//! the engine's JSON handling live here: a small recursive-descent
//! parser covering
//! exactly the JSON the engine emits — objects, arrays, strings with
//! escapes, numbers, booleans and null — and a strict, deterministic
//! writer ([`Value::to_json`]) that the parser round-trips. The reader
//! serves `diversim report` (rebuilding a report book from previously
//! written `results/*.json` files) and the serve protocol's *tolerant*
//! request side (member order is free, unknown members are ignored by
//! [`Value::get`]-based consumers); the writer renders the protocol's
//! *strict* response side (fixed member order, stable escaping), so
//! responses are byte-deterministic.

use std::fmt::Write as _;

/// A parsed JSON value. Object members keep their document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (as `f64` — ample for the result schema).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
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

    /// Renders this value as a compact JSON document.
    ///
    /// The writer is strict and deterministic: object members keep
    /// their stored order, strings escape backslash, quote and control
    /// characters below U+0020 (as `\n`, `\r`, `\t` or `\u00XX`),
    /// numbers with an exact integer
    /// value inside the `f64`-safe range print without a fraction, and
    /// everything else uses Rust's shortest round-tripping `f64`
    /// display. Non-finite numbers (which JSON cannot represent)
    /// render as `null`.
    ///
    /// `parse(v.to_json()) == v` holds for every value free of
    /// non-finite numbers — the round-trip property tests pin this.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(n) => out.push_str(&format_number(*n)),
            Value::String(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&json_escape(key));
                    out.push_str("\":");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes a string for inclusion inside a JSON string literal
/// (backslash, quote, and control characters below U+0020).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
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
    out
}

/// Renders one JSON number: integers without a fraction inside the
/// exactly-representable range, shortest round-tripping decimal
/// otherwise, `null` for non-finite values.
fn format_number(n: f64) -> String {
    if !n.is_finite() {
        return "null".to_string();
    }
    const SAFE: f64 = 9_007_199_254_740_992.0; // 2^53
    if n.trunc() == n && n.abs() < SAFE {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Deepest array/object nesting [`parse`] accepts. The deepest valid
/// wire request, a `system` chain of
/// [`MAX_STRUCTURE_NODES`](crate::serve::request::MAX_STRUCTURE_NODES)
/// nodes (255 `and` gates over one component), nests 512 levels; past
/// the cap the parser returns an error instead of recursing towards a
/// stack overflow, staying far below the depth a 2 MiB thread stack
/// survives.
pub const MAX_DEPTH: usize = 1024;

/// A parse failure: what went wrong and at which byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (surrounding whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns a [`ParseError`] locating the first malformed byte, or the
/// first bracket nested deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut parser = Parser {
        input,
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.input.len() {
        return Err(parser.error("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Objects and arrays currently open.
    depth: usize,
}

impl Parser<'_> {
    fn bytes(&self) -> &[u8] {
        self.input.as_bytes()
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(
            self.bytes().get(self.pos),
            Some(b' ' | b'\t' | b'\n' | b'\r')
        ) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses an object or array one level deeper, refusing to open
    /// more than [`MAX_DEPTH`] levels.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
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
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogates never appear in the engine's own
                            // output (it escapes only control characters);
                            // map them to U+FFFD rather than erroring.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // The cursor only ever advances past ASCII bytes or
                    // whole characters, so it sits on a char boundary.
                    let ch = self.input[self.pos..].chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
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
        let text = &self.input[start..self.pos];
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.error(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e-3").unwrap(), Value::Number(-0.0125));
        assert_eq!(parse("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures_in_order() {
        let doc = parse(r#"{"b":[1,2,{"c":"d"}],"a":null}"#).unwrap();
        let Value::Object(members) = &doc else {
            panic!("object expected")
        };
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        let items = doc.get("b").unwrap().as_array().unwrap();
        assert_eq!(items[0].as_f64(), Some(1.0));
        assert_eq!(items[2].get("c").unwrap().as_str(), Some("d"));
        assert_eq!(doc.get("a"), Some(&Value::Null));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn unescapes_strings() {
        let doc = parse(r#""a\"b\\c\nd\tAé""#).unwrap();
        assert_eq!(doc.as_str(), Some("a\"b\\c\nd\tAé"));
    }

    #[test]
    fn round_trips_the_engines_own_escaping() {
        let original = "say \"hi\"\nand\ttabs \\ plus \u{1} control";
        let escaped = format!("\"{}\"", json_escape(original));
        assert_eq!(parse(&escaped).unwrap().as_str(), Some(original));
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn rejects_malformed_documents() {
        let too_deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let unclosed = "[".repeat(400_000);
        for bad in ["", "{", "[1,", "\"open", "{\"a\":}", "tru", "1 2", "{]"]
            .into_iter()
            .chain([too_deep.as_str(), unclosed.as_str()])
        {
            assert!(
                parse(bad).is_err(),
                "{:?} should fail",
                &bad[..bad.len().min(16)]
            );
        }
        let err = parse("[1, oops]").unwrap_err();
        assert!(err.to_string().contains("at byte"));
        // Nesting fails at the first bracket past the cap, as an error;
        // exactly the cap still parses.
        let err = parse(&unclosed).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        let deepest = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&deepest).is_ok());
    }

    #[test]
    fn empty_containers_parse() {
        assert_eq!(parse("{}").unwrap(), Value::Object(vec![]));
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
    }

    #[test]
    fn emits_compact_deterministic_documents() {
        let value = Value::Object(vec![
            (
                "b".into(),
                Value::Array(vec![Value::Number(1.0), Value::Null]),
            ),
            ("a".into(), Value::String("x\"y".into())),
            ("c".into(), Value::Bool(false)),
        ]);
        assert_eq!(value.to_json(), r#"{"b":[1,null],"a":"x\"y","c":false}"#);
        assert_eq!(parse(&value.to_json()).unwrap(), value);
    }

    #[test]
    fn number_formatting_round_trips() {
        for n in [
            0.0,
            -0.0,
            1.0,
            -17.0,
            0.1,
            -12.5e-3,
            1.5e300,
            f64::MIN_POSITIVE,
            9_007_199_254_740_991.0,
            9_007_199_254_740_993.0,
        ] {
            let text = Value::Number(n).to_json();
            assert_eq!(
                parse(&text).unwrap(),
                Value::Number(n),
                "{n} did not round-trip via {text}"
            );
        }
        assert_eq!(Value::Number(3.0).to_json(), "3");
        assert_eq!(Value::Number(f64::NAN).to_json(), "null");
        assert_eq!(Value::Number(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn emit_parse_round_trips_nested_structures() {
        let doc = parse(r#"{"b":[1,2,{"c":"d\n\t"}],"a":null,"e":[[],{}]}"#).unwrap();
        assert_eq!(parse(&doc.to_json()).unwrap(), doc);
    }
}
