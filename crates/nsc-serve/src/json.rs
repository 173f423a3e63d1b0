//! A minimal JSON reader/writer for the wire protocol (the `bench/`
//! harness reads and writes its result files with it too).
//!
//! The workspace is offline (no serde), and the JSON it actually
//! handles — newline-delimited request/response objects — needs
//! nothing beyond the standard scalar types, arrays, and objects.
//! [`parse`] accepts exactly RFC 8259 documents (any top-level value);
//! [`Json::render`] emits them back, so `parse(render(j)) == j` up to
//! float formatting.
//!
//! Numbers are kept as `f64`, and a number whose value is not finite is
//! a [`JsonError`] ("number out of range"), so every parsed document
//! renders back as JSON.  Every integer the protocol carries (batch
//! sizes, nanosecond latencies) is far below `2^53`, and a numeric request
//! id at or past it is refused, so the round trip is exact where it
//! matters; [`Json::as_u64`] rejects non-integral values rather than
//! truncating.
//!
//! Arrays and objects may nest [`MAX_DEPTH`] levels — the bound the NSC
//! parser puts on value literals; the deepest document the protocol
//! itself produces, the metrics reply, nests 4.  A request line is
//! attacker-controlled and connection threads run on small stacks, so a
//! deeper document is a [`JsonError`], not a recursion.

use nsc_core::parse::term::MAX_DEPTH;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.  Keys are unique (later duplicates win) and iterate in
    /// sorted order; the protocol never depends on member order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
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

    /// The number payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number payload as a non-negative integer; `None` if this is
    /// not a number or not exactly an integer in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if (0.0..=9_007_199_254_740_992.0).contains(&n) && n.fract() == 0.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes the value on one line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                // Integers print without a fractional part; everything the
                // protocol emits is integral or a ratio where `{}` (shortest
                // round-trip) is fine.
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => out.push_str(&escape(s)),
            Json::Arr(v) => {
                out.push('[');
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    x.write(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&escape(k));
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Where and why a parse failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending character.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document (trailing whitespace allowed).
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        i: 0,
        depth: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.bytes.len() {
        return Err(p.err("trailing garbage after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    i: usize,
    /// Arrays and objects currently open around `i`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { at: self.i, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("unrecognized literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parses one array or object, `depth` counting it while it is open.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nested more than 256 levels deep"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected `[`")?;
        let mut out = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.ws();
            out.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected `{`")?;
        let mut out = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.eat(b':', "expected `:` after object key")?;
            self.ws();
            let v = self.value()?;
            out.insert(k, v);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected a string")?;
        let mut out = String::new();
        loop {
            let c = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                c if c < 0x20 => return Err(self.err("raw control character in string")),
                _ => {
                    // Re-sync to char boundaries for multi-byte UTF-8.
                    let start = self.i - 1;
                    let mut end = self.i;
                    while end < self.bytes.len() && (self.bytes[end] & 0xc0) == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.i = end;
                }
            }
        }
    }

    /// The character of a `\u` escape, `i` just past its `u`.  A
    /// character outside the BMP is escaped as a UTF-16 surrogate pair: a
    /// high surrogate, then `\u` and a low one.  Any other use of a
    /// surrogate is not a scalar value.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let mut code = self.hex4()?;
        if (0xd800..0xdc00).contains(&code) && self.bytes.get(self.i..self.i + 2) == Some(b"\\u") {
            self.i += 2;
            let low = self.hex4()?;
            if !(0xdc00..0xe000).contains(&low) {
                return Err(self.err("\\u escape is not a scalar value"));
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        }
        char::from_u32(code).ok_or_else(|| self.err("\\u escape is not a scalar value"))
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let code = self
            .bytes
            .get(self.i..self.i + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.i += 4;
        Ok(code)
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, the
    /// RFC 8259 grammar, with a finite value.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        if self.peek() == Some(b'0') {
            self.i += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits()?;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.i]).expect("digits are ASCII");
        match s.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(JsonError {
                at: start,
                msg: "number out of range",
            }),
        }
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("malformed number"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_request_shape() {
        let j = parse(r#"{"fn": "main", "input": "[1, 2, 3]", "id": 7}"#).unwrap();
        assert_eq!(j.get("fn").and_then(Json::as_str), Some("main"));
        assert_eq!(j.get("input").and_then(Json::as_str), Some("[1, 2, 3]"));
        assert_eq!(j.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn round_trips_through_render() {
        let src = r#"{"a": [1, 2.5, -3], "b": {"c": null, "d": [true, false]}, "s": "x\"y\\z\n"}"#;
        let j = parse(src).unwrap();
        assert_eq!(parse(&j.render()).unwrap(), j);
    }

    #[test]
    fn escapes_and_unescapes() {
        let j = parse(r#""aA\t\n\"\\""#).unwrap();
        assert_eq!(j, Json::Str("aA\t\n\"\\".into()));
        assert_eq!(escape("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        assert_eq!(parse(r#""\ud83d\ude00""#), Ok(Json::Str("😀".into())));
        assert_eq!(parse(r#""a\ud834\udd1eb""#), Ok(Json::Str("a𝄞b".into())));
        assert_eq!(parse(r#""\u00e9\u0041""#), Ok(Json::Str("éA".into())));
        for bad in [
            r#""\ud83d""#,       // lone high surrogate
            r#""\ud83dx""#,      // high surrogate, then a plain char
            r#""\ude00""#,       // lone low surrogate
            r#""\ude00\ud83d""#, // reversed pair
            r#""\ud83d\ud83d""#, // two high surrogates
            r#""\ud83d\u0041""#, // high surrogate, then a BMP escape
            r#""\ud83d\n""#,     // high surrogate, then another escape
            r#""\u+041""#,       // a sign is not a hex digit
            r#""\ud83d\u+e00""#,
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"\u{1}\"",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        // Raw control char inside a string.
        assert!(parse("\"a\u{0}b\"").is_err());
    }

    /// The NSC value parser's guard, on the JSON side: nesting past
    /// `MAX_DEPTH` is an error value, never a stack overflow.
    #[test]
    fn nesting_is_bounded_at_the_value_parsers_depth() {
        // Arrays and objects alternate, so both count against one bound.
        let nest = |levels: usize| {
            let mut doc = String::new();
            for i in 0..levels {
                doc.push_str(if i % 2 == 0 { "[" } else { "{\"k\": " });
            }
            doc.push('0');
            for i in (0..levels).rev() {
                doc.push(if i % 2 == 0 { ']' } else { '}' });
            }
            doc
        };
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let e = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.at, nest(MAX_DEPTH).find('0').unwrap());
        assert!(e.msg.contains(&MAX_DEPTH.to_string()), "{e}");
        // Depth is nesting, not length: siblings do not accumulate.
        assert!(parse(&format!("[{}[]]", "[[]], ".repeat(MAX_DEPTH))).is_ok());
        // Far past the bound (what used to abort the process), unclosed.
        for open in ["[", "{\"k\": "] {
            assert!(parse(&open.repeat(100_000)).is_err());
        }
    }

    #[test]
    fn numbers_are_exact_where_the_protocol_needs_them() {
        let j = parse("1234567890123").unwrap();
        assert_eq!(j.as_u64(), Some(1_234_567_890_123));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_f64(), Some(1.5));
    }

    /// Exactly the RFC 8259 number grammar, and only finite values: a
    /// number the parser accepts renders back as JSON.
    #[test]
    fn numbers_follow_the_rfc_grammar_and_stay_finite() {
        for good in [
            "0", "-0", "10", "1.5", "-0.25e+3", "2E-2", "1e308", "1e-400",
        ] {
            let n = parse(good).unwrap_or_else(|e| panic!("{good}: {e}"));
            assert!(
                parse(&n.render()).is_ok(),
                "{good} renders as {}",
                n.render()
            );
        }
        for bad in [
            "01", "-01", "1.", "-.5", ".5", "+1", "-", "1e", "1e+", "0x1", "1.e3", "--1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        for huge in ["1e400", "-1e400", "1e999999999999"] {
            let e = parse(huge).unwrap_err();
            assert_eq!((e.at, e.msg), (0, "number out of range"), "{huge}");
        }
        let e = parse(r#"{"id": 1e400}"#).unwrap_err();
        assert_eq!(e.at, 7, "{e}");
    }

    #[test]
    fn duplicate_keys_last_wins_and_order_is_canonical() {
        let j = parse(r#"{"b": 1, "a": 2, "b": 3}"#).unwrap();
        assert_eq!(j.render(), r#"{"a": 2, "b": 3}"#);
    }
}
