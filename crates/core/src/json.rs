//! The one JSON codec of the workspace: a strict parser, typed
//! accessors and a writer.
//!
//! Every JSON document vmcw reads or writes goes through here:
//! `health.json` and `GET /healthz` ([`health`](crate::health)), the
//! `vmcw serve` request and response bodies ([`serve`](crate::serve))
//! and the `vmcw bench` documents. The workspace is offline and has no
//! JSON dependency, so grammar, escaping and layout are decided here and
//! nowhere else.
//!
//! * **Parsing** is strict where leniency would hide corruption:
//!   duplicate object keys, numbers that overflow an `f64`, trailing
//!   data and invalid UTF-8 are [`JsonError::Syntax`] errors at a byte
//!   offset.
//! * **Reading** goes through typed accessors ([`Json::as_u64`],
//!   [`Object::get`], ...) that name the field in a
//!   [`JsonError::Invalid`].
//! * **Writing** has two layouts and no options: `Display` is compact
//!   (`{"k": v, "k2": [a, b]}`) and [`Json::pretty`] is the multi-line
//!   layout of `health.json` and `BENCH_*.json`. Numbers are written in
//!   Rust's shortest round-trip form and a non-finite number as `null`,
//!   so parsing what was written gives back the same value.

use std::fmt::{self, Write as _};

/// Integers up to 2^53 survive the trip through an `f64` exactly;
/// [`Json::as_u64`] rejects anything larger.
pub const MAX_EXACT_INTEGER: u64 = 1 << 53;

/// A JSON value. Numbers are `f64`, so integers above
/// [`MAX_EXACT_INTEGER`] lose precision.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object.
    Object(Object),
}

/// A JSON object: members in document (or insertion) order, keys
/// distinct.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Object(Vec<(String, Json)>);

/// Why a document could not be read.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// Not valid JSON.
    Syntax {
        /// Byte offset of the problem.
        offset: usize,
        /// What was expected.
        detail: String,
    },
    /// Valid JSON the reader does not accept: a missing field, a value
    /// of the wrong type or out of range.
    Invalid {
        /// What was wrong, naming the field.
        detail: String,
    },
}

impl JsonError {
    /// An [`Invalid`](JsonError::Invalid) error.
    pub fn invalid(detail: impl Into<String>) -> Self {
        JsonError::Invalid {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { offset, detail } => {
                write!(f, "bad JSON at byte {offset}: {detail}")
            }
            JsonError::Invalid { detail } => f.write_str(detail),
        }
    }
}

impl std::error::Error for JsonError {}

impl Object {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a member. Keys must be distinct: the parser rejects a
    /// document that repeats one.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Self {
        debug_assert!(self.opt(key).is_none(), "duplicate key `{key}`");
        self.0.push((key.to_owned(), value.into()));
        self
    }

    /// The member named `key`, or [`JsonError::Invalid`] naming it.
    pub fn get(&self, key: &str) -> Result<&Json, JsonError> {
        self.opt(key)
            .ok_or_else(|| JsonError::invalid(format!("missing field `{key}`")))
    }

    /// The member named `key`, if present.
    #[must_use]
    pub fn opt(&self, key: &str) -> Option<&Json> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

impl Json {
    /// Parses one JSON document; [`JsonError::Syntax`] at the offending
    /// byte for malformed input, a duplicate object key, a number that
    /// overflows an `f64`, or anything but whitespace after the value.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let mut p = Parser { text, at: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.at != text.len() {
            return Err(p.err("trailing data after the JSON value"));
        }
        Ok(v)
    }

    /// [`parse`](Self::parse) over raw bytes: invalid UTF-8 is a
    /// [`JsonError::Syntax`] at the first bad byte, never a panic.
    pub fn parse_bytes(bytes: &[u8]) -> Result<Self, JsonError> {
        let text = std::str::from_utf8(bytes).map_err(|e| JsonError::Syntax {
            offset: e.valid_up_to(),
            detail: "invalid UTF-8".into(),
        })?;
        Self::parse(text)
    }

    /// The multi-line layout, ending in a newline: each top-level
    /// member (or element) on its own line, each element of an
    /// array-valued top-level member on its own line below it, the rest
    /// compact.
    #[must_use]
    pub fn pretty(&self) -> String {
        let compact = |out: &mut String, v: &Json| {
            let _ = write!(out, "{v}");
        };
        let mut out = String::new();
        match self {
            Json::Object(o) => lines(&mut out, "", ['{', '}'], &o.0, |out, (k, v)| {
                let _ = write_escaped(out, k);
                out.push_str(": ");
                match v {
                    Json::Array(items) => lines(out, "  ", ['[', ']'], items, compact),
                    v => compact(out, v),
                }
            }),
            Json::Array(items) => lines(&mut out, "", ['[', ']'], items, compact),
            v => compact(&mut out, v),
        }
        out.push('\n');
        out
    }

    fn wrong(&self, what: &str, want: &str) -> JsonError {
        let got = match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Number(_) => "number",
            Json::String(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        };
        JsonError::invalid(format!("{what} is a {got} where a {want} was expected"))
    }

    /// The string value, or [`JsonError::Invalid`] naming the field `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, JsonError> {
        match self {
            Json::String(s) => Ok(s),
            other => Err(other.wrong(what, "string")),
        }
    }

    /// The number value, or [`JsonError::Invalid`] naming the field `what`.
    pub fn as_number(&self, what: &str) -> Result<f64, JsonError> {
        match self {
            Json::Number(n) => Ok(*n),
            other => Err(other.wrong(what, "number")),
        }
    }

    /// A count: a whole number from 0 to [`MAX_EXACT_INTEGER`], or
    /// [`JsonError::Invalid`] naming the field `what` for any other value.
    pub fn as_u64(&self, what: &str) -> Result<u64, JsonError> {
        let n = self.as_number(what)?;
        if n.fract() == 0.0 && (0.0..=MAX_EXACT_INTEGER as f64).contains(&n) {
            return Ok(n as u64);
        }
        Err(JsonError::invalid(format!(
            "{what} must be a whole number from 0 to 2^53, got {n}"
        )))
    }

    /// The boolean value, or [`JsonError::Invalid`] naming the field `what`.
    pub fn as_bool(&self, what: &str) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(other.wrong(what, "bool")),
        }
    }

    /// The array elements, or [`JsonError::Invalid`] naming the field `what`.
    pub fn as_array(&self, what: &str) -> Result<&[Json], JsonError> {
        match self {
            Json::Array(a) => Ok(a),
            other => Err(other.wrong(what, "array")),
        }
    }

    /// The object, or [`JsonError::Invalid`] naming the field `what`.
    pub fn as_object(&self, what: &str) -> Result<&Object, JsonError> {
        match self {
            Json::Object(o) => Ok(o),
            other => Err(other.wrong(what, "object")),
        }
    }
}

/// Writes `open`, then `items` one per line indented by `indent` plus
/// two spaces, then `close` on its own line at `indent`.
fn lines<T>(
    out: &mut String,
    indent: &str,
    [open, close]: [char; 2],
    items: &[T],
    mut item: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, it) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n  " } else { ",\n  " });
        out.push_str(indent);
        item(out, it);
    }
    out.push('\n');
    out.push_str(indent);
    out.push(close);
}

fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// The compact layout: `{"k": v, "k2": [a, b]}`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(n) if n.is_finite() => write!(f, "{n}"),
            Json::Number(_) => f.write_str("null"),
            Json::String(s) => write_escaped(f, s),
            Json::Array(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    write!(f, "{}{v}", if i == 0 { "" } else { ", " })?;
                }
                f.write_char(']')
            }
            Json::Object(o) => write!(f, "{o}"),
        }
    }
}

/// The compact layout of [`Json`]'s `Display`.
impl fmt::Display for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('{')?;
        for (i, (k, v)) in self.0.iter().enumerate() {
            f.write_str(if i == 0 { "" } else { ", " })?;
            write_escaped(f, k)?;
            write!(f, ": {v}")?;
        }
        f.write_char('}')
    }
}

/// Builds an [`Object`] from `"key": value` pairs, in order, each value
/// converted with [`Into<Json>`]: `object! {"status": "failed", "job": id}`.
#[macro_export]
macro_rules! object {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Object::new()$(.with($key, $value))*
    };
}

macro_rules! from {
    ($($t:ty => |$v:ident| $e:expr;)*) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Self {
                $e
            }
        }
    )*};
}

from! {
    bool => |b| Json::Bool(b);
    f64 => |n| Json::Number(n);
    u64 => |n| Json::Number(n as f64);
    usize => |n| Json::Number(n as f64);
    i64 => |n| Json::Number(n as f64);
    &str => |s| Json::String(s.to_owned());
    String => |s| Json::String(s);
    Vec<Json> => |items| Json::Array(items);
    Object => |o| Json::Object(o);
}

/// `None` is written as `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn err(&self, detail: impl Into<String>) -> JsonError {
        JsonError::Syntax {
            offset: self.at,
            detail: detail.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() != Some(b) {
            return Err(self.err(format!("expected `{}`", b as char)));
        }
        self.at += 1;
        Ok(())
    }

    /// Parses `open`, elements separated by `,`, `close`, calling
    /// `element` at the start of each element.
    fn container(
        &mut self,
        [open, close]: [u8; 2],
        kind: &str,
        mut element: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.eat(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(c) if c == close => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return Err(self.err(format!("expected `,` or `{}` in {kind}", close as char))),
            }
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        let literal = |p: &mut Self, word: &str, value: Json| {
            if !p.text[p.at..].starts_with(word) {
                return Err(p.err(format!("expected `{word}`")));
            }
            p.at += word.len();
            Ok(value)
        };
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => literal(self, "true", Json::Bool(true)),
            Some(b'f') => literal(self, "false", Json::Bool(false)),
            Some(b'n') => literal(self, "null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        let mut fields = Object::new();
        self.container([b'{', b'}'], "object", |p| {
            let key = p.string()?;
            if fields.opt(&key).is_some() {
                // Lookups take the first match, so a duplicate would
                // silently shadow data — a classic parser-differential
                // vector. Reject instead.
                return Err(p.err(format!("duplicate object key `{key}`")));
            }
            p.skip_ws();
            p.eat(b':')?;
            p.skip_ws();
            fields.0.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Json::Object(fields))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        let mut items = Vec::new();
        self.container([b'[', b']'], "array", |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Array(items))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote or escape at once.
            let rest = &self.text[self.at..];
            let run = rest.find(['"', '\\']).unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.at += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                _ => self.at += 1, // the backslash
            }
            out.push(match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let hex = self
                        .text
                        .get(self.at + 1..self.at + 5)
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    // Basic-plane escapes only; the writer never emits
                    // surrogate pairs.
                    let c = char::from_u32(hex)
                        .ok_or_else(|| self.err("\\u escape is not a scalar"))?;
                    self.at += 4;
                    c
                }
                _ => return Err(self.err("bad escape")),
            });
            self.at += 1;
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.at += 1;
        }
        let text = &self.text[start..self.at];
        let bad = |detail: String| JsonError::Syntax {
            offset: start,
            detail,
        };
        let n: f64 = text
            .parse()
            .map_err(|_| bad(format!("bad number `{text}`")))?;
        // `"1e999".parse::<f64>()` is Ok(inf); every number in our
        // documents is a finite count or rate, so an overflowing literal
        // is corruption, not data.
        if !n.is_finite() {
            return Err(bad(format!("number `{text}` overflows an f64")));
        }
        Ok(Json::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = Json::parse("{\"a\": 1, \"b\": 2, \"a\": 3}").unwrap_err();
        assert!(matches!(err, JsonError::Syntax { offset: 20, .. }), "{err}");
        assert!(
            err.to_string().contains("duplicate object key `a`"),
            "{err}"
        );
    }

    #[test]
    fn overflowing_numbers_are_rejected() {
        for lit in ["1e999", "-1e999", "1e309"] {
            let err = Json::parse(&format!("{{\"n\": {lit}}}")).unwrap_err();
            assert!(err.to_string().contains("overflows"), "{lit}: {err}");
        }
        // Large-but-finite literals still parse.
        assert_eq!(Json::parse("1e308"), Ok(Json::Number(1e308)));
    }

    #[test]
    fn syntax_errors_carry_byte_offsets() {
        for (text, offset, detail) in [
            ("{\"schema\": ", 11, "expected a JSON value"),
            ("[1, 2,]", 6, "expected a JSON value"),
            ("{\"a\" 1}", 5, "expected `:`"),
            ("[1 2]", 3, "expected `,` or `]` in array"),
            ("\"ab\\q\"", 4, "bad escape"),
            ("\"ab", 3, "unterminated string"),
            ("{} trailing", 3, "trailing data after the JSON value"),
        ] {
            let want = JsonError::Syntax {
                offset,
                detail: detail.into(),
            };
            assert_eq!(Json::parse(text), Err(want), "{text:?}");
        }
        let err = Json::parse_bytes(&[b'{', 0xFF, 0xFE, b'}']).unwrap_err();
        assert!(matches!(err, JsonError::Syntax { offset: 1, .. }), "{err}");
    }

    #[test]
    fn parser_accepts_whitespace_and_reordered_fields() {
        let v = Json::parse("  { \"cells\" : [ ] , \"status\" : \"completed\" }  ").unwrap();
        let top = v.as_object("top level").unwrap();
        assert_eq!(top.get("status").unwrap().as_str("status"), Ok("completed"));
        assert_eq!(top.get("cells").unwrap().as_array("cells"), Ok(&[][..]));
        assert_eq!(
            top.get("schema").unwrap_err().to_string(),
            "missing field `schema`"
        );
    }

    #[test]
    fn accessors_name_the_field_and_counts_are_whole() {
        let err = Json::Number(5.0).as_str("id").unwrap_err();
        assert_eq!(
            err.to_string(),
            "id is a number where a string was expected"
        );
        assert_eq!(Json::Number(44.0).as_u64("n"), Ok(44));
        assert_eq!(
            Json::Number(2f64.powi(53)).as_u64("n"),
            Ok(MAX_EXACT_INTEGER)
        );
        for bad in [1.9, -5.0, -0.5, 2f64.powi(53) + 2.0] {
            let err = Json::Number(bad)
                .as_u64("eval_days")
                .unwrap_err()
                .to_string();
            assert!(err.starts_with("eval_days must be a whole number"), "{err}");
        }
    }

    #[test]
    fn writer_layouts_are_pinned() {
        let rows = vec![
            Object::new().with("k", true).into(),
            Json::from("t\"\n\u{1}"),
        ];
        let doc: Json = Object::new()
            .with("n", 0.25)
            .with("count", 3usize)
            .with(
                "inner",
                Object::new().with("a", vec![Json::from(1u64), Json::Null]),
            )
            .with("rows", rows)
            .with("none", Vec::new())
            .with("nan", f64::NAN)
            .into();
        let compact = "{\"n\": 0.25, \"count\": 3, \"inner\": {\"a\": [1, null]}, \"rows\": \
                       [{\"k\": true}, \"t\\\"\\n\\u0001\"], \"none\": [], \"nan\": null}";
        assert_eq!(doc.to_string(), compact);
        let pretty = "{\n  \"n\": 0.25,\n  \"count\": 3,\n  \"inner\": {\"a\": [1, null]},\n  \
                      \"rows\": [\n    {\"k\": true},\n    \"t\\\"\\n\\u0001\"\n  ],\n  \
                      \"none\": [\n  ],\n  \"nan\": null\n}\n";
        assert_eq!(doc.pretty(), pretty);
        let top_array = Json::from(vec![Json::from(1.5), Json::Null]);
        assert_eq!(top_array.pretty(), "[\n  1.5,\n  null\n]\n");
    }

    /// Turns a word stream into a random nested [`Json`], so the offline
    /// proptest stand-in (ranges and vecs only) can drive it.
    struct Entropy<'a>(std::slice::Iter<'a, u32>);

    impl Entropy<'_> {
        fn next(&mut self) -> u32 {
            self.0.next().copied().unwrap_or(0)
        }

        fn number(&mut self) -> f64 {
            let a = f64::from(self.next());
            match self.next() % 3 {
                0 => a - 2_147_483_648.0,
                1 => a / f64::from(self.next().max(1)),
                _ => {
                    let bits = u64::from(self.next()) << 32 | u64::from(self.next());
                    Some(f64::from_bits(bits))
                        .filter(|f| f.is_finite())
                        .unwrap_or(-0.0)
                }
            }
        }

        fn string(&mut self) -> String {
            const NASTY: &str = "\"\\/\n\0\u{1f}\u{7f}é\u{2028}😀\u{10FFFF}a";
            (0..self.next() % 8)
                .map(|_| match self.next() % 3 {
                    0 => NASTY
                        .chars()
                        .nth(self.next() as usize % NASTY.chars().count())
                        .unwrap(),
                    1 => char::from_u32(self.next() % 0x20).unwrap_or('?'),
                    _ => char::from_u32(self.next() % 0x11_0000).unwrap_or('\u{fffd}'),
                })
                .collect()
        }

        fn json(&mut self, depth: u32) -> Json {
            match self.next() % if depth == 0 { 4 } else { 6 } {
                0 => Json::Null,
                1 => Json::Bool(self.next().is_multiple_of(2)),
                2 => Json::Number(self.number()),
                3 => Json::String(self.string()),
                4 => Json::Array((0..self.next() % 4).map(|_| self.json(depth - 1)).collect()),
                _ => {
                    let mut o = Object::new();
                    for _ in 0..self.next() % 4 {
                        let (key, value) = (self.string(), self.json(depth - 1));
                        if o.opt(&key).is_none() {
                            o = o.with(&key, value);
                        }
                    }
                    o.into()
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn both_layouts_round_trip_random_documents(
            words in proptest::collection::vec(0u32..u32::MAX, 16..400),
        ) {
            let v = Entropy(words.iter()).json(3);
            prop_assert_eq!(Json::parse(&v.to_string()), Ok(v.clone()));
            prop_assert_eq!(Json::parse(&v.pretty()), Ok(v));
        }
    }
}
