//! Hand-rolled JSON: a value tree, a writer, and a strict parser.
//!
//! The workspace has no serde (the build environment is offline), so run
//! reports are built as [`JsonValue`] trees and rendered by hand. The
//! parser exists so tests can round-trip reports and so downstream tools
//! built in this workspace can read the committed `BENCH_baseline.json`.

use std::collections::BTreeMap;
use std::fmt;

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// recurses once per level, so the bound keeps a hostile document from
/// overflowing the stack; the deepest report (`explain`) nests 8 levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
///
/// Object keys keep insertion order (reports read better when related keys
/// stay grouped); equality is order-insensitive for objects.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Serialized without a fractional part when integral.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object.
    pub fn object() -> Self {
        JsonValue::Obj(Vec::new())
    }

    /// Inserts (or replaces) `key` in an object; panics on non-objects.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> &mut Self {
        let JsonValue::Obj(entries) = self else {
            panic!("JsonValue::set on a non-object");
        };
        let key = key.into();
        let value = value.into();
        match entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => entries.push((key, value)),
        }
        self
    }

    /// Builder-style [`set`](Self::set).
    pub fn with(mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> Self {
        self.set(key, value);
        self
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Descends a `.`-separated path of object keys.
    pub fn path(&self, path: &str) -> Option<&JsonValue> {
        path.split('.').try_fold(self, |v, k| v.get(k))
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders indented JSON (2 spaces per level).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_number(out, *n),
            JsonValue::Str(s) => write_string(out, s),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            JsonValue::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (strict: one value, nothing trailing).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; reports encode them as null.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = fmt::Write::write_fmt(out, format_args!("{}", n as i64));
    } else {
        let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[' | b'{') => self.nested(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// An array or object one level deeper, refused at the opening
    /// bracket past [`MAX_DEPTH`].
    fn nested(&mut self) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = if self.peek() == Some(b'[') {
            self.array()
        } else {
            self.object()
        };
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
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
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by this
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(self.err(format!("invalid escape '\\{}'", c as char))),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| JsonError {
                offset: start,
                message: format!("invalid number '{text}'"),
            })
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Num(n)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(n: $t) -> Self {
                JsonValue::Num(n as f64)
            }
        }
    )*};
}
from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<JsonValue> + Clone> From<&[T]> for JsonValue {
    fn from(v: &[T]) -> Self {
        JsonValue::Arr(v.iter().cloned().map(Into::into).collect())
    }
}

impl<V: Into<JsonValue>> FromIterator<(String, V)> for JsonValue {
    fn from_iter<I: IntoIterator<Item = (String, V)>>(iter: I) -> Self {
        JsonValue::Obj(iter.into_iter().map(|(k, v)| (k, v.into())).collect())
    }
}

impl From<BTreeMap<String, f64>> for JsonValue {
    fn from(map: BTreeMap<String, f64>) -> Self {
        map.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JsonValue {
        JsonValue::object()
            .with("schema", "demo-v1")
            .with("ok", true)
            .with("nothing", JsonValue::Null)
            .with("cycles", 123_456_789u64)
            .with("ipc", 1.375)
            .with("tiny", 1e-9)
            .with("name", "quote \" backslash \\ newline \n tab \t")
            .with("series", vec![0.25, 0.5, 0.75])
            .with(
                "nested",
                JsonValue::object()
                    .with("p50", 4u64)
                    .with("empty_arr", JsonValue::Arr(vec![])),
            )
    }

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = sample();
        assert_eq!(JsonValue::parse(&v.to_json()).unwrap(), v);
        assert_eq!(JsonValue::parse(&v.to_json_pretty()).unwrap(), v);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(JsonValue::from(42u64).to_json(), "42");
        assert_eq!(JsonValue::from(-3i64).to_json(), "-3");
        assert_eq!(JsonValue::from(1.5f64).to_json(), "1.5");
        assert_eq!(JsonValue::from(f64::NAN).to_json(), "null");
    }

    #[test]
    fn get_and_path_navigate() {
        let v = sample();
        assert_eq!(v.path("nested.p50").and_then(JsonValue::as_f64), Some(4.0));
        assert_eq!(v.get("schema").and_then(JsonValue::as_str), Some("demo-v1"));
        assert!(v.path("nested.missing").is_none());
    }

    #[test]
    fn set_replaces_existing_keys() {
        let mut v = JsonValue::object().with("a", 1u64);
        v.set("a", 2u64);
        assert_eq!(v.get("a").unwrap().as_f64(), Some(2.0));
        let JsonValue::Obj(entries) = &v else {
            unreachable!()
        };
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\" 1}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let deepest = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(JsonValue::parse(&deepest).is_ok());
        let objects = r#"{"a":"#.repeat(MAX_DEPTH + 1);
        let err = JsonValue::parse(&objects).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH * 5);
        // A million open brackets on a default-size thread stack: refused
        // at the first bracket past the bound, not a stack overflow.
        let err = std::thread::spawn(|| JsonValue::parse(&"[".repeat(1_000_000)))
            .join()
            .expect("parser thread survives")
            .unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nested deeper"), "{err}");
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let v = JsonValue::parse(r#"{"s":"aA\n","n":-1.5e3,"b":[true,false,null]}"#).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("aA\n"));
        assert_eq!(v.get("n").and_then(JsonValue::as_f64), Some(-1500.0));
        assert_eq!(
            v.get("b").and_then(JsonValue::as_arr).map(<[_]>::len),
            Some(3)
        );
    }
}
