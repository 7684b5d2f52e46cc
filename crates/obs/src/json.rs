//! A minimal, dependency-free JSON value: writer and strict parser.
//!
//! The one JSON implementation of the workspace, and the one value type
//! of `colt-obs`: an event's or a decision record's fields are [`Json`]
//! values, and every line of the recorder's dump is written by the same
//! writer as [`Json::pretty`], on one line with no whitespace. It sits
//! here, at the bottom of the crate DAG, so the event sink, the flight
//! recorder and the run summaries of the crates above all write through
//! one string escaper and one float formatter (both private to this
//! module), and every test and tool reads them back through one parser
//! ([`parse`]). A hand-rolled module keeps the whole workspace building
//! with no registry access (no `serde`). The writer is deterministic:
//! identical values render to identical bytes, which is what the
//! parallel harness's byte-identity guarantee rests on.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (rendered without a decimal point).
    Int(i64),
    /// An unsigned integer (rendered without a decimal point).
    UInt(u64),
    /// A float (always rendered with a decimal point or exponent).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs, preserving order.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Pretty-print with two-space indentation (the artifact format).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Append the value on one line with no whitespace — the format of
    /// every line the recorder dumps.
    pub(crate) fn write_line(&self, out: &mut String) {
        self.write(out, None);
    }

    /// The one writer: `depth` is the indentation level when pretty,
    /// `None` for one line.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Float(f) => out.push_str(&format_float(*f)),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, depth, ['[', ']'], items.iter().map(|v| (None, v))),
            Json::Obj(pairs) => {
                write_seq(out, depth, ['{', '}'], pairs.iter().map(|(k, v)| (Some(k.as_str()), v)))
            }
        }
    }

    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element by index.
    pub fn idx(&self, i: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(i),
            _ => None,
        }
    }

    /// Array contents, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` iff this is an array.
    pub fn is_array(&self) -> bool {
        matches!(self, Json::Arr(_))
    }

    /// Numeric value as `f64` (from any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Numeric value as `u64`, when non-negative and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            Json::UInt(u) => Some(*u),
            Json::Float(f) if *f >= 0.0 && f.fract() == 0.0 => Some(*f as u64),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One object on one line, `{"k":v,…}`, from borrowed pairs: a dump
/// line is written from its record's fields without copying them.
pub(crate) fn object_line<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a Json)>) -> String {
    let mut out = String::new();
    write_seq(&mut out, None, ['{', '}'], pairs.into_iter().map(|(k, v)| (Some(k), v)));
    out
}

/// An array (keys `None`) or an object's members between `brackets`,
/// pretty at `Some(depth)`, on one line at `None`.
fn write_seq<'a>(
    out: &mut String,
    depth: Option<usize>,
    brackets: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    out.push(brackets[0]);
    let mut empty = true;
    for (key, value) in items {
        if !empty {
            out.push(',');
        }
        empty = false;
        if let Some(d) = depth {
            out.push('\n');
            out.push_str(&"  ".repeat(d + 1));
        }
        if let Some(k) = key {
            write_str(out, k);
            out.push_str(if depth.is_some() { ": " } else { ":" });
        }
        value.write(out, depth.map(|d| d + 1));
    }
    if let (Some(d), false) = (depth, empty) {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(brackets[1]);
}

/// Render a float so it parses back as a float: always a decimal point
/// or exponent, `null` for non-finite values (JSON has no infinities;
/// artifacts never produce them, but the output stays parseable).
fn format_float(f: f64) -> String {
    if !f.is_finite() {
        return "null".to_string();
    }
    if f == f.trunc() && f.abs() < 1e15 {
        format!("{f:.1}")
    } else {
        format!("{f}")
    }
}

/// Append `s` to `out` as a quoted, escaped JSON string.
fn write_str(out: &mut String, s: &str) {
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

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::UInt(v as u64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::UInt(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

/// Parse a JSON document (strict enough for the artifacts we emit).
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                }
                c => {
                    // Re-decode multi-byte UTF-8 sequences from the raw input.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        let width = match c {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let chunk = self
                            .bytes
                            .get(start..start + width)
                            .ok_or("truncated UTF-8 sequence")?;
                        let s = std::str::from_utf8(chunk).map_err(|e| e.to_string())?;
                        out.push_str(s);
                        self.pos = start + width;
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if float {
            text.parse::<f64>().map(Json::Float).map_err(|e| e.to_string())
        } else if text.starts_with('-') {
            text.parse::<i64>().map(Json::Int).map_err(|e| e.to_string())
        } else {
            text.parse::<u64>().map(Json::UInt).map_err(|e| e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = Json::obj(vec![
            ("name", Json::Str("fig5".into())),
            ("count", Json::UInt(20)),
            ("delta", Json::Int(-3)),
            ("ratio", Json::Float(1.25)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            ("series", Json::Arr(vec![Json::UInt(1), Json::UInt(2)])),
            ("empty", Json::Arr(vec![])),
            ("child", Json::obj(vec![("x", Json::Float(2.0))])),
        ]);
        let text = doc.pretty();
        let back = parse(&text).expect("parses");
        assert_eq!(back, doc);
    }

    #[test]
    fn writer_is_deterministic() {
        let doc = Json::obj(vec![("a", Json::Float(0.1 + 0.2)), ("b", Json::UInt(7))]);
        assert_eq!(doc.pretty(), doc.pretty());
    }

    #[test]
    fn floats_keep_decimal_point() {
        assert_eq!(Json::Float(3.0).pretty(), "3.0");
        assert_eq!(Json::Float(3.5).pretty(), "3.5");
        assert_eq!(Json::UInt(3).pretty(), "3");
    }

    /// One writer, two layouts: two-space indented, and the dump's one
    /// line with no whitespace.
    #[test]
    fn pretty_and_one_line_layouts() {
        let doc = Json::obj(vec![
            ("a", Json::Arr(vec![Json::UInt(1), Json::obj(vec![("b", Json::Arr(vec![]))])])),
            ("c", Json::obj(vec![])),
        ]);
        assert_eq!(doc.pretty(), "{\n  \"a\": [\n    1,\n    {\n      \"b\": []\n    }\n  ],\n  \"c\": {}\n}");
        let mut line = String::new();
        doc.write_line(&mut line);
        assert_eq!(line, r#"{"a":[1,{"b":[]}],"c":{}}"#);
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        let doc = Json::Str("a\"b\\c\nd\tµß€".into());
        let back = parse(&doc.pretty()).expect("parses");
        assert_eq!(back, doc);
    }

    #[test]
    fn accessors() {
        let doc = parse(r#"{"policy": "COLT", "queries": 60, "whatif": [20, 5], "t": 1.5}"#)
            .expect("parses");
        assert_eq!(doc.get("policy").and_then(Json::as_str), Some("COLT"));
        assert_eq!(doc.get("queries").and_then(Json::as_u64), Some(60));
        assert!(doc.get("whatif").is_some_and(Json::is_array));
        assert_eq!(doc.get("whatif").and_then(|w| w.idx(1)).and_then(Json::as_u64), Some(5));
        assert_eq!(doc.get("t").and_then(Json::as_f64), Some(1.5));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("nope").is_err());
        assert!(parse("{} extra").is_err());
    }
}
