//! Structured events and their two renderings: one-line JSON (the JSONL
//! sink consumed by tooling and CI) and a compact human line (the
//! `summary`-level stderr format shared by every binary).
//!
//! The JSON rendering goes through [`crate::json`]'s escaper and float
//! formatter, so the strict parser beside them reads every line back.

use crate::json::{format_float, write_str};

/// A typed event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rendered with a decimal point, so it parses back as one).
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// One structured event: a kind plus ordered key/value fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The event kind, e.g. `"setup"`, `"cell_finish"`, `"parallel_batch"`.
    pub kind: &'static str,
    /// Ordered fields.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// An event with no fields yet.
    pub fn new(kind: &'static str) -> Self {
        Event { kind, fields: Vec::new() }
    }

    /// Append a field (builder style).
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// One-line JSON: `{"event":"kind","k":v,...}`.
    pub fn jsonl(&self) -> String {
        let mut out = String::from("{\"event\":");
        write_str(&mut out, self.kind);
        write_fields(&mut out, &self.fields);
        out
    }

    /// The compact human rendering used at the `summary` level:
    /// `[obs] kind k=v k=v`.
    pub fn human(&self) -> String {
        let mut out = format!("[obs] {}", self.kind);
        for (k, v) in &self.fields {
            out.push(' ');
            out.push_str(k);
            out.push('=');
            match v {
                FieldValue::U64(n) => out.push_str(&n.to_string()),
                FieldValue::I64(n) => out.push_str(&n.to_string()),
                FieldValue::F64(f) => out.push_str(&format_float(*f)),
                FieldValue::Str(s) => out.push_str(s),
                FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
        out
    }
}

/// Append `,"key":value` for every field, then the closing brace —
/// the tail [`Event::jsonl`] and `DecisionRecord::jsonl` share.
pub(crate) fn write_fields(out: &mut String, fields: &[(&'static str, FieldValue)]) {
    for (k, v) in fields {
        out.push(',');
        write_str(out, k);
        out.push(':');
        match v {
            FieldValue::U64(n) => out.push_str(&n.to_string()),
            FieldValue::I64(n) => out.push_str(&n.to_string()),
            FieldValue::F64(f) => out.push_str(&format_float(*f)),
            FieldValue::Str(s) => write_str(out, s),
            FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_shape() {
        let e = Event::new("epoch")
            .field("epoch", 3u64)
            .field("ratio", 1.25)
            .field("label", "COLT seed=42")
            .field("closed", true)
            .field("delta", -2i64);
        assert_eq!(
            e.jsonl(),
            r#"{"event":"epoch","epoch":3,"ratio":1.25,"label":"COLT seed=42","closed":true,"delta":-2}"#
        );
    }

    #[test]
    fn whole_floats_keep_decimal_point() {
        let e = Event::new("t").field("ms", 5.0);
        assert_eq!(e.jsonl(), r#"{"event":"t","ms":5.0}"#);
    }

    #[test]
    fn strings_escaped() {
        let e = Event::new("t").field("s", "a\"b\\c\nd");
        assert_eq!(e.jsonl(), r#"{"event":"t","s":"a\"b\\c\nd"}"#);
    }

    #[test]
    fn human_line() {
        let e = Event::new("cell_finish").field("cell", 2u64).field("wall_ms", 12.5);
        assert_eq!(e.human(), "[obs] cell_finish cell=2 wall_ms=12.5");
    }
}
