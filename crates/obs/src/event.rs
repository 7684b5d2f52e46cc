//! Structured events and their two renderings: one-line JSON (the JSONL
//! sink consumed by tooling and CI) and a compact human line (the
//! `summary`-level stderr format shared by every binary).
//!
//! The JSON rendering is [`crate::json`]'s one-line writer, so the
//! strict parser beside it reads every line back.

use crate::json::{self, Json};

/// One structured event: a kind plus ordered key/value fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The event kind, e.g. `"setup"`, `"cell_finish"`, `"parallel_batch"`.
    pub kind: &'static str,
    /// Ordered fields.
    pub fields: Vec<(&'static str, Json)>,
}

impl Event {
    /// An event with no fields yet.
    pub fn new(kind: &'static str) -> Self {
        Event { kind, fields: Vec::new() }
    }

    /// Append a field (builder style).
    pub fn field(mut self, key: &'static str, value: impl Into<Json>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// One-line JSON: `{"event":"kind","k":v,...}`.
    pub fn jsonl(&self) -> String {
        let head = [("event", Json::from(self.kind))];
        json::object_line(head.iter().chain(&self.fields).map(|(k, v)| (*k, v)))
    }

    /// The compact human rendering used at the `summary` level:
    /// `[obs] kind k=v k=v` (strings unquoted).
    pub fn human(&self) -> String {
        let mut out = format!("[obs] {}", self.kind);
        for (k, v) in &self.fields {
            out.push(' ');
            out.push_str(k);
            out.push('=');
            match v {
                Json::Str(s) => out.push_str(s),
                v => v.write_line(&mut out),
            }
        }
        out
    }
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
