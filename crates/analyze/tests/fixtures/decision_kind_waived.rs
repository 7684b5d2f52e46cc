//! analyze-fixture: path=crates/harness/src/flight.rs expect=clean

pub fn kind_label(kind: &str) -> &'static str {
    match kind {
        // colt: allow(decision-kind) — fixture renders a deliberate subset
        "index_create" => "create",
        _ => "other",
    }
}
