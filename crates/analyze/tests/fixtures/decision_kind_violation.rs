//! analyze-fixture: path=crates/harness/src/flight.rs expect=decision-kind

pub fn kind_label(kind: &str) -> &'static str {
    match kind {
        "index_create" => "create",
        "index_drop" => "drop",
        _ => "other",
    }
}
