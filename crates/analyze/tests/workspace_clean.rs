//! The shipped tree must be lint-clean: every wall-clock read, hash
//! iteration, print, and panic site is either structurally fine or
//! carries a reasoned waiver. This is the analyzer's own copy of the
//! check each library crate also runs.

#[test]
fn shipped_workspace_has_no_violations() {
    let root = colt_analyze::workspace_root();
    let report = colt_analyze::check_workspace(&root).expect("workspace scan");
    assert!(
        report.files_scanned > 50,
        "scan looks truncated: only {} files",
        report.files_scanned
    );
    assert!(report.is_clean(), "{}", report.render());
}

/// The `[charge-coverage]` allowlist holds nothing stale: each entry
/// names a public colt-storage fn that reads the heap's column store or
/// the tree's arena without an `IoStats`, so striking the entry alone
/// gets exactly that fn flagged.
#[test]
fn every_uncharged_entry_is_load_bearing() {
    use colt_analyze::manifest::Manifest;
    let root = colt_analyze::workspace_root();
    let sources: Vec<(String, String)> = ["heap", "btree"]
        .iter()
        .map(|m| {
            let rel = format!("crates/storage/src/{m}.rs");
            let src = std::fs::read_to_string(root.join(&rel)).expect("storage source readable");
            (rel, src)
        })
        .collect();
    let full = Manifest::embedded();
    assert!(full.uncharged.contains("HeapTable::column"), "the column store's accessor is listed");
    for entry in &full.uncharged {
        let mut without = full.clone();
        without.uncharged.remove(entry);
        let flagged: Vec<String> = sources
            .iter()
            .flat_map(|(rel, src)| colt_analyze::analyze_source_with(rel, src, &without))
            .map(|v| v.render())
            .collect();
        assert_eq!(flagged.len(), 1, "without `{entry}`: {flagged:#?}");
        assert!(
            flagged[0].contains("charge-coverage") && flagged[0].contains(&format!("`{entry}`")),
            "{}",
            flagged[0]
        );
    }
}
