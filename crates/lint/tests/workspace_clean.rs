//! The acceptance gate, as a test: the real workspace must lint clean.
//!
//! This is the same check `ci.sh` runs via `cargo run -p snn-lint`; having
//! it in the test suite means a violation fails `cargo test` too, before
//! CI is ever involved.

use std::path::Path;

#[test]
fn the_workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = snn_lint::run(&root).expect("workspace must be lintable");
    assert!(
        report.checked_files > 10,
        "suspiciously few files checked ({}) — did the file walk break?",
        report.checked_files
    );
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    assert!(report.is_clean(), "workspace has lint findings:\n{}", rendered.join("\n"));
}
