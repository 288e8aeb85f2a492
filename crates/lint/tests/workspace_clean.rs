//! The integration test behind the CI `lint-invariants` job: the real
//! workspace must lint clean, with every rule demonstrably armed.
//!
//! Running this under plain `cargo test` makes the lint part of tier-1:
//! a `HashMap` sneaking into a result path, a stray `Instant::now`, an
//! allocation in a pipeline stage, a dropped `#![forbid(unsafe_code)]`, a
//! README knob-table drift, or a `pub` item nothing else uses fails the
//! build locally, not just in CI.

use midas_lint::lint_workspace;
use std::path::Path;

/// `crates/lint` → the workspace root two levels up.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
}

#[test]
fn the_workspace_lints_clean_in_deny_mode() {
    let report = lint_workspace(workspace_root()).expect("workspace scan");
    assert!(
        report.is_clean(),
        "midas-lint found violations:\n{}",
        report.human()
    );
}

#[test]
fn the_scan_covers_the_whole_workspace() {
    let report = lint_workspace(workspace_root()).expect("workspace scan");
    // The workspace has ~137 .rs files at the time of writing; a scan that
    // sees far fewer means the walker broke and the lint is vacuous.
    assert!(
        report.files_scanned >= 100,
        "only {} files scanned — walker regression?",
        report.files_scanned
    );
    // The seven round-pipeline stage functions (dynamics included) and
    // the keyed fading row step carry `// lint: no_alloc`.
    assert!(
        report.no_alloc_fns >= 8,
        "expected at least the 8 annotated hot-path functions, saw {}",
        report.no_alloc_fns
    );
    // `unreachable-pub` checks every `pub fn`/`const`/`static` of the
    // library sources: 505 at the time of writing.  Far fewer means the
    // declaration scan broke and the rule is vacuous.
    assert!(
        report.pub_items >= 505,
        "expected at least 505 checked pub items, saw {}",
        report.pub_items
    );
    // Every honored pragma carries a written reason (the scanner rejects
    // reasonless allows, so this is a belt-and-braces re-check).
    for pragma in &report.pragmas {
        assert!(
            !pragma.reason.is_empty(),
            "reasonless pragma survived: {pragma:?}"
        );
    }
}

#[test]
fn the_env_knob_registry_is_in_sync_and_nonempty() {
    let report = lint_workspace(workspace_root()).expect("workspace scan");
    assert_eq!(
        report.knobs_source, report.knobs_readme,
        "source knobs and README table diverge"
    );
    // 23 knobs at the time of writing; an empty registry would mean the
    // string-literal extraction broke.
    assert!(
        report.knobs_source.len() >= 23,
        "only {} knobs registered",
        report.knobs_source.len()
    );
    assert!(report.knobs_source.contains(&"MIDAS_THREADS".to_string()));
}
