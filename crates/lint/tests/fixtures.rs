//! Fixture-based self-tests: every rule is proven *live* by a known-bad
//! snippet asserting the exact finding (rule, file, line) and proven
//! *quiet* by a clean snippet.  The snippets are inline string constants —
//! the scanner blanks string-literal contents, so these fixtures cannot
//! trip the lint when the workspace scans this very file.

use midas_lint::report::Report;
use midas_lint::rules::{lint_files, FileInput};

/// Lints one in-memory file (no README).
fn lint_one(path: &str, source: &str) -> Report {
    lint_files(
        &[FileInput {
            path: path.to_string(),
            source: source.to_string(),
        }],
        None,
    )
}

/// Asserts the report holds exactly one finding, at `(rule, file, line)`.
fn assert_single(report: &Report, rule: &str, file: &str, line: usize) {
    assert_eq!(
        report.findings.len(),
        1,
        "expected exactly one finding, got {:#?}",
        report.findings
    );
    let f = &report.findings[0];
    assert_eq!(
        (f.rule.as_str(), f.file.as_str(), f.line),
        (rule, file, line),
        "wrong finding: {f:#?}"
    );
}

// ---------------------------------------------------------------- map-order

#[test]
fn map_order_fires_on_hashmap_with_exact_location() {
    let bad = "use std::collections::BTreeMap;\nuse std::collections::HashMap;\n";
    assert_single(
        &lint_one("crates/x/src/util.rs", bad),
        "map-order",
        "crates/x/src/util.rs",
        2,
    );
}

#[test]
fn map_order_is_quiet_on_ordered_collections_and_comments() {
    let clean = "use std::collections::{BTreeMap, BTreeSet};\n// HashMap discussed in prose only\nlet s = \"HashMap\";\n";
    assert!(lint_one("crates/x/src/util.rs", clean).is_clean());
}

#[test]
fn map_order_pragma_suppresses_and_is_recorded_with_reason() {
    let ok = "use std::collections::HashMap; // lint: allow(map-order) — keyed registry, never iterated\n";
    let report = lint_one("crates/x/src/util.rs", ok);
    assert!(report.is_clean(), "{:#?}", report.findings);
    assert_eq!(report.pragmas.len(), 1);
    assert_eq!(report.pragmas[0].rule, "map-order");
    assert_eq!(report.pragmas[0].reason, "keyed registry, never iterated");
}

// --------------------------------------------------------------- wall-clock

#[test]
fn wall_clock_fires_on_instant_now_with_exact_location() {
    let bad = "use std::time::Instant;\n\nfn f() {\n    let t = Instant::now();\n}\n";
    assert_single(
        &lint_one("crates/x/src/util.rs", bad),
        "wall-clock",
        "crates/x/src/util.rs",
        4,
    );
}

#[test]
fn wall_clock_fires_on_system_time_now() {
    let bad = "fn f() -> std::time::SystemTime {\n    std::time::SystemTime::now()\n}\n";
    assert_single(
        &lint_one("crates/x/src/util.rs", bad),
        "wall-clock",
        "crates/x/src/util.rs",
        2,
    );
}

#[test]
fn wall_clock_is_quiet_on_instant_arithmetic_without_now() {
    let clean = "fn f(deadline: std::time::Instant, now: std::time::Instant) -> bool {\n    now >= deadline\n}\n";
    assert!(lint_one("crates/x/src/util.rs", clean).is_clean());
}

// -------------------------------------------------------------- ambient-rng

#[test]
fn ambient_rng_fires_on_from_entropy_with_exact_location() {
    let bad = "fn f() {\n    let rng = SmallRng::from_entropy();\n}\n";
    assert_single(
        &lint_one("crates/x/src/util.rs", bad),
        "ambient-rng",
        "crates/x/src/util.rs",
        2,
    );
}

#[test]
fn ambient_rng_fires_on_hash_seeded_random_state() {
    let bad = "use std::collections::hash_map::RandomState;\n";
    assert_single(
        &lint_one("crates/x/src/util.rs", bad),
        "ambient-rng",
        "crates/x/src/util.rs",
        1,
    );
}

#[test]
fn ambient_rng_is_quiet_on_seeded_streams() {
    let clean = "fn f(seed: u64) {\n    let mut rng = SimRng::new(seed);\n    let k = CounterRng::key(seed, 3, 7, 11);\n}\n";
    assert!(lint_one("crates/x/src/util.rs", clean).is_clean());
}

// ----------------------------------------------------------- no-alloc-stage

#[test]
fn no_alloc_fires_inside_annotated_fn_with_exact_location() {
    let bad =
        "// lint: no_alloc\nfn stage(ws: &mut W) {\n    let v = Vec::new();\n    ws.push(v);\n}\n";
    assert_single(
        &lint_one("crates/x/src/util.rs", bad),
        "no-alloc-stage",
        "crates/x/src/util.rs",
        3,
    );
}

#[test]
fn no_alloc_fires_on_collect_and_clone_but_only_inside_the_annotation() {
    let bad = "fn free() -> Vec<u32> {\n    (0..3).collect()\n}\n// lint: no_alloc\nfn stage(xs: &[u32]) -> Vec<u32> {\n    xs.to_vec()\n}\n";
    let report = lint_one("crates/x/src/util.rs", bad);
    // Only the annotated fn is policed: line 2's collect is free code.
    assert_single(&report, "no-alloc-stage", "crates/x/src/util.rs", 6);
}

#[test]
fn no_alloc_is_quiet_on_an_in_place_stage() {
    let clean = "// lint: no_alloc\nfn stage(ws: &mut W) {\n    for slot in ws.slots.iter_mut() {\n        slot.clear();\n    }\n}\nfn elsewhere() {\n    let v = vec![1, 2, 3];\n}\n";
    assert!(lint_one("crates/x/src/util.rs", clean).is_clean());
}

#[test]
fn no_alloc_without_a_following_fn_is_malformed() {
    let bad = "// lint: no_alloc\nconst X: u32 = 3;\n";
    assert_single(
        &lint_one("crates/x/src/util.rs", bad),
        "malformed-pragma",
        "crates/x/src/util.rs",
        1,
    );
}

// --------------------------------------------------------- unsafe-forbidden

#[test]
fn unsafe_forbidden_fires_on_a_crate_root_missing_the_attribute() {
    let bad = "//! Crate docs.\n\npub mod x;\n";
    assert_single(
        &lint_one("crates/x/src/lib.rs", bad),
        "unsafe-forbidden",
        "crates/x/src/lib.rs",
        1,
    );
}

#[test]
fn unsafe_forbidden_checks_binary_roots_but_not_inner_modules() {
    let bad = "fn main() {}\n";
    assert_single(
        &lint_one("crates/x/src/main.rs", bad),
        "unsafe-forbidden",
        "crates/x/src/main.rs",
        1,
    );
    // The same content in a non-root module is not a crate root.
    assert!(lint_one("crates/x/src/inner.rs", bad).is_clean());
}

#[test]
fn unsafe_forbidden_is_quiet_when_the_attribute_is_present() {
    let clean = "//! Crate docs.\n\n#![forbid(unsafe_code)]\n\npub mod x;\n";
    assert!(lint_one("crates/x/src/lib.rs", clean).is_clean());
}

// ------------------------------------------------------- env-knob-registry

/// Builds a `MIDAS_*` knob name at runtime, so the fake knobs these
/// fixtures read do not appear as string literals in *this* file — which
/// the real workspace scan also lints.
fn fake_knob(suffix: &str) -> String {
    format!("{}_{}", "MIDAS", suffix)
}

#[test]
fn env_registry_fires_on_an_undocumented_knob_with_exact_location() {
    let src = format!(
        "fn f() {{\n    let v = std::env::var(\"{}\");\n}}\n",
        fake_knob("MYSTERY_KNOB")
    );
    let readme = "| `MIDAS_THREADS` | engine | workers |\n";
    let report = lint_files(
        &[FileInput {
            path: "crates/x/src/util.rs".to_string(),
            source: src,
        }],
        Some(readme),
    );
    // Two findings: the undocumented read, and the stale table row.
    assert_eq!(report.findings.len(), 2, "{:#?}", report.findings);
    let read = &report.findings[1];
    assert_eq!(
        (read.rule.as_str(), read.file.as_str(), read.line),
        ("env-knob-registry", "crates/x/src/util.rs", 2)
    );
    let stale = &report.findings[0];
    assert_eq!(
        (stale.rule.as_str(), stale.file.as_str(), stale.line),
        ("env-knob-registry", "README.md", 1)
    );
}

#[test]
fn env_registry_is_quiet_when_source_and_table_agree() {
    let src = "const ENV: &str = \"MIDAS_THREADS\";\n";
    let readme = format!(
        "prose mentioning `{}` outside the table\n| `MIDAS_THREADS` | engine | workers |\n",
        fake_knob("UNRELATED")
    );
    let report = lint_files(
        &[FileInput {
            path: "crates/x/src/util.rs".to_string(),
            source: src.to_string(),
        }],
        Some(&readme),
    );
    assert!(report.is_clean(), "{:#?}", report.findings);
    assert_eq!(report.knobs_source, vec!["MIDAS_THREADS".to_string()]);
    assert_eq!(report.knobs_readme, vec!["MIDAS_THREADS".to_string()]);
}

// ------------------------------------------------------------- meta rules

#[test]
fn pragma_without_reason_is_malformed_with_exact_location() {
    let bad = "use std::collections::HashMap; // lint: allow(map-order)\n";
    let report = lint_one("crates/x/src/util.rs", bad);
    // The reasonless pragma does not suppress, so both findings surface.
    assert_eq!(report.findings.len(), 2, "{:#?}", report.findings);
    assert_eq!(report.findings[0].rule, "malformed-pragma");
    assert_eq!(report.findings[0].line, 1);
    assert_eq!(report.findings[1].rule, "map-order");
}

#[test]
fn unused_pragma_is_flagged_as_stale() {
    let bad = "// lint: allow(wall-clock) — stale: the clock read below was removed\nlet x = 1;\n";
    assert_single(
        &lint_one("crates/x/src/util.rs", bad),
        "unused-pragma",
        "crates/x/src/util.rs",
        1,
    );
}

#[test]
fn pragma_on_its_own_line_targets_the_next_code_line() {
    let ok = "// lint: allow(wall-clock) — bench timing\nlet t = Instant::now();\n";
    let report = lint_one("crates/x/src/util.rs", ok);
    assert!(report.is_clean(), "{:#?}", report.findings);
    assert_eq!(report.pragmas.len(), 1);
}

// ---------------------------------------------------------- unreachable-pub

/// Lints several in-memory files together (no README): `unreachable-pub`
/// decides across files.
fn lint_set(files: &[(&str, &str)]) -> Report {
    let inputs: Vec<FileInput> = files
        .iter()
        .map(|(path, source)| FileInput {
            path: path.to_string(),
            source: source.to_string(),
        })
        .collect();
    lint_files(&inputs, None)
}

/// A library file whose `pub fn helper` only its own file calls.
const LIB: &str = "pub fn entry() {\n    helper();\n}\n\npub fn helper() {}\n";

/// A caller of `entry` (and nothing else) in another crate.
const CALLER: &str = "fn run() {\n    x::entry();\n}\n";

#[test]
fn unreachable_pub_fires_on_a_fn_only_its_own_file_calls() {
    let report = lint_set(&[
        ("crates/x/src/util.rs", LIB),
        ("crates/y/src/run.rs", CALLER),
    ]);
    let found: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "unreachable-pub")
        .collect();
    assert_eq!(found.len(), 1, "{:#?}", report.findings);
    assert_eq!(
        (found[0].file.as_str(), found[0].line),
        ("crates/x/src/util.rs", 5)
    );
    assert!(
        found[0].message.starts_with(
            "`pub fn helper` is not used outside `crates/x/src/util.rs`: delete it, or make it private"
        ),
        "{}",
        found[0].message
    );
}

#[test]
fn unreachable_pub_is_quiet_once_another_file_names_the_item() {
    let user = "fn run() {\n    x::entry();\n    let f = x::helper;\n}\n";
    let report = lint_set(&[("crates/x/src/util.rs", LIB), ("crates/y/src/run.rs", user)]);
    assert!(report.is_clean(), "{:#?}", report.findings);
    assert_eq!(report.pub_items, 2);
}

#[test]
fn tests_comments_strings_and_reexports_are_not_uses() {
    let in_cfg_test =
        "fn run() {\n    x::entry();\n}\n\n#[cfg(test)]\nmod tests {\n    fn t() {\n        x::helper();\n    }\n}\n";
    let in_comment = "fn run() {\n    x::entry(); // x::helper() is documented only\n}\n";
    let in_string = "fn run() {\n    x::entry();\n    let s = \"helper\";\n}\n";
    let reexport = "pub use crate::util::{\n    entry,\n    helper,\n};\n";
    for (path, other) in [
        ("crates/y/src/run.rs", in_cfg_test),
        (
            "crates/y/tests/it.rs",
            "fn t() {\n    x::entry();\n    x::helper();\n}\n",
        ),
        ("crates/y/src/run.rs", in_comment),
        ("crates/y/src/run.rs", in_string),
        ("crates/x/src/lib.rs", reexport),
    ] {
        let report = lint_set(&[
            ("crates/x/src/util.rs", LIB),
            (path, other),
            ("src/cli.rs", "fn f() {\n    x::entry();\n}\n"),
        ]);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.rule == "unreachable-pub" && f.line == 5),
            "{path} counted as a use of `helper`:\n{other}"
        );
    }
}

#[test]
fn crate_private_items_and_types_are_not_checked() {
    let lib = "pub(crate) fn inner() {}\npub struct Shape;\npub(crate) const K: u32 = 1;\n";
    let report = lint_set(&[("crates/x/src/util.rs", lib)]);
    assert!(report.is_clean(), "{:#?}", report.findings);
    assert_eq!(report.pub_items, 0);
}

#[test]
fn perfbench_declarations_are_not_checked_but_its_uses_count() {
    let bench = "pub fn report() {}\nfn run() {\n    x::helper();\n    report();\n}\n";
    let lib = "pub fn helper() {}\n";
    let report = lint_set(&[
        ("crates/x/src/util.rs", lib),
        ("perfbench/src/sim.rs", bench),
    ]);
    assert!(report.is_clean(), "{:#?}", report.findings);
    assert_eq!(report.pub_items, 1);
}

#[test]
fn unreachable_pub_pragma_suppresses_and_a_stale_one_is_flagged() {
    let allowed = "pub fn entry() {}\n\n// lint: allow(unreachable-pub) — it_helper.rs checks it\npub fn helper() {}\n";
    let report = lint_set(&[("crates/x/src/util.rs", allowed), ("src/cli.rs", CALLER)]);
    assert!(report.is_clean(), "{:#?}", report.findings);
    assert_eq!(report.pragmas.len(), 1);
    assert_eq!(report.pragmas[0].rule, "unreachable-pub");
    assert_eq!(report.pragmas[0].reason, "it_helper.rs checks it");

    // The same allow on an item another file uses suppresses nothing.
    let stale = "// lint: allow(unreachable-pub) — stale: cli.rs calls it\npub fn entry() {}\n";
    assert_single(
        &lint_set(&[("crates/x/src/util.rs", stale), ("src/cli.rs", CALLER)]),
        "unused-pragma",
        "crates/x/src/util.rs",
        1,
    );
}
