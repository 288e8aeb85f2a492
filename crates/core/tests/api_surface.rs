//! Public-API surface snapshot for `midas::sim`.
//!
//! The session API is the crate's public contract: benches, examples and
//! downstream users compose against it.  This test extracts every `pub`
//! item declared in the `sim` module sources and compares the listing
//! against the pinned snapshot below, so an accidental rename, removal or
//! signature-class change (fn → method moves, new exports) fails CI with a
//! readable diff instead of silently breaking downstream callers.
//!
//! To re-pin after a *deliberate* API change: run the test, copy the
//! "actual surface" listing from the failure message into `PINNED`.

/// The sim module sources, bundled at compile time so the test needs no
/// filesystem assumptions.
const SOURCES: &[(&str, &str)] = &[
    ("sim/mod.rs", include_str!("../src/sim/mod.rs")),
    ("sim/session.rs", include_str!("../src/sim/session.rs")),
    ("sim/source.rs", include_str!("../src/sim/source.rs")),
    ("sim/spec.rs", include_str!("../src/sim/spec.rs")),
];

/// The pinned `midas::sim` surface: one `file: kind name` row per public
/// item, in declaration order.
const PINNED: &[&str] = &[
    "sim/mod.rs: use session::{PairedSamples, Session, SessionBuilder, SessionSeries, SessionTrial}",
    "sim/mod.rs: use source::{PairedRecipe, TopologySource}",
    "sim/mod.rs: use spec::{ExperimentOutput, ExperimentSpec, LoadGainRow}",
    "sim/mod.rs: use midas_net::capture::{ContentionModel, PhysicalConfig}",
    "sim/mod.rs: use midas_net::dynamics::{DynamicsSpec, MobilityModel, ReassociationSpec}",
    "sim/mod.rs: use midas_net::observer::{Accumulate, Observer, RoundRecord, RunningSummary, Tee}",
    "sim/mod.rs: use midas_net::simulator::{MacKind, StageTimings}",
    "sim/mod.rs: use midas_net::traffic::TrafficKind",
    "sim/session.rs: struct PairedSamples",
    "sim/session.rs: fn from_pairs",
    "sim/session.rs: fn from_groups",
    "sim/session.rs: struct SessionSeries",
    "sim/session.rs: struct SessionBuilder",
    "sim/session.rs: fn new",
    "sim/session.rs: fn contention",
    "sim/session.rs: fn traffic",
    "sim/session.rs: fn rounds",
    "sim/session.rs: fn tag_width",
    "sim/session.rs: fn coherence_interval_rounds",
    "sim/session.rs: fn stage_profiling",
    "sim/session.rs: fn dynamics",
    "sim/session.rs: fn seed_mix",
    "sim/session.rs: fn threads",
    "sim/session.rs: fn build",
    "sim/session.rs: struct Session",
    "sim/session.rs: fn source",
    "sim/session.rs: fn sweep",
    "sim/session.rs: fn trial",
    "sim/session.rs: fn run",
    "sim/session.rs: fn run_trials",
    "sim/session.rs: fn stream",
    "sim/session.rs: struct SessionTrial",
    "sim/session.rs: fn index",
    "sim/session.rs: fn seed",
    "sim/session.rs: fn pair",
    "sim/session.rs: fn config",
    "sim/session.rs: fn simulator",
    "sim/session.rs: fn simulate",
    "sim/session.rs: fn observe",
    "sim/source.rs: trait TopologySource",
    "sim/source.rs: struct PairedRecipe",
    "sim/source.rs: fn single_ap",
    "sim/source.rs: fn three_ap",
    "sim/source.rs: fn three_ap_paper",
    "sim/source.rs: fn eight_ap_paper",
    "sim/spec.rs: enum ExperimentSpec",
    "sim/spec.rs: fn fig03",
    "sim/spec.rs: fn fig07",
    "sim/spec.rs: fn fig08_09",
    "sim/spec.rs: fn fig10",
    "sim/spec.rs: fn fig11",
    "sim/spec.rs: fn fig12",
    "sim/spec.rs: fn fig13",
    "sim/spec.rs: fn sec534",
    "sim/spec.rs: fn fig14",
    "sim/spec.rs: fn fig15",
    "sim/spec.rs: fn fig16",
    "sim/spec.rs: fn name",
    "sim/spec.rs: fn run",
    "sim/spec.rs: fn session_builder",
    "sim/spec.rs: fn run_session",
    "sim/spec.rs: struct LoadGainRow",
    "sim/spec.rs: enum ExperimentOutput",
    "sim/spec.rs: fn expect_paired",
    "sim/spec.rs: fn expect_smart_precoding",
    "sim/spec.rs: fn expect_ratios",
    "sim/spec.rs: fn expect_deadzones",
    "sim/spec.rs: fn expect_hidden_terminals",
    "sim/spec.rs: fn expect_end_to_end",
    "sim/spec.rs: fn expect_calibration",
    "sim/spec.rs: fn expect_enterprise",
    "sim/spec.rs: fn expect_load_vs_gain",
    "sim/spec.rs: fn expect_tag_width",
    "sim/spec.rs: fn expect_das_radius",
    "sim/spec.rs: fn expect_antenna_wait",
];

/// Extracts `kind name` for every `pub` declaration in a source file, in
/// order.  Test modules (`#[cfg(test)] mod tests`) are skipped by virtue of
/// containing no `pub` items.
fn public_items(source: &str) -> Vec<String> {
    let mut out = Vec::new();
    for raw in source.lines() {
        let line = raw.trim_start();
        let Some(rest) = line.strip_prefix("pub ") else {
            continue;
        };
        let (kind, after) = match [
            "fn", "struct", "enum", "trait", "mod", "const", "type", "use",
        ]
        .iter()
        .find_map(|k| rest.strip_prefix(&format!("{k} ")).map(|a| (*k, a)))
        {
            Some(found) => found,
            None => continue,
        };
        let name: String = if kind == "use" {
            // Re-exports: keep the whole path (trailing semicolon dropped)
            // so added/removed names inside a brace list show up too.
            after.trim_end().trim_end_matches(';').to_string()
        } else {
            after
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect()
        };
        if name.is_empty() {
            continue;
        }
        out.push(format!("{kind} {name}"));
    }
    out
}

#[test]
fn sim_api_surface_matches_the_pinned_snapshot() {
    let actual: Vec<String> = SOURCES
        .iter()
        .flat_map(|(file, source)| {
            public_items(source)
                .into_iter()
                .map(move |item| format!("{file}: {item}"))
        })
        .collect();
    let pinned: Vec<String> = PINNED.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        actual,
        pinned,
        "\nmidas::sim public surface changed.  If deliberate, re-pin the snapshot in \
         crates/core/tests/api_surface.rs.\n\nactual surface:\n{}\n",
        actual
            .iter()
            .map(|l| format!("    {l:?},"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn extractor_sees_every_declaration_kind() {
    let sample = r#"
pub struct Foo;
impl Foo {
    pub fn bar(&self) {}
    fn private(&self) {}
}
pub trait Baz {
    fn method(&self);
}
pub use other::{A, B};
pub const X: usize = 1;
mod tests {
    fn hidden() {}
}
"#;
    assert_eq!(
        public_items(sample),
        vec![
            "struct Foo",
            "fn bar",
            "trait Baz",
            "use other::{A, B}",
            "const X",
        ]
    );
}
