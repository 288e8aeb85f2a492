//! # midas-lint
//!
//! Workspace determinism and hot-path static analysis for the MIDAS
//! reproduction — the source-level enforcement of the invariants every
//! measured claim in this repo rests on: bit-identical results at any
//! thread count, no ambient randomness or wall-clock reads in
//! result-affecting code, no allocating call written in a round-pipeline
//! stage body, `#![forbid(unsafe_code)]` everywhere, a README knob table
//! that matches the `MIDAS_*` variables the code actually reads, and no
//! `pub` item that nothing outside its own file uses.
//!
//! Before this crate those invariants were guarded only by runtime property
//! tests sampling a few configurations; a regression (a `HashMap` iteration
//! feeding a result, a stray `Instant::now` in a stage) could land silently
//! and surface much later as a flaky golden.  `midas-lint` turns each one
//! into a deny-by-default, per-commit, workspace-wide check with an
//! explicit inline allowlist:
//!
//! ```text
//! // lint: allow(<rule>) — <reason>     suppress <rule> on the next line
//! some_code();  // lint: allow(<rule>) — <reason>     …or on this line
//! // lint: no_alloc                     next fn body must not allocate
//! ```
//!
//! Module map: [`scanner`] (the hand-rolled token-level Rust scanner, in
//! the dependency-free style of `svc::json`), [`rules`] (the rule catalog
//! and engine), [`report`] (findings, honored pragmas, console +
//! `lint.json` output).  The `midas-lint` binary wires them to the
//! filesystem and the CI job; [`lint_workspace`] is the programmatic
//! entrypoint the integration tests use.

#![forbid(unsafe_code)]

pub mod report;
pub mod rules;
pub mod scanner;

use report::Report;
use rules::FileInput;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never scanned: build output, vendored third-party API
/// stand-ins (they legitimately read clocks — criterion measures time),
/// and VCS metadata.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git"];

/// Lints the workspace rooted at `root`: every `.rs` file outside
/// `SKIP_DIRS`, plus the README knob table.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for path in workspace_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push(FileInput {
            path: rel,
            source: std::fs::read_to_string(&path)?,
        });
    }
    let readme = std::fs::read_to_string(root.join("README.md")).ok();
    Ok(rules::lint_files(&files, readme.as_deref()))
}

/// Collects every `.rs` file under `root` (outside `SKIP_DIRS` and
/// hidden directories), sorted by path so reports are deterministic.
fn workspace_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if entry.file_type()?.is_dir() {
                if !name.starts_with('.') && !SKIP_DIRS.contains(&name.as_str()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Walks upward from `start` to the first directory holding a `Cargo.toml`
/// that declares `[workspace]` — how the binary finds the workspace root
/// when run from a crate subdirectory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
