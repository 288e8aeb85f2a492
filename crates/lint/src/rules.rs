//! The rule catalog and the engine that applies it to a set of files.
//!
//! Every rule is deny-by-default: a hit is a [`Finding`] unless an inline
//! `// lint: allow(<rule>) — <reason>` pragma targets exactly that line.
//! Pragmas are themselves checked — a pragma without a reason is a
//! `malformed-pragma` finding, and a pragma that suppresses nothing is an
//! `unused-pragma` finding, so the allowlist cannot rot silently.
//!
//! What each rule guards (see the README "Static analysis" section for the
//! prose version):
//!
//! * `map-order` — no `HashMap`/`HashSet` anywhere in the workspace.
//!   Their iteration order is seeded per-process; one ordered iteration
//!   feeding a result breaks the bit-identity contract every golden test
//!   and the svc content-addressed cache rely on.  Scheduling-side uses
//!   (job registries, GC liveness sets) carry reasoned pragmas.
//! * `wall-clock` — no `Instant::now`/`SystemTime::now` outside profiling,
//!   deadline bookkeeping and bench timing (all pragma'd): a clock read in
//!   result-affecting code is a hidden input.
//! * `ambient-rng` — no entropy-seeded or hash-seeded randomness
//!   (`from_entropy`, `thread_rng`, `OsRng`, `getrandom`, `RandomState`,
//!   `rand::random`): all randomness must flow through the explicitly
//!   seeded `SimRng`/`CounterRng` streams.
//! * `no-alloc-stage` — a function annotated `// lint: no_alloc` may not
//!   call `Vec::new`/`vec!`/`Box::new`/`to_vec`/`collect`/`clone`/
//!   `to_owned`/`to_string`/`String::new`/`format!`.  The seven round-
//!   pipeline stage functions carry the annotation.  The check is
//!   token-level and cannot see into callees, so it does not make a round
//!   allocation-free: the helpers a stage calls still allocate (ROADMAP
//!   item 4).
//! * `unsafe-forbidden` — every crate root must carry
//!   `#![forbid(unsafe_code)]`.
//! * `env-knob-registry` — every `MIDAS_*` name appearing in a source
//!   string literal must have a row in the README knob table, and every
//!   table row must correspond to a name actually read in source.  No
//!   `env::var`/`env::var_os` call may appear outside the one knob reader
//!   (`midas::runner`, in `crates/core/src/runner.rs`), so every knob
//!   parses one way.
//! * `unreachable-pub` — every `pub fn`/`pub const fn`/`pub const`/
//!   `pub static` declared in the non-test code of `crates/*/src/` must be
//!   named by the non-test code of another file.  Test code (`tests/`
//!   directories, everything after a column-0 `#[cfg(test)]`) and
//!   `pub use` re-exports do not count as uses.  Names are matched as bare
//!   identifiers, so a collision can hide a finding but never invent one.

use crate::report::{Finding, HonoredPragma, Report};
use crate::scanner::{scan, Pragma, PragmaKind, Scan};
use std::collections::BTreeSet;

/// `(name, one-line description)` of every rule, meta-rules included —
/// the source of truth for `--list-rules` and the JSON report.
pub const RULES: &[(&str, &str)] = &[
    (
        "map-order",
        "no HashMap/HashSet — iteration order is per-process and breaks bit-identity",
    ),
    (
        "wall-clock",
        "no Instant::now/SystemTime::now outside pragma'd profiling/deadline/bench sites",
    ),
    (
        "ambient-rng",
        "no entropy- or hash-seeded randomness; all RNG flows through seeded SimRng/CounterRng",
    ),
    (
        "no-alloc-stage",
        "functions annotated `// lint: no_alloc` may not allocate (Vec::new, vec!, Box::new, to_vec, collect, clone, ...)",
    ),
    (
        "unsafe-forbidden",
        "every crate root must carry #![forbid(unsafe_code)]",
    ),
    (
        "env-knob-registry",
        "every MIDAS_* env knob read in source must be in the README knob table, and vice versa; only midas::runner reads the environment",
    ),
    (
        "unreachable-pub",
        "every pub fn/const/static under crates/*/src must be named by another file's non-test code",
    ),
    (
        "malformed-pragma",
        "a `// lint:` comment that does not parse, names an unknown rule, or lacks a reason",
    ),
    (
        "unused-pragma",
        "a `// lint: allow(...)` that suppresses nothing (stale allowlist entry)",
    ),
];

/// Identifiers banned everywhere by `map-order`.
const MAP_ORDER_IDENTS: &[&str] = &["HashMap", "HashSet"];

/// Call paths banned everywhere by `wall-clock`.
const WALL_CLOCK_PATTERNS: &[&str] = &["Instant::now", "SystemTime::now"];

/// Identifiers/paths banned everywhere by `ambient-rng`.
const AMBIENT_RNG_PATTERNS: &[&str] = &[
    "from_entropy",
    "thread_rng",
    "OsRng",
    "getrandom",
    "RandomState",
    "rand::random",
];

/// Call patterns banned inside `// lint: no_alloc` function bodies.
const NO_ALLOC_PATTERNS: &[&str] = &[
    "Vec::new",
    "vec!",
    "Box::new",
    ".to_vec",
    ".collect",
    ".clone",
    ".to_owned",
    ".to_string",
    "String::new",
    "format!",
];

/// The attribute every crate root must carry.
const FORBID_UNSAFE: &str = "#![forbid(unsafe_code)]";

/// Environment reads `env-knob-registry` allows only in [`KNOB_READER`].
const ENV_READ_PATTERNS: &[&str] = &["env::var", "env::var_os"];

/// The one file that may read the environment: the `MIDAS_*` knob reader.
const KNOB_READER: &str = "crates/core/src/runner.rs";

/// One file handed to the engine: a workspace-relative path (used in
/// findings and for crate-root classification) and its source text.
#[derive(Debug, Clone)]
pub struct FileInput {
    /// Workspace-relative path with `/` separators, e.g. `crates/net/src/lib.rs`.
    pub path: String,
    /// Full source text.
    pub source: String,
}

/// Lints a set of in-memory files (plus, optionally, the README for the
/// env-knob registry check).  [`crate::lint_workspace`] is the disk-walking
/// wrapper; fixture tests call this directly.
pub fn lint_files(files: &[FileInput], readme: Option<&str>) -> Report {
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    let scans: Vec<Scan> = files.iter().map(|f| scan(&f.source)).collect();
    // What each file's non-test code names: the uses `unreachable-pub` sees.
    let uses: Vec<BTreeSet<&str>> = files
        .iter()
        .zip(&scans)
        .map(|(file, scanned)| used_idents(&file.path, scanned))
        .collect();
    // (knob, file, line) of the first sighting of each MIDAS_* literal.
    let mut knob_sites: Vec<(String, String, usize)> = Vec::new();

    for (i, (file, scanned)) in files.iter().zip(&scans).enumerate() {
        let mut candidates = Vec::new();
        for (line, kind, name) in pub_items(&file.path, scanned) {
            report.pub_items += 1;
            let used_elsewhere = uses
                .iter()
                .enumerate()
                .any(|(j, idents)| j != i && idents.contains(name));
            if !used_elsewhere {
                candidates.push(finding(
                    "unreachable-pub",
                    &file.path,
                    line,
                    format!(
                        "`pub {kind} {name}` is not used outside `{}`: delete it, or make it private if this file uses it",
                        file.path
                    ),
                ));
            }
        }
        lint_one_file(file, scanned, candidates, &mut report);
        for (line, text) in &scanned.strings {
            for knob in midas_tokens(text) {
                if !knob_sites.iter().any(|(k, _, _)| *k == knob) {
                    knob_sites.push((knob, file.path.clone(), *line));
                }
            }
        }
    }

    knob_sites.sort();
    check_env_registry(&knob_sites, readme, &mut report);
    report.sort();
    report
}

/// Applies the per-file rules (everything except the env-knob registry)
/// and pragma suppression; `candidates` holds this file's cross-file
/// findings, found before suppression.
fn lint_one_file(
    file: &FileInput,
    scanned: &Scan,
    mut candidates: Vec<Finding>,
    report: &mut Report,
) {
    for (idx, code) in scanned.code.iter().enumerate() {
        let line = idx + 1;
        for ident in MAP_ORDER_IDENTS {
            if contains_pattern(code, ident) {
                candidates.push(finding("map-order", &file.path, line, format!(
                    "`{ident}` has per-process iteration order; use Vec/BTreeMap/BTreeSet or pragma a scheduling-side use"
                )));
            }
        }
        for pat in WALL_CLOCK_PATTERNS {
            if contains_pattern(code, pat) {
                candidates.push(finding("wall-clock", &file.path, line, format!(
                    "`{pat}` reads the wall clock; result-affecting code must not — pragma profiling/deadline/bench sites"
                )));
            }
        }
        for pat in AMBIENT_RNG_PATTERNS {
            if contains_pattern(code, pat) {
                candidates.push(finding("ambient-rng", &file.path, line, format!(
                    "`{pat}` draws ambient randomness; all randomness must flow through seeded SimRng/CounterRng streams"
                )));
            }
        }
        for pat in ENV_READ_PATTERNS {
            if file.path != KNOB_READER && contains_pattern(code, pat) {
                candidates.push(finding("env-knob-registry", &file.path, line, format!(
                    "`{pat}` reads the environment outside the knob reader; use `midas::runner::{{knob, knob_list, knob_path}}`"
                )));
            }
        }
    }

    // `no_alloc`-annotated function bodies.
    for pragma in &scanned.pragmas {
        if pragma.kind != PragmaKind::NoAlloc {
            continue;
        }
        match no_alloc_body(scanned, pragma) {
            Some((open, close)) => {
                report.no_alloc_fns += 1;
                for idx in open..close.min(scanned.code.len()) {
                    let code = &scanned.code[idx];
                    for pat in NO_ALLOC_PATTERNS {
                        if contains_pattern(code, pat) {
                            candidates.push(finding("no-alloc-stage", &file.path, idx + 1, format!(
                                "`{pat}` allocates inside a `// lint: no_alloc` stage function (annotated at line {})",
                                pragma.line
                            )));
                        }
                    }
                }
            }
            None => report.findings.push(finding(
                "malformed-pragma",
                &file.path,
                pragma.line,
                "`lint: no_alloc` is not followed by a function".to_string(),
            )),
        }
    }

    // Crate roots must forbid unsafe code.
    if is_crate_root(&file.path) && !scanned.code.iter().any(|c| c.contains(FORBID_UNSAFE)) {
        candidates.push(finding(
            "unsafe-forbidden",
            &file.path,
            1,
            format!("crate root is missing `{FORBID_UNSAFE}`"),
        ));
    }

    // Pragma suppression: an allow(rule) pragma kills candidates of that
    // rule on its target line, and is recorded as honored.
    let allows: Vec<(&Pragma, &str, usize)> = scanned
        .pragmas
        .iter()
        .filter_map(|p| match &p.kind {
            PragmaKind::Allow(rule) => Some((p, rule.as_str(), scanned.pragma_target(p))),
            PragmaKind::NoAlloc => None,
        })
        .collect();
    let mut used = vec![false; allows.len()];
    for cand in candidates {
        let hit = allows
            .iter()
            .position(|(_, rule, target)| *rule == cand.rule && *target == cand.line);
        match hit {
            Some(i) => used[i] = true,
            None => report.findings.push(cand),
        }
    }
    for (i, (pragma, rule, target)) in allows.iter().enumerate() {
        if used[i] {
            report.pragmas.push(HonoredPragma {
                rule: rule.to_string(),
                file: file.path.clone(),
                line: pragma.line,
                reason: pragma.reason.clone(),
            });
        } else {
            report.findings.push(finding(
                "unused-pragma",
                &file.path,
                pragma.line,
                format!("`lint: allow({rule})` suppresses nothing on line {target} — delete it"),
            ));
        }
    }
    for bad in &scanned.bad_pragmas {
        report.findings.push(finding(
            "malformed-pragma",
            &file.path,
            bad.line,
            bad.message.clone(),
        ));
    }
}

/// Locates the body of the function a `no_alloc` pragma annotates:
/// `(open_idx, close_idx)` as 0-based line indices spanning `{`..=`}`.
fn no_alloc_body(scanned: &Scan, pragma: &Pragma) -> Option<(usize, usize)> {
    // Find the `fn` line at or after the pragma (doc comments in between
    // scan as blank code lines; attributes are code and are skipped over).
    let fn_idx = (pragma.line - 1..scanned.code.len())
        .find(|&i| contains_pattern(&scanned.code[i], "fn"))?;
    // Find the opening brace, then match it.
    let mut depth = 0i32;
    let mut open = None;
    for i in fn_idx..scanned.code.len() {
        for c in scanned.code[i].chars() {
            match c {
                '{' => {
                    if open.is_none() {
                        open = Some(i);
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if let Some(o) = open {
                        if depth == 0 {
                            return Some((o, i + 1));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    open.map(|o| (o, scanned.code.len()))
}

/// `true` when `path` is a crate root (`src/lib.rs`, `src/main.rs`, or the
/// same under `crates/<name>/`): the files `unsafe-forbidden` checks.
fn is_crate_root(path: &str) -> bool {
    let parts: Vec<&str> = path.split('/').collect();
    match parts.as_slice() {
        ["src", f] => *f == "lib.rs" || *f == "main.rs",
        ["crates", _, "src", f] => *f == "lib.rs" || *f == "main.rs",
        _ => false,
    }
}

/// The 0-based index of the first column-0 `#[cfg(test)]` line: where a
/// file's test code starts (its length when it has none).
fn test_boundary(scanned: &Scan) -> usize {
    scanned
        .code
        .iter()
        .position(|c| c.starts_with("#[cfg(test)]"))
        .unwrap_or(scanned.code.len())
}

/// `true` for files under a `tests/` directory: test code throughout.
fn is_test_file(path: &str) -> bool {
    path.split('/').any(|part| part == "tests")
}

/// The identifiers of one code line.  Lifetimes (`'a`), blanked char
/// literals and numeric literals (`1e3f64`) are not identifiers.
fn idents(code: &str) -> Vec<&str> {
    code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '\''))
        .filter(|t| t.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
        .collect()
}

/// The identifiers a file's non-test code names, minus declaration names
/// (the identifier after `fn`, `const` or `static`) and `pub use`
/// statements: a re-export forwards a name, it does not use it.  Files
/// under `tests/` name nothing.
fn used_idents<'a>(path: &str, scanned: &'a Scan) -> BTreeSet<&'a str> {
    let mut out = BTreeSet::new();
    if is_test_file(path) {
        return out;
    }
    let mut in_pub_use = false;
    for code in &scanned.code[..test_boundary(scanned)] {
        let words: Vec<&str> = code.split_whitespace().collect();
        in_pub_use |= words.windows(2).any(|w| w == ["pub", "use"]);
        if in_pub_use {
            in_pub_use = !code.contains(';');
            continue;
        }
        let toks = idents(code);
        for (k, tok) in toks.iter().enumerate() {
            if k == 0 || !matches!(toks[k - 1], "fn" | "const" | "static") {
                out.insert(*tok);
            }
        }
    }
    out
}

/// The `pub fn`, `pub const fn`, `pub const` and `pub static` items a file
/// declares in its non-test code, as `(1-based line, kind, name)`.  Only
/// library sources under `crates/*/src/` are checked; `pub(crate)` (one
/// word, so it never matches), `pub use` and types are not.
fn pub_items<'a>(path: &str, scanned: &'a Scan) -> Vec<(usize, &'static str, &'a str)> {
    let mut out = Vec::new();
    let parts: Vec<&str> = path.split('/').collect();
    if !matches!(parts[..], ["crates", _, "src", ..]) || is_test_file(path) {
        return out;
    }
    for (idx, code) in scanned.code[..test_boundary(scanned)].iter().enumerate() {
        let words: Vec<&str> = code.split_whitespace().collect();
        for k in 0..words.len() {
            let (kind, word) = match words[k..] {
                ["pub", "fn", word, ..] => ("fn", word),
                ["pub", "const", "fn", word, ..] => ("const fn", word),
                ["pub", "const", word, ..] => ("const", word),
                ["pub", "static", word, ..] => ("static", word),
                _ => continue,
            };
            if let Some(&name) = idents(word).first() {
                out.push((idx + 1, kind, name));
            }
        }
    }
    out
}

/// Substring search requiring non-identifier characters on both sides of
/// the match, so `HashMap` does not fire on `MyHashMapLike` and `fn` does
/// not fire on `fn_ptr`.  Pattern characters themselves may be `:`/`.`/`!`.
fn contains_pattern(code: &str, pattern: &str) -> bool {
    let bytes = code.as_bytes();
    let pat = pattern.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(pattern) {
        let start = from + pos;
        let end = start + pat.len();
        // A pattern edge that is itself a non-identifier char (`.collect`,
        // `vec!`) already breaks identifiers on that side.
        let left_ok = !is_ident(pat[0]) || start == 0 || !is_ident(bytes[start - 1]);
        let right_ok = !is_ident(pat[pat.len() - 1]) || end >= bytes.len() || !is_ident(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

/// Extracts every `MIDAS_<UPPER>` token from a string-literal body.
fn midas_tokens(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find("MIDAS_") {
        let start = from + pos;
        let mut end = start + "MIDAS_".len();
        while end < bytes.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        // Require at least one character beyond the prefix, and a
        // non-identifier on the left (so `NOT_MIDAS_X` does not match).
        let left_ok =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        if end > start + "MIDAS_".len() && left_ok {
            out.push(text[start..end].to_string());
        }
        from = end.max(start + 1);
    }
    out
}

/// The README label used in env-knob-registry findings.
const README_PATH: &str = "README.md";

/// Diffs the `MIDAS_*` knobs read in source against the README knob table
/// (the rows of the markdown table in the "`MIDAS_*` environment knobs"
/// section — any README line starting with `|`).
fn check_env_registry(
    knob_sites: &[(String, String, usize)],
    readme: Option<&str>,
    report: &mut Report,
) {
    report.knobs_source = knob_sites.iter().map(|(k, _, _)| k.clone()).collect();
    let Some(readme) = readme else {
        return;
    };
    // (knob, 1-based README line) from table rows.
    let mut documented: Vec<(String, usize)> = Vec::new();
    for (idx, line) in readme.lines().enumerate() {
        if !line.trim_start().starts_with('|') {
            continue;
        }
        for knob in midas_tokens(line) {
            if !documented.iter().any(|(k, _)| *k == knob) {
                documented.push((knob, idx + 1));
            }
        }
    }
    documented.sort();
    report.knobs_readme = documented.iter().map(|(k, _)| k.clone()).collect();

    for (knob, file, line) in knob_sites {
        if !documented.iter().any(|(k, _)| k == knob) {
            report.findings.push(finding(
                "env-knob-registry",
                file,
                *line,
                format!("`{knob}` is read here but has no row in the README `MIDAS_*` knob table"),
            ));
        }
    }
    for (knob, line) in &documented {
        if !knob_sites.iter().any(|(k, _, _)| k == knob) {
            report.findings.push(finding(
                "env-knob-registry",
                README_PATH,
                *line,
                format!("`{knob}` is documented in the README knob table but never read in source"),
            ));
        }
    }
}

/// Shorthand constructor.
fn finding(rule: &str, file: &str, line: usize, message: String) -> Finding {
    Finding {
        rule: rule.to_string(),
        file: file.to_string(),
        line,
        message,
    }
}
