//! Findings, honored pragmas, and the two output forms: the human console
//! report and the machine-readable `lint.json` (hand-written like
//! `svc::json` — insertion-order keys, no dependencies).

use crate::rules::RULES;
use std::fmt::Write as _;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule slug (see [`RULES`]).
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// What is wrong and what to do about it.
    pub message: String,
}

/// A pragma that suppressed at least one hit — the reasoned allowlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HonoredPragma {
    /// Rule slug the pragma allows.
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the pragma comment.
    pub line: usize,
    /// The written justification.
    pub reason: String,
}

/// The result of linting a file set.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Functions annotated `// lint: no_alloc` that were checked.
    pub no_alloc_fns: usize,
    /// `pub` items `unreachable-pub` checked.
    pub pub_items: usize,
    /// Violations (empty on a clean tree).
    pub findings: Vec<Finding>,
    /// Pragmas that suppressed a hit, with their reasons.
    pub pragmas: Vec<HonoredPragma>,
    /// Deduplicated, sorted `MIDAS_*` names read in source.
    pub knobs_source: Vec<String>,
    /// Deduplicated, sorted `MIDAS_*` names documented in the README table.
    pub knobs_readme: Vec<String>,
}

impl Report {
    /// `true` when nothing fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Orders findings and pragmas by `(file, line, rule)` so output is a
    /// stable function of the tree.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        self.pragmas
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    }

    /// The human console report: one `file:line: [rule] message` per
    /// finding, then a one-line summary.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
        let _ = writeln!(
            out,
            "midas-lint: {} finding{} across {} files ({} no_alloc fns, {} pub items, {} reasoned pragmas, {} knobs registered)",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.files_scanned,
            self.no_alloc_fns,
            self.pub_items,
            self.pragmas.len(),
            self.knobs_source.len(),
        );
        out
    }

    /// The `lint.json` body.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"tool\":\"midas-lint\"");
        let _ = write!(out, ",\"clean\":{}", self.is_clean());
        let _ = write!(out, ",\"files_scanned\":{}", self.files_scanned);
        let _ = write!(out, ",\"no_alloc_fns\":{}", self.no_alloc_fns);
        out.push_str(",\"rules\":[");
        for (i, (name, description)) in RULES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"description\":{}}}",
                json_str(name),
                json_str(description)
            );
        }
        out.push_str("],\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}}}",
                json_str(&f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.message)
            );
        }
        out.push_str("],\"pragmas\":[");
        for (i, p) in self.pragmas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":{},\"file\":{},\"line\":{},\"reason\":{}}}",
                json_str(&p.rule),
                json_str(&p.file),
                p.line,
                json_str(&p.reason)
            );
        }
        out.push_str("],\"knobs\":{\"source\":[");
        for (i, k) in self.knobs_source.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(k));
        }
        out.push_str("],\"readme\":[");
        for (i, k) in self.knobs_readme.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(k));
        }
        out.push_str("]}}");
        out
    }
}

/// Escapes a string into a JSON string token (same escape set as
/// `svc::json`'s writer: quote, backslash, and control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_escapes_and_round_trips_structure() {
        let mut report = Report {
            files_scanned: 2,
            ..Default::default()
        };
        report.findings.push(Finding {
            rule: "map-order".to_string(),
            file: "a/b.rs".to_string(),
            line: 3,
            message: "uses \"HashMap\"".to_string(),
        });
        let json = report.to_json();
        assert!(json.contains("\"clean\":false"), "{json}");
        assert!(json.contains("\\\"HashMap\\\""), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    }

    #[test]
    fn human_report_formats_file_line_rule() {
        let mut report = Report::default();
        report.findings.push(Finding {
            rule: "wall-clock".to_string(),
            file: "x.rs".to_string(),
            line: 9,
            message: "m".to_string(),
        });
        assert!(report.human().starts_with("x.rs:9: [wall-clock] m"));
    }
}
