//! Figure sinks: render a [`Figure`] to the console and to diffable files.
//!
//! Three sinks implement the [`Sink`] trait:
//!
//! * [`StdoutSink`] — the classic console report (labelled CDF rows, summary
//!   statistics, TSV tables), always on.
//! * [`CsvSink`] — one CSV file per CDF / table block, full float precision,
//!   so regenerated curves can be diffed against the paper's published ones.
//! * [`JsonSink`] — one `<figure>.json` per figure with every block plus
//!   summary statistics, for programmatic consumers.
//!
//! File sinks are selected at run time: set `MIDAS_FIGURE_DIR=<dir>` or pass
//! `--figure-dir <dir>` to the bench binary (after `--` when invoked through
//! `cargo bench`).  An empty value, or the bare `--figure-dir` flag, selects
//! the workspace default `target/figures/`.

use crate::figure::{Block, Cell, Figure};
use midas_net::metrics::Cdf;
use midas_svc::json::Json;
use std::ffi::OsStr;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Environment variable selecting the figure output directory.
const FIGURE_DIR_ENV: &str = "MIDAS_FIGURE_DIR";

/// A destination figures can be rendered to.
pub trait Sink {
    /// Renders one figure.
    fn emit(&mut self, figure: &Figure) -> io::Result<()>;
}

/// Console sink: reproduces the classic bench report format.
pub struct StdoutSink;

impl Sink for StdoutSink {
    fn emit(&mut self, figure: &Figure) -> io::Result<()> {
        let out = io::stdout();
        let mut w = out.lock();
        for block in &figure.blocks {
            match block {
                Block::Cdf { label, samples } => {
                    let cdf = Cdf::new(samples);
                    writeln!(w, "# CDF: {label} (n={})", cdf.len())?;
                    write!(w, "{}", cdf.to_rows(25))?;
                    writeln!(
                        w,
                        "# {label}: median={:.3} mean={:.3} p10={:.3} p90={:.3}",
                        cdf.median(),
                        cdf.mean(),
                        cdf.quantile(0.1),
                        cdf.quantile(0.9)
                    )?;
                }
                Block::Gain {
                    label,
                    baseline_median,
                    improved_median,
                } => {
                    writeln!(
                        w,
                        "# {label}: baseline median={:.3}, MIDAS median={:.3}, median gain={:.1}%",
                        baseline_median,
                        improved_median,
                        (improved_median / baseline_median - 1.0) * 100.0
                    )?;
                }
                Block::Table(table) => {
                    writeln!(w, "# {}: {}", table.name, table.columns.join("\t"))?;
                    for row in &table.rows {
                        let cells: Vec<String> = row.iter().map(Cell::display).collect();
                        writeln!(w, "{}", cells.join("\t"))?;
                    }
                }
                Block::Note(text) => writeln!(w, "# {text}")?,
            }
        }
        Ok(())
    }
}

/// CSV sink: one file per CDF / table block under the selected directory.
pub struct CsvSink {
    dir: PathBuf,
}

impl CsvSink {
    /// A CSV sink writing into `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CsvSink { dir: dir.into() }
    }
}

impl Sink for CsvSink {
    fn emit(&mut self, figure: &Figure) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let mut summary = String::new();
        for block in &figure.blocks {
            match block {
                Block::Cdf { label, samples } => {
                    let mut csv = String::from("value,cum_prob\n");
                    for (v, p) in Cdf::new(samples).points() {
                        csv.push_str(&format!("{v:?},{p:?}\n"));
                    }
                    let path = self
                        .dir
                        .join(format!("{}.{}.csv", figure.name, slug(label)));
                    fs::write(path, csv)?;
                }
                Block::Table(table) => {
                    let mut csv = table.columns.join(",");
                    csv.push('\n');
                    for row in &table.rows {
                        let cells: Vec<String> = row
                            .iter()
                            .map(|c| csv_escape(&c.full_precision()))
                            .collect();
                        csv.push_str(&cells.join(","));
                        csv.push('\n');
                    }
                    let path = self
                        .dir
                        .join(format!("{}.{}.csv", figure.name, slug(&table.name)));
                    fs::write(path, csv)?;
                }
                Block::Gain {
                    label,
                    baseline_median,
                    improved_median,
                } => {
                    if summary.is_empty() {
                        summary.push_str("label,baseline_median,improved_median,gain_pct\n");
                    }
                    summary.push_str(&format!(
                        "{},{baseline_median:?},{improved_median:?},{:?}\n",
                        csv_escape(label),
                        (improved_median / baseline_median - 1.0) * 100.0
                    ));
                }
                Block::Note(_) => {}
            }
        }
        if !summary.is_empty() {
            fs::write(
                self.dir.join(format!("{}.summary.csv", figure.name)),
                summary,
            )?;
        }
        Ok(())
    }
}

/// JSON sink: one `<figure>.json` per figure.
pub struct JsonSink {
    dir: PathBuf,
}

impl JsonSink {
    /// A JSON sink writing into `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JsonSink { dir: dir.into() }
    }
}

impl Sink for JsonSink {
    fn emit(&mut self, figure: &Figure) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        fs::write(
            self.dir.join(format!("{}.json", figure.name)),
            figure_json(figure),
        )
    }
}

/// Lower-cases and squashes every non-alphanumeric run to `_`, for file
/// names derived from block labels.
pub fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut last_sep = true;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            last_sep = false;
        } else if !last_sep {
            out.push('_');
            last_sep = true;
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Renders the whole figure as a JSON document.
fn figure_json(figure: &Figure) -> String {
    let text = |s: &str| Json::Str(s.to_string());
    let blocks = figure.blocks.iter().map(|block| match block {
        Block::Cdf { label, samples } => {
            let cdf = Cdf::new(samples);
            // An empty CDF has no statistics (its quantiles panic).
            let stat = |f: fn(&Cdf) -> f64| {
                if cdf.is_empty() {
                    Json::Null
                } else {
                    Json::Num(f(&cdf))
                }
            };
            Json::Obj(vec![
                ("kind".into(), text("cdf")),
                ("label".into(), text(label)),
                ("n".into(), Json::UInt(cdf.len() as u64)),
                ("median".into(), stat(Cdf::median)),
                ("mean".into(), stat(Cdf::mean)),
                ("p10".into(), stat(|c| c.quantile(0.1))),
                ("p90".into(), stat(|c| c.quantile(0.9))),
                (
                    "samples".into(),
                    Json::Arr(samples.iter().map(|&v| Json::Num(v)).collect()),
                ),
            ])
        }
        Block::Gain {
            label,
            baseline_median,
            improved_median,
        } => Json::Obj(vec![
            ("kind".into(), text("gain")),
            ("label".into(), text(label)),
            ("baseline_median".into(), Json::Num(*baseline_median)),
            ("improved_median".into(), Json::Num(*improved_median)),
            (
                "gain_pct".into(),
                Json::Num((improved_median / baseline_median - 1.0) * 100.0),
            ),
        ]),
        Block::Table(table) => Json::Obj(vec![
            ("kind".into(), text("table")),
            ("name".into(), text(&table.name)),
            (
                "columns".into(),
                Json::Arr(table.columns.iter().map(|c| text(c)).collect()),
            ),
            (
                "rows".into(),
                Json::Arr(
                    table
                        .rows
                        .iter()
                        .map(|row| Json::Arr(row.iter().map(cell_json).collect()))
                        .collect(),
                ),
            ),
        ]),
        Block::Note(note) => Json::Obj(vec![
            ("kind".into(), text("note")),
            ("text".into(), text(note)),
        ]),
    });
    let document = Json::Obj(vec![
        ("figure".into(), text(&figure.name)),
        ("seed".into(), figure.seed.map_or(Json::Null, Json::UInt)),
        ("blocks".into(), Json::Arr(blocks.collect())),
    ]);
    document.write_compact() + "\n"
}

/// A table cell as JSON.  JSON has no signed-integer form in
/// [`Json`], so a negative count would be written as a float (`-3.0`).
fn cell_json(cell: &Cell) -> Json {
    match cell {
        Cell::Num(v) => Json::Num(*v),
        Cell::Int(v) => u64::try_from(*v).map_or(Json::Num(*v as f64), Json::UInt),
        Cell::Text(v) => Json::Str(v.clone()),
    }
}

/// The workspace-level default output directory, `<workspace>/target/figures`.
///
/// Resolved from this crate's compile-time manifest path so it lands in the
/// workspace `target/` no matter which directory the bench binary runs from
/// (`cargo bench` sets the bench's working directory to the *crate* root).
fn default_figure_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels below the workspace root")
        .join("target")
        .join("figures")
}

/// Resolves the figure directory from explicit CLI args and the environment;
/// pure helper behind [`figure_dir`], separated for testability.
///
/// Precedence: `--figure-dir` flag, then `MIDAS_FIGURE_DIR` (an OS
/// string).  A flag or variable present with an empty value selects
/// [`default_figure_dir`].
fn figure_dir_from<I: IntoIterator<Item = String>>(
    args: I,
    env_value: Option<PathBuf>,
) -> Option<PathBuf> {
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        if let Some(value) = arg.strip_prefix("--figure-dir=") {
            return Some(dir_or_default(value));
        }
        if arg == "--figure-dir" {
            // Bare flag, or flag followed by another option: default dir.
            let value = match args.peek() {
                Some(next) if !next.starts_with("--") => args.next().unwrap(),
                _ => String::new(),
            };
            return Some(dir_or_default(&value));
        }
    }
    env_value.map(dir_or_default)
}

fn dir_or_default(value: impl AsRef<OsStr>) -> PathBuf {
    let value = value.as_ref();
    if value.to_str().is_some_and(|v| v.trim().is_empty()) {
        default_figure_dir()
    } else {
        PathBuf::from(value)
    }
}

/// The figure directory selected for this process, if any.
pub fn figure_dir() -> Option<PathBuf> {
    figure_dir_from(
        std::env::args().skip(1),
        midas::runner::knob_path(FIGURE_DIR_ENV),
    )
}

/// Emits `figure` to the configured sinks: stdout (unless suppressed) plus
/// CSV and JSON files when a figure directory is selected.  File-sink errors
/// are reported to stderr but never abort the bench.
pub fn emit_to_configured(figure: &Figure, with_stdout: bool) {
    if with_stdout {
        if let Err(e) = StdoutSink.emit(figure) {
            eprintln!("# figures: stdout sink failed: {e}");
        }
    }
    if let Some(dir) = figure_dir() {
        let result = CsvSink::new(&dir)
            .emit(figure)
            .and_then(|()| JsonSink::new(&dir).emit(figure));
        match result {
            Ok(()) => println!(
                "# figures: wrote {}/{}.json (+ csv)",
                dir.display(),
                figure.name
            ),
            Err(e) => eprintln!("# figures: file sink failed under {}: {e}", dir.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure::Table;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("midas_sink_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_figure() -> Figure {
        let mut fig = Figure::new("fig_test").with_seed(7);
        fig.cdf("capacity CAS (bit/s/Hz)", &[3.0, 1.0, 2.0]);
        fig.gain("headline", &[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]);
        let mut t = Table::new("per_topology", &["topology", "ratio"]);
        t.row::<Cell, _>([Cell::from(0usize), Cell::from(1.5)]);
        t.row::<Cell, _>([Cell::from(1usize), Cell::from(0.5)]);
        fig.table(t);
        fig.note("paper: quoted number");
        fig
    }

    #[test]
    fn csv_sink_writes_one_file_per_block_plus_summary() {
        let dir = temp_dir("csv");
        CsvSink::new(&dir).emit(&sample_figure()).unwrap();
        let cdf = fs::read_to_string(dir.join("fig_test.capacity_cas_bit_s_hz.csv")).unwrap();
        assert_eq!(cdf.lines().next().unwrap(), "value,cum_prob");
        // Sorted full-precision CDF points.
        assert!(cdf.contains("1.0,0.3333333333333333"), "cdf file:\n{cdf}");
        let table = fs::read_to_string(dir.join("fig_test.per_topology.csv")).unwrap();
        assert_eq!(table, "topology,ratio\n0,1.5\n1,0.5\n");
        let summary = fs::read_to_string(dir.join("fig_test.summary.csv")).unwrap();
        assert!(
            summary.contains("headline,2.0,4.0,100.0"),
            "summary:\n{summary}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_sink_writes_a_parsable_document() {
        let dir = temp_dir("json");
        JsonSink::new(&dir).emit(&sample_figure()).unwrap();
        let json = fs::read_to_string(dir.join("fig_test.json")).unwrap();
        assert!(json.starts_with("{\"figure\":\"fig_test\",\"seed\":7,"));
        assert!(json.contains("\"kind\":\"cdf\""));
        assert!(json.contains("\"samples\":[3.0,1.0,2.0]"));
        assert!(json.contains("\"gain_pct\":100.0"));
        assert!(json.contains("\"rows\":[[0,1.5],[1,0.5]]"));
        assert!(json.contains("\"kind\":\"note\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        for (open, close) in [('{', '}'), ('[', ']')] {
            let opens = json.matches(open).count();
            let closes = json.matches(close).count();
            assert_eq!(opens, closes, "unbalanced {open}{close}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_escapes_strings_and_non_finite_numbers() {
        let mut fig = Figure::new("esc");
        fig.note("line\nbreak \"quoted\"");
        fig.cdf("nan", &[f64::NAN, 1.0]);
        let json = figure_json(&fig);
        assert!(json.contains("line\\nbreak \\\"quoted\\\""));
        assert!(json.contains("\"samples\":[null,1.0]"));
    }

    #[test]
    fn slug_squashes_punctuation() {
        assert_eq!(
            slug("fig08 4x4 CAS capacity (bit/s/Hz)"),
            "fig08_4x4_cas_capacity_bit_s_hz"
        );
        assert_eq!(slug("  already_clean  "), "already_clean");
        assert_eq!(slug("§5.3.4 — spots"), "5_3_4_spots");
    }

    #[test]
    fn figure_dir_resolution_prefers_flag_over_env() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(figure_dir_from(args(&[]), None), None);
        assert_eq!(
            figure_dir_from(args(&["--figure-dir", "out"]), Some("env".into())),
            Some(PathBuf::from("out"))
        );
        assert_eq!(
            figure_dir_from(args(&["--figure-dir=out2"]), Some("env".into())),
            Some(PathBuf::from("out2"))
        );
        assert_eq!(
            figure_dir_from(args(&[]), Some("env".into())),
            Some(PathBuf::from("env"))
        );
        // Bare flag and empty env value select the workspace default.
        assert_eq!(
            figure_dir_from(args(&["--bench", "--figure-dir"]), None),
            Some(default_figure_dir())
        );
        assert_eq!(
            figure_dir_from(args(&["--figure-dir", "--bench"]), None),
            Some(default_figure_dir())
        );
        assert_eq!(
            figure_dir_from(args(&[]), Some("".into())),
            Some(default_figure_dir())
        );
        assert!(default_figure_dir().ends_with("target/figures"));
        // The variable is a path, not text: bytes that are not UTF-8 select
        // that directory rather than reading as unset.
        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStringExt;
            let raw = PathBuf::from(std::ffi::OsString::from_vec(vec![b'f', 0xff]));
            assert_eq!(figure_dir_from(args(&[]), Some(raw.clone())), Some(raw));
        }
    }

    #[test]
    fn csv_fields_with_commas_are_quoted() {
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("plain"), "plain");
    }
}
