//! Shared infrastructure for the MIDAS benchmark harness.
//!
//! Each bench target in `benches/` regenerates one table or figure of the
//! paper (plus `enterprise_scaling`, which sweeps the beyond-paper
//! `midas_net::scale` scenario library) by running the corresponding
//! `midas::sim::ExperimentSpec`, builds a structured [`Figure`] from the
//! resulting series, and emits it through the sink layer ([`sink`]): the classic
//! console report is always printed, and
//! when a figure directory is selected (`MIDAS_FIGURE_DIR=<dir>` or
//! `--figure-dir <dir>`, default `target/figures/`) the same series also land
//! as diffable CSV and JSON files, so regenerated curves can be compared
//! against the paper's published ones automatically.

#![forbid(unsafe_code)]

pub mod figure;
mod knob;
pub mod sink;

pub use figure::{Block, Cell, Figure, Table};
pub use knob::{env_knob, env_list};
pub use sink::{figure_dir, CsvSink, JsonSink, Sink, StdoutSink};

/// Default seed used by every bench so results are reproducible run-to-run.
pub const BENCH_SEED: u64 = 0x11DA5;
