//! Load vs gain — beyond the paper's saturation figures: how much of the
//! MIDAS-over-CAS capacity gain survives at partial load, with mobile,
//! roaming clients.
//!
//! The paper evaluates full-buffer saturation, where MIDAS's spatial reuse
//! pays on every TXOP.  Real enterprise floors idle most of the day; this
//! sweep runs the paired 3-AP session under on/off traffic across a duty
//! cycle grid, with every client random-waypoint walking and roaming
//! (`DynamicsSpec::roaming_walk`), and reports the CAS and MIDAS medians
//! plus their ratio per duty point.
//!
//! Knobs (for CI smoke runs and quick local iterations):
//! * `MIDAS_LOAD_DUTY_CYCLES` — comma-separated duty cycles in (0, 1]
//!   (default `0.1,0.25,0.5,0.75,1.0`).
//! * `MIDAS_LOAD_TOPOLOGIES` — paired topologies per point (default 20).
//! * `MIDAS_LOAD_ROUNDS` — TXOP rounds per trial (default 40).
//! * `MIDAS_LOAD_SPEED_MPS` — walker speed; `0` disables mobility and
//!   roaming entirely (default 1.4, a walking pace).

use midas::sim::ExperimentSpec;
use midas_bench::{env_knob, env_list, Cell, Figure, Table, BENCH_SEED};

fn main() {
    let duty_cycles = env_list("MIDAS_LOAD_DUTY_CYCLES", "0.1,0.25,0.5,0.75,1.0");
    let topologies = env_knob("MIDAS_LOAD_TOPOLOGIES").unwrap_or(20).max(1);
    let rounds = env_knob("MIDAS_LOAD_ROUNDS").unwrap_or(40).max(1);
    let speed_mps = env_knob("MIDAS_LOAD_SPEED_MPS").unwrap_or(1.4_f64).max(0.0);

    let rows = ExperimentSpec::LoadVsGain {
        duty_cycles,
        topologies,
        rounds,
        speed_mps,
    }
    .run(BENCH_SEED)
    .expect_load_vs_gain();

    let mut fig = Figure::new("load_vs_gain").with_seed(BENCH_SEED);
    let mut table = Table::new(
        "load_gain",
        &[
            "duty",
            "cas_median_bps_hz",
            "midas_median_bps_hz",
            "midas_gain_x",
        ],
    );
    for row in &rows {
        println!(
            "# duty {:.2}: CAS {:.3} bit/s/Hz, MIDAS {:.3} bit/s/Hz, gain {:.2}x",
            row.duty, row.cas_median, row.das_median, row.gain
        );
        table.row([
            Cell::from(row.duty),
            Cell::from(row.cas_median),
            Cell::from(row.das_median),
            Cell::from(row.gain),
        ]);
    }
    fig.table(table);
    fig.note(
        "beyond the paper: Fig. 15's saturation gain swept against on/off duty cycle with \
         random-waypoint mobility and antenna-aware roaming (DynamicsSpec::roaming_walk); \
         speed 0 freezes the floor for a static baseline",
    );
    fig.note(
        "gain is the ratio of per-trial median MIDAS to median CAS network capacity; \
         under light load both MACs serve nearly every arrival, and at saturation mobility \
         erodes the precoding advantage (see README, load_vs_gain)",
    );
    fig.emit();
}
