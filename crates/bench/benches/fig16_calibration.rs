//! Fig. 16 calibration — grids the physical contention model's
//! {CS threshold × capture margin × sensing σ} through the 8-AP end-to-end
//! simulation and scores every cell's median per-client capacity gain
//! (MIDAS over CAS) against the paper's Fig. 16 band (paper: > +150 %;
//! accepted reproduction band +50 %…+150 %).  The winning cell is what
//! `PhysicalConfig::calibrated()` promotes to the library defaults.
//!
//! Knobs (for CI smoke runs and quick local iterations):
//! * `MIDAS_CALIBRATION_CS_DBM` — comma-separated CS thresholds in dBm
//!   (default `-88,-86,-84`).
//! * `MIDAS_CALIBRATION_MARGIN_DB` — comma-separated capture margins in dB
//!   (default `6,8,10`).
//! * `MIDAS_CALIBRATION_SIGMA_DB` — comma-separated sensing shadowing
//!   spreads in dB (default `3,4.5`).
//! * `MIDAS_CALIBRATION_TOPOLOGIES` — topologies per cell (default 15).
//! * `MIDAS_CALIBRATION_ROUNDS` — TXOP rounds per topology (default 10).

use midas::experiment::{best_calibration_cell, CalibrationGrid, FIG16_GAIN_BAND};
use midas::sim::ExperimentSpec;
use midas_bench::{env_knob, env_list, Cell, Figure, Table, BENCH_SEED};
use midas_net::capture::{ContentionModel, PhysicalConfig};
use midas_net::metrics::{relative_gain, Cdf};

fn main() {
    let grid = CalibrationGrid {
        cs_thresholds_dbm: env_list("MIDAS_CALIBRATION_CS_DBM", "-88,-86,-84"),
        capture_margins_db: env_list("MIDAS_CALIBRATION_MARGIN_DB", "6,8,10"),
        sensing_sigmas_db: env_list("MIDAS_CALIBRATION_SIGMA_DB", "3,4.5"),
    };
    let topologies = env_knob("MIDAS_CALIBRATION_TOPOLOGIES")
        .unwrap_or(15)
        .max(1);
    let rounds = env_knob("MIDAS_CALIBRATION_ROUNDS").unwrap_or(10).max(1);

    let cells = ExperimentSpec::Fig16Calibration {
        grid,
        topologies,
        rounds,
    }
    .run(BENCH_SEED)
    .expect_calibration();

    let mut fig = Figure::new("fig16_calibration").with_seed(BENCH_SEED);
    let mut table = Table::new(
        "grid",
        &[
            "cs_threshold_dbm",
            "capture_margin_db",
            "sensing_sigma_db",
            "cas_net_median_bps_hz",
            "midas_net_median_bps_hz",
            "net_gain_pct",
            "cas_client_median_bps_hz",
            "midas_client_median_bps_hz",
            "client_gain_pct",
            "band_distance",
        ],
    );
    for c in &cells {
        table.row([
            Cell::from(c.config.cs_threshold_dbm),
            Cell::from(c.config.capture_margin_db),
            Cell::from(c.config.sensing_sigma_db.unwrap_or(f64::NAN)),
            Cell::from(c.cas_network_median),
            Cell::from(c.das_network_median),
            Cell::from(100.0 * c.network_gain),
            Cell::from(c.cas_client_median),
            Cell::from(c.das_client_median),
            Cell::from(100.0 * c.client_median_gain),
            Cell::from(c.score),
        ]);
    }
    fig.table(table);

    // Reference point: the legacy binary graph on the same topologies.
    let graph = ExperimentSpec::EndToEnd {
        eight_aps: true,
        topologies,
        rounds,
        contention: ContentionModel::Graph,
    }
    .run(BENCH_SEED)
    .expect_end_to_end();
    fig.note(&format!(
        "legacy ContentionModel::Graph: net gain {:+.1} %, client median gain {:+.1} % \
         (the pre-calibration Fig. 16 state)",
        100.0
            * relative_gain(
                Cdf::new(&graph.network.das).median(),
                Cdf::new(&graph.network.cas).median()
            ),
        100.0
            * relative_gain(
                Cdf::new(&graph.per_client.das).median(),
                Cdf::new(&graph.per_client.cas).median()
            )
    ));
    if let Some(best) = best_calibration_cell(&cells) {
        fig.note(&format!(
            "winning cell: CS {} dBm, margin {} dB, sigma {} dB -> client median gain {:+.1} %, \
             net gain {:+.1} % (accepted band {:.0}-{:.0} %, band distance {:.3})",
            best.config.cs_threshold_dbm,
            best.config.capture_margin_db,
            best.config.sensing_sigma_db.unwrap_or(f64::NAN),
            100.0 * best.client_median_gain,
            100.0 * best.network_gain,
            100.0 * FIG16_GAIN_BAND.0,
            100.0 * FIG16_GAIN_BAND.1,
            best.score
        ));
        let promoted = PhysicalConfig::calibrated();
        if best.config == promoted {
            fig.note("winning cell matches PhysicalConfig::calibrated() — promotion up to date");
        } else {
            fig.note(&format!(
                "NOTE: winning cell differs from PhysicalConfig::calibrated() ({promoted:?}) — \
                 at full grid resolution this means the promoted defaults need re-pinning"
            ));
        }
    }
    fig.note("paper: Fig. 16 reports MIDAS outperforming CAS by more than 150% at 8 APs");
    fig.emit();
}
