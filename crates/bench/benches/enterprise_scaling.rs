//! Enterprise scaling — beyond Fig. 16: CAS vs MIDAS end-to-end capacity on
//! the `midas_net::scale` scenario library, sweeping AP count.
//!
//! Knobs (for CI smoke runs and quick local iterations):
//! * `MIDAS_ENTERPRISE_SCENARIOS` — comma-separated scenario names
//!   (default `enterprise_office,auditorium,dense_apartment`).
//! * `MIDAS_ENTERPRISE_AP_COUNTS` — comma-separated AP counts
//!   (default `8,16,32,64`).
//! * `MIDAS_ENTERPRISE_TOPOLOGIES` — floor realisations per point (default 5).
//! * `MIDAS_ENTERPRISE_ROUNDS` — TXOP rounds per realisation (default 10).

use midas::sim::ExperimentSpec;
use midas_bench::{env_knob, env_list, Cell, Figure, Table, BENCH_SEED};
use midas_net::metrics::Cdf;
use midas_net::scale::Scenario;

fn main() {
    let scenarios: Vec<String> = env_list(
        "MIDAS_ENTERPRISE_SCENARIOS",
        "enterprise_office,auditorium,dense_apartment",
    );
    let ap_counts: Vec<usize> = env_list("MIDAS_ENTERPRISE_AP_COUNTS", "8,16,32,64");
    if ap_counts.is_empty() {
        eprintln!("MIDAS_ENTERPRISE_AP_COUNTS resolved to no AP counts — nothing to sweep");
    }
    let topologies = env_knob("MIDAS_ENTERPRISE_TOPOLOGIES").unwrap_or(5).max(1);
    let rounds = env_knob("MIDAS_ENTERPRISE_ROUNDS").unwrap_or(10).max(1);

    let mut fig = Figure::new("enterprise_scaling").with_seed(BENCH_SEED);
    let mut table = Table::new(
        "scaling",
        &[
            "scenario",
            "aps",
            "clients",
            "cas_median_bps_hz",
            "midas_median_bps_hz",
            "midas_gain_pct",
            "midas_streams_median",
            "ap_duty_min",
            "ap_duty_median",
            "ap_duty_max",
            "ap_contention_degree_mean",
        ],
    );

    for name in &scenarios {
        for &aps in &ap_counts {
            let Some(scenario) = Scenario::by_name(name, aps) else {
                eprintln!("unknown scenario '{name}' — skipping");
                continue;
            };
            let s = ExperimentSpec::EnterpriseScaling {
                scenario,
                topologies,
                rounds,
            }
            .run(BENCH_SEED)
            .expect_enterprise();
            let cas = Cdf::new(&s.cas).median();
            let das = Cdf::new(&s.das).median();
            let duty = Cdf::new(&s.das_per_ap_duty);
            table.row([
                Cell::from(name.as_str()),
                Cell::from(aps),
                Cell::from(scenario.num_clients()),
                Cell::from(cas),
                Cell::from(das),
                Cell::from(100.0 * (das - cas) / cas),
                Cell::from(Cdf::new(&s.das_streams).median()),
                Cell::from(duty.quantile(0.0)),
                Cell::from(duty.median()),
                Cell::from(duty.quantile(1.0)),
                Cell::from(Cdf::new(&s.das_contention_degree).mean()),
            ]);
            fig.cdf(
                &format!("{name} {aps}-AP CAS network capacity (bit/s/Hz)"),
                &s.cas,
            );
            fig.cdf(
                &format!("{name} {aps}-AP MIDAS network capacity (bit/s/Hz)"),
                &s.das,
            );
            if aps == *ap_counts.iter().max().unwrap_or(&aps) {
                fig.gain(&format!("{name} at {aps} APs"), &s.cas, &s.das);
            }
        }
    }
    fig.table(table);
    fig.note(
        "beyond the paper: Fig. 16 stops at 8 APs; these series sweep the scale/Scenario \
         library with the finite interaction range + spatial-index scan path",
    );
    fig.note(
        "per-AP duty cycles are the Fig. 16 calibration diagnostic: a duty-cycle floor near \
         zero means contention starves interior APs, which is what pulls the MIDAS median \
         below CAS in over-dense floors",
    );
    fig.emit();
}
