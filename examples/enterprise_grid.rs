//! Enterprise-scale deployment demo: a 64-AP / 512-client floor through the
//! `midas_net::scale` subsystem.
//!
//! ```sh
//! cargo run --release --example enterprise_grid            # all scenarios, 64 APs
//! MIDAS_ENTERPRISE_AP_COUNTS=16 cargo run --release --example enterprise_grid
//! ```
//!
//! The floor has the first AP count of `MIDAS_ENTERPRISE_AP_COUNTS` (the
//! `enterprise_scaling` bench's list); a count that does not parse exits 2.

use midas::sim::{MacKind, SessionBuilder};
use midas_net::metrics::Cdf;
use midas_net::scale::Scenario;

fn main() {
    let aps = midas::runner::knob_list::<usize>("MIDAS_ENTERPRISE_AP_COUNTS", "64")
        .unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2)
        })
        .first()
        .copied()
        .unwrap_or(64);
    let rounds = 10;
    let seed = 0x11DA5;

    for scenario in Scenario::all(aps) {
        let env = scenario.environment();
        println!(
            "== {} — {} APs ({}x{} grid, {:.0} m spacing), {} clients, interaction range {:.1} m",
            scenario.name(),
            scenario.num_aps(),
            scenario.grid.cols,
            scenario.grid.rows,
            scenario.grid.ap_spacing_m,
            scenario.num_clients(),
            env.interaction_range_m(midas_net::scale::scenario::INTERACTION_MARGIN_DB),
        );
        let start = std::time::Instant::now(); // lint: allow(wall-clock) — example prints its own wall time; output is narrative, not a figure
                                               // One session trial = one paired floor realisation; the session
                                               // carries the scenario's finite-interaction-range simulator config.
        let session = SessionBuilder::new(scenario).rounds(rounds).build();
        let trial = session.trial(0, seed);
        let cas = trial.simulate(MacKind::Cas);
        let das = trial.simulate(MacKind::Midas);
        let duty = Cdf::new(&das.per_ap_duty_cycle());
        println!(
            "   CAS   {:7.1} bit/s/Hz over {:5.1} streams/round",
            cas.mean_capacity(),
            cas.mean_streams()
        );
        println!(
            "   MIDAS {:7.1} bit/s/Hz over {:5.1} streams/round  \
             (per-AP duty cycle min {:.2} / median {:.2} / max {:.2})",
            das.mean_capacity(),
            das.mean_streams(),
            duty.quantile(0.0),
            duty.median(),
            duty.quantile(1.0),
        );
        println!(
            "   build + 2x {rounds}-round simulation: {:?}",
            start.elapsed()
        );
    }
}
