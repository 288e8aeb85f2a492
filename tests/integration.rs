//! Cross-crate integration tests: exercise the full pipeline
//! (topology -> channel -> tagging/MAC -> precoding -> capacity) through the
//! public APIs only.

use midas::prelude::*;
use midas_net::metrics::Cdf;
use midas_phy::power;

#[test]
fn full_pipeline_single_ap_midas_beats_cas_in_median() {
    let config = SystemConfig::default();
    let gains: Vec<f64> = (0..25)
        .map(|seed| {
            SingleApSystem::generate(&config, 1000 + seed)
                .downlink_comparison()
                .gain()
        })
        .collect();
    assert!(
        Cdf::new(&gains).median() > 0.2,
        "median gain {:?}",
        Cdf::new(&gains).median()
    );
}

#[test]
fn precoding_respects_the_per_antenna_constraint_through_the_public_api() {
    for seed in 0..10 {
        let sys = SingleApSystem::generate(&SystemConfig::default(), seed);
        let out = sys.downlink_comparison();
        // Exact budgets: POWER_TOLERANCE inside `satisfies_per_antenna` absorbs
        // the float-boundary rounding (see crates/phy/tests/per_antenna_boundary.rs).
        assert!(power::satisfies_per_antenna(
            &out.midas.v,
            sys.das_channel().tx_power_mw
        ));
        assert!(power::satisfies_per_antenna(
            &out.cas.v,
            sys.cas_channel().tx_power_mw
        ));
    }
}

#[test]
fn experiment_runners_are_deterministic_in_the_seed() {
    let run = || {
        ExperimentSpec::MuMimoCapacity {
            environment: EnvironmentKind::OfficeA,
            antennas: 4,
            topologies: 5,
        }
        .run(99)
        .expect_paired()
    };
    let a = run();
    let b = run();
    assert_eq!(a.cas, b.cas);
    assert_eq!(a.das, b.das);
}

#[test]
fn spatial_reuse_and_end_to_end_runners_produce_sane_output() {
    let ratios = ExperimentSpec::SimultaneousTx { topologies: 10 }
        .run(5)
        .expect_ratios();
    assert_eq!(ratios.len(), 10);
    assert!(ratios.iter().all(|r| *r > 0.0 && *r < 4.0));

    let e2e = ExperimentSpec::EndToEnd {
        eight_aps: false,
        topologies: 2,
        rounds: 5,
        contention: midas::sim::ContentionModel::Graph,
    }
    .run(5)
    .expect_end_to_end()
    .network;
    assert_eq!(e2e.cas.len(), 2);
    assert!(e2e.das.iter().all(|c| c.is_finite() && *c > 0.0));
}

#[test]
fn deadzone_and_hidden_terminal_runners_show_das_benefit() {
    let dead = ExperimentSpec::Deadzones { deployments: 3 }
        .run(21)
        .expect_deadzones();
    let cas: usize = dead.iter().map(|d| d.cas_dead).sum();
    let das: usize = dead.iter().map(|d| d.das_dead).sum();
    assert!(
        das <= cas,
        "DAS dead spots {das} should not exceed CAS {cas}"
    );

    let hidden = ExperimentSpec::HiddenTerminals { deployments: 4 }
        .run(22)
        .expect_hidden_terminals();
    let cas_h: usize = hidden.iter().map(|h| h.cas_spots).sum();
    let das_h: usize = hidden.iter().map(|h| h.das_spots).sum();
    assert!(das_h <= cas_h, "DAS hidden spots {das_h} vs CAS {cas_h}");
}
