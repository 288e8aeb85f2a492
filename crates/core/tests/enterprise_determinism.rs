//! Determinism of the enterprise-scale scenarios through the `SeedSweep`
//! engine: every scenario family must produce bit-identical series at any
//! worker count (thread override via `SeedSweep::with_threads`, so no
//! environment mutation — see `midas_threads_env.rs` for the env-var path).

use midas::runner::SeedSweep;
use midas::sim::ExperimentSpec;
use midas_net::scale::Scenario;
use midas_net::simulator::{MacKind, NetworkSimulator};

/// One enterprise trial: build the paired floor at the mixed seed, simulate
/// both variants, return every capacity series the bench would emit.
fn enterprise_trial(scenario: &Scenario, rounds: usize, seed: u64) -> Vec<f64> {
    let pair = scenario.build(seed).expect("scenario builds");
    let cas =
        NetworkSimulator::new(pair.cas, scenario.sim_config(MacKind::Cas, rounds, seed)).run();
    let das =
        NetworkSimulator::new(pair.das, scenario.sim_config(MacKind::Midas, rounds, seed)).run();
    let mut out = vec![
        cas.mean_capacity(),
        das.mean_capacity(),
        cas.mean_streams(),
        das.mean_streams(),
    ];
    out.extend(das.per_ap_mean_capacity());
    out.extend(das.per_ap_duty_cycle());
    out
}

#[test]
fn every_scenario_is_bit_identical_at_1_and_4_threads() {
    for scenario in Scenario::all(8) {
        let run = |workers: usize| {
            SeedSweep::new(0x5CA1E)
                .with_mix(1021, 101)
                .with_threads(workers)
                .run(4, &|_t: usize, s: u64| enterprise_trial(&scenario, 3, s))
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(
            serial,
            parallel,
            "{}: series differ between 1 and 4 workers",
            scenario.name()
        );
        // And the series is non-trivial: finite, positive capacities.
        assert!(serial.iter().flatten().all(|v| v.is_finite() && *v >= 0.0));
        assert!(serial.iter().all(|trial| trial[1] > 0.0));
    }
}

#[test]
fn enterprise_scaling_runner_is_thread_invariant_end_to_end() {
    // The spec fans through the engine internally; two consecutive
    // invocations (whatever the ambient worker count) must agree with each
    // other and with the raw per-trial closure above.
    let scenario = Scenario::dense_apartment(8);
    let run = || {
        ExperimentSpec::EnterpriseScaling {
            scenario,
            topologies: 3,
            rounds: 3,
        }
        .run(7)
        .expect_enterprise()
    };
    let a = run();
    let b = run();
    assert_eq!(a.cas, b.cas);
    assert_eq!(a.das, b.das);
    assert_eq!(a.das_per_ap_capacity, b.das_per_ap_capacity);
    let sweep = SeedSweep::new(7).with_mix(1021, 101).with_threads(2);
    let raw = sweep.run(3, &|_t: usize, s: u64| enterprise_trial(&scenario, 3, s));
    for (t, trial) in raw.iter().enumerate() {
        assert_eq!(a.cas[t], trial[0], "trial {t} CAS capacity");
        assert_eq!(a.das[t], trial[1], "trial {t} MIDAS capacity");
    }
}
