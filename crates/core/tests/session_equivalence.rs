//! Session-API equivalence suite: the new `midas::sim` layer must be a
//! *refactoring*, not a physics change.
//!
//! Pins, at small scale (the golden-value pins at bench scale live in
//! `runner_determinism.rs` / `paper_fidelity.rs`):
//! * sessions are bit-identical at 1 vs 4 workers, on both the accumulated
//!   and the streamed path;
//! * streamed observers reproduce `TopologyResult` metrics exactly through
//!   the session layer;
//! * an explicit full-buffer traffic model is byte-identical to the
//!   default;
//! * non-saturation traffic models are deterministic in the seed.

use midas::sim::{
    DynamicsSpec, MacKind, PairedRecipe, RunningSummary, SessionBuilder, SessionTrial, TrafficKind,
};
use midas_net::scale::Scenario;

fn three_ap_session(threads: usize) -> midas::sim::Session {
    SessionBuilder::new(PairedRecipe::three_ap_paper())
        .rounds(4)
        .seed_mix(193, 61)
        .threads(threads)
        .build()
}

#[test]
fn session_series_are_bit_identical_at_1_and_4_workers() {
    let serial = three_ap_session(1).run(5, 0x5E55);
    let parallel = three_ap_session(4).run(5, 0x5E55);
    assert_eq!(serial.network.cas, parallel.network.cas);
    assert_eq!(serial.network.das, parallel.network.das);
    assert_eq!(serial.per_client.cas, parallel.per_client.cas);
    assert_eq!(serial.per_client.das, parallel.per_client.das);
}

#[test]
fn streamed_sessions_are_bit_identical_at_1_and_4_workers() {
    let collect = |threads: usize| {
        three_ap_session(threads)
            .stream(4, 0x0B5E, RunningSummary::new)
            .into_iter()
            .map(|(cas, das)| {
                (
                    cas.capacity_sum(),
                    das.capacity_sum(),
                    cas.per_client_capacity().to_vec(),
                    das.per_client_capacity().to_vec(),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(collect(1), collect(4));
}

#[test]
fn streamed_summaries_match_accumulated_results_through_the_session() {
    let session = three_ap_session(2);
    let accumulated = session.run_trials(3, 77, &|trial: &SessionTrial<'_>| {
        (trial.simulate(MacKind::Cas), trial.simulate(MacKind::Midas))
    });
    let streamed = session.stream(3, 77, RunningSummary::new);
    assert_eq!(accumulated.len(), streamed.len());
    for ((cas_full, das_full), (cas_sum, das_sum)) in accumulated.iter().zip(&streamed) {
        for (full, sum) in [(cas_full, cas_sum), (das_full, das_sum)] {
            assert_eq!(sum.rounds(), full.per_round_capacity.len());
            assert_eq!(
                sum.capacity_sum(),
                full.per_round_capacity.iter().sum::<f64>()
            );
            assert_eq!(sum.per_client_capacity(), &full.per_client_capacity[..]);
            assert_eq!(sum.per_ap_capacity(), &full.per_ap_capacity[..]);
            assert_eq!(sum.per_ap_duty_cycle(), full.per_ap_duty_cycle());
        }
    }
}

#[test]
fn explicit_full_buffer_session_is_byte_identical_to_the_default() {
    let default = three_ap_session(1).run(3, 9);
    let explicit = SessionBuilder::new(PairedRecipe::three_ap_paper())
        .rounds(4)
        .seed_mix(193, 61)
        .threads(1)
        .traffic(TrafficKind::FullBuffer)
        .build()
        .run(3, 9);
    assert_eq!(default.network.cas, explicit.network.cas);
    assert_eq!(default.network.das, explicit.network.das);
    assert_eq!(default.per_client.cas, explicit.per_client.cas);
    assert_eq!(default.per_client.das, explicit.per_client.das);
}

#[test]
fn non_saturation_traffic_is_deterministic_and_lighter() {
    let build = || {
        SessionBuilder::new(PairedRecipe::three_ap_paper())
            .rounds(6)
            .traffic(TrafficKind::Poisson {
                mean_arrivals_per_round: 0.5,
            })
            .build()
    };
    let a = build().run(3, 4);
    let b = build().run(3, 4);
    assert_eq!(a.network.das, b.network.das);
    assert_eq!(a.per_client.das, b.per_client.das);
    // Queue-driven traffic at 0.5 packets/client/round serves less volume
    // than saturation.
    let saturated = SessionBuilder::new(PairedRecipe::three_ap_paper())
        .rounds(6)
        .build()
        .run(3, 4);
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    assert!(sum(&a.network.das) <= sum(&saturated.network.das));
}

#[test]
fn dynamic_sessions_are_bit_identical_at_1_and_4_workers() {
    // Mobility + roaming draw from a dedicated per-trial RNG stream, so
    // fanning trials across workers must not perturb a single byte.
    let build = |threads: usize| {
        SessionBuilder::new(PairedRecipe::three_ap_paper())
            .rounds(6)
            .threads(threads)
            .traffic(TrafficKind::OnOff {
                duty: 0.6,
                mean_burst_rounds: 4.0,
            })
            .dynamics(DynamicsSpec::roaming_walk(1.4))
            .build()
    };
    let serial = build(1).run(4, 0xD1A);
    let parallel = build(4).run(4, 0xD1A);
    assert_eq!(serial.network.cas, parallel.network.cas);
    assert_eq!(serial.network.das, parallel.network.das);
    assert_eq!(serial.per_client.cas, parallel.per_client.cas);
    assert_eq!(serial.per_client.das, parallel.per_client.das);
}

#[test]
fn finite_range_dynamic_sessions_are_deterministic_and_bit_identical_at_1_and_4_workers() {
    // An enterprise floor has a finite interaction range, so walkers'
    // channel rows are born and freed mid-run — from keyed streams, never
    // from a shared sequence — and trials still fan out bit-identically.
    let build = |threads: usize| {
        SessionBuilder::new(Scenario::enterprise_office(16))
            .rounds(5)
            .threads(threads)
            .dynamics(DynamicsSpec::roaming_walk(60.0))
            .build()
    };
    let serial = build(1).run(3, 0xF1);
    let parallel = build(4).run(3, 0xF1);
    let again = build(1).run(3, 0xF1);
    for other in [&parallel, &again] {
        assert_eq!(serial.network.cas, other.network.cas);
        assert_eq!(serial.network.das, other.network.das);
        assert_eq!(serial.per_client.cas, other.per_client.cas);
        assert_eq!(serial.per_client.das, other.per_client.das);
    }
}

#[test]
fn an_inactive_dynamics_spec_is_byte_identical_to_no_dynamics() {
    // `DynamicsSpec::default()` configures nothing; the builder must treat
    // it exactly like never calling `.dynamics(...)`, keeping every static
    // golden byte for byte.
    let base = three_ap_session(1).run(3, 77);
    let inactive = SessionBuilder::new(PairedRecipe::three_ap_paper())
        .rounds(4)
        .seed_mix(193, 61)
        .threads(1)
        .dynamics(DynamicsSpec::default())
        .build()
        .run(3, 77);
    assert_eq!(base.network.cas, inactive.network.cas);
    assert_eq!(base.network.das, inactive.network.das);
    assert_eq!(base.per_client.cas, inactive.per_client.cas);
    assert_eq!(base.per_client.das, inactive.per_client.das);
}

#[test]
fn custom_topology_sources_drive_sessions() {
    // The extension point the API redesign exists for: a user-defined
    // source (here: a fixed three-AP layout regardless of seed) composes
    // with the whole session machinery.
    struct FrozenFloor;
    impl midas::sim::TopologySource for FrozenFloor {
        fn environment(&self) -> midas_channel::Environment {
            midas_channel::Environment::office_a()
        }
        fn build(&self, _seed: u64) -> midas_net::deployment::PairedTopology {
            PairedRecipe::three_ap_paper().build(1234)
        }
    }
    let series = SessionBuilder::new(FrozenFloor).rounds(3).build().run(2, 5);
    assert_eq!(series.network.cas.len(), 2);
    // Same floor, different sim seeds: capacities differ across trials but
    // both are positive.
    assert!(series.network.das.iter().all(|&c| c > 0.0));
}
