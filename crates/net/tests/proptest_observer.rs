//! Property tests for the streaming observer and traffic-model hooks.
//!
//! The load-bearing property is *exact equivalence*: streaming a simulation
//! through an [`Accumulate`] observer must reproduce the accumulate-in-place
//! [`TopologyResult`] bit for bit — same per-round capacities, same
//! per-client sums — across every {contention model × MAC} combination,
//! and the fixed-size [`RunningSummary`] must agree with the accumulated
//! result on every sum it keeps.  The full-buffer traffic model
//! must be byte-identical to the pre-traffic-model simulator.
//!
//! The 64-AP / 512-client long-horizon test at the bottom is the
//! memory-bounded-streaming acceptance criterion: at 10× the default round
//! count the summary observer's heap footprint is *identical* to a
//! short run's — flat in rounds — while its metrics still match the
//! accumulating observer exactly.

use midas_net::capture::ContentionModel;
use midas_net::observer::{Accumulate, RunningSummary, Tee};
use midas_net::scale::Scenario;
use midas_net::simulator::{MacKind, NetworkSimulator, TopologyResult};
use midas_net::traffic::TrafficKind;
use proptest::prelude::*;

/// Runs one configured simulation twice — once through `run()` (the
/// accumulate-in-place path) and once streaming into `Accumulate` +
/// `RunningSummary` via a tee — and asserts exact agreement everywhere.
fn assert_streaming_matches_run(
    scenario: &Scenario,
    mac: MacKind,
    contention: ContentionModel,
    rounds: usize,
    seed: u64,
) {
    let pair = scenario.build(seed).expect("buildable scenario");
    let topo = match mac {
        MacKind::Midas => pair.das,
        MacKind::Cas => pair.cas,
    };
    let mut config = scenario.sim_config(mac, rounds, seed);
    config.contention = contention;

    let direct = NetworkSimulator::new(topo.clone(), config).run();

    let mut acc = Accumulate::new();
    let mut summary = RunningSummary::new();
    {
        let mut tee = Tee::new(vec![&mut acc, &mut summary]);
        NetworkSimulator::new(topo, config).run_with(&mut tee);
    }
    let streamed = acc.into_result();

    assert_eq!(
        streamed,
        direct,
        "{} {mac:?} {contention:?}: streamed Accumulate diverged from run()",
        scenario.name()
    );
    assert_summary_matches(&summary, &direct);
}

/// The running summary's sums must equal the accumulated result's exactly:
/// identical additions in identical order.
fn assert_summary_matches(summary: &RunningSummary, result: &TopologyResult) {
    assert_eq!(summary.rounds(), result.per_round_capacity.len());
    assert_eq!(
        summary.capacity_sum(),
        result.per_round_capacity.iter().sum::<f64>()
    );
    assert_eq!(
        summary.streams_sum(),
        result.per_round_streams.iter().sum::<usize>()
    );
    assert_eq!(
        summary.per_client_capacity(),
        &result.per_client_capacity[..]
    );
    assert_eq!(
        summary.per_client_airtime_us(),
        &result.per_client_airtime_us[..]
    );
    assert_eq!(summary.per_ap_capacity(), &result.per_ap_capacity[..]);
    assert_eq!(
        summary.per_ap_active_rounds(),
        &result.per_ap_active_rounds[..]
    );
    assert_eq!(summary.per_ap_duty_cycle(), result.per_ap_duty_cycle());
    assert_eq!(summary.mean_streams(), result.mean_streams());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Streamed observers are bit-identical to the accumulate-in-place run
    /// across {contention model × MAC} on random floors.
    #[test]
    fn streaming_is_bit_identical_across_the_config_matrix(
        seed in 0u64..1_000_000,
        scenario_sel in 0usize..3,
    ) {
        let scenario = match scenario_sel {
            0 => Scenario::enterprise_office(8),
            1 => Scenario::auditorium(8),
            _ => Scenario::dense_apartment(8),
        };
        for mac in [MacKind::Midas, MacKind::Cas] {
            for contention in [
                ContentionModel::Graph,
                ContentionModel::physical_calibrated(),
            ] {
                assert_streaming_matches_run(&scenario, mac, contention, 4, seed);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An explicitly-installed full-buffer traffic model is byte-identical
    /// to the default (pre-traffic-model) simulator.
    #[test]
    fn explicit_full_buffer_reproduces_the_default(
        seed in 0u64..1_000_000,
    ) {
        let scenario = Scenario::enterprise_office(8);
        let pair = scenario.build(seed).expect("buildable scenario");
        let config = scenario.sim_config(MacKind::Midas, 4, seed);
        let default = NetworkSimulator::new(pair.das.clone(), config).run();
        let explicit = NetworkSimulator::new(pair.das, config)
            .with_traffic_kind(TrafficKind::FullBuffer)
            .run();
        prop_assert_eq!(default, explicit);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Lighter workloads stay physical: duty-cycled and queue-driven
    /// traffic never serve more streams than saturation does round-total,
    /// and zero-duty traffic silences the floor entirely.
    #[test]
    fn lighter_traffic_never_exceeds_saturation(
        seed in 0u64..1_000_000,
    ) {
        let scenario = Scenario::enterprise_office(8);
        let pair = scenario.build(seed).expect("buildable scenario");
        let config = scenario.sim_config(MacKind::Midas, 5, seed);
        let saturated = NetworkSimulator::new(pair.das.clone(), config).run();
        let duty = NetworkSimulator::new(pair.das.clone(), config)
            .with_traffic_kind(TrafficKind::OnOff { duty: 0.3, mean_burst_rounds: 3.0 })
            .run();
        let silent = NetworkSimulator::new(pair.das, config)
            .with_traffic_kind(TrafficKind::OnOff { duty: 0.0, mean_burst_rounds: 3.0 })
            .run();
        // Per-round stream counts under a thinned backlog can locally
        // exceed saturation's (different contention outcomes), but the
        // total service volume cannot: every served stream needs a
        // backlogged client, and 30% duty backlogs well under half the
        // client-rounds.
        let total = |r: &TopologyResult| r.per_round_streams.iter().sum::<usize>();
        prop_assert!(total(&duty) <= total(&saturated),
            "duty-cycled traffic served more streams ({}) than saturation ({})",
            total(&duty), total(&saturated));
        prop_assert_eq!(total(&silent), 0);
        prop_assert_eq!(silent.mean_capacity(), 0.0);
    }
}

/// Acceptance criterion: a streamed 64-AP / 512-client run holds peak
/// memory flat in the round count.  The enterprise experiments default to
/// 10 rounds; this streams 100 (10×) and checks (i) the summary observer's
/// heap footprint is *byte-identical* to the 10-round run's, and (ii) its
/// metrics still agree exactly with the full accumulating observer.
#[test]
fn streamed_64_ap_run_holds_memory_flat_at_10x_rounds() {
    let scenario = Scenario::enterprise_office(64);
    assert_eq!(scenario.num_clients(), 512);
    let pair = scenario.build(3).expect("64-AP scenario builds");

    let footprint_at = |rounds: usize| {
        let config = scenario.sim_config(MacKind::Midas, rounds, 3);
        let mut summary = RunningSummary::new();
        NetworkSimulator::new(pair.das.clone(), config).run_with(&mut summary);
        (summary.heap_footprint_bytes(), summary)
    };

    let (short_bytes, _) = footprint_at(10);
    let (long_bytes, long_summary) = footprint_at(100);
    assert_eq!(long_summary.rounds(), 100);
    assert_eq!(
        short_bytes, long_bytes,
        "RunningSummary footprint grew with the round count"
    );

    // The streamed summary still matches the accumulating observer exactly
    // at the long horizon.
    let config = scenario.sim_config(MacKind::Midas, 100, 3);
    let full = NetworkSimulator::new(pair.das.clone(), config).run();
    assert_eq!(full.per_round_capacity.len(), 100);
    assert_summary_matches(&long_summary, &full);
    assert!(long_summary.mean_capacity() > 0.0);
}

/// Zero-round runs are well-defined everywhere (the NaN-or-panic
/// regression): summaries report 0.0 / empty / trivially-fair values.
#[test]
fn zero_round_run_has_well_defined_summaries() {
    let scenario = Scenario::enterprise_office(8);
    let pair = scenario.build(1).unwrap();
    let config = scenario.sim_config(MacKind::Midas, 0, 1);
    let result = NetworkSimulator::new(pair.das, config).run();
    assert!(result.per_round_capacity.is_empty());
    assert_eq!(result.mean_capacity(), 0.0);
    assert_eq!(result.mean_streams(), 0.0);
    assert!(result.per_ap_duty_cycle().iter().all(|&d| d == 0.0));
    assert!(result.per_ap_mean_capacity().iter().all(|&c| c == 0.0));
    assert!(result.per_client_mean_capacity().iter().all(|&c| c == 0.0));
    assert!(result.mean_capacity().is_finite());
}
