//! Property tests for the staged round pipeline's [`RoundWorkspace`].
//!
//! The load-bearing property is *exact equivalence*: a simulator that reuses
//! one workspace across every round (the default — steady state allocates
//! nothing) must reproduce a simulator that rebuilds the workspace from
//! scratch each round bit-for-bit, with dynamics off and on, across both
//! contention models, both MACs and both traffic extremes.  The second property pins the
//! allocation discipline itself: after a warm-up run, further rounds must not
//! grow the workspace's heap footprint.

use midas_net::capture::ContentionModel;
use midas_net::dynamics::DynamicsSpec;
use midas_net::scale::Scenario;
use midas_net::simulator::{MacKind, NetworkSimulator};
use midas_net::traffic::TrafficKind;
use proptest::prelude::*;

/// Builds the paired simulator inputs for one configuration point.
#[allow(clippy::too_many_arguments)] // test helper: the grid IS the arguments
fn build_sim(
    scenario: &Scenario,
    mac: MacKind,
    dynamics: Option<DynamicsSpec>,
    contention: ContentionModel,
    traffic: TrafficKind,
    rounds: usize,
    seed: u64,
    fresh_per_round: bool,
) -> NetworkSimulator {
    let pair = scenario.build(seed).expect("buildable scenario");
    let topo = match mac {
        MacKind::Midas => pair.das,
        MacKind::Cas => pair.cas,
    };
    let mut config = scenario.sim_config(mac, rounds, seed);
    config.dynamics = dynamics;
    config.contention = contention;
    let sim = NetworkSimulator::new(topo, config).with_traffic_kind(traffic);
    if fresh_per_round {
        sim.with_fresh_workspace_per_round()
    } else {
        sim
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Reusing the round workspace is bit-identical to rebuilding it every
    /// round, over the full `{dynamics} × {contention} × {mac} × {traffic}`
    /// grid at random seeds, at the floor's finite interaction range.
    #[test]
    fn reused_workspace_is_bit_identical_to_fresh_per_round(
        seed in 0u64..1_000_000,
        dynamics_sel in 0usize..2,
        contention_sel in 0usize..2,
        traffic_sel in 0usize..2,
    ) {
        let scenario = Scenario::enterprise_office(8);
        // Fast walkers that roam: rows are born and freed and ownership
        // maps are rebuilt, all of it across the fresh workspaces.
        let dynamics = (dynamics_sel == 1).then(|| DynamicsSpec::roaming_walk(300.0));
        let contention = if contention_sel == 0 {
            ContentionModel::Graph
        } else {
            ContentionModel::physical_calibrated()
        };
        // The traffic extremes: saturation (every client, every round) and a
        // sparse duty-cycled workload (many empty backlogs, silent APs).
        let traffic = if traffic_sel == 0 {
            TrafficKind::FullBuffer
        } else {
            TrafficKind::OnOff { duty: 0.2, mean_burst_rounds: 2.0 }
        };
        for mac in [MacKind::Midas, MacKind::Cas] {
            let reused = build_sim(
                &scenario, mac, dynamics, contention, traffic, 6, seed, false,
            ).run();
            let fresh = build_sim(
                &scenario, mac, dynamics, contention, traffic, 6, seed, true,
            ).run();
            prop_assert_eq!(
                &reused, &fresh,
                "{:?}/{:?}/{:?}/{:?}: reused workspace diverged from fresh-per-round",
                mac, dynamics, contention, traffic
            );
        }
    }
}

#[test]
fn queued_traffic_agrees_between_reused_and_fresh_workspaces() {
    // Poisson keeps cross-round queue state, the stickiest case for the
    // served/unserved bookkeeping rewrite — pin it separately.
    let scenario = Scenario::enterprise_office(8);
    let traffic = TrafficKind::Poisson {
        mean_arrivals_per_round: 0.4,
    };
    for mac in [MacKind::Midas, MacKind::Cas] {
        let reused = build_sim(
            &scenario,
            mac,
            None,
            ContentionModel::Graph,
            traffic,
            10,
            42,
            false,
        )
        .run();
        let fresh = build_sim(
            &scenario,
            mac,
            None,
            ContentionModel::Graph,
            traffic,
            10,
            42,
            true,
        )
        .run();
        assert_eq!(reused, fresh, "{mac:?}: Poisson queues diverged");
    }
}

#[test]
fn steady_state_rounds_do_not_grow_the_workspace() {
    // After one full run every scratch buffer has seen its worst case; a
    // second identical run must find every capacity already sufficient, so
    // the workspace's self-reported heap footprint cannot move.  This is the
    // allocation-discipline guarantee behind "steady state allocates
    // nothing": any per-round `Vec::push` past a warm capacity would show up
    // here as footprint growth.
    for (mac, contention) in [
        (MacKind::Midas, ContentionModel::Graph),
        (MacKind::Midas, ContentionModel::physical_calibrated()),
        (MacKind::Cas, ContentionModel::Graph),
    ] {
        let scenario = Scenario::enterprise_office(8);
        let mut sim = build_sim(
            &scenario,
            mac,
            None,
            contention,
            TrafficKind::FullBuffer,
            8,
            7,
            false,
        );
        let cold = sim.workspace_heap_footprint_bytes();
        // Two warm-up runs: buffer capacities are high-water marks, and the
        // channels keep evolving between runs, so the very first run may not
        // see the worst case (e.g. a busier spatial-index cell).  Everything
        // is seeded, so the fixed point below is deterministic.
        let first = sim.run();
        let second = sim.run();
        let warm = sim.workspace_heap_footprint_bytes();
        assert!(
            warm >= cold,
            "{mac:?}/{contention:?}: warm footprint {warm} below cold {cold}"
        );
        let third = sim.run();
        let steady = sim.workspace_heap_footprint_bytes();
        assert_eq!(
            warm, steady,
            "{mac:?}/{contention:?}: footprint grew after warm-up — a round allocated"
        );
        // Each run re-evolves the channels from where the last left off, so
        // the series differ — but all must be complete and finite.
        assert_eq!(first.per_round_capacity.len(), 8);
        assert_eq!(second.per_round_capacity.len(), 8);
        assert_eq!(third.per_round_capacity.len(), 8);
        assert!(third.mean_capacity().is_finite());
    }
}
