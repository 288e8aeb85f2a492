//! Long-horizon dynamics suite: a network that runs for 10⁵ rounds with
//! mobility, roaming and churn must stay flat in memory, deterministic in
//! the seed, and — with dynamics off — byte-identical to the static
//! simulator.
//!
//! These are the acceptance tests for the dynamics layer: everything here
//! runs on a deliberately tiny floor (2 APs, 8 clients) so the 10⁵-round
//! horizon stays debug-build friendly; the *scale* axis is covered by
//! `proptest_scale.rs` and the bench suite.

use midas_channel::topology::{Topology, TopologyConfig};
use midas_channel::{Environment, SimRng};
use midas_net::dynamics::DynamicsSpec;
use midas_net::observer::RunningSummary;
use midas_net::scale::FloorGrid;
use midas_net::simulator::{NetworkSimConfig, NetworkSimulator};
use midas_net::traffic::TrafficKind;

/// 2-AP / 8-client DAS floor — small enough that 10⁵ debug rounds are fast.
fn tiny_floor(seed: u64) -> (Topology, Environment) {
    let mut rng = SimRng::new(seed);
    let grid = FloorGrid {
        clients_per_ap: 4,
        ..FloorGrid::new(2, 1, 15.0)
    };
    let topo = grid
        .generate(&TopologyConfig::das(2, 2), &mut rng)
        .expect("valid grid");
    (topo, Environment::open_plan())
}

/// Roaming walkers plus churn traffic.
fn dynamic_sim(rounds: usize, seed: u64) -> NetworkSimulator {
    let (topo, env) = tiny_floor(seed);
    let mut config = NetworkSimConfig::midas(env, seed);
    config.rounds = rounds;
    config.dynamics = Some(DynamicsSpec::roaming_walk(1.4));
    NetworkSimulator::new(topo, config).with_traffic_kind(TrafficKind::Churn {
        attached_fraction: 0.7,
        mean_session_rounds: 30.0,
    })
}

#[test]
fn a_hundred_thousand_round_run_is_flat_in_memory() {
    // Warm up, snapshot every retained-heap account, then run a 100 000
    // round horizon through a fixed-size observer: nothing may grow.  This
    // is the long-horizon acceptance criterion — session memory is
    // O(network size), not O(rounds).  Warm-up is 20 000 rounds because
    // the last high-water marks (worst-case handoff membership, waypoint
    // clustering) are rare events, not first-round allocations.
    let mut sim = dynamic_sim(20_000, 42);
    let mut warm_summary = RunningSummary::new();
    sim.run_with(&mut warm_summary);
    let warm_workspace = sim.workspace_heap_footprint_bytes();
    let warm_dynamics = sim.dynamics_heap_footprint_bytes();

    let mut long = dynamic_sim(100_000, 42);
    let mut summary = RunningSummary::new();
    long.run_with(&mut summary);
    assert_eq!(summary.rounds(), 100_000);
    assert_eq!(
        long.workspace_heap_footprint_bytes(),
        warm_workspace,
        "workspace grew between the warm snapshot and 10^5 rounds"
    );
    assert_eq!(
        long.dynamics_heap_footprint_bytes(),
        warm_dynamics,
        "dynamics state grew between the warm snapshot and 10^5 rounds"
    );
    assert_eq!(
        summary.heap_footprint_bytes(),
        warm_summary.heap_footprint_bytes(),
        "the streaming observer's footprint must not depend on the horizon"
    );

    // And the horizon was genuinely dynamic: clients moved and handed off.
    let (moves, handoffs) = long.dynamics_stats().expect("dynamics are on");
    assert!(moves > 0, "nobody moved in 10^5 rounds");
    assert!(handoffs > 0, "nobody handed off in 10^5 rounds");
    assert!(summary.capacity_sum() > 0.0);
}

/// Roaming walkers on the tiny floor with an interaction range short
/// enough that clients keep entering and leaving APs' ranges: channel rows
/// are born and freed every few steps.
fn finite_range_sim(rounds: usize, seed: u64) -> NetworkSimulator {
    let (topo, env) = tiny_floor(seed);
    let mut config = NetworkSimConfig::midas(env, seed);
    config.rounds = rounds;
    config.interaction_range_m = FINITE_RANGE_M;
    config.dynamics = Some(DynamicsSpec::roaming_walk(20.0));
    NetworkSimulator::new(topo, config).with_traffic_kind(TrafficKind::Churn {
        attached_fraction: 0.7,
        mean_session_rounds: 30.0,
    })
}

/// Interaction range of [`finite_range_sim`].
const FINITE_RANGE_M: f64 = 10.0;

#[test]
fn a_hundred_thousand_round_finite_range_run_keeps_its_rows_flat() {
    // The infinite-range test above never births or frees a row; here the
    // row set churns all run long, and the row capacity (free slots
    // included), the shadowing memos and the free lists must plateau at
    // their high-water marks like every other account.
    let mut warm = finite_range_sim(20_000, 42);
    warm.run_with(&mut RunningSummary::new());
    let mut long = finite_range_sim(100_000, 42);
    let mut summary = RunningSummary::new();
    long.run_with(&mut summary);
    assert_eq!(summary.rounds(), 100_000);
    assert_eq!(
        long.channel_row_slots(),
        warm.channel_row_slots(),
        "channel-row capacity grew after the warm snapshot"
    );
    assert_eq!(
        long.dynamics_heap_footprint_bytes(),
        warm.dynamics_heap_footprint_bytes()
    );
    assert_eq!(
        long.workspace_heap_footprint_bytes(),
        warm.workspace_heap_footprint_bytes()
    );
    let c = long.dynamics_counters().expect("dynamics are on");
    assert!(c.rows_born > 1_000 && c.rows_freed > 1_000, "{c:?}");
    // And the row set is still exactly its definition at the end.
    let topo = long.topology();
    for ap in 0..topo.aps.len() {
        let expected: Vec<usize> = topo
            .clients
            .iter()
            .filter(|c| {
                c.ap_id == ap
                    || topo.aps[ap]
                        .antennas
                        .iter()
                        .any(|a| a.distance(&c.position) <= FINITE_RANGE_M)
            })
            .map(|c| c.id)
            .collect();
        assert_eq!(long.channel_rows(ap).collect::<Vec<_>>(), expected);
    }
}

#[test]
fn dynamic_runs_are_deterministic_in_the_seed() {
    let a = dynamic_sim(300, 11).run();
    let b = dynamic_sim(300, 11).run();
    assert_eq!(a, b);
}

#[test]
fn dynamics_off_is_byte_identical_to_the_static_simulator() {
    // `config.dynamics = None` must take exactly the legacy code path:
    // same draws, same rows, same bytes.  (An *inactive* spec is filtered
    // to `None` at the session layer; a dynamic run whose dynamics never
    // step is byte-identical too, pinned in `dynamic_rows.rs`.)
    let (topo, env) = tiny_floor(5);
    let mut config = NetworkSimConfig::midas(env, 5);
    config.rounds = 50;
    let static_run = NetworkSimulator::new(topo.clone(), config).run();
    assert!(config.dynamics.is_none());
    let again = NetworkSimulator::new(topo, config).run();
    assert_eq!(static_run, again);
}

#[test]
fn a_long_static_run_with_churn_stays_flat_too() {
    // Churn alone (no mobility) exercises the queue/session bookkeeping on
    // the long horizon; it must be as allocation-flat as the dynamic path.
    let build = |rounds: usize| {
        let (topo, env) = tiny_floor(13);
        let mut config = NetworkSimConfig::midas(env, 13);
        config.rounds = rounds;
        NetworkSimulator::new(topo, config).with_traffic_kind(TrafficKind::Churn {
            attached_fraction: 0.5,
            mean_session_rounds: 20.0,
        })
    };
    let mut warm = build(1_000);
    let mut warm_summary = RunningSummary::new();
    warm.run_with(&mut warm_summary);

    let mut long = build(100_000);
    let mut summary = RunningSummary::new();
    long.run_with(&mut summary);
    assert_eq!(
        long.workspace_heap_footprint_bytes(),
        warm.workspace_heap_footprint_bytes()
    );
    assert_eq!(
        summary.heap_footprint_bytes(),
        warm_summary.heap_footprint_bytes()
    );
    assert_eq!(summary.rounds(), 100_000);
}
