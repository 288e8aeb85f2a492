//! Property tests for the enterprise-scale subsystem (`midas_net::scale`).
//!
//! The load-bearing property is *exact equivalence*: the spatial index must
//! reproduce the brute-force O(n²) sweeps — same neighbourhood sets, same
//! AP adjacency — across random topologies, placements and interaction
//! ranges.  The simulator's two indexed lookups (sensing-table row
//! discovery and the gather stage's interferer lists) are held against
//! brute-force oracles by the unit tests in `simulator.rs`.

use midas_channel::geometry::{Point, Rect};
use midas_channel::topology::{Topology, TopologyConfig};
use midas_channel::{Environment, SimRng};
use midas_net::contention::ContentionGraph;
use midas_net::scale::grid::ClientPlacement;
use midas_net::scale::{associate, AssociationPolicy, FloorGrid, Scenario, SpatialIndex};
use midas_net::simulator::{MacKind, NetworkSimulator};
use proptest::prelude::*;

/// Draws a random floor grid covering all three placement models.
fn random_grid(cols: usize, rows: usize, spacing: f64, placement_sel: usize) -> FloorGrid {
    let placement = match placement_sel % 3 {
        0 => ClientPlacement::Uniform,
        1 => ClientPlacement::Hotspot {
            clusters: 2,
            sigma_m: 4.0,
        },
        _ => ClientPlacement::Corridor { width_m: 3.0 },
    };
    FloorGrid {
        clients_per_ap: 4,
        placement,
        ..FloorGrid::new(cols, rows, spacing)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SpatialIndex::neighbors_within` is set-identical (and, because both
    /// sides are id-sorted, sequence-identical) to the brute-force O(n²)
    /// pair scan, for random point clouds, query points and radii —
    /// including points outside the nominal bounds and infinite radii.
    #[test]
    fn spatial_index_matches_brute_force(
        seed in 0u64..1_000_000,
        n in 0usize..80,
        cell in 2.0f64..30.0,
        radius_sel in 0usize..8,
    ) {
        let region = Rect::new(Point::new(0.0, 0.0), 70.0, 50.0);
        let mut rng = SimRng::new(seed);
        let points: Vec<Point> = (0..n)
            .map(|_| Point::new(
                rng.uniform_range(-10.0, 80.0),
                rng.uniform_range(-10.0, 60.0),
            ))
            .collect();
        let index = SpatialIndex::from_points(region, cell, &points);
        let radius = match radius_sel {
            0 => 0.0,
            7 => f64::INFINITY,
            _ => rng.uniform_range(0.0, 60.0),
        };
        for _ in 0..5 {
            let q = Point::new(
                rng.uniform_range(-15.0, 85.0),
                rng.uniform_range(-15.0, 65.0),
            );
            prop_assert_eq!(
                index.neighbors_within(&q, radius),
                SpatialIndex::brute_force_within(&points, &q, radius)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The indexed AP-adjacency construction equals the all-pairs
    /// range-limited sweep on random floor grids.
    #[test]
    fn indexed_ap_adjacency_matches_pairwise_sweep(
        seed in 0u64..1_000_000,
        cols in 1usize..5,
        rows in 1usize..4,
        spacing in 8.0f64..20.0,
    ) {
        let mut rng = SimRng::new(seed);
        let grid = random_grid(cols, rows, spacing, seed as usize);
        let topo = grid
            .generate(&TopologyConfig::das(4, 4), &mut rng)
            .expect("valid grid");
        let env = Environment::open_plan();
        let graph = ContentionGraph::new(env, seed);
        let cutoff = env.interaction_range_m(30.0);
        let indexed = graph.ap_adjacency_indexed(&topo, cutoff);
        let n = topo.aps.len();
        for (a, row) in indexed.iter().enumerate() {
            for (b, &adjacent) in row.iter().enumerate() {
                let brute = a != b && graph.aps_share_domain_within(&topo, a, b, cutoff);
                prop_assert_eq!(
                    adjacent, brute,
                    "APs {} and {} disagree between indexed and brute-force adjacency", a, b
                );
            }
        }
        prop_assert_eq!(indexed.len(), n);
    }
}

/// Mean RSSI (dBm) of the best antenna (or chassis) of `ap` at `p` — the
/// association metric, replayed independently of `midas_net`.
fn rssi_dbm(env: &Environment, topo: &Topology, ap: usize, p: &Point) -> f64 {
    let best_d = topo.aps[ap]
        .antennas
        .iter()
        .map(|a| a.distance(p))
        .fold(topo.aps[ap].position.distance(p), f64::min);
    env.tx_power_dbm - env.path_loss.path_loss_db(best_d)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The `LoadBalanced` tie-break is pinned to the lexicographic order
    /// `(current load, ap id)`, processed in client-id order.  An
    /// independent sequential replay over the same candidate radius must
    /// reproduce `associate`'s assignment exactly — in particular, the
    /// all-qualify window (infinite hysteresis) makes *every* candidate a
    /// tie on RSSI, so any instability in the tie-break would diverge.
    #[test]
    fn load_balanced_ties_resolve_in_stable_order(
        seed in 0u64..1_000_000,
        cols in 2usize..5,
        rows in 1usize..4,
        spacing in 8.0f64..18.0,
    ) {
        let mut rng = SimRng::new(seed);
        let grid = random_grid(cols, rows, spacing, seed as usize);
        let mut topo = grid
            .generate(&TopologyConfig::das(4, 4), &mut rng)
            .expect("valid grid");
        let env = Environment::open_plan();

        // Independent replay: per client in id order, the pick is the least
        // `(load-so-far, ap id)` among the APs with an antenna or chassis
        // inside the candidate radius (everything, if none is in range).
        let radius = 2.0 * env.coverage_range_m();
        let mut loads = vec![0usize; topo.aps.len()];
        let mut expected = Vec::with_capacity(topo.clients.len());
        for c in &topo.clients {
            let mut cands: Vec<usize> = (0..topo.aps.len())
                .filter(|&ap| {
                    let chassis = topo.aps[ap].position.distance(&c.position);
                    topo.aps[ap]
                        .antennas
                        .iter()
                        .map(|a| a.distance(&c.position))
                        .fold(chassis, f64::min)
                        <= radius
                })
                .collect();
            if cands.is_empty() {
                cands = (0..topo.aps.len()).collect();
            }
            let pick = cands
                .into_iter()
                .min_by_key(|&ap| (loads[ap], ap))
                .expect("at least one AP");
            loads[pick] += 1;
            expected.push(pick);
        }

        associate(
            &mut topo,
            &env,
            AssociationPolicy::LoadBalanced { hysteresis_db: f64::INFINITY },
        );
        let got: Vec<usize> = topo.clients.iter().map(|c| c.ap_id).collect();
        prop_assert_eq!(got, expected);
    }

    /// With a *finite* window the pick must still be the least
    /// `(load, ap id)` among the in-window candidates at its turn — no
    /// client may sit on an AP while a strictly smaller qualifying pair
    /// existed when it was processed.
    #[test]
    fn load_balanced_picks_are_minimal_inside_the_window(
        seed in 0u64..1_000_000,
        hysteresis in 0.0f64..20.0,
    ) {
        let mut rng = SimRng::new(seed);
        let grid = random_grid(3, 2, 14.0, seed as usize);
        let mut topo = grid
            .generate(&TopologyConfig::das(4, 4), &mut rng)
            .expect("valid grid");
        let env = Environment::open_plan();
        associate(
            &mut topo,
            &env,
            AssociationPolicy::LoadBalanced { hysteresis_db: hysteresis },
        );

        // Replay the loads in client-id order and check minimality at each
        // step, over the same candidate radius `associate` used.
        let radius = 2.0 * env.coverage_range_m();
        let mut loads = vec![0usize; topo.aps.len()];
        for c in &topo.clients {
            let mut cands: Vec<usize> = (0..topo.aps.len())
                .filter(|&ap| {
                    let chassis = topo.aps[ap].position.distance(&c.position);
                    topo.aps[ap]
                        .antennas
                        .iter()
                        .map(|a| a.distance(&c.position))
                        .fold(chassis, f64::min)
                        <= radius
                })
                .collect();
            if cands.is_empty() {
                cands = (0..topo.aps.len()).collect();
            }
            let best = cands
                .iter()
                .map(|&ap| rssi_dbm(&env, &topo, ap, &c.position))
                .fold(f64::NEG_INFINITY, f64::max);
            let window: Vec<usize> = cands
                .into_iter()
                .filter(|&ap| rssi_dbm(&env, &topo, ap, &c.position) >= best - hysteresis)
                .collect();
            prop_assert!(window.contains(&c.ap_id), "client {} landed outside its window", c.id);
            let min = window
                .into_iter()
                .min_by_key(|&ap| (loads[ap], ap))
                .expect("non-empty window");
            prop_assert_eq!(
                (loads[c.ap_id], c.ap_id), (loads[min], min),
                "client {} took a non-minimal (load, ap) pair", c.id
            );
            loads[c.ap_id] += 1;
        }
    }
}

#[test]
fn a_64_ap_512_client_scenario_completes_quickly() {
    // Acceptance criterion: a full 64-AP / 512-client `NetworkSimulator`
    // run finishes in seconds.  The test budget is generous so CI noise
    // cannot flake it; locally this takes well under 10 s.
    let scenario = Scenario::enterprise_office(64);
    assert_eq!(scenario.num_aps(), 64);
    assert_eq!(scenario.num_clients(), 512);
    // lint: allow(wall-clock) — test-side perf guard: times the brute-force sweep to
    // assert the spatial index is not slower; never feeds a simulation result.
    let start = std::time::Instant::now();
    let pair = scenario.build(1).expect("64-AP scenario builds");
    let mut sim = NetworkSimulator::new(pair.das, scenario.sim_config(MacKind::Midas, 10, 1));
    let result = sim.run();
    let elapsed = start.elapsed();
    assert_eq!(result.per_round_capacity.len(), 10);
    assert!(result.mean_capacity() > 0.0 && result.mean_capacity().is_finite());
    assert_eq!(result.per_ap_capacity.len(), 64);
    // MIDAS at enterprise scale reuses spectrum: many APs transmit per round.
    assert!(
        result.mean_streams() > 8.0,
        "streams {}",
        result.mean_streams()
    );
    assert!(
        elapsed.as_secs() < 60,
        "64-AP run took {elapsed:?} — spatial index not effective"
    );
}
