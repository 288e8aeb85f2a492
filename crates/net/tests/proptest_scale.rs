//! Property tests for the enterprise-scale subsystem (`midas_net::scale`).
//!
//! The load-bearing property is *exact equivalence*: the spatial index must
//! reproduce the brute-force O(n²) sweeps — same neighbourhood sets, same
//! AP adjacency — across random topologies, placements and interaction
//! ranges, and the distance-ordered association and roaming passes must
//! make the picks and handoffs of passes that score every candidate in dB.
//! The simulator's two indexed lookups (sensing-table row discovery and
//! the gather stage's interferer lists) are held against brute-force
//! oracles by the unit tests in `simulator.rs`.

use midas_channel::geometry::{Point, Rect};
use midas_channel::topology::{Client, Deployment, Topology, TopologyConfig};
use midas_channel::{DeploymentKind, Environment, SimRng};
use midas_net::contention::ContentionGraph;
use midas_net::deployment::PairedTopology;
use midas_net::scale::grid::ClientPlacement;
use midas_net::scale::{
    associate, AssociationPolicy, FloorGrid, Reassociator, Scenario, SpatialIndex,
};
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
        let brute: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .filter(|&(a, b)| graph.aps_share_domain_within(&topo, a, b, cutoff))
            .collect();
        prop_assert_eq!(
            indexed, brute,
            "indexed and brute-force contending pairs disagree"
        );
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

/// The roaming pass that scores every candidate in dB: the oracle for
/// [`Reassociator::reassociate`], which ranks by distance.  Candidates are
/// the APs with a chassis or antenna within twice the coverage range,
/// found by a linear scan; the scoring and the handoff rules are the
/// engine's (see its docs).
fn reassociate_in_db(
    topo: &mut Topology,
    env: &Environment,
    policy: AssociationPolicy,
    hysteresis_db: f64,
) -> usize {
    let score = |topo: &Topology, ap: usize, p: &Point| {
        if policy == AssociationPolicy::NearestAp {
            env.tx_power_dbm
                - env
                    .path_loss
                    .path_loss_db(topo.aps[ap].position.distance(p))
        } else {
            rssi_dbm(env, topo, ap, p)
        }
    };
    let radius = 2.0 * env.coverage_range_m();
    let hysteresis = hysteresis_db.max(0.0);
    let mut loads = vec![0usize; topo.aps.len()];
    for c in &topo.clients {
        loads[c.ap_id] += 1;
    }
    let mut handoffs = 0;
    for cid in 0..topo.clients.len() {
        let p = topo.clients[cid].position;
        let incumbent = topo.clients[cid].ap_id;
        let cands: Vec<usize> = (0..topo.aps.len())
            .filter(|&ap| {
                std::iter::once(&topo.aps[ap].position)
                    .chain(&topo.aps[ap].antennas)
                    .any(|a| a.distance(&p) <= radius)
            })
            .collect();
        let incumbent_rssi = score(topo, incumbent, &p);
        let (mut best_ap, mut best_rssi) = (incumbent, incumbent_rssi);
        for &ap in cands.iter().filter(|&&ap| ap != incumbent) {
            let s = score(topo, ap, &p);
            if s > best_rssi || (s == best_rssi && ap < best_ap) {
                (best_ap, best_rssi) = (ap, s);
            }
        }
        if incumbent_rssi >= best_rssi - hysteresis {
            continue;
        }
        let pick = match policy {
            AssociationPolicy::LoadBalanced { .. } => {
                let (mut pick, mut pick_load) = (best_ap, loads[best_ap]);
                for &ap in &cands {
                    let s = score(topo, ap, &p);
                    if s >= best_rssi - hysteresis && (loads[ap], ap) < (pick_load, pick) {
                        (pick, pick_load) = (ap, loads[ap]);
                    }
                }
                pick
            }
            _ => best_ap,
        };
        if pick != incumbent {
            loads[incumbent] -= 1;
            loads[pick] += 1;
            topo.clients[cid].ap_id = pick;
            handoffs += 1;
        }
    }
    handoffs
}

/// The one-shot association that scores every candidate in dB: the oracle
/// for [`associate`], which ranks by distance.  Candidates are the APs with
/// a chassis or antenna within twice the coverage range (every AP when
/// none is), found by a linear scan; the strongest score wins with ties to
/// the lowest AP id, and `LoadBalanced` takes the least `(current load, ap
/// id)` inside its window, keeping the strongest when the window is empty.
fn associate_in_db(topo: &mut Topology, env: &Environment, policy: AssociationPolicy) {
    let score = |topo: &Topology, ap: usize, p: &Point| {
        if policy == AssociationPolicy::NearestAp {
            env.tx_power_dbm
                - env
                    .path_loss
                    .path_loss_db(topo.aps[ap].position.distance(p))
        } else {
            rssi_dbm(env, topo, ap, p)
        }
    };
    let radius = 2.0 * env.coverage_range_m();
    let mut loads = vec![0usize; topo.aps.len()];
    for cid in 0..topo.clients.len() {
        let p = topo.clients[cid].position;
        let mut cands: Vec<usize> = (0..topo.aps.len())
            .filter(|&ap| {
                std::iter::once(&topo.aps[ap].position)
                    .chain(&topo.aps[ap].antennas)
                    .any(|a| a.distance(&p) <= radius)
            })
            .collect();
        if cands.is_empty() {
            cands = (0..topo.aps.len()).collect();
        }
        let scored: Vec<(usize, f64)> = cands.iter().map(|&ap| (ap, score(topo, ap, &p))).collect();
        let (mut best_ap, mut best) = (usize::MAX, f64::NEG_INFINITY);
        for &(ap, s) in &scored {
            if s > best {
                (best_ap, best) = (ap, s);
            }
        }
        let pick = match policy {
            AssociationPolicy::LoadBalanced { hysteresis_db } => {
                let (mut pick, mut pick_load) = (best_ap, usize::MAX);
                for &(ap, s) in &scored {
                    if s >= best - hysteresis_db && loads[ap] < pick_load {
                        (pick, pick_load) = (ap, loads[ap]);
                    }
                }
                pick
            }
            _ => best_ap,
        };
        loads[pick] += 1;
        topo.clients[cid].ap_id = pick;
    }
}

/// The policies the association equivalence checks run under.
const POLICIES: [AssociationPolicy; 5] = [
    AssociationPolicy::NearestAp,
    AssociationPolicy::AntennaAware,
    AssociationPolicy::LoadBalanced { hysteresis_db: 0.0 },
    AssociationPolicy::LoadBalanced { hysteresis_db: 3.0 },
    AssociationPolicy::LoadBalanced { hysteresis_db: 6.0 },
];

/// The open-plan environment, or (odd `sel`) the dense-apartment one: a
/// path loss with heavy walls.
fn random_environment(sel: u64) -> Environment {
    if sel.is_multiple_of(2) {
        Environment::open_plan()
    } else {
        let mut env = Environment::office_b();
        env.path_loss.wall_loss_db_per_m = 0.8;
        env
    }
}

/// Clients appended to `topo` on the boundaries of the distance order: two
/// sit within 1 m of an antenna of AP 0 and one of AP 1, where the path
/// loss is clamped flat and the nearer antenna (AP 1's) only ties; two sit
/// exactly equidistant from an antenna of each.  Each pair has one client
/// on AP 1 and one on the last AP.  A fifth, on AP 0, sits 1e-10 m nearer
/// to AP 1's antenna: its squares differ by less than the roaming band, its
/// scores by ~2e-9 dB.  The spots are integer points (so the offsets are
/// exact) at least 4 m from every other chassis and antenna; returns the
/// clients' ids, none when the floor has one AP or no such spot.
fn add_boundary_clients(topo: &mut Topology) -> Vec<usize> {
    if topo.aps.len() < 2 {
        return Vec::new();
    }
    // Antennas 0 and 1 of APs 0 and 1 are moved next to the spots.
    let others: Vec<Point> = topo
        .aps
        .iter()
        .flat_map(|ap| {
            let skip = if ap.ap_id < 2 { 2 } else { 0 };
            std::iter::once(ap.position).chain(ap.antennas.iter().skip(skip).copied())
        })
        .collect();
    let region = topo.region;
    let clear = |p: Point| others.iter().all(|q| q.distance(&p) >= 4.0);
    let spot = (region.min.y.ceil() as i64 + 2..=region.max.y.floor() as i64 - 5)
        .flat_map(|y| {
            (region.min.x.ceil() as i64 + 2..=region.max.x.floor() as i64 - 2)
                .map(move |x| Point::new(x as f64, y as f64))
        })
        .find(|&p| clear(p) && clear(Point::new(p.x, p.y + 3.0)));
    let Some(clamp_at) = spot else {
        return Vec::new();
    };
    let tie_at = Point::new(clamp_at.x, clamp_at.y + 3.0);
    topo.aps[0].antennas[0] = Point::new(clamp_at.x - 0.75, clamp_at.y);
    topo.aps[1].antennas[0] = Point::new(clamp_at.x + 0.5, clamp_at.y);
    topo.aps[0].antennas[1] = Point::new(tie_at.x - 1.5, tie_at.y);
    topo.aps[1].antennas[1] = Point::new(tie_at.x + 1.5, tie_at.y);
    let last = topo.aps.len() - 1;
    let mut ids = Vec::new();
    let near_tie = Point::new(tie_at.x + 1e-10, tie_at.y);
    for (position, ap_id) in [
        (clamp_at, 1),
        (clamp_at, last),
        (tie_at, 1),
        (tie_at, last),
        (near_tie, 0),
    ] {
        let id = topo.clients.len();
        topo.clients.push(Client {
            id,
            ap_id,
            position,
        });
        ids.push(id);
    }
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The distance-ordered roaming pass makes the same handoffs, and so
    /// leaves the same loads, as the pass that scores every candidate in
    /// dB, under all three policies and hysteresis 0, 3 and 6 dB, from
    /// scrambled associations through a walk — including clients inside
    /// the 1 m clamp and clients equidistant from two APs.
    #[test]
    fn distance_ordered_roaming_matches_the_db_scored_pass(
        seed in 0u64..1_000_000,
        cols in 1usize..5,
        rows in 1usize..4,
        spacing in 8.0f64..20.0,
    ) {
        let mut rng = SimRng::new(seed);
        let grid = random_grid(cols, rows, spacing, seed as usize);
        let mut floor = grid
            .generate(&TopologyConfig::das(4, 4), &mut rng)
            .expect("valid grid");
        let n_aps = floor.aps.len();
        for c in &mut floor.clients {
            c.ap_id = (c.id * 7 + 3) % n_aps;
        }
        let fixed = add_boundary_clients(&mut floor);
        let env = Environment::open_plan();
        let loads = |t: &Topology| {
            let mut l = vec![0usize; t.aps.len()];
            for c in &t.clients {
                l[c.ap_id] += 1;
            }
            l
        };
        for policy in [
            AssociationPolicy::NearestAp,
            AssociationPolicy::AntennaAware,
            AssociationPolicy::LoadBalanced { hysteresis_db: 3.0 },
        ] {
            for hysteresis in [0.0, 3.0, 6.0] {
                let (mut fast, mut oracle) = (floor.clone(), floor.clone());
                let mut roam = Reassociator::new(&fast, &env);
                let mut walk = SimRng::new(seed ^ 0x5eed);
                for step in 0..6 {
                    if step > 0 {
                        for c in 0..fast.clients.len() {
                            if fixed.contains(&c) {
                                continue;
                            }
                            let next = fast.clients[c]
                                .position
                                .offset_polar(4.0, walk.uniform_range(0.0, 6.3));
                            let next = Point::new(
                                next.x.clamp(fast.region.min.x, fast.region.max.x),
                                next.y.clamp(fast.region.min.y, fast.region.max.y),
                            );
                            fast.clients[c].position = next;
                            oracle.clients[c].position = next;
                            roam.move_client(c, next);
                        }
                    }
                    let handoffs = roam.reassociate(&mut fast, &env, policy, hysteresis);
                    let expected = reassociate_in_db(&mut oracle, &env, policy, hysteresis);
                    prop_assert_eq!(handoffs, expected, "{:?} at {} dB, step {}", policy, hysteresis, step);
                    prop_assert_eq!(loads(&fast), loads(&oracle), "{:?} at {} dB, step {}", policy, hysteresis, step);
                    for (x, y) in fast.clients.iter().zip(&oracle.clients) {
                        prop_assert_eq!(x.ap_id, y.ap_id, "client {}", x.id);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The distance-ordered association makes the picks of the pass that
    /// scores every candidate in dB, under all three policies
    /// (`LoadBalanced` at 0, 3 and 6 dB), on random floors and two path-loss
    /// models — including clients inside the 1 m clamp, clients exactly
    /// equidistant from two APs' antennas and a client 1e-10 m off that.
    #[test]
    fn distance_ordered_association_matches_the_db_scored_pass(
        seed in 0u64..1_000_000,
        cols in 1usize..5,
        rows in 1usize..4,
        spacing in 8.0f64..20.0,
    ) {
        let mut rng = SimRng::new(seed);
        let grid = random_grid(cols, rows, spacing, seed as usize);
        let mut floor = grid
            .generate(&TopologyConfig::das(4, 4), &mut rng)
            .expect("valid grid");
        add_boundary_clients(&mut floor);
        let env = random_environment(seed / 3);
        for policy in POLICIES {
            let (mut fast, mut oracle) = (floor.clone(), floor.clone());
            associate(&mut fast, &env, policy);
            associate_in_db(&mut oracle, &env, policy);
            for (x, y) in fast.clients.iter().zip(&oracle.clients) {
                prop_assert_eq!(x.ap_id, y.ap_id, "{:?}: client {}", policy, x.id);
            }
        }
    }

    /// `generate_paired` is `generate` followed by `associate` on both
    /// variants: the same draws, and the same association without the
    /// nearest-chassis pass it skips.
    #[test]
    fn generate_paired_is_generate_then_associate(
        seed in 0u64..1_000_000,
        cols in 1usize..5,
        rows in 1usize..4,
        spacing in 8.0f64..20.0,
        policy_sel in 0usize..5,
    ) {
        let grid = random_grid(cols, rows, spacing, seed as usize);
        let config = TopologyConfig::das(4, 4);
        let env = random_environment(seed / 3);
        let policy = POLICIES[policy_sel];
        let pair = grid
            .generate_paired(&config, &env, policy, &mut SimRng::new(seed))
            .expect("valid grid");
        let mut rng = SimRng::new(seed);
        let das = grid
            .generate(&TopologyConfig { kind: DeploymentKind::Das, ..config }, &mut rng)
            .expect("valid grid");
        let mut expected = PairedTopology::from_das(das, &config, &mut rng);
        associate(&mut expected.cas, &env, policy);
        associate(&mut expected.das, &env, policy);
        prop_assert_eq!(pair.cas, expected.cas);
        prop_assert_eq!(pair.das, expected.das);
    }
}

#[test]
fn association_ties_in_db_go_to_the_lowest_ap_id_whatever_the_squares() {
    // Two single-antenna APs 1.25 m from (1, 1), AP 0 due east and AP 1 on
    // a 3-4-5 diagonal.  A search over client positions a few ulps off
    // (1, 1) finds one where the computed squares rank AP 1 strictly
    // nearer while both score the same dB, so the tie goes to AP 0: only
    // scoring every candidate within the band of the nearest square gets
    // that right.
    let env = Environment::open_plan();
    let ap = |ap_id: usize, position: Point| Deployment {
        ap_id,
        position,
        kind: DeploymentKind::Cas,
        antennas: vec![position],
    };
    let nudge = |x: f64, ulps: i64| f64::from_bits((x.to_bits() as i64 + ulps) as u64);
    let square = |a: &Point, c: &Point| {
        let (dx, dy) = (a.x - c.x, a.y - c.y);
        dx * dx + dy * dy
    };
    let (ap0, ap1) = (Point::new(2.25, 1.0), Point::new(0.25, 2.0));
    let found = (-40..=40)
        .flat_map(|i| (-40..=40).map(move |j| Point::new(nudge(1.0, i), nudge(1.0, j))))
        .find_map(|client| {
            let topo = Topology {
                region: Rect::new(Point::new(0.0, 0.0), 10.0, 10.0),
                aps: vec![ap(0, ap0), ap(1, ap1)],
                clients: vec![Client {
                    id: 0,
                    ap_id: 1,
                    position: client,
                }],
            };
            let ties = rssi_dbm(&env, &topo, 0, &client) == rssi_dbm(&env, &topo, 1, &client);
            (square(&ap1, &client) < square(&ap0, &client) && ties).then_some(topo)
        });
    let topo = found.expect("no client position ranks AP 1 nearer by squares at an equal score");
    for policy in POLICIES {
        let (mut fast, mut oracle) = (topo.clone(), topo.clone());
        associate(&mut fast, &env, policy);
        associate_in_db(&mut oracle, &env, policy);
        assert_eq!(
            oracle.clients[0].ap_id, 0,
            "{policy:?}: the dB tie goes to AP 0"
        );
        assert_eq!(fast.clients[0].ap_id, 0, "{policy:?}");
    }
}

#[test]
fn boundary_clients_settle_by_the_db_tie_rule() {
    // The boundary clients of the property above, checked by hand: inside
    // the clamp AP 0 and AP 1 score the same although AP 1's antenna is
    // nearer, and the equidistant client scores the same at both; equal
    // scores go to the lower AP id, and an incumbent on an equal score
    // stays.  The near-tie client's AP 1 scores higher by less than any
    // hysteresis but 0 dB.
    let mut rng = SimRng::new(5);
    let mut topo = FloorGrid::new(3, 1, 12.0)
        .generate(&TopologyConfig::das(4, 4), &mut rng)
        .expect("valid grid");
    let ids = add_boundary_clients(&mut topo);
    assert_eq!(ids.len(), 5, "no clear spot on the test floor");
    let env = Environment::open_plan();
    for hysteresis in [0.0, 3.0, 6.0] {
        let mut t = topo.clone();
        let policy = AssociationPolicy::AntennaAware;
        Reassociator::new(&t, &env).reassociate(&mut t, &env, policy, hysteresis);
        let aps: Vec<usize> = ids.iter().map(|&c| t.clients[c].ap_id).collect();
        let near_tie = if hysteresis == 0.0 { 1 } else { 0 };
        assert_eq!(aps, [1, 0, 1, 0, near_tie], "at {hysteresis} dB");
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

#[test]
fn channel_bytes_per_row_stay_flat_as_the_floor_grows() {
    // Set-up keeps only the rows in radio range, so the channel state costs
    // the same per row on a 64-AP and a 256-AP office.  A per-AP map over
    // every client (8 bytes each) would add ~30 and ~110 bytes a row.
    let bytes_per_row = |aps: usize| {
        let scenario = Scenario::enterprise_office(aps);
        let pair = scenario.build(1).expect("office builds");
        let sim = NetworkSimulator::new(pair.das, scenario.sim_config(MacKind::Midas, 1, 1));
        sim.channel_heap_footprint_bytes() as f64 / sim.channel_row_slots() as f64
    };
    let (small, large) = (bytes_per_row(64), bytes_per_row(256));
    // 4 antennas x (16 + 8) bytes of gains, an 8-byte bookmark and an
    // 8-byte list entry: 112 bytes, plus the per-AP headers.
    for b in [small, large] {
        assert!(
            b < 120.0,
            "{b:.1} bytes per row (64 APs: {small:.1}, 256 APs: {large:.1})"
        );
    }
    assert!(
        (large - small).abs() <= 0.1 * small,
        "bytes per row moved from {small:.1} to {large:.1}"
    );
}
