//! Pluggable client-association policies.
//!
//! At the paper's 8-AP scale every client simply belongs to the AP it was
//! generated around; at enterprise scale *which* AP a client associates with
//! becomes a real design axis — and with DAS the answer changes, because a
//! client may sit far from every AP chassis yet right next to one AP's
//! distributed antenna.  Association uses the **mean** (large-scale,
//! fading-free) RSSI, the quantity real clients average over beacons; with
//! the monotone path-loss models of `midas-channel` this is a strictly
//! decreasing function of distance, so candidate pruning can ride the
//! spatial index.

use crate::scale::index::{squared_distance, NeighborTracker, SpatialIndex, SQUARE_BAND};
use midas_channel::pathloss::REFERENCE_DISTANCE_M;
use midas_channel::topology::Topology;
use midas_channel::{Environment, Point};

/// How clients pick their AP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AssociationPolicy {
    /// Strongest mean RSSI from the AP **chassis** position — what a
    /// conventional scan-and-join client does, and all a CAS deployment can
    /// offer (its antennas sit at the chassis).
    NearestAp,
    /// Strongest mean RSSI over every **individual antenna** — the
    /// DAS-aware policy: a client adopts the AP whose distributed antenna
    /// is closest, even when that AP's chassis is remote.
    AntennaAware,
    /// Antenna-aware with load balancing: among the APs whose best-antenna
    /// RSSI is within `hysteresis_db` of the strongest, pick the one
    /// currently serving the fewest clients (ties to the lowest AP id).
    /// Clients are processed in id order, so the result is deterministic.
    LoadBalanced {
        /// RSSI window (dB) within which APs are considered equivalent.
        hysteresis_db: f64,
    },
}

/// Mean RSSI scoring of candidate APs under one environment, with the
/// reference path loss evaluated once per pass instead of per candidate.
struct RssiScore<'a> {
    env: &'a Environment,
    reference_loss_db: f64,
    /// Score the chassis alone (what a CAS-style scan sees) rather than the
    /// best individual antenna.
    chassis_only: bool,
}

impl<'a> RssiScore<'a> {
    fn new(env: &'a Environment, chassis_only: bool) -> Self {
        RssiScore {
            env,
            reference_loss_db: env.path_loss.reference_loss_db(),
            chassis_only,
        }
    }

    /// Squared distance (m²) from `p` to the nearest antenna or chassis of
    /// `ap_id` — the chassis alone when `chassis_only` — clamped below at
    /// the path-loss reference distance, where the loss stops changing.
    /// Under a path loss that grows with distance, a smaller value means a
    /// stronger [`best_rssi_dbm`](Self::best_rssi_dbm).
    fn clamped_square(&self, topo: &Topology, ap_id: usize, p: &Point) -> f64 {
        let ap = &topo.aps[ap_id];
        let chassis = squared_distance(p, &ap.position);
        let d2 = if self.chassis_only {
            chassis
        } else {
            ap.antennas
                .iter()
                .map(|a| squared_distance(p, a))
                .fold(chassis, f64::min)
        };
        d2.max(REFERENCE_DISTANCE_M * REFERENCE_DISTANCE_M)
    }

    /// Mean RSSI (dBm) of the best antenna of `ap_id` at `p` — or of the
    /// chassis itself when `chassis_only`.
    fn best_rssi_dbm(&self, topo: &Topology, ap_id: usize, p: &Point) -> f64 {
        let ap = &topo.aps[ap_id];
        let d = if self.chassis_only {
            ap.position.distance(p)
        } else {
            ap.antennas
                .iter()
                .map(|a| a.distance(p))
                .fold(ap.position.distance(p), f64::min)
        };
        self.env.tx_power_dbm
            - self
                .env
                .path_loss
                .path_loss_db_from(self.reference_loss_db, d)
    }
}

/// Re-associates every client of `topo` under `policy`.
///
/// Candidate APs per client are discovered through a [`SpatialIndex`] over
/// all antenna positions (O(k) per client instead of a scan over every AP);
/// a client out of range of every antenna falls back to the globally
/// strongest AP so nobody is left orphaned.
pub fn associate(topo: &mut Topology, env: &Environment, policy: AssociationPolicy) {
    if topo.aps.is_empty() {
        return;
    }
    // Index every antenna plus every chassis, tagged with its AP.
    let mut owner: Vec<usize> = Vec::new();
    let mut index = SpatialIndex::new(topo.region, env.coverage_range_m().max(1.0));
    for ap in &topo.aps {
        index.insert(ap.position);
        owner.push(ap.ap_id);
        for &a in &ap.antennas {
            index.insert(a);
            owner.push(ap.ap_id);
        }
    }
    // Beyond twice the coverage range no AP is a plausible candidate; the
    // global fallback below covers pathological floors.
    let candidate_radius = 2.0 * env.coverage_range_m();

    let score = RssiScore::new(env, policy == AssociationPolicy::NearestAp);
    let mut loads = vec![0usize; topo.aps.len()];
    let positions: Vec<Point> = topo.clients.iter().map(|c| c.position).collect();
    let mut chosen: Vec<usize> = Vec::with_capacity(positions.len());
    for p in &positions {
        let mut candidates: Vec<usize> = index
            .neighbors_within(p, candidate_radius)
            .into_iter()
            .map(|id| owner[id])
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        if candidates.is_empty() {
            candidates = (0..topo.aps.len()).collect();
        }

        let scored: Vec<(usize, f64)> = candidates
            .iter()
            .map(|&ap| (ap, score.best_rssi_dbm(topo, ap, p)))
            .collect();
        let best = scored
            .iter()
            .copied()
            .fold((usize::MAX, f64::NEG_INFINITY), |acc, (ap, s)| {
                if s > acc.1 {
                    (ap, s)
                } else {
                    acc
                }
            });

        let pick = match policy {
            AssociationPolicy::NearestAp | AssociationPolicy::AntennaAware => best.0,
            AssociationPolicy::LoadBalanced { hysteresis_db } => {
                // Total order over the qualifying window: lexicographic
                // `(current load, ap id)`, lowest wins.  `scored` ascends in
                // AP id and the load comparison is strict, so equal-RSSI /
                // equal-load ties always resolve to the lowest AP id — the
                // stable tie-break the per-round roaming path (and
                // 1-vs-4-thread bit-identity) relies on.  Pinned by the
                // property tests in `proptest_scale.rs`.
                let mut pick = best.0;
                let mut pick_load = usize::MAX;
                for &(ap, s) in &scored {
                    if s >= best.1 - hysteresis_db && loads[ap] < pick_load {
                        pick = ap;
                        pick_load = loads[ap];
                    }
                }
                pick
            }
        };
        loads[pick] += 1;
        chosen.push(pick);
    }
    for (client, ap_id) in topo.clients.iter_mut().zip(chosen) {
        client.ap_id = ap_id;
    }
}

/// Incremental roaming engine: per-round, incumbent-aware re-association.
///
/// [`associate`] rebuilds its candidate index on every call — fine for
/// one-shot topology generation, wasteful when the dynamics layer
/// re-associates every round.  `Reassociator` keeps every client's
/// candidate APs (those with a chassis or antenna within twice the
/// coverage range) in a slack-tracked [`NeighborTracker`]: a moved client
/// is re-queried only once it has travelled farther than its distance to
/// the nearest candidate boundary, so a pass costs the scoring alone, and
/// the candidate sets — hence every handoff decision — are exactly those a
/// from-scratch query would find.  Steady-state roaming allocates nothing.
///
/// ## Handoff semantics
///
/// A client sticks with its incumbent AP while the incumbent's mean RSSI is
/// within `hysteresis_db` of the best candidate's.  Only when the incumbent
/// falls below that window does the client hand off: [`NearestAp`] /
/// [`AntennaAware`] pick the strongest candidate (lowest AP id on exact
/// RSSI ties), [`LoadBalanced`] picks the lexicographically least
/// `(current load, ap id)` among the candidates inside the window.  The
/// explicit `hysteresis_db` argument governs both the stickiness and the
/// load-equivalence window here; the policy's embedded window applies to
/// fresh [`associate`] passes only.
///
/// Because a freshly handed-off client lands inside the window by
/// construction, a static topology reaches a fix-point after one pass —
/// handoffs cannot oscillate — which the property tests pin.
///
/// ## Scoring in distance order
///
/// The mean RSSI is `tx_power − PL(d)`, and the path loss grows with the
/// distance above its 1 m reference and is flat below it.  So a pass ranks
/// the candidates by their squared distance to their nearest antenna or
/// chassis (the chassis alone under [`NearestAp`]), clamped at 1 m², and
/// evaluates a path loss only where the dB decides: at the candidates
/// within a relative `SQUARE_BAND` of the smallest (so equal scores still
/// go to the lowest AP id), at the incumbent for the hysteresis test, and
/// across the [`LoadBalanced`] window once a client hands off.  A client
/// whose incumbent is the only near-minimal candidate stays put without a
/// path loss.  Outside the band two scores differ by far more than their
/// rounding (at least 6.5e-9 dB at the presets' exponents of 3 and up,
/// against ~1e-13 dB), so every decision is the one scoring every
/// candidate in dB makes, which `proptest_scale.rs` checks against that
/// pass.
///
/// [`NearestAp`]: AssociationPolicy::NearestAp
/// [`AntennaAware`]: AssociationPolicy::AntennaAware
/// [`LoadBalanced`]: AssociationPolicy::LoadBalanced
pub struct Reassociator {
    /// Candidate APs of every client: groups of the chassis + antenna
    /// positions within twice the coverage range.
    candidates: NeighborTracker,
    loads: Vec<usize>,
    /// Pass scratch: the client's candidates other than its incumbent, with
    /// their clamped squared distances.
    ranked: Vec<(u32, f64)>,
    /// Path losses evaluated by passes so far.
    scores: usize,
}

impl Reassociator {
    /// Builds the candidate tracker for `topo`, querying every client once.
    ///
    /// # Panics
    ///
    /// If `env.path_loss` does not strictly grow with distance above its
    /// reference distance — a negative `exponent` or `wall_loss_db_per_m`,
    /// or both 0 — since the distance order would then not be the RSSI
    /// order.
    pub fn new(topo: &Topology, env: &Environment) -> Self {
        let (exponent, wall) = (env.path_loss.exponent, env.path_loss.wall_loss_db_per_m);
        assert!(
            exponent >= 0.0,
            "PathLossModel::exponent must be >= 0 for roaming, got {exponent}"
        );
        assert!(
            wall >= 0.0,
            "PathLossModel::wall_loss_db_per_m must be >= 0 for roaming, got {wall}"
        );
        assert!(
            exponent > 0.0 || wall > 0.0,
            "PathLossModel::exponent and PathLossModel::wall_loss_db_per_m are both 0: \
             roaming needs a path loss that grows with distance"
        );
        let mut fixed = Vec::new();
        let mut owner = Vec::new();
        for ap in &topo.aps {
            for &pos in std::iter::once(&ap.position).chain(ap.antennas.iter()) {
                fixed.push(pos);
                owner.push(ap.ap_id as u32);
            }
        }
        let clients: Vec<Point> = topo.clients.iter().map(|c| c.position).collect();
        Reassociator {
            candidates: NeighborTracker::new(
                topo.region,
                &fixed,
                &owner,
                2.0 * env.coverage_range_m(),
                &clients,
            ),
            loads: Vec::new(),
            ranked: Vec::new(),
            scores: 0,
        }
    }

    /// Moves a client, re-querying its candidates only if it left its
    /// slack disc.
    pub fn move_client(&mut self, client_id: usize, p: Point) {
        self.candidates.update(client_id, p);
    }

    /// Candidate re-queries performed by client moves so far.
    pub fn requeries(&self) -> usize {
        self.candidates.requeries()
    }

    /// Path losses (mean-RSSI scores) evaluated by passes so far.
    pub fn scores(&self) -> usize {
        self.scores
    }

    /// Bytes of heap the roaming engine retains; stable once warm.
    pub fn heap_footprint_bytes(&self) -> usize {
        self.candidates.heap_footprint_bytes()
            + self.loads.capacity() * std::mem::size_of::<usize>()
            + self.ranked.capacity() * std::mem::size_of::<(u32, f64)>()
    }

    /// One incumbent-aware re-association pass over every client (in client
    /// id order).  Returns the number of handoffs performed.
    pub fn reassociate(
        &mut self,
        topo: &mut Topology,
        env: &Environment,
        policy: AssociationPolicy,
        hysteresis_db: f64,
    ) -> usize {
        if topo.aps.is_empty() || topo.clients.is_empty() {
            return 0;
        }
        self.loads.clear();
        self.loads.resize(topo.aps.len(), 0);
        for c in &topo.clients {
            self.loads[c.ap_id] += 1;
        }

        let score = RssiScore::new(env, policy == AssociationPolicy::NearestAp);
        let hysteresis = hysteresis_db.max(0.0);
        let mut handoffs = 0usize;
        for cid in 0..topo.clients.len() {
            let p = topo.clients[cid].position;
            let incumbent = topo.clients[cid].ap_id;
            let cands = self.candidates.groups(cid);

            // Rank by clamped squared distance; only the near-minimal
            // candidates can hold the best score.
            let incumbent_d2 = score.clamped_square(topo, incumbent, &p);
            let mut nearest_d2 = incumbent_d2;
            self.ranked.clear();
            for &ap in cands.iter() {
                if ap as usize != incumbent {
                    let d2 = score.clamped_square(topo, ap as usize, &p);
                    nearest_d2 = nearest_d2.min(d2);
                    self.ranked.push((ap, d2));
                }
            }
            let ceiling = nearest_d2 * (1.0 + SQUARE_BAND);
            if incumbent_d2 <= ceiling && self.ranked.iter().all(|&(_, d2)| d2 > ceiling) {
                continue; // the incumbent is the strongest by a margin
            }

            let incumbent_rssi = score.best_rssi_dbm(topo, incumbent, &p);
            self.scores += 1;
            let mut best_ap = incumbent;
            let mut best_rssi = incumbent_rssi;
            for &(ap, d2) in &self.ranked {
                if d2 > ceiling {
                    continue;
                }
                let ap = ap as usize;
                let s = score.best_rssi_dbm(topo, ap, &p);
                self.scores += 1;
                if s > best_rssi || (s == best_rssi && ap < best_ap) {
                    best_ap = ap;
                    best_rssi = s;
                }
            }
            if incumbent_rssi >= best_rssi - hysteresis {
                continue; // sticky: the incumbent is still good enough
            }
            let pick = match policy {
                AssociationPolicy::NearestAp | AssociationPolicy::AntennaAware => best_ap,
                AssociationPolicy::LoadBalanced { .. } => {
                    // Least `(current load, ap id)` inside the window — the
                    // same total order the fresh pass uses.
                    let mut pick = best_ap;
                    let mut pick_load = self.loads[best_ap];
                    for &ap in cands.iter() {
                        let ap = ap as usize;
                        let s = score.best_rssi_dbm(topo, ap, &p);
                        self.scores += 1;
                        if s >= best_rssi - hysteresis && (self.loads[ap], ap) < (pick_load, pick) {
                            pick = ap;
                            pick_load = self.loads[ap];
                        }
                    }
                    pick
                }
            };
            if pick != incumbent {
                self.loads[incumbent] -= 1;
                self.loads[pick] += 1;
                topo.clients[cid].ap_id = pick;
                handoffs += 1;
            }
        }
        handoffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::grid::FloorGrid;
    use midas_channel::topology::TopologyConfig;
    use midas_channel::SimRng;

    fn grid_topology(seed: u64) -> (Topology, Environment) {
        let mut rng = SimRng::new(seed);
        let grid = FloorGrid::new(4, 2, 15.0);
        let topo = grid
            .generate(&TopologyConfig::das(4, 4), &mut rng)
            .expect("valid grid");
        (topo, Environment::open_plan())
    }

    #[test]
    fn nearest_ap_matches_chassis_distance() {
        let (mut topo, env) = grid_topology(1);
        associate(&mut topo, &env, AssociationPolicy::NearestAp);
        for c in &topo.clients {
            let own = topo.aps[c.ap_id].position.distance(&c.position);
            for ap in &topo.aps {
                assert!(
                    ap.position.distance(&c.position) >= own - 1e-9,
                    "client {} associated past a closer AP",
                    c.id
                );
            }
        }
    }

    #[test]
    fn antenna_aware_matches_best_antenna_distance() {
        let (mut topo, env) = grid_topology(2);
        associate(&mut topo, &env, AssociationPolicy::AntennaAware);
        let best_d = |topo: &Topology, ap_id: usize, p: &Point| {
            topo.aps[ap_id]
                .antennas
                .iter()
                .map(|a| a.distance(p))
                .fold(topo.aps[ap_id].position.distance(p), f64::min)
        };
        for c in &topo.clients {
            let own = best_d(&topo, c.ap_id, &c.position);
            for ap_id in 0..topo.aps.len() {
                assert!(best_d(&topo, ap_id, &c.position) >= own - 1e-9);
            }
        }
    }

    #[test]
    fn antenna_aware_differs_from_nearest_ap_on_das_floors() {
        // Distributed antennas must actually flip some associations —
        // otherwise the policy axis is vacuous.
        let mut flips = 0usize;
        for seed in 0..5 {
            let (mut a, env) = grid_topology(100 + seed);
            let mut b = a.clone();
            associate(&mut a, &env, AssociationPolicy::NearestAp);
            associate(&mut b, &env, AssociationPolicy::AntennaAware);
            flips += a
                .clients
                .iter()
                .zip(b.clients.iter())
                .filter(|(x, y)| x.ap_id != y.ap_id)
                .count();
        }
        assert!(flips > 0, "antenna-aware association never differed");
    }

    #[test]
    fn load_balancing_tightens_the_client_spread() {
        // Hotspot floors overload one AP under pure RSSI association; the
        // load-balanced policy must spread the peak.
        let mut rng = SimRng::new(7);
        let grid = FloorGrid {
            clients_per_ap: 12,
            placement: crate::scale::grid::ClientPlacement::Hotspot {
                clusters: 1,
                sigma_m: 8.0,
            },
            ..FloorGrid::new(3, 2, 14.0)
        };
        let env = Environment::open_plan();
        let mut rssi_only = grid.generate(&TopologyConfig::das(4, 4), &mut rng).unwrap();
        let mut balanced = rssi_only.clone();
        associate(&mut rssi_only, &env, AssociationPolicy::AntennaAware);
        associate(
            &mut balanced,
            &env,
            AssociationPolicy::LoadBalanced { hysteresis_db: 8.0 },
        );
        let peak = |topo: &Topology| {
            (0..topo.aps.len())
                .map(|ap| topo.clients_of(ap).len())
                .max()
                .unwrap()
        };
        assert!(
            peak(&balanced) < peak(&rssi_only),
            "load balancing did not reduce the peak load ({} vs {})",
            peak(&balanced),
            peak(&rssi_only)
        );
    }

    #[test]
    fn reassociate_reaches_a_fix_point_in_one_pass() {
        for policy in [
            AssociationPolicy::NearestAp,
            AssociationPolicy::AntennaAware,
            AssociationPolicy::LoadBalanced { hysteresis_db: 3.0 },
        ] {
            let (mut topo, env) = grid_topology(21);
            // Scramble: everyone on AP 0 — far from optimal.
            for c in &mut topo.clients {
                c.ap_id = 0;
            }
            let mut roam = Reassociator::new(&topo, &env);
            let first = roam.reassociate(&mut topo, &env, policy, 3.0);
            assert!(first > 0, "{policy:?}: no handoffs from a scrambled start");
            let second = roam.reassociate(&mut topo, &env, policy, 3.0);
            assert_eq!(second, 0, "{policy:?}: handoffs oscillate");
        }
    }

    #[test]
    fn reassociate_agrees_with_fresh_association_at_zero_hysteresis() {
        let (mut fresh, env) = grid_topology(22);
        associate(&mut fresh, &env, AssociationPolicy::AntennaAware);
        let mut roamed = fresh.clone();
        for c in &mut roamed.clients {
            c.ap_id = 0;
        }
        let mut roam = Reassociator::new(&roamed, &env);
        roam.reassociate(&mut roamed, &env, AssociationPolicy::AntennaAware, 0.0);
        // Every client must land on an AP with the same best-antenna RSSI as
        // the fresh pass chose (ids can differ only on exact RSSI ties).
        for (a, b) in fresh.clients.iter().zip(roamed.clients.iter()) {
            let ra = RssiScore::new(&env, false).best_rssi_dbm(&fresh, a.ap_id, &a.position);
            let rb = RssiScore::new(&env, false).best_rssi_dbm(&roamed, b.ap_id, &b.position);
            assert!((ra - rb).abs() < 1e-9, "client {}: {ra} vs {rb}", a.id);
        }
        // And a fresh-associated topology is already a roaming fix-point.
        let mut stable = fresh.clone();
        let mut roam2 = Reassociator::new(&stable, &env);
        assert_eq!(
            roam2.reassociate(&mut stable, &env, AssociationPolicy::AntennaAware, 0.0),
            0
        );
    }

    #[test]
    fn reassociate_tracks_moved_clients_through_the_index() {
        let (mut topo, env) = grid_topology(23);
        associate(&mut topo, &env, AssociationPolicy::AntennaAware);
        let mut roam = Reassociator::new(&topo, &env);
        // Walk client 0 across the floor to the far corner.
        let far = Point::new(topo.region.max.x - 1.0, topo.region.max.y - 1.0);
        topo.clients[0].position = far;
        roam.move_client(0, far);
        let handoffs = roam.reassociate(&mut topo, &env, AssociationPolicy::AntennaAware, 0.0);
        assert!(handoffs >= 1, "a cross-floor move must hand off");
        let own = RssiScore::new(&env, false).best_rssi_dbm(&topo, topo.clients[0].ap_id, &far);
        for ap in 0..topo.aps.len() {
            assert!(RssiScore::new(&env, false).best_rssi_dbm(&topo, ap, &far) <= own + 1e-9);
        }
    }

    /// A roaming engine over a grid floor whose path loss has the given
    /// exponent and wall loss.
    fn roaming_with_path_loss(exponent: f64, wall_loss_db_per_m: f64) -> Reassociator {
        let (topo, mut env) = grid_topology(24);
        env.path_loss.exponent = exponent;
        env.path_loss.wall_loss_db_per_m = wall_loss_db_per_m;
        Reassociator::new(&topo, &env)
    }

    #[test]
    #[should_panic(expected = "PathLossModel::exponent must be >= 0")]
    fn a_negative_path_loss_exponent_fails_at_construction() {
        roaming_with_path_loss(-0.5, 0.4);
    }

    #[test]
    #[should_panic(expected = "PathLossModel::wall_loss_db_per_m must be >= 0")]
    fn a_negative_wall_loss_fails_at_construction() {
        roaming_with_path_loss(3.0, -0.1);
    }

    #[test]
    #[should_panic(
        expected = "PathLossModel::exponent and PathLossModel::wall_loss_db_per_m are both 0"
    )]
    fn a_flat_path_loss_fails_at_construction() {
        roaming_with_path_loss(0.0, 0.0);
    }

    #[test]
    fn one_growing_path_loss_term_is_enough() {
        for (exponent, wall) in [(0.0, 0.5), (3.0, 0.0)] {
            let (mut topo, mut env) = grid_topology(25);
            env.path_loss.exponent = exponent;
            env.path_loss.wall_loss_db_per_m = wall;
            for c in &mut topo.clients {
                c.ap_id = 0;
            }
            let mut roam = Reassociator::new(&topo, &env);
            assert!(roam.reassociate(&mut topo, &env, AssociationPolicy::AntennaAware, 0.0) > 0);
        }
    }

    #[test]
    fn association_is_deterministic() {
        for policy in [
            AssociationPolicy::NearestAp,
            AssociationPolicy::AntennaAware,
            AssociationPolicy::LoadBalanced { hysteresis_db: 6.0 },
        ] {
            let (mut a, env) = grid_topology(9);
            let mut b = a.clone();
            associate(&mut a, &env, policy);
            associate(&mut b, &env, policy);
            let ids = |t: &Topology| t.clients.iter().map(|c| c.ap_id).collect::<Vec<_>>();
            assert_eq!(ids(&a), ids(&b));
        }
    }
}
