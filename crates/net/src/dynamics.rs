//! Long-horizon dynamics: client mobility, roaming and the knobs that turn
//! a static snapshot simulation into a living network.
//!
//! The static pipeline realises a topology once and plays rounds against
//! frozen client positions and associations.  This module is the per-round
//! mutation layer over that pipeline:
//!
//! * **Mobility** — [`MobilityModel::RandomWaypoint`] walks each mobile
//!   client to uniformly drawn destinations with pauses (the classic
//!   campus-WiFi model); [`MobilityModel::CorridorFlow`] streams clients
//!   along the floor's long axis, reversing at the walls — the corridor
//!   client placement of [`crate::scale::grid`] set in motion.
//! * **Roaming** — every dynamics step can run an incumbent-aware
//!   re-association pass ([`crate::scale::association::Reassociator`]) with
//!   hysteresis, so clients hand off as they walk out of range.
//! * **Determinism** — all randomness comes from a dedicated [`SimRng`]
//!   stream forked off the simulation seed (label `0xD1A`), never from the
//!   streams the static pipeline consumes, so **dynamics off reproduces
//!   every static golden byte for byte** and a dynamics-on run is
//!   bit-identical at any worker-thread count (dynamics run serially inside
//!   a trial; parallelism is across trials).
//!
//! The simulator owns one [`DynamicsState`] per run, which keeps the spec
//! it was built from, and steps it from its dynamics stage; this module
//! knows nothing about channels or MAC state — it only moves points and
//! re-labels `client.ap_id`.

use crate::scale::association::{AssociationPolicy, Reassociator};
use midas_channel::geometry::Point;
use midas_channel::topology::Topology;
use midas_channel::{Environment, SimRng};
use midas_mac::timing::DEFAULT_TXOP_US;

/// How mobile clients move between rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilityModel {
    /// Random waypoint: walk to a uniformly drawn destination in the floor
    /// region at `speed_mps`, pause for `pause_rounds` dynamics steps,
    /// pick the next destination.
    RandomWaypoint {
        /// Walking speed in metres per second.
        speed_mps: f64,
        /// Dynamics steps spent stationary at each waypoint.
        pause_rounds: usize,
    },
    /// Corridor flow: clients stream along the floor's x axis at
    /// `speed_mps`, reflecting at the region edge (y stays fixed, so a
    /// corridor-placed population keeps to its corridors).
    CorridorFlow {
        /// Flow speed in metres per second.
        speed_mps: f64,
    },
}

/// Per-step re-association (roaming) configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReassociationSpec {
    /// Which association policy scores the candidates.
    pub policy: AssociationPolicy,
    /// Stickiness window (dB): a client keeps its incumbent AP while the
    /// incumbent's mean RSSI is within this of the best candidate's.
    pub hysteresis_db: f64,
}

/// The dynamics layer's configuration — `None` anywhere means "off", and a
/// fully-off spec is byte-identical to not installing dynamics at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicsSpec {
    /// Mobility model for the mobile subset; `None` freezes positions.
    pub mobility: Option<MobilityModel>,
    /// Fraction of clients that move (clamped to `[0, 1]`); the rest are
    /// static furniture.
    pub mobile_fraction: f64,
    /// Roaming pass per dynamics step; `None` pins associations.
    pub reassociation: Option<ReassociationSpec>,
    /// Rounds between dynamics steps (movement + roaming); the first step
    /// runs at round `period_rounds`, never at round 0.
    pub period_rounds: usize,
}

impl Default for DynamicsSpec {
    /// Everything off: installing the default spec changes nothing.
    fn default() -> Self {
        DynamicsSpec {
            mobility: None,
            mobile_fraction: 1.0,
            reassociation: None,
            period_rounds: 1,
        }
    }
}

impl DynamicsSpec {
    /// The workhorse scenario: every client random-waypoint-walks at
    /// `speed_mps` (no pauses) and roams antenna-aware with a 3 dB
    /// hysteresis, stepping every round.
    pub fn roaming_walk(speed_mps: f64) -> Self {
        DynamicsSpec {
            mobility: Some(MobilityModel::RandomWaypoint {
                speed_mps,
                pause_rounds: 0,
            }),
            mobile_fraction: 1.0,
            reassociation: Some(ReassociationSpec {
                policy: AssociationPolicy::AntennaAware,
                hysteresis_db: 3.0,
            }),
            period_rounds: 1,
        }
    }

    /// Whether any per-round work is configured at all.
    pub fn is_active(&self) -> bool {
        (self.mobility.is_some() && self.mobile_fraction > 0.0) || self.reassociation.is_some()
    }
}

/// Deterministic work counts of the simulator's dynamics layer, summed
/// over a run (see `NetworkSimulator::dynamics_counters`).  A finite
/// interaction range gives each client channel rows only at the APs in
/// range, and a moved client's rows are refreshed only when read, so a
/// step's work is proportional to what changed and what is read:
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynamicsCounters {
    /// Channel rows created when a client came within range of an AP or
    /// roamed to it.
    pub rows_born: usize,
    /// Channel rows released when a client left an AP's range.
    pub rows_freed: usize,
    /// Rows of moved clients rescaled to their current position when read:
    /// by the fading stage (rows the round reads) or by a tag rebuild (the
    /// AP's own rows).
    pub rows_refreshed: usize,
    /// Refreshed rows whose client crossed into another shadowing cell, so
    /// the shadowing field was redrawn rather than reused.
    pub shadow_redraws: usize,
    /// Row-membership re-queries (moved clients that left their slack
    /// disc of the interaction range).
    pub membership_requeries: usize,
    /// Roaming-candidate re-queries.
    pub roaming_requeries: usize,
    /// Path losses evaluated by roaming passes: a pass ranks candidates by
    /// distance and scores in dB only where the dB decides.
    pub roaming_scores: usize,
}

/// Mutable runtime state of the dynamics layer for one simulation.
///
/// Owns the spec it was built from, the mobile-client set, waypoint/flow
/// state and the persistent roaming engine; every buffer is sized at
/// construction and steady-state steps allocate nothing (waypoint draws
/// are scalar).
pub struct DynamicsState {
    spec: DynamicsSpec,
    rng: SimRng,
    /// Mobile client ids, ascending.
    mobile: Vec<usize>,
    /// Current waypoint per mobile client (RandomWaypoint only).
    targets: Vec<Point>,
    /// Remaining pause steps per mobile client (RandomWaypoint only).
    pause_left: Vec<usize>,
    /// Flow direction (`+1.0` / `-1.0`) per mobile client (CorridorFlow).
    dir: Vec<f64>,
    /// Clients that changed position in the latest step.
    moved: Vec<usize>,
    /// Snapshot of every client's AP before the latest roaming pass.
    prev_ap: Vec<usize>,
    roam: Reassociator,
    handoffs_total: usize,
    moves_total: usize,
}

impl DynamicsState {
    /// Builds the runtime state for `topo`: the mobile subset is drawn from
    /// the dedicated dynamics RNG stream (`seed` is the simulation seed),
    /// waypoints are initialised, and the roaming candidates are queried.
    ///
    /// # Panics
    ///
    /// Where [`Reassociator::new`] does: if `env`'s path loss does not grow
    /// with distance.
    pub fn new(spec: &DynamicsSpec, topo: &Topology, env: &Environment, seed: u64) -> Self {
        let mut rng = SimRng::new(seed).fork(0xD1A);
        let n = topo.clients.len();
        let k = ((spec.mobile_fraction.clamp(0.0, 1.0) * n as f64).round() as usize).min(n);
        let mut mobile = rng.choose_indices(n, k);
        mobile.sort_unstable();
        let targets = mobile
            .iter()
            .map(|_| {
                Point::new(
                    rng.uniform_range(topo.region.min.x, topo.region.max.x),
                    rng.uniform_range(topo.region.min.y, topo.region.max.y),
                )
            })
            .collect();
        let dir = mobile
            .iter()
            .map(|_| if rng.bernoulli(0.5) { 1.0 } else { -1.0 })
            .collect();
        DynamicsState {
            spec: *spec,
            rng,
            pause_left: vec![0; mobile.len()],
            targets,
            dir,
            moved: Vec::with_capacity(mobile.len()),
            prev_ap: topo.clients.iter().map(|c| c.ap_id).collect(),
            mobile,
            roam: Reassociator::new(topo, env),
            handoffs_total: 0,
            moves_total: 0,
        }
    }

    /// Whether a dynamics step runs at `round`: every `period_rounds`,
    /// never at round 0.
    pub(crate) fn steps_at(&self, round: usize) -> bool {
        round != 0 && round.is_multiple_of(self.spec.period_rounds.max(1))
    }

    /// Advances every mobile client by one dynamics step of `period_rounds`
    /// TXOPs, updating `topo` positions and the roaming candidates; the
    /// clients that actually moved are then [`moved`](Self::moved).
    pub fn step_mobility(&mut self, topo: &mut Topology) {
        self.moved.clear();
        let Some(model) = self.spec.mobility else {
            return;
        };
        let step_s = self.spec.period_rounds.max(1) as f64 * DEFAULT_TXOP_US as f64 * 1e-6;
        let region = topo.region;
        for i in 0..self.mobile.len() {
            let cid = self.mobile[i];
            let pos = topo.clients[cid].position;
            let next = match model {
                MobilityModel::RandomWaypoint {
                    speed_mps,
                    pause_rounds,
                } => {
                    if self.pause_left[i] > 0 {
                        self.pause_left[i] -= 1;
                        continue;
                    }
                    let step_m = speed_mps * step_s;
                    let d = pos.distance(&self.targets[i]);
                    if d <= step_m {
                        // Arrived: park on the waypoint, draw the next one.
                        let arrived = self.targets[i];
                        self.pause_left[i] = pause_rounds;
                        self.targets[i] = Point::new(
                            self.rng.uniform_range(region.min.x, region.max.x),
                            self.rng.uniform_range(region.min.y, region.max.y),
                        );
                        arrived
                    } else {
                        let angle = pos.angle_to(&self.targets[i]);
                        pos.offset_polar(step_m, angle)
                    }
                }
                MobilityModel::CorridorFlow { speed_mps } => {
                    let mut x = pos.x + self.dir[i] * speed_mps * step_s;
                    if x > region.max.x {
                        x = region.max.x - (x - region.max.x);
                        self.dir[i] = -1.0;
                    }
                    if x < region.min.x {
                        x = region.min.x + (region.min.x - x);
                        self.dir[i] = 1.0;
                    }
                    Point::new(x.clamp(region.min.x, region.max.x), pos.y)
                }
            };
            if next != pos {
                topo.clients[cid].position = next;
                self.roam.move_client(cid, next);
                self.moved.push(cid);
            }
        }
        self.moves_total += self.moved.len();
    }

    /// Runs one roaming pass if the spec enables it, updating the `ap_id`
    /// in `topo` of every client that hands off; those clients are then
    /// [`handed_off`](Self::handed_off) (none when roaming is off).
    pub fn step_roaming(&mut self, topo: &mut Topology, env: &Environment) {
        self.prev_ap.clear();
        self.prev_ap.extend(topo.clients.iter().map(|c| c.ap_id));
        if let Some(re) = self.spec.reassociation {
            let n = self
                .roam
                .reassociate(topo, env, re.policy, re.hysteresis_db.max(0.0));
            self.handoffs_total += n;
        }
    }

    /// Clients whose AP changed in the latest [`step_roaming`] pass —
    /// compare against the pre-pass snapshot.
    ///
    /// [`step_roaming`]: DynamicsState::step_roaming
    pub fn handed_off<'a>(&'a self, topo: &'a Topology) -> impl Iterator<Item = usize> + 'a {
        topo.clients
            .iter()
            .filter(|c| self.prev_ap[c.id] != c.ap_id)
            .map(|c| c.id)
    }

    /// Clients that moved in the latest mobility step (ascending ids).
    pub fn moved(&self) -> &[usize] {
        &self.moved
    }

    /// The AP `client` was associated with before the latest
    /// [`step_roaming`](DynamicsState::step_roaming) pass.
    pub fn previous_ap(&self, client: usize) -> usize {
        self.prev_ap[client]
    }

    /// Total handoffs performed over the simulation so far.
    pub fn handoffs_total(&self) -> usize {
        self.handoffs_total
    }

    /// Total client moves performed over the simulation so far.
    pub fn moves_total(&self) -> usize {
        self.moves_total
    }

    /// Roaming-candidate re-queries performed so far (a moved client is
    /// re-queried only once it leaves its slack disc).
    pub fn roaming_requeries(&self) -> usize {
        self.roam.requeries()
    }

    /// Path losses evaluated by roaming passes so far.
    pub fn roaming_scores(&self) -> usize {
        self.roam.scores()
    }

    /// Bytes of heap the dynamics layer retains; stable once warm, which
    /// the long-horizon footprint test pins.
    pub fn heap_footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.mobile.capacity() * size_of::<usize>()
            + self.targets.capacity() * size_of::<Point>()
            + self.pause_left.capacity() * size_of::<usize>()
            + self.dir.capacity() * size_of::<f64>()
            + self.moved.capacity() * size_of::<usize>()
            + self.prev_ap.capacity() * size_of::<usize>()
            + self.roam.heap_footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::grid::FloorGrid;
    use midas_channel::topology::TopologyConfig;

    fn grid_topology(seed: u64) -> (Topology, Environment) {
        let mut rng = SimRng::new(seed);
        let grid = FloorGrid::new(4, 2, 15.0);
        let topo = grid
            .generate(&TopologyConfig::das(4, 4), &mut rng)
            .expect("valid grid");
        (topo, Environment::open_plan())
    }

    fn walk_spec(speed_mps: f64) -> DynamicsSpec {
        DynamicsSpec::roaming_walk(speed_mps)
    }

    #[test]
    fn random_waypoint_keeps_clients_inside_the_region_and_is_deterministic() {
        let (topo0, env) = grid_topology(3);
        let spec = walk_spec(400.0); // fast, so a few steps cross the floor
        let run = |mut topo: Topology| {
            let mut state = DynamicsState::new(&spec, &topo, &env, 7);
            for _ in 0..50 {
                state.step_mobility(&mut topo);
            }
            (
                topo.clients.iter().map(|c| c.position).collect::<Vec<_>>(),
                state.moves_total(),
            )
        };
        let (a, moves_a) = run(topo0.clone());
        let (b, _) = run(topo0.clone());
        assert_eq!(a, b, "mobility must be deterministic in the seed");
        assert!(moves_a > 0, "a fast walker must actually move");
        for p in &a {
            assert!(topo0.region.contains(p), "client escaped the floor: {p:?}");
        }
        // And it went somewhere: at least one client far from its origin.
        let displaced = topo0
            .clients
            .iter()
            .zip(&a)
            .any(|(c, p)| c.position.distance(p) > 5.0);
        assert!(displaced, "nobody travelled more than 5 m in 50 fast steps");
    }

    #[test]
    fn corridor_flow_moves_along_x_only_and_reflects_at_walls() {
        let (mut topo, env) = grid_topology(4);
        let spec = DynamicsSpec {
            mobility: Some(MobilityModel::CorridorFlow { speed_mps: 300.0 }),
            mobile_fraction: 1.0,
            reassociation: None,
            period_rounds: 1,
        };
        let before: Vec<Point> = topo.clients.iter().map(|c| c.position).collect();
        let mut state = DynamicsState::new(&spec, &topo, &env, 11);
        for _ in 0..40 {
            state.step_mobility(&mut topo);
        }
        for (c, b) in topo.clients.iter().zip(&before) {
            assert_eq!(c.position.y, b.y, "corridor flow must not change y");
            assert!(topo.region.contains(&c.position));
        }
        assert!(state.moves_total() > 0);
    }

    #[test]
    fn mobile_fraction_limits_who_moves() {
        let (mut topo, env) = grid_topology(5);
        let spec = DynamicsSpec {
            mobile_fraction: 0.25,
            ..walk_spec(500.0)
        };
        let before: Vec<Point> = topo.clients.iter().map(|c| c.position).collect();
        let mut state = DynamicsState::new(&spec, &topo, &env, 13);
        for _ in 0..30 {
            state.step_mobility(&mut topo);
        }
        let movers = topo
            .clients
            .iter()
            .zip(&before)
            .filter(|(c, b)| c.position != **b)
            .count();
        let expected = (0.25 * topo.clients.len() as f64).round() as usize;
        assert!(
            movers <= expected,
            "{movers} moved, expected at most {expected}"
        );
        assert!(movers > 0, "the mobile subset never moved");
    }

    #[test]
    fn roaming_hands_off_walkers_and_updates_prev_snapshot() {
        let (mut topo, env) = grid_topology(6);
        let spec = walk_spec(600.0);
        let mut state = DynamicsState::new(&spec, &topo, &env, 17);
        let mut total_handed_off = 0usize;
        for _ in 0..60 {
            state.step_mobility(&mut topo);
            state.step_roaming(&mut topo, &env);
            total_handed_off += state.handed_off(&topo).count();
        }
        assert!(
            state.handoffs_total() > 0,
            "fast walkers across a 4x2 floor must hand off at least once"
        );
        assert_eq!(total_handed_off, state.handoffs_total());
    }

    #[test]
    fn footprint_is_flat_over_many_steps() {
        let (mut topo, env) = grid_topology(8);
        let spec = walk_spec(200.0);
        let mut state = DynamicsState::new(&spec, &topo, &env, 19);
        for _ in 0..200 {
            state.step_mobility(&mut topo);
            state.step_roaming(&mut topo, &env);
        }
        let warm = state.heap_footprint_bytes();
        for _ in 0..200 {
            state.step_mobility(&mut topo);
            state.step_roaming(&mut topo, &env);
        }
        assert_eq!(state.heap_footprint_bytes(), warm);
    }

    #[test]
    fn inactive_spec_is_a_no_op() {
        let (mut topo, env) = grid_topology(9);
        let spec = DynamicsSpec::default();
        assert!(!spec.is_active());
        let before: Vec<Point> = topo.clients.iter().map(|c| c.position).collect();
        let aps: Vec<usize> = topo.clients.iter().map(|c| c.ap_id).collect();
        let mut state = DynamicsState::new(&spec, &topo, &env, 23);
        for _ in 0..10 {
            state.step_mobility(&mut topo);
            state.step_roaming(&mut topo, &env);
        }
        assert_eq!(
            topo.clients.iter().map(|c| c.position).collect::<Vec<_>>(),
            before
        );
        assert_eq!(
            topo.clients.iter().map(|c| c.ap_id).collect::<Vec<_>>(),
            aps
        );
        assert_eq!(state.handoffs_total(), 0);
    }
}
