//! Hidden-terminal analysis — paper §5.3.4.
//!
//! Setup: two APs placed so that they cannot overhear each other (just beyond
//! carrier-sense range) but not so far apart that their coverage areas stop
//! interacting.  A grid spot is a *hidden-terminal spot* if a client there
//! would be covered by one AP while also receiving interference from the
//! other AP — and the two transmitters cannot carrier-sense each other, so
//! they will not defer and the client suffers collisions.
//!
//! With DAS, each AP's antennas are pushed outwards (50–75 % of the coverage
//! range, §5.3.4), so (i) some antenna of AP 1 is usually able to sense some
//! antenna of AP 2, which removes the hiddenness, and (ii) transmit power is
//! spread more evenly over the area.  The paper reports that ≈ 94 % of the
//! hidden-terminal spots disappear.

use crate::capture::ContentionModel;
use crate::scale::index::SpatialIndex;
use midas_channel::geometry::{Point, Rect};
use midas_channel::topology::{place_antennas, Deployment, TopologyConfig};
use midas_channel::{dbm_to_mw, mw_to_dbm, ChannelModel, DeploymentKind, Environment, SimRng};

/// Result of one paired hidden-terminal comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HiddenTerminalComparison {
    /// Hidden-terminal spots with the CAS deployment.
    pub cas_spots: usize,
    /// Hidden-terminal spots with the DAS deployment.
    pub das_spots: usize,
    /// Total grid spots examined.
    pub total_spots: usize,
}

impl HiddenTerminalComparison {
    /// Fraction of CAS hidden-terminal spots removed by DAS.
    pub fn reduction(&self) -> f64 {
        if self.cas_spots == 0 {
            return 0.0;
        }
        1.0 - self.das_spots as f64 / self.cas_spots as f64
    }
}

/// The two-AP hidden-terminal scenario.
#[derive(Debug, Clone)]
pub struct HiddenTerminalScenario {
    /// The propagation environment.
    pub env: Environment,
    /// AP 1 (CAS and DAS variants share its position).
    pub ap1_pos: Point,
    /// AP 2 position.
    pub ap2_pos: Point,
    /// Region over which spots are sampled.
    pub region: Rect,
}

impl HiddenTerminalScenario {
    /// Builds the paper's scenario: two APs separated slightly beyond the
    /// carrier-sense range of a full 4-antenna CAS MU-MIMO transmission (so
    /// the co-located deployments genuinely cannot hear each other), but
    /// close enough that their coverage areas still interact.
    pub fn new(env: Environment) -> Self {
        let cs_range = env.array_carrier_sense_range_m(4);
        let separation = cs_range * 1.15;
        let margin = env.coverage_range_m();
        let ap1_pos = Point::new(margin, margin);
        let ap2_pos = Point::new(margin + separation, margin);
        let region = Rect::new(
            Point::new(0.0, 0.0),
            2.0 * margin + separation,
            2.0 * margin,
        );
        HiddenTerminalScenario {
            env,
            ap1_pos,
            ap2_pos,
            region,
        }
    }

    /// Deploys both APs with the given kind, using the paper's guidance of
    /// placing DAS antennas at 50–75 % of the CAS coverage range.
    fn deploy(&self, kind: DeploymentKind, rng: &mut SimRng) -> (Deployment, Deployment) {
        let range = self.env.coverage_range_m();
        let cfg = TopologyConfig {
            kind,
            das_radius_min_m: 0.5 * range,
            das_radius_max_m: 0.75 * range,
            ..TopologyConfig::das(4, 4)
        };
        let ap1 = Deployment {
            ap_id: 0,
            position: self.ap1_pos,
            kind,
            antennas: place_antennas(self.ap1_pos, &cfg, &self.region, rng),
        };
        let ap2 = Deployment {
            ap_id: 1,
            position: self.ap2_pos,
            kind,
            antennas: place_antennas(self.ap2_pos, &cfg, &self.region, rng),
        };
        (ap1, ap2)
    }

    /// Counts hidden-terminal spots for one deployment pair under the given
    /// contention model.
    fn count_spots(
        &self,
        ap1: &Deployment,
        ap2: &Deployment,
        spacing_m: f64,
        seed: u64,
        contention: &ContentionModel,
    ) -> (usize, usize) {
        let graph = contention.sensing_graph(self.env, seed);
        let model = ChannelModel::new(self.env, seed);

        // Can the transmitters defer to each other at all?  Each AP's antennas
        // sense the aggregate energy of the other AP's full transmission; one
        // sensing antenna on either side is enough for CSMA to serialise
        // them.  The contention model only changes which threshold / sensing
        // field `graph` was built from.
        let transmitters_hear_each_other = ap1
            .antennas
            .iter()
            .any(|a| graph.senses_any(a, &ap2.antennas))
            || ap2
                .antennas
                .iter()
                .any(|b| graph.senses_any(b, &ap1.antennas));

        let points = self.region.grid_points(spacing_m);
        let total = points.len();
        if transmitters_hear_each_other {
            // CSMA suppresses the concurrent transmissions entirely; no spot
            // can experience a hidden-terminal collision.
            return (0, total);
        }

        let interference_threshold_dbm = self.env.noise_floor_dbm + 3.0;

        // Spot classification only compares the strongest mean RSSI against
        // the coverage (noise + SNR) and interference (noise + 3 dB)
        // thresholds, and mean RSSI is strictly decreasing in distance — so
        // an antenna beyond the distance where the mean power falls to the
        // *lower* of the two thresholds can never flip either boolean.
        // Query only that neighbourhood through a spatial index instead of
        // scanning every antenna per spot: O(spots·k) instead of O(spots·n).
        // Under the physical model interference enters the capture SINR
        // continuously rather than through a boolean, so the relevant range
        // extends to where interference drops 10 dB below the noise floor
        // (beyond that it moves the SINR by < 0.5 dB and cannot flip a
        // capture decision by more than the sub-dB tail).
        let interference_floor_dbm = match contention.physical() {
            None => interference_threshold_dbm,
            Some(_) => self.env.noise_floor_dbm - 10.0,
        };
        let lower_threshold_dbm =
            interference_floor_dbm.min(self.env.noise_floor_dbm + self.env.coverage_snr_db);
        let relevant_range_m = self
            .env
            .path_loss
            .distance_for_loss_db(self.env.tx_power_dbm - lower_threshold_dbm);
        let mut index = SpatialIndex::new(self.region, relevant_range_m);
        let mut owner_is_ap1 = Vec::new();
        for a in &ap1.antennas {
            index.insert(*a);
            owner_is_ap1.push(true);
        }
        for a in &ap2.antennas {
            index.insert(*a);
            owner_is_ap1.push(false);
        }

        let hidden = points
            .iter()
            .filter(|p| {
                let mut rx1 = f64::NEG_INFINITY;
                let mut rx2 = f64::NEG_INFINITY;
                for id in index.neighbors_within(p, relevant_range_m) {
                    let rx = model.mean_rx_power_dbm(&index.points()[id], p);
                    if owner_is_ap1[id] {
                        rx1 = rx1.max(rx);
                    } else {
                        rx2 = rx2.max(rx);
                    }
                }
                let covered_by_1 = rx1 - self.env.noise_floor_dbm >= self.env.coverage_snr_db;
                let covered_by_2 = rx2 - self.env.noise_floor_dbm >= self.env.coverage_snr_db;
                match contention.physical() {
                    // Binary model — hidden spot: served by one AP,
                    // interfered by the other (any overlap ⇒ collision).
                    None => {
                        (covered_by_1 && rx2 >= interference_threshold_dbm)
                            || (covered_by_2 && rx1 >= interference_threshold_dbm)
                    }
                    // Physical model — hidden spot: served by one AP at the
                    // MCS its interference-free SNR selects, and the other
                    // AP's interference defeats SINR capture at that MCS,
                    // so the overlap actually costs the frame.
                    // (`dbm_to_mw(NEG_INFINITY)` is 0, so an absent
                    // interferer contributes nothing.)
                    Some(phy) => {
                        let noise_mw = dbm_to_mw(self.env.noise_floor_dbm);
                        let collided = |signal_dbm: f64, interferer_dbm: f64| {
                            let expected_db = signal_dbm - self.env.noise_floor_dbm;
                            let realized_db =
                                signal_dbm - mw_to_dbm(noise_mw + dbm_to_mw(interferer_dbm));
                            !phy.frame_captured(expected_db, realized_db)
                        };
                        (covered_by_1 && collided(rx1, rx2)) || (covered_by_2 && collided(rx2, rx1))
                    }
                }
            })
            .count();
        (hidden, total)
    }

    /// Runs one paired CAS/DAS hidden-terminal comparison at the given grid
    /// spacing (the paper uses 1 m) under the given contention model — the
    /// single model-parameterised entry point.
    ///
    /// [`ContentionModel::Graph`] applies the paper's binary semantics (any
    /// coverage/interference overlap between mutually-hidden transmitters
    /// is a hidden spot); the physical model senses at its configurable
    /// threshold and only counts a spot as hidden when the collision
    /// defeats SINR capture — the §5.3.4 experiment as the Fig. 16
    /// calibration re-runs it.  Both draw the same RNG sequence, so
    /// switching models never perturbs the deployment stream.
    pub fn comparison(
        &self,
        spacing_m: f64,
        rng: &mut SimRng,
        contention: &ContentionModel,
    ) -> HiddenTerminalComparison {
        let seed = rng.next_u64();
        let (cas1, cas2) = self.deploy(DeploymentKind::Cas, rng);
        let (das1, das2) = self.deploy(DeploymentKind::Das, rng);
        let (cas_spots, total) = self.count_spots(&cas1, &cas2, spacing_m, seed, contention);
        let (das_spots, _) = self.count_spots(&das1, &das2, spacing_m, seed, contention);
        HiddenTerminalComparison {
            cas_spots,
            das_spots,
            total_spots: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_places_aps_beyond_carrier_sense_range() {
        let env = Environment::office_a();
        let s = HiddenTerminalScenario::new(env);
        let d = s.ap1_pos.distance(&s.ap2_pos);
        assert!(d > env.array_carrier_sense_range_m(4));
        assert!(s.region.contains(&s.ap1_pos));
        assert!(s.region.contains(&s.ap2_pos));
    }

    #[test]
    fn cas_has_hidden_terminal_spots() {
        // Shadowing occasionally lets the two CAS transmitters hear each other
        // even beyond the nominal sensing range, so aggregate a few trials:
        // across them the CAS deployment must exhibit hidden terminals.
        let env = Environment::office_a();
        let s = HiddenTerminalScenario::new(env);
        let mut rng = SimRng::new(1);
        let mut cas_total = 0usize;
        let mut spots_total = 0usize;
        for _ in 0..5 {
            let cmp = s.comparison(4.0, &mut rng, &ContentionModel::Graph);
            cas_total += cmp.cas_spots;
            spots_total += cmp.total_spots;
        }
        assert!(spots_total > 0);
        assert!(
            cas_total > 0,
            "CAS deployment should exhibit hidden terminals in this scenario"
        );
    }

    #[test]
    fn das_removes_most_hidden_terminal_spots_on_average() {
        let env = Environment::office_a();
        let s = HiddenTerminalScenario::new(env);
        let mut rng = SimRng::new(2);
        let mut cas_total = 0usize;
        let mut das_total = 0usize;
        for _ in 0..10 {
            let cmp = s.comparison(4.0, &mut rng, &ContentionModel::Graph);
            cas_total += cmp.cas_spots;
            das_total += cmp.das_spots;
        }
        assert!(cas_total > 0);
        let reduction = 1.0 - das_total as f64 / cas_total as f64;
        assert!(
            reduction > 0.5,
            "expected DAS to remove most hidden-terminal spots, got {:.0}% (CAS {cas_total}, DAS {das_total})",
            reduction * 100.0
        );
    }

    #[test]
    fn reduction_handles_zero_cas_spots() {
        let c = HiddenTerminalComparison {
            cas_spots: 0,
            das_spots: 0,
            total_spots: 10,
        };
        assert_eq!(c.reduction(), 0.0);
    }
}
