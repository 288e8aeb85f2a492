//! Carrier-sense relationships between antennas and APs.
//!
//! Whether one transmitter defers to another depends on whether it can *hear*
//! it above the carrier-sense threshold.  For a CAS AP all antennas are at the
//! AP, so hearing is an AP-to-AP relation; for a DAS AP every antenna has its
//! own vantage point, which is exactly what enables finer spatial reuse
//! (§5.3.1) and better hidden-terminal protection (§5.3.4).
//!
//! Sensing uses the *large-scale* received power (path loss plus the frozen
//! shadowing field): walls and obstructions are what make two points 15 m
//! apart sometimes unable to hear each other in the paper's office testbed,
//! and the shadowing field is this model's stand-in for that structure.
//! Energy detection sums the power of every concurrent transmitter, so four
//! co-located CAS antennas are 6 dB easier to detect than one distant DAS
//! antenna.
//!
//! [`ContentionGraph::rx_mw`] is the one per-pair term of that sum, and
//! two callers fold it.  [`ContentionGraph::senses_any`] folds it over an
//! explicit transmitter list for the §5.3.1 spatial-reuse and §5.3.4
//! hidden-terminal analyses.  The end-to-end simulator folds the same term
//! through its sensing table (`crate::simulator`), which evaluates each
//! in-range antenna pair once per run, the first time a decision reads it,
//! and ends a decision as soon as the terms read so far make it certainly
//! busy: its nearest on-air antenna first, then the fold in order.

use midas_channel::geometry::Point;
use midas_channel::topology::Topology;
use midas_channel::{mw_to_dbm, ChannelModel, Environment};

/// Carrier-sense predicate helper bound to an environment.
#[derive(Debug, Clone)]
pub struct ContentionGraph {
    model: ChannelModel,
    threshold_dbm: f64,
}

impl ContentionGraph {
    /// Creates the helper.  `seed` selects the frozen shadowing field used by
    /// the sensing decisions.
    pub fn new(env: Environment, seed: u64) -> Self {
        ContentionGraph {
            threshold_dbm: env.carrier_sense_dbm,
            model: ChannelModel::new(env, seed),
        }
    }

    /// The energy-detect threshold (dBm) sensing decisions compare against.
    pub fn threshold_dbm(&self) -> f64 {
        self.threshold_dbm
    }

    /// Whether a receiver at `rx` senses a single transmitter at `tx`
    /// (large-scale received power above the carrier-sense threshold).
    pub(crate) fn can_sense(&self, tx: &Point, rx: &Point) -> bool {
        self.model.large_scale_rx_power_dbm(tx, rx) >= self.threshold_dbm
    }

    /// Received sensing power (mW) at a sensing antenna at `rx` from one
    /// transmitter at `tx`: large-scale path loss plus the frozen shadowing
    /// field.  The one per-pair term every energy-detection decision sums —
    /// [`ContentionGraph::senses_any`] here and the simulator's sensing
    /// table alike.
    pub fn rx_mw(&self, tx: &Point, rx: &Point) -> f64 {
        self.model.large_scale_rx_power_mw(tx, rx)
    }

    /// Whether an antenna that heard at least one transmitter, at an
    /// aggregate received power of `total_mw`, finds the medium busy.
    pub(crate) fn detects(&self, total_mw: f64) -> bool {
        mw_to_dbm(total_mw) >= self.threshold_dbm
    }

    /// Whether a single antenna position senses the *aggregate* energy of the
    /// given active transmitter positions (energy-detection carrier sensing):
    /// a fold of [`ContentionGraph::rx_mw`] over the transmitters, in order,
    /// from 0.0.
    pub fn senses_any(&self, antenna: &Point, active_transmitters: &[Point]) -> bool {
        let total_mw = active_transmitters
            .iter()
            .fold(0.0, |total, tx| total + self.rx_mw(tx, antenna));
        !active_transmitters.is_empty() && self.detects(total_mw)
    }

    /// Whether any antenna of AP `a` can sense any antenna of AP `b` (or
    /// the reverse) in the given topology, i.e. the two APs share a
    /// contention domain; antenna pairs farther apart than `cutoff_m` are
    /// treated as unable to sense each other (receiver sensitivity floor).
    /// Reference semantics for [`ContentionGraph::ap_adjacency_indexed`].
    // lint: allow(unreachable-pub) — proptest_scale and proptest_capture check ap_adjacency_indexed against it
    pub fn aps_share_domain_within(
        &self,
        topo: &Topology,
        a: usize,
        b: usize,
        cutoff_m: f64,
    ) -> bool {
        topo.aps[a].antennas.iter().any(|ta| {
            topo.aps[b].antennas.iter().any(|tb| {
                ta.distance(tb) <= cutoff_m && (self.can_sense(ta, tb) || self.can_sense(tb, ta))
            })
        })
    }

    /// The contending AP pairs `(a, b)`, `a < b`, ascending: the edge list
    /// of the AP contention graph.  Candidate pairs are discovered through
    /// a spatial index over every antenna position — O(n·k) instead of the
    /// all-pairs antenna sweep — and links longer than `cutoff_m` (derive
    /// it from `Environment::interaction_range_m`, or pass `f64::INFINITY`
    /// for no cutoff) are below the sensitivity floor.
    ///
    /// Equivalent by construction to running
    /// [`ContentionGraph::aps_share_domain_within`] over all pairs: the
    /// index visits exactly the antennas within `cutoff_m`, and the same
    /// `distance <= cutoff && can_sense` predicate decides membership (see
    /// the property test in `tests/proptest_scale.rs`).  Both the range
    /// test and `can_sense(ta, tb) || can_sense(tb, ta)` are symmetric in
    /// the pair, so each unordered antenna pair is tested once, from the
    /// antenna of the lower-numbered AP.  An AP's antennas are visited
    /// consecutively, so a per-AP stamp of the last AP found to contend
    /// with it ends the tests of a pair at its first sensing link.
    pub fn ap_adjacency_indexed(&self, topo: &Topology, cutoff_m: f64) -> Vec<(usize, usize)> {
        let mut owner: Vec<usize> = Vec::new();
        let mut index = crate::scale::index::SpatialIndex::new(topo.region, cutoff_m);
        for ap in &topo.aps {
            for &antenna in &ap.antennas {
                index.insert(antenna);
                owner.push(ap.ap_id);
            }
        }
        // `paired_with[b] == a` once the pair (a, b) is known to contend.
        let mut paired_with = vec![usize::MAX; topo.aps.len()];
        let mut pairs = Vec::new();
        let points = index.points();
        for (i, ta) in points.iter().enumerate() {
            let a = owner[i];
            index.for_each_within(ta, cutoff_m, |j| {
                let b = owner[j];
                if a < b && paired_with[b] != a {
                    let tb = &points[j];
                    if self.can_sense(ta, tb) || self.can_sense(tb, ta) {
                        paired_with[b] = a;
                        pairs.push((a, b));
                    }
                }
            });
        }
        pairs.sort_unstable();
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_channel::topology::{three_ap_testbed, TopologyConfig};
    use midas_channel::SimRng;

    #[test]
    fn nearby_points_sense_each_other_and_distant_ones_do_not() {
        let env = Environment::office_a();
        let g = ContentionGraph::new(env, 1);
        let a = Point::new(0.0, 0.0);
        assert!(g.can_sense(&a, &Point::new(5.0, 0.0)));
        assert!(!g.can_sense(&a, &Point::new(200.0, 0.0)));
    }

    #[test]
    fn three_ap_testbed_cas_aps_overhear_each_others_mu_mimo() {
        // The paper's §5.3.1 setup: three APs that can overhear each other.
        // A CAS AP's MU-MIMO transmission radiates from all four co-located
        // antennas, and the aggregate energy is detectable at the other AP
        // positions 15 m away (that is the placement criterion).
        let env = Environment::office_a();
        let mut rng = SimRng::new(2);
        let topo = three_ap_testbed(&TopologyConfig::cas(4, 4), &mut rng);
        for a in 0..3 {
            for b in 0..3 {
                if a != b {
                    let d = topo.aps[a].position.distance(&topo.aps[b].position);
                    assert!(
                        d < env.array_carrier_sense_range_m(4),
                        "APs {a} and {b}: {d} m"
                    );
                }
            }
        }
    }

    /// The pair list is the strict upper triangle of a symmetric adjacency
    /// matrix with a false diagonal: every pair is `a < b`, ascending and
    /// unique, and equals the pairwise reference.
    #[test]
    fn adjacency_matrix_is_symmetric_with_false_diagonal() {
        let mut rng = SimRng::new(3);
        let topo = three_ap_testbed(&TopologyConfig::das(4, 4), &mut rng);
        let g = ContentionGraph::new(Environment::office_a(), 3);
        let pairs = g.ap_adjacency_indexed(&topo, f64::INFINITY);
        assert!(pairs.iter().all(|&(a, b)| a < b));
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
        let n = topo.aps.len();
        let pairwise: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .filter(|&(a, b)| g.aps_share_domain_within(&topo, a, b, f64::INFINITY))
            .collect();
        assert_eq!(pairs, pairwise);
        for &(a, b) in &pairs {
            assert!(g.aps_share_domain_within(&topo, b, a, f64::INFINITY));
        }
    }

    #[test]
    fn senses_any_is_true_when_one_transmitter_is_close() {
        let g = ContentionGraph::new(Environment::office_b(), 4);
        let antenna = Point::new(0.0, 0.0);
        let far = Point::new(150.0, 0.0);
        let near = Point::new(3.0, 0.0);
        assert!(!g.senses_any(&antenna, &[far]));
        assert!(g.senses_any(&antenna, &[far, near]));
        assert!(!g.senses_any(&antenna, &[]));
    }

    #[test]
    fn aggregate_energy_detection_is_more_sensitive_than_single_transmitter() {
        // Four co-located transmitters are 6 dB easier to detect than one, so
        // there exist distances where one transmitter goes unnoticed but four
        // do not.  Sweep distances to find such a point.
        let env = Environment::office_a();
        let g = ContentionGraph::new(env, 5);
        let rx = Point::new(0.0, 0.0);
        let mut found = false;
        for d in 10..60 {
            let tx = Point::new(d as f64, 0.0);
            let single = g.senses_any(&rx, &[tx]);
            let quad = g.senses_any(&rx, &[tx, tx, tx, tx]);
            assert!(!single || quad, "quad detection must dominate single");
            if quad && !single {
                found = true;
            }
        }
        assert!(
            found,
            "expected a distance where only the aggregate is detectable"
        );
    }
}
