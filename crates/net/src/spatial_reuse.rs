//! Simultaneous-transmission (spatial reuse) analysis — paper §5.3.1, Fig. 12.
//!
//! The experiment: three APs that can all overhear each other.  In a CAS
//! deployment only one AP can be active at a time, so the network supports at
//! most `antennas_per_ap` simultaneous streams.  In MIDAS, each distributed
//! antenna senses its own neighbourhood, so an antenna of AP B that cannot
//! hear any of AP A's active antennas may transmit concurrently.  The
//! experiment activates 1–4 transmissions at AP A, then counts how many
//! additional transmissions AP B and then AP C can support given their
//! per-antenna carrier sensing.

use crate::capture::ContentionModel;
use crate::contention::ContentionGraph;
use crate::deployment::PairedTopology;
use midas_channel::geometry::Point;
use midas_channel::topology::Topology;
use midas_channel::{Environment, SimRng};

/// Result of one spatial-reuse trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialReuseResult {
    /// Total simultaneous transmissions supported by the DAS (MIDAS) variant.
    pub das_streams: usize,
    /// Total simultaneous transmissions supported by the CAS variant.
    pub cas_streams: usize,
}

impl SpatialReuseResult {
    /// Ratio `MIDAS / CAS` of simultaneous transmissions (the x-axis of Fig. 12).
    pub fn ratio(&self) -> f64 {
        self.das_streams as f64 / self.cas_streams.max(1) as f64
    }
}

/// Counts the simultaneous transmissions a topology supports when APs are
/// activated in index order, each using every antenna that does not sense an
/// already-active transmitter.
///
/// `first_ap_streams` limits how many antennas the first AP activates
/// (the paper randomises this between 1 and the antenna count).
fn count_simultaneous_streams(
    topo: &Topology,
    graph: &ContentionGraph,
    first_ap_streams: usize,
    per_antenna_sensing: bool,
) -> usize {
    let mut active: Vec<Point> = Vec::new();
    let mut total = 0usize;

    for (ap_idx, ap) in topo.aps.iter().enumerate() {
        let candidate_antennas: Vec<Point> = if ap_idx == 0 {
            ap.antennas
                .iter()
                .copied()
                .take(first_ap_streams.min(ap.antennas.len()))
                .collect()
        } else {
            ap.antennas.clone()
        };

        let granted: Vec<Point> = if per_antenna_sensing {
            // MIDAS: each antenna checks its own neighbourhood.
            candidate_antennas
                .iter()
                .copied()
                .filter(|a| !graph.senses_any(a, &active))
                .collect()
        } else {
            // CAS: one coupled channel state for the whole AP — if any antenna
            // (equivalently the AP position, they are co-located) senses an
            // active transmitter, the whole AP stays silent.
            let ap_busy = ap.antennas.iter().any(|a| graph.senses_any(a, &active));
            if ap_busy {
                Vec::new()
            } else {
                candidate_antennas
            }
        };

        total += granted.len();
        active.extend(granted);
    }
    total
}

/// Runs one paired spatial-reuse trial on a 3-AP paired topology under the
/// given contention model — the single model-parameterised entry point.
///
/// Following §5.3.1: in MIDAS the first AP randomly enables 1–4 transmissions
/// and the other APs add whatever their per-antenna sensing allows; in CAS
/// exactly one AP can be active at a time, so the baseline is the antenna
/// count of a single AP.  [`ContentionModel::Graph`] senses at the
/// environment's CCA through the legacy graph (the paper's binary
/// semantics); the physical model senses at its own configurable threshold
/// through its own sensing field, which is how the Fig. 16 calibration
/// re-runs this experiment.  Both draw the same RNG sequence, so switching
/// models never perturbs the topology stream.
pub fn trial(
    pair: &PairedTopology,
    env: &Environment,
    rng: &mut SimRng,
    model: &ContentionModel,
) -> SpatialReuseResult {
    let graph = model.sensing_graph(*env, rng.next_u64());
    let antennas_per_ap = pair.das.aps[0].num_antennas();
    let first = 1 + rng.uniform_usize(antennas_per_ap);
    let das_streams = count_simultaneous_streams(&pair.das, &graph, first, true);
    let cas_streams = count_simultaneous_streams(&pair.cas, &graph, antennas_per_ap, false);
    SpatialReuseResult {
        das_streams,
        cas_streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(seed: u64) -> PairedTopology {
        let mut rng = SimRng::new(seed);
        let cfg = crate::deployment::paper_das_config(&Environment::office_a(), 4, 4);
        PairedTopology::three_ap(&cfg, &mut rng)
    }

    #[test]
    fn cas_supports_only_one_active_ap_when_all_overhear() {
        let env = Environment::office_a();
        let p = pair(1);
        let graph = ContentionGraph::new(env, 1);
        let cas = count_simultaneous_streams(&p.cas, &graph, 4, false);
        // First AP transmits 4 streams; the other two defer.
        assert_eq!(cas, 4);
    }

    #[test]
    fn trial_counts_stay_within_physical_bounds() {
        // The paper observes MIDAS below CAS in a couple of topologies, so no
        // per-trial domination is asserted — only that both counts stay within
        // what three 4-antenna APs can physically radiate.
        let env = Environment::office_a();
        let mut rng = SimRng::new(2);
        for seed in 0..10 {
            let p = pair(100 + seed);
            let r = trial(&p, &env, &mut rng, &ContentionModel::Graph);
            assert!(
                r.cas_streams >= 4 && r.cas_streams <= 12,
                "CAS {}",
                r.cas_streams
            );
            assert!(
                r.das_streams >= 1 && r.das_streams <= 12,
                "DAS {}",
                r.das_streams
            );
            assert!(r.ratio() > 0.0);
        }
    }

    #[test]
    fn median_ratio_shows_spatial_reuse_gain() {
        // Fig. 12's qualitative claim: the median MIDAS/CAS ratio of
        // simultaneous transmissions is well above 1.
        let env = Environment::office_a();
        let mut rng = SimRng::new(3);
        let mut ratios: Vec<f64> = Vec::new();
        for seed in 0..30 {
            let p = pair(200 + seed);
            ratios.push(trial(&p, &env, &mut rng, &ContentionModel::Graph).ratio());
        }
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = ratios[ratios.len() / 2];
        assert!(median > 1.0, "median ratio {median}");
    }

    #[test]
    fn first_ap_stream_limit_is_respected() {
        let env = Environment::office_a();
        let p = pair(4);
        let graph = ContentionGraph::new(env, 4);
        for first in 1..=4usize {
            // With per-antenna sensing disabled and only the first AP active,
            // the count equals the first AP's stream limit.
            let single_ap_topo = Topology {
                region: p.cas.region,
                aps: vec![p.cas.aps[0].clone()],
                clients: p.cas.clients.clone(),
            };
            let n = count_simultaneous_streams(&single_ap_topo, &graph, first, false);
            assert_eq!(n, first);
        }
    }
}
