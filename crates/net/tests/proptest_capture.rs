//! Property tests for the physical carrier-sense & capture subsystem
//! (`midas_net::capture`).
//!
//! Three load-bearing properties:
//!
//! * **CS-threshold monotonicity** — raising the energy-detect threshold
//!   can only *remove* contention-graph edges, never add one.  The
//!   Fig. 16 calibration sweeps the threshold assuming this (a stricter
//!   CCA means a denser contention graph, monotonically).
//! * **Capture monotonicity** — for any fixed rate-adaptation expectation,
//!   frame capture is monotone in the realized SINR; and a larger capture
//!   margin never *lowers* the realized SINR a frame needs.
//! * **Legacy equivalence** — `ContentionModel::Graph` builds a sensing
//!   graph bit-identical to the legacy `ContentionGraph::new`, so every
//!   pre-capture golden stays pinned by construction.

use midas_channel::topology::TopologyConfig;
use midas_channel::{Environment, SimRng};
use midas_net::capture::{ContentionModel, PhysicalConfig};
use midas_net::contention::ContentionGraph;
use midas_net::deployment::{paper_das_config, PairedTopology};
use proptest::prelude::*;

fn env_for(sel: usize) -> Environment {
    match sel % 3 {
        0 => Environment::office_a(),
        1 => Environment::office_b(),
        _ => Environment::open_plan(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Raising the CS threshold never adds a contention-graph edge, on
    /// either variant of a random paired 3-AP topology: the edge sets are
    /// nested exactly as the thresholds are ordered.
    #[test]
    fn raising_cs_threshold_never_adds_edges(
        seed in 0u64..1_000_000,
        env_sel in 0usize..3,
        low_dbm in -95.0f64..-80.0,
        delta_db in 0.0f64..20.0,
    ) {
        let env = env_for(env_sel);
        let mut rng = SimRng::new(seed);
        let pair = PairedTopology::three_ap(&paper_das_config(&env, 4, 4), &mut rng);
        let sensing = |cs_threshold_dbm| {
            PhysicalConfig { cs_threshold_dbm, sensing_sigma_db: None, ..PhysicalConfig::calibrated() }
                .sensing_graph(env, seed)
        };
        let strict = sensing(low_dbm);
        let lax = sensing(low_dbm + delta_db);
        prop_assert_eq!(strict.threshold_dbm(), low_dbm);
        for topo in [&pair.cas, &pair.das] {
            let dense = strict.ap_adjacency_indexed(topo, f64::INFINITY);
            let sparse = lax.ap_adjacency_indexed(topo, f64::INFINITY);
            for (a, row) in sparse.iter().enumerate() {
                for (b, &edge) in row.iter().enumerate() {
                    prop_assert!(
                        !edge || dense[a][b],
                        "edge {}-{} exists at {} dBm but not at {} dBm",
                        a, b, low_dbm + delta_db, low_dbm
                    );
                }
            }
        }
    }

    /// Capture success is monotone in the realized SINR for any fixed
    /// rate-adaptation expectation, and the threshold a frame must clear
    /// is monotone in the capture margin.
    #[test]
    fn capture_is_monotone_in_sinr_and_margin(
        expected_db in -5.0f64..45.0,
        realized_db in -15.0f64..45.0,
        step_db in 0.0f64..20.0,
        margin_db in 0.0f64..12.0,
        margin_step_db in 0.0f64..8.0,
    ) {
        let p = PhysicalConfig {
            cs_threshold_dbm: -86.0,
            capture_margin_db: margin_db,
            sensing_sigma_db: None,
        };
        // More realized SINR can only help.
        if p.frame_captured(expected_db, realized_db) {
            prop_assert!(p.frame_captured(expected_db, realized_db + step_db));
        }
        // An interference-free frame (realized == expected) always
        // captures whenever the link is strong enough to transmit at all,
        // and survives degradation up to the margin.
        if p.select_mcs(expected_db).is_some() {
            prop_assert!(p.frame_captured(expected_db, expected_db));
            prop_assert!(p.frame_captured(expected_db, expected_db - margin_db));
        }
        // A larger margin selects an MCS that is never harder to decode.
        let wider = PhysicalConfig {
            capture_margin_db: margin_db + margin_step_db,
            ..p
        };
        match (p.select_mcs(expected_db), wider.select_mcs(expected_db)) {
            (_, None) => {}
            (Some(base), Some(conservative)) => {
                prop_assert!(conservative.min_sinr_db <= base.min_sinr_db);
            }
            (None, Some(_)) => prop_assert!(false, "wider margin cannot unlock a link"),
        }
    }

    /// `ContentionModel::Graph` reproduces the legacy contention graph
    /// bit-for-bit on a random paired topology: same adjacency matrix,
    /// same per-point sensing decisions.
    #[test]
    fn graph_model_reproduces_legacy_adjacency(
        seed in 0u64..1_000_000,
        env_sel in 0usize..3,
    ) {
        let env = env_for(env_sel);
        let mut rng = SimRng::new(seed);
        let pair = PairedTopology::three_ap(&TopologyConfig::das(4, 4), &mut rng);
        let legacy = ContentionGraph::new(env, seed ^ 0x5151);
        let modelled = ContentionModel::Graph.sensing_graph(env, seed ^ 0x5151);
        for topo in [&pair.cas, &pair.das] {
            prop_assert_eq!(
                legacy.ap_adjacency_indexed(topo, f64::INFINITY),
                modelled.ap_adjacency_indexed(topo, f64::INFINITY)
            );
            for ap in &topo.aps {
                for antenna in &ap.antennas {
                    prop_assert_eq!(
                        legacy.senses_any(antenna, &topo.aps[0].antennas),
                        modelled.senses_any(antenna, &topo.aps[0].antennas)
                    );
                }
            }
        }
    }

    /// Regression companion to the `SpatialIndex` infinite-cell fix: the
    /// indexed AP adjacency with an *infinite* cutoff (which sizes the
    /// index's cells from the bounding box instead of building a
    /// degenerate one-cell grid) equals the unbounded pairwise sweep of
    /// `aps_share_domain_within`.
    #[test]
    fn indexed_adjacency_with_infinite_cutoff_matches_unbounded(
        seed in 0u64..1_000_000,
        env_sel in 0usize..3,
    ) {
        let env = env_for(env_sel);
        let mut rng = SimRng::new(seed);
        let pair = PairedTopology::three_ap(&paper_das_config(&env, 4, 4), &mut rng);
        let graph = ContentionGraph::new(env, seed);
        let n = pair.das.aps.len();
        let shared = |a, b| graph.aps_share_domain_within(&pair.das, a, b, f64::INFINITY);
        let pairwise: Vec<Vec<bool>> = (0..n)
            .map(|a| (0..n).map(|b| a != b && shared(a, b)).collect())
            .collect();
        prop_assert_eq!(graph.ap_adjacency_indexed(&pair.das, f64::INFINITY), pairwise);
    }
}
