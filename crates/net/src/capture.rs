//! Physical carrier-sense & capture model — the contention semantics behind
//! the Fig. 16 calibration.
//!
//! The original simulator models contention as a *binary* carrier-sense
//! graph: a transmitter defers iff it senses aggregate energy above the
//! environment's fixed CCA threshold, and every transmission that goes out
//! is credited its Shannon capacity no matter how badly it collides.  That
//! is generous to the CAS baseline — shadowing holes let non-adjacent CAS
//! APs fire together far more often than the paper's testbed CAS ever did,
//! and their mutually-interfered clients still earn (low but positive)
//! capacity instead of losing the frame.  The ROADMAP traces the remaining
//! Fig. 16 gap (paper: MIDAS > +150 % over CAS at 8 APs) to exactly this.
//!
//! [`ContentionModel::Physical`] replaces both halves with a physical-layer
//! model:
//!
//! * **Energy-detect carrier sensing** at a *configurable* threshold
//!   (dBm), evaluated through the same frozen shadowing field the binary
//!   graph uses — lowering the threshold widens every contention domain the
//!   way a real 802.11 CCA-ED deployment tuned for dense floors behaves.
//!   The sensing field's shadowing spread is independently configurable,
//!   because the *sensing* environment (AP-height, antenna-to-antenna) is
//!   typically less obstructed than the AP-to-client data links.
//! * **SINR capture at the receiver**: the transmitter picks a VHT MCS
//!   from the SINR its own precoding predicts (it cannot foresee who else
//!   wins the round), keeping a configurable capture margin of headroom;
//!   the stream is decoded iff the *realized* post-precoding SINR —
//!   cross-AP interference included — still clears that MCS's decode
//!   threshold, and otherwise the frame is lost and earns zero capacity.
//!   Overlap no longer implies collision (a stream with headroom shrugs
//!   interference off), and collision no longer earns capacity.  The
//!   asymmetry this models is exactly the paper's: a distributed antenna
//!   sits close to its client, leaving tens of dB of headroom above the
//!   top MCS threshold, while a co-located array serving the same client
//!   from across the floor picks a rate its link can only just sustain —
//!   so concurrent CAS transmissions destroy each other where MIDAS ones
//!   survive.
//!
//! [`ContentionModel::Graph`] (the default) preserves the legacy semantics
//! bit-for-bit; the property tests in `crates/net/tests/proptest_capture.rs`
//! pin that equivalence, and the calibrated `Physical` defaults come from the
//! `midas::sim::ExperimentSpec::Fig16Calibration` grid sweep.  The model is
//! a knob of the end-to-end simulator only: the Fig. 12 spatial-reuse and
//! §5.3.4 hidden-terminal analyses always run the paper's binary graph.

use crate::contention::ContentionGraph;
use midas_channel::shadowing::Shadowing;
use midas_channel::Environment;
use midas_phy::mcs::{McsEntry, VHT_MCS_TABLE};

/// Parameters of the physical carrier-sense & capture model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalConfig {
    /// Energy-detect carrier-sense threshold in dBm.  Aggregate large-scale
    /// received power (path loss + frozen shadowing) at or above this defers
    /// the sensing antenna.
    pub cs_threshold_dbm: f64,
    /// Capture margin in dB: the link margin rate adaptation keeps when it
    /// picks a VHT MCS from the *expected* (interference-free) SINR, and
    /// therefore the amount of cross-AP interference degradation every
    /// stream is guaranteed to survive.  A transmission succeeds iff the
    /// *realized* SINR — concurrent transmissions included — still clears
    /// the selected MCS's decode threshold; see
    /// [`PhysicalConfig::frame_captured`].
    pub capture_margin_db: f64,
    /// Shadowing spread (dB) of the *sensing* field; `None` keeps the data
    /// environment's spread.  The Fig. 16 calibration sweeps this because
    /// shadowing holes in the sensing field are what let non-adjacent CAS
    /// APs fire concurrently.
    pub sensing_sigma_db: Option<f64>,
}

impl PhysicalConfig {
    /// The calibrated defaults promoted from the winning cell of the
    /// `fig16_calibration` grid sweep ({CS threshold × capture margin ×
    /// sensing σ} against the paper's Fig. 16 band; see the bench target of
    /// the same name for the full grid and the promotion rule in
    /// `midas::experiment::best_calibration_cell`).
    ///
    /// The gains the 8-AP simulation reports at these values, against the
    /// graph model's, are quoted in README's Fig. 16 paragraph (section
    /// "Contention models"); the accepted per-client band is pinned by
    /// `crates/core/tests/paper_fidelity.rs` and `fig16_pooled.rs`.
    pub fn calibrated() -> Self {
        PhysicalConfig {
            cs_threshold_dbm: -86.0,
            capture_margin_db: 10.0,
            sensing_sigma_db: Some(3.0),
        }
    }

    /// The environment the *sensing* decisions run in: the data environment
    /// with this config's CS threshold (and sensing shadowing spread, when
    /// set) substituted.
    fn sensing_environment(&self, env: Environment) -> Environment {
        let mut sensing = env;
        sensing.carrier_sense_dbm = self.cs_threshold_dbm;
        if let Some(sigma) = self.sensing_sigma_db {
            sensing.shadowing = Shadowing::new(sigma);
        }
        sensing
    }

    /// Builds the energy-detect sensing helper for this config: the same
    /// [`ContentionGraph`] machinery the binary model uses, bound to the
    /// overridden sensing environment (so all aggregate-energy and
    /// spatial-index paths keep working unchanged).
    pub fn sensing_graph(&self, env: Environment, seed: u64) -> ContentionGraph {
        ContentionGraph::new(self.sensing_environment(env), seed)
    }

    /// The VHT MCS rate adaptation selects from the *expected*
    /// (interference-free) SINR: the highest MCS whose decode threshold it
    /// clears by the capture margin, so every transmitted stream carries at
    /// least `capture_margin_db` of headroom against interference it cannot
    /// foresee.  `None` when even MCS 0 lacks the margin — the link is too
    /// weak to transmit on.
    // lint: allow(unreachable-pub) — proptest_capture checks that capture is monotone through it
    pub fn select_mcs(&self, expected_sinr_db: f64) -> Option<McsEntry> {
        VHT_MCS_TABLE
            .iter()
            .rev()
            .find(|e| expected_sinr_db >= e.min_sinr_db + self.capture_margin_db)
            .copied()
    }

    /// Whether the receiver captures a frame sent at the MCS chosen from
    /// `expected_sinr_db` (the SINR the transmitter's own precoding
    /// predicts, blind to concurrent transmissions elsewhere) when the
    /// channel actually delivers `realized_sinr_db` (cross-AP interference
    /// included): the realized SINR must still clear the selected MCS's
    /// decode threshold.  Monotone in the realized SINR for any fixed
    /// expectation, and anti-monotone in the expectation — a transmitter
    /// that was promised more picks a more fragile rate.  This is what
    /// replaces "any overlap ⇒ collision": overlap only costs the frame
    /// when it eats through the stream's actual decode headroom.
    // lint: allow(unreachable-pub) — proptest_capture checks capture monotonicity and the margin guarantee through it
    pub fn frame_captured(&self, expected_sinr_db: f64, realized_sinr_db: f64) -> bool {
        match self.select_mcs(expected_sinr_db) {
            Some(mcs) => realized_sinr_db >= mcs.min_sinr_db,
            None => false,
        }
    }

    /// [`PhysicalConfig::frame_captured`] on linear SINRs (the simulator's
    /// native unit).
    pub fn frame_captured_linear(&self, expected_sinr: f64, realized_sinr: f64) -> bool {
        self.frame_captured(10.0 * expected_sinr.log10(), 10.0 * realized_sinr.log10())
    }
}

/// Which contention semantics a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContentionModel {
    /// Legacy binary carrier-sense graph: defer on aggregate energy above
    /// the environment's CCA threshold; every transmitted stream earns its
    /// Shannon capacity.  The default — keeps every pre-capture golden
    /// bit-identical.
    Graph,
    /// Physical energy-detect sensing at a configurable threshold plus
    /// SINR-based capture at the receiver.
    Physical(PhysicalConfig),
}

impl ContentionModel {
    /// The physical model at the calibrated Fig. 16 defaults.
    pub fn physical_calibrated() -> Self {
        ContentionModel::Physical(PhysicalConfig::calibrated())
    }

    /// The carrier-sense helper this model senses through.  For `Graph`
    /// this is exactly the legacy `ContentionGraph::new(env, seed)` — same
    /// threshold, same frozen shadowing field — so adjacency and sensing
    /// decisions are bit-identical to the pre-capture code.
    pub fn sensing_graph(&self, env: Environment, seed: u64) -> ContentionGraph {
        match self {
            ContentionModel::Graph => ContentionGraph::new(env, seed),
            ContentionModel::Physical(p) => p.sensing_graph(env, seed),
        }
    }

    /// The capture rule, when this model has one (`Graph` never drops a
    /// stream).
    pub fn physical(&self) -> Option<&PhysicalConfig> {
        match self {
            ContentionModel::Graph => None,
            ContentionModel::Physical(p) => Some(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_channel::geometry::Point;

    #[test]
    fn calibrated_defaults_are_a_stricter_cca_than_the_presets() {
        // The calibration's mechanism is a wider contention domain: the
        // promoted CS threshold must be *more sensitive* (lower dBm) than
        // every environment preset's CCA, and the sensing field smoother.
        let cal = PhysicalConfig::calibrated();
        for env in [
            Environment::office_a(),
            Environment::office_b(),
            Environment::open_plan(),
        ] {
            assert!(
                cal.cs_threshold_dbm <= env.carrier_sense_dbm,
                "{:?}",
                env.kind
            );
            let sensing = cal.sensing_environment(env);
            assert_eq!(sensing.carrier_sense_dbm, cal.cs_threshold_dbm);
            assert!(sensing.shadowing.sigma_db <= env.shadowing.sigma_db);
            // Everything else is untouched.
            assert_eq!(sensing.tx_power_dbm, env.tx_power_dbm);
            assert_eq!(sensing.path_loss, env.path_loss);
        }
    }

    #[test]
    fn capture_threshold_sits_margin_above_mcs0() {
        let p = PhysicalConfig {
            cs_threshold_dbm: -76.0,
            capture_margin_db: 4.0,
            sensing_sigma_db: None,
        };
        let threshold_db = VHT_MCS_TABLE[0].min_sinr_db + 4.0;
        assert!(p.select_mcs(threshold_db).is_some());
        assert!(p.select_mcs(threshold_db - 1e-9).is_none());
    }

    #[test]
    fn mcs_selection_keeps_the_margin_as_headroom() {
        let p = PhysicalConfig {
            cs_threshold_dbm: -76.0,
            capture_margin_db: 3.0,
            sensing_sigma_db: None,
        };
        for expected in [6.0, 12.5, 20.0, 27.9, 40.0] {
            let mcs = p.select_mcs(expected).expect("link strong enough");
            // The margin survives selection: an interference-free frame
            // (realized == expected) always captures, and so does one
            // degraded by up to the margin.
            assert!(expected - mcs.min_sinr_db >= p.capture_margin_db);
            assert!(p.frame_captured(expected, expected));
            assert!(p.frame_captured(expected, expected - p.capture_margin_db));
        }
        // A deep collision defeats capture...
        assert!(!p.frame_captured(20.0, 5.0));
        // ...and capture is monotone in the realized SINR for a fixed
        // expectation.
        let mut prev = false;
        for realized in -10..40 {
            let ok = p.frame_captured(20.0, realized as f64);
            assert!(!prev || ok, "capture flipped back off at {realized} dB");
            prev = ok;
        }
        // Linear and dB forms agree.
        assert!(p.frame_captured_linear(100.0, 100.0)); // 20 dB
        assert!(!p.frame_captured_linear(100.0, 1.0)); // 20 dB expected, 0 realized
    }

    #[test]
    fn graph_model_sensing_is_the_legacy_graph() {
        let env = Environment::office_a();
        let legacy = ContentionGraph::new(env, 7);
        let modelled = ContentionModel::Graph.sensing_graph(env, 7);
        let a = Point::new(0.0, 0.0);
        for d in 1..40 {
            let b = Point::new(d as f64, 0.5);
            assert_eq!(legacy.can_sense(&a, &b), modelled.can_sense(&a, &b));
        }
        assert!(ContentionModel::Graph.physical().is_none());
    }

    #[test]
    fn lower_threshold_senses_strictly_more() {
        let env = Environment::office_a();
        let strict = PhysicalConfig {
            cs_threshold_dbm: -85.0,
            capture_margin_db: 0.0,
            sensing_sigma_db: None,
        };
        let lax = PhysicalConfig {
            cs_threshold_dbm: -70.0,
            ..strict
        };
        let a = Point::new(0.0, 0.0);
        let mut strict_only = 0;
        for d in 1..60 {
            let b = Point::new(d as f64, 0.0);
            let s = strict.sensing_graph(env, 3).can_sense(&a, &b);
            let l = lax.sensing_graph(env, 3).can_sense(&a, &b);
            assert!(!l || s, "lax sensing must imply strict sensing");
            if s && !l {
                strict_only += 1;
            }
        }
        assert!(strict_only > 0, "15 dB of threshold must widen the range");
    }
}
