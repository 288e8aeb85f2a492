//! Naïve per-antenna power scaling baseline.
//!
//! The paper's baseline extension of ZFBF to the per-antenna constraint
//! (§3.1.1 "Naïve power scaling", §5.1 "a simple extension to conventional
//! ZFBF precoding"): split power equally across streams, then scale *all*
//! streams on *all* antennas by a single common factor so that the most
//! loaded antenna (Eqn. 5's `k*`) just meets the constraint.  The global
//! scale preserves the zero-forcing property but leaves every other antenna
//! under-utilised — mildly in CAS, severely in DAS (Fig. 3).

use super::zfbf::zfbf_directions;
use super::{Precoder, PrecoderKind};
use crate::power;
use midas_linalg::CMat;

/// ZFBF followed by a single global power scale-down.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveScaledPrecoder;

impl Precoder for NaiveScaledPrecoder {
    fn kind(&self) -> PrecoderKind {
        PrecoderKind::NaiveScaled
    }

    fn precode_matrix(&self, h: &CMat, per_antenna_power: f64, _noise: f64) -> (CMat, usize) {
        assert!(
            per_antenna_power > 0.0,
            "per-antenna power must be positive"
        );
        let num_antennas = h.cols();
        let num_streams = h.rows();
        let mut v = zfbf_directions(h);
        let per_stream = per_antenna_power * num_antennas as f64 / num_streams as f64;
        for j in 0..v.cols() {
            v.scale_col(j, per_stream.sqrt());
        }
        // Global scale so the worst row meets the per-antenna budget.
        let worst_row_power = power::per_antenna_powers(&v)
            .into_iter()
            .fold(0.0f64, f64::max);
        if worst_row_power > per_antenna_power {
            let scale = (per_antenna_power / worst_row_power).sqrt();
            v = v.scale_re(scale);
        }
        (v, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::channel;
    use super::super::ZfbfPrecoder;
    use super::*;
    use midas_channel::DeploymentKind;

    #[test]
    fn always_satisfies_per_antenna_constraint() {
        for seed in 0..10 {
            for kind in [DeploymentKind::Cas, DeploymentKind::Das] {
                let ch = channel(kind, 4, 4, 200 + seed);
                let out = NaiveScaledPrecoder.precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
                assert!(
                    power::satisfies_per_antenna(&out.v, ch.tx_power_mw),
                    "seed {seed} {kind:?} violates the constraint"
                );
            }
        }
    }

    #[test]
    fn preserves_zero_forcing() {
        let ch = channel(DeploymentKind::Das, 4, 4, 7);
        let out = NaiveScaledPrecoder.precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
        assert!(out.sinr.max_interference() < 1e-6);
    }

    #[test]
    fn capacity_never_exceeds_unconstrained_zfbf() {
        for seed in 0..10 {
            let ch = channel(DeploymentKind::Das, 4, 4, 300 + seed);
            let zf = ZfbfPrecoder.precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
            let naive = NaiveScaledPrecoder.precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
            assert!(naive.sum_capacity <= zf.sum_capacity + 1e-9);
        }
    }

    #[test]
    fn no_scaling_applied_when_constraint_already_met() {
        // With a single client, the stream is spread over 4 antennas; each
        // row's power (P*4/1 split over 4 antennas of a unit-norm column) can
        // still exceed P for imbalanced columns, so instead craft an identity
        // channel where the split is exactly uniform.
        let h = CMat::identity(4);
        let p = 2.0;
        let zf = ZfbfPrecoder.precode(&h, p, 0.1);
        let naive = NaiveScaledPrecoder.precode(&h, p, 0.1);
        assert!((zf.sum_capacity - naive.sum_capacity).abs() < 1e-9);
        assert!(power::satisfies_per_antenna(&naive.v, p));
    }

    #[test]
    fn capacity_drop_is_larger_for_das_than_cas() {
        // Reproduces the qualitative content of Fig. 3 at unit-test scale.
        let mut das_drop = 0.0;
        let mut cas_drop = 0.0;
        let n = 15;
        for seed in 0..n {
            let das = channel(DeploymentKind::Das, 4, 4, 400 + seed);
            let cas = channel(DeploymentKind::Cas, 4, 4, 400 + seed);
            let drop = |ch: &midas_channel::ChannelMatrix| {
                let zf = ZfbfPrecoder.precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
                let nv = NaiveScaledPrecoder.precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
                zf.sum_capacity - nv.sum_capacity
            };
            das_drop += drop(&das);
            cas_drop += drop(&cas);
        }
        assert!(
            das_drop / n as f64 > cas_drop / n as f64,
            "mean DAS drop {das_drop} should exceed CAS drop {cas_drop}"
        );
    }
}
