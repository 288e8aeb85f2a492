//! 802.11ac channel sounding: CSI estimation error and staleness.
//!
//! 802.11ac acquires CSI with an explicit sounding exchange (§3.3 of the
//! paper): the AP sends a VHT NDP-Announcement and an NDP (null data packet);
//! each targeted client measures the channel and returns a compressed
//! beamforming report, polled one client at a time.  Two imperfections matter
//! for MU-MIMO performance and are modelled here:
//!
//! * **Estimation error** — the reported CSI differs from the true channel by
//!   a relative error (NMSE), which turns nominally nulled interference into
//!   residual interference.
//! * **Staleness** — the channel keeps evolving between the sounding exchange
//!   and the data transmission; the paper leans on this to argue a precoder
//!   must be fast (Fig. 11's testbed anomaly where the "optimal" precoder
//!   loses to MIDAS because it takes seconds to compute).

use midas_channel::fading::sample_cn01;
use midas_channel::SimRng;
use midas_linalg::CMat;

/// Configuration of the sounding process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoundingConfig {
    /// Relative CSI error: standard deviation of the additive error as a
    /// fraction of each entry's magnitude (0.05 ≈ −26 dB NMSE).
    pub csi_error_std: f64,
}

impl Default for SoundingConfig {
    fn default() -> Self {
        SoundingConfig {
            csi_error_std: 0.05,
        }
    }
}

/// The sounding process bound to a configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoundingProcess {
    /// The configuration in force.
    pub config: SoundingConfig,
}

impl SoundingProcess {
    /// Creates a sounding process with the given configuration.
    pub fn new(config: SoundingConfig) -> Self {
        SoundingProcess { config }
    }

    /// Applies CSI estimation error to a true channel matrix, producing the
    /// estimate the AP will precode with.
    pub fn estimate(&self, h_true: &CMat, rng: &mut SimRng) -> CMat {
        if self.config.csi_error_std <= 0.0 {
            return h_true.clone();
        }
        let mut est = h_true.clone();
        for r in 0..h_true.rows() {
            for c in 0..h_true.cols() {
                let true_val = h_true.get(r, c);
                let err = sample_cn01(rng).scale(self.config.csi_error_std * true_val.norm());
                est.set(r, c, true_val + err);
            }
        }
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precoder::{Precoder, ZfbfPrecoder};
    use crate::sinr::SinrMatrix;
    use midas_linalg::Complex;

    fn true_channel() -> CMat {
        CMat::from_rows(&[
            vec![Complex::new(1.0e-3, 2.0e-4), Complex::new(-3.0e-4, 5.0e-4)],
            vec![Complex::new(4.0e-4, -1.0e-4), Complex::new(8.0e-4, 6.0e-4)],
        ])
    }

    #[test]
    fn zero_error_estimate_is_exact() {
        let cfg = SoundingConfig { csi_error_std: 0.0 };
        let s = SoundingProcess::new(cfg);
        let h = true_channel();
        let mut rng = SimRng::new(1);
        assert!(s.estimate(&h, &mut rng).approx_eq(&h, 0.0));
    }

    #[test]
    fn estimation_error_has_requested_relative_magnitude() {
        let s = SoundingProcess::new(SoundingConfig { csi_error_std: 0.1 });
        let h = true_channel();
        let mut rng = SimRng::new(2);
        let n = 2000;
        let mut rel_err_sqr = 0.0;
        for _ in 0..n {
            let est = s.estimate(&h, &mut rng);
            let mut num = 0.0;
            let mut den = 0.0;
            for r in 0..2 {
                for c in 0..2 {
                    num += (est.get(r, c) - h.get(r, c)).norm_sqr();
                    den += h.get(r, c).norm_sqr();
                }
            }
            rel_err_sqr += num / den;
        }
        let nmse = rel_err_sqr / n as f64;
        assert!((nmse - 0.01).abs() < 0.003, "NMSE {nmse}");
    }

    #[test]
    fn imperfect_csi_causes_residual_interference() {
        let s = SoundingProcess::new(SoundingConfig { csi_error_std: 0.1 });
        let h = true_channel();
        let mut rng = SimRng::new(3);
        let est = s.estimate(&h, &mut rng);
        // Precoder computed on the estimate, applied over the true channel.
        let precoding = ZfbfPrecoder.precode(&est, 10.0, 1e-9);
        let sinr_true = SinrMatrix::compute(&h, &precoding.v, 1e-9);
        assert!(
            sinr_true.max_interference() > 0.0,
            "stale/imperfect CSI should leak interference"
        );
        // And perfect CSI does not.
        let perfect = ZfbfPrecoder.precode(&h, 10.0, 1e-9);
        let sinr_perfect = SinrMatrix::compute(&h, &perfect.v, 1e-9);
        assert!(sinr_perfect.max_interference() < 1e-9);
    }
}
