//! Capacity metrics.
//!
//! As in the paper (§5.1), measured per-stream SINR is translated into
//! network capacity with the Shannon formula; the y-axes of Figs. 8–11 and
//! 14–16 are the resulting sum capacity in bit/s/Hz.

use crate::sinr::SinrMatrix;

/// Shannon capacity of a single link in bit/s/Hz for a *linear* SINR.
pub fn shannon_capacity_bps_hz(sinr_linear: f64) -> f64 {
    (1.0 + sinr_linear.max(0.0)).log2()
}

/// Sum capacity (bit/s/Hz) of a MU-MIMO transmission described by an SINR matrix.
pub fn sum_capacity(s: &SinrMatrix) -> f64 {
    s.sinrs().into_iter().map(shannon_capacity_bps_hz).sum()
}

/// Per-client capacities (bit/s/Hz).
pub fn per_client_capacity(s: &SinrMatrix) -> Vec<f64> {
    s.sinrs().into_iter().map(shannon_capacity_bps_hz).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_linalg::CMat;

    #[test]
    fn capacity_matches_closed_forms() {
        assert!((shannon_capacity_bps_hz(1.0) - 1.0).abs() < 1e-12);
        assert!((shannon_capacity_bps_hz(3.0) - 2.0).abs() < 1e-12);
        assert!((shannon_capacity_bps_hz(0.0) - 0.0).abs() < 1e-12);
        // Negative SINR (impossible physically) is clamped instead of NaN.
        assert_eq!(shannon_capacity_bps_hz(-0.5), 0.0);
    }

    #[test]
    fn sum_capacity_adds_per_client_terms() {
        let h = CMat::identity(3);
        let v = CMat::identity(3);
        let s = SinrMatrix::compute(&h, &v, 0.25); // SNR 4 per client
        let per = per_client_capacity(&s);
        assert_eq!(per.len(), 3);
        for c in &per {
            assert!((c - (5.0f64).log2()).abs() < 1e-12);
        }
        assert!((sum_capacity(&s) - 3.0 * (5.0f64).log2()).abs() < 1e-12);
    }

    #[test]
    fn capacity_is_monotone_in_sinr() {
        let mut prev = 0.0;
        for i in 1..50 {
            let c = shannon_capacity_bps_hz(i as f64);
            assert!(c > prev);
            prev = c;
        }
    }
}
