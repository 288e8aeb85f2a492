//! SINR computation for precoded MU-MIMO transmissions.
//!
//! Implements the paper's Eqn. 4: with channel **H** (clients × antennas),
//! precoder **V** (antennas × streams) and noise power `N0`, the entry
//! `s_ij` of the SINR matrix is the power of stream `i` received at client
//! `j`, normalised by the noise power:
//!
//! ```text
//! s_ij = | sum_k h_jk v_ki |^2 / N0
//! ```
//!
//! The per-client SINR of the desired stream `j` is then
//! `rho_j = s_jj / (1 + sum_{i != j} s_ij)`.

use midas_linalg::CMat;

/// The stream-by-client received power matrix of the paper's Eqn. 4 and the
/// SINRs derived from it.
///
/// Streams are indexed like clients: stream `j` carries client `j`'s data.
#[derive(Debug, Clone, PartialEq)]
pub struct SinrMatrix {
    /// `s[i][j]`: noise-normalised power of stream `i` at client `j`.
    s: Vec<Vec<f64>>,
}

impl SinrMatrix {
    /// Computes the SINR matrix for channel `h` (clients × antennas),
    /// precoder `v` (antennas × streams) and noise power `noise` (same linear
    /// unit as the precoder powers, typically mW).
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree or `noise <= 0`.
    pub fn compute(h: &CMat, v: &CMat, noise: f64) -> Self {
        assert!(noise > 0.0, "noise power must be positive");
        assert_eq!(
            h.cols(),
            v.rows(),
            "channel antennas ({}) and precoder antennas ({}) disagree",
            h.cols(),
            v.rows()
        );
        let num_clients = h.rows();
        let num_streams = v.cols();
        // Effective channel: E = H * V  (clients x streams); e_ji is the complex
        // amplitude with which stream i arrives at client j.
        let e = h.mul(v);
        let mut s = vec![vec![0.0; num_clients]; num_streams];
        for (i, row) in s.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = e.get(j, i).norm_sqr() / noise;
            }
        }
        SinrMatrix { s }
    }

    /// Number of streams (rows of the S matrix).
    pub fn num_streams(&self) -> usize {
        self.s.len()
    }

    /// Number of clients (columns of the S matrix).
    pub fn num_clients(&self) -> usize {
        self.s.first().map_or(0, |r| r.len())
    }

    /// Desired-signal power (noise-normalised) at client `j`, i.e. `s_jj`.
    pub fn signal(&self, client: usize) -> f64 {
        self.s[client][client]
    }

    /// Total interference power (noise-normalised) at client `j` from all
    /// other streams.
    pub fn interference(&self, client: usize) -> f64 {
        (0..self.num_streams())
            .filter(|&i| i != client)
            .map(|i| self.s[i][client])
            .sum()
    }

    /// SINR of client `j`'s desired stream: `s_jj / (1 + sum_{i!=j} s_ij)`.
    pub fn sinr(&self, client: usize) -> f64 {
        self.signal(client) / (1.0 + self.interference(client))
    }

    /// SINRs of all clients.
    pub fn sinrs(&self) -> Vec<f64> {
        (0..self.num_clients().min(self.num_streams()))
            .map(|j| self.sinr(j))
            .collect()
    }

    /// Maximum off-diagonal (interference) entry — zero for ideal ZFBF with
    /// perfect CSI; used in tests to verify the zero-forcing property.
    // lint: allow(unreachable-pub) — proptest_precoding checks the zero-forcing property with it
    pub fn max_interference(&self) -> f64 {
        let mut max = 0.0f64;
        for i in 0..self.num_streams() {
            for j in 0..self.num_clients() {
                if i != j {
                    max = max.max(self.s[i][j]);
                }
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_linalg::{pinv, CMat, Complex};

    fn test_channel() -> CMat {
        CMat::from_rows(&[
            vec![
                Complex::new(0.9, 0.1),
                Complex::new(0.2, -0.4),
                Complex::new(0.05, 0.3),
            ],
            vec![
                Complex::new(-0.3, 0.6),
                Complex::new(1.1, 0.0),
                Complex::new(0.4, 0.2),
            ],
            vec![
                Complex::new(0.1, -0.2),
                Complex::new(0.3, 0.5),
                Complex::new(0.8, -0.6),
            ],
        ])
    }

    #[test]
    fn zfbf_precoder_gives_diagonal_s_matrix() {
        let h = test_channel();
        let v = pinv::pseudo_inverse(&h, 1e-12);
        let s = SinrMatrix::compute(&h, &v, 0.01);
        assert!(
            s.max_interference() < 1e-12,
            "interference {}",
            s.max_interference()
        );
        for j in 0..3 {
            assert!(s.signal(j) > 0.0);
            // With zero interference the SINR equals the SNR.
            assert!((s.sinr(j) - s.signal(j)).abs() < 1e-9);
        }
    }

    #[test]
    fn identity_channel_with_identity_precoder_has_unit_gain() {
        let h = CMat::identity(2);
        let v = CMat::identity(2);
        let noise = 0.5;
        let s = SinrMatrix::compute(&h, &v, noise);
        for j in 0..2 {
            assert!((s.signal(j) - 1.0 / noise).abs() < 1e-12);
            assert!((s.sinr(j) - 2.0).abs() < 1e-12);
        }
        assert_eq!(s.num_streams(), 2);
        assert_eq!(s.num_clients(), 2);
    }

    #[test]
    fn interference_reduces_sinr() {
        // Precoder that deliberately leaks power across streams.
        let h = CMat::identity(2);
        let v = CMat::from_rows(&[
            vec![Complex::new(1.0, 0.0), Complex::new(0.5, 0.0)],
            vec![Complex::new(0.5, 0.0), Complex::new(1.0, 0.0)],
        ]);
        let s = SinrMatrix::compute(&h, &v, 1.0);
        assert!(s.interference(0) > 0.0);
        assert!(s.sinr(0) < s.signal(0));
        // SINR = 1 / (1 + 0.25)
        assert!((s.sinr(0) - 1.0 / 1.25).abs() < 1e-12);
    }

    #[test]
    fn scaling_noise_scales_sinr_inversely_without_interference() {
        let h = test_channel();
        let v = pinv::pseudo_inverse(&h, 1e-12);
        let s1 = SinrMatrix::compute(&h, &v, 0.01);
        let s2 = SinrMatrix::compute(&h, &v, 0.02);
        for j in 0..3 {
            assert!((s1.sinr(j) / s2.sinr(j) - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "noise power must be positive")]
    fn zero_noise_panics() {
        let h = CMat::identity(2);
        let v = CMat::identity(2);
        let _ = SinrMatrix::compute(&h, &v, 0.0);
    }
}
