//! Conventional zero-forcing beamforming with equal per-stream power.
//!
//! This is the §3.1.1 starting point: the precoding directions are the
//! columns of the channel pseudoinverse `H†` (so every stream is nulled at
//! every other client), and the total power budget `|T| * P` is split equally
//! across streams.  The per-antenna constraint is *not* enforced — this
//! precoder represents what a CAS 802.11ac design assumes it can do, and is
//! the reference from which the "capacity drop" of Fig. 3 is measured.

use super::{Precoder, PrecoderKind};
use midas_linalg::{pinv, CMat};

/// Relative tolerance of the QR rank check deciding whether the cheap
/// pseudoinverse route is numerically safe.  Deliberately conservative: a
/// false negative only costs an SVD, a false positive would amplify noise.
const QR_RANK_TOL: f64 = 1e-8;

/// Returns the zero-forcing directions: the pseudoinverse of `h` with every
/// column normalised to unit power.
///
/// Column `j` is the unit-norm transmit vector that delivers stream `j` to
/// client `j` while nulling it at every other client.
///
/// The pseudoinverse is computed via the Householder-QR route
/// ([`pinv::qr_right_pseudo_inverse`]), whose `R`-diagonal doubles as the
/// rank check — well-conditioned full-row-rank channels (the overwhelmingly
/// common case) never pay for an SVD.  (Near-)rank-deficient or tall
/// channels fall back to the rank-revealing SVD pseudoinverse.
pub fn zfbf_directions(h: &CMat) -> CMat {
    let mut v = pinv::qr_right_pseudo_inverse(h, QR_RANK_TOL)
        .unwrap_or_else(|| pinv::pseudo_inverse(h, 1e-12));
    for j in 0..v.cols() {
        let p = v.col_power(j);
        if p > 0.0 {
            v.scale_col(j, 1.0 / p.sqrt());
        }
    }
    v
}

/// Conventional ZFBF precoder (total-power constraint only).
#[derive(Debug, Clone, Copy, Default)]
pub struct ZfbfPrecoder;

impl Precoder for ZfbfPrecoder {
    fn kind(&self) -> PrecoderKind {
        PrecoderKind::Zfbf
    }

    fn precode_matrix(&self, h: &CMat, per_antenna_power: f64, _noise: f64) -> (CMat, usize) {
        assert!(
            per_antenna_power > 0.0,
            "per-antenna power must be positive"
        );
        let num_antennas = h.cols();
        let num_streams = h.rows();
        let mut v = zfbf_directions(h);
        // Equal split of the total budget |T| * P across the |C| streams.
        let per_stream = per_antenna_power * num_antennas as f64 / num_streams as f64;
        for j in 0..v.cols() {
            v.scale_col(j, per_stream.sqrt());
        }
        (v, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::channel;
    use super::*;
    use crate::power;
    use midas_channel::DeploymentKind;

    #[test]
    fn directions_null_cross_client_interference() {
        let ch = channel(DeploymentKind::Das, 4, 4, 1);
        let dirs = zfbf_directions(&ch.h);
        let eff = ch.h.mul(&dirs);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert!(
                        eff.get(i, j).norm() < 1e-9 * eff.get(i, i).norm().max(1.0),
                        "stream {j} leaks into client {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn directions_have_unit_column_power() {
        let ch = channel(DeploymentKind::Cas, 4, 3, 2);
        let dirs = zfbf_directions(&ch.h);
        for j in 0..dirs.cols() {
            assert!((dirs.col_power(j) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn equal_split_uses_full_total_power() {
        let ch = channel(DeploymentKind::Das, 4, 4, 3);
        let out = ZfbfPrecoder.precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
        let total: f64 = power::per_antenna_powers(&out.v).iter().sum();
        assert!(
            (total - 4.0 * ch.tx_power_mw).abs() / (4.0 * ch.tx_power_mw) < 1e-9,
            "total {total}"
        );
        // Equal power per stream.
        for p in (0..out.v.cols()).map(|j| out.v.col_power(j)) {
            assert!((p - ch.tx_power_mw).abs() / ch.tx_power_mw < 1e-9);
        }
    }

    #[test]
    fn zfbf_interference_is_nulled_and_capacity_positive() {
        let ch = channel(DeploymentKind::Das, 4, 4, 4);
        let out = ZfbfPrecoder.precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
        assert!(out.sinr.max_interference() < 1e-6);
        assert!(out.sum_capacity > 0.0);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn das_violates_per_antenna_constraint_more_often_than_cas() {
        // The motivation for the whole §3.1.2: with equal-split ZFBF the
        // worst-antenna overshoot is much larger in DAS than in CAS.
        let mut das_excess = 0.0;
        let mut cas_excess = 0.0;
        for seed in 0..20 {
            let das = channel(DeploymentKind::Das, 4, 4, 100 + seed);
            let cas = channel(DeploymentKind::Cas, 4, 4, 100 + seed);
            let vd = ZfbfPrecoder
                .precode(&das.h, das.tx_power_mw, das.noise_mw)
                .v;
            let vc = ZfbfPrecoder
                .precode(&cas.h, cas.tx_power_mw, cas.noise_mw)
                .v;
            let worst = |v: &CMat, p: f64| {
                power::per_antenna_powers(v)
                    .into_iter()
                    .fold(0.0f64, f64::max)
                    / p
            };
            das_excess += worst(&vd, das.tx_power_mw);
            cas_excess += worst(&vc, cas.tx_power_mw);
        }
        assert!(
            das_excess > cas_excess,
            "DAS mean worst-row ratio {das_excess} should exceed CAS {cas_excess}"
        );
    }

    #[test]
    fn works_with_fewer_clients_than_antennas() {
        let ch = channel(DeploymentKind::Das, 4, 2, 5);
        let out = ZfbfPrecoder.precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
        assert_eq!((out.v.rows(), out.v.cols()), (4, 2));
        assert!(out.sinr.max_interference() < 1e-6);
        assert!(out.sum_capacity > 0.0);
    }
}
