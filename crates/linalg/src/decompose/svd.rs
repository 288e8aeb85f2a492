//! Singular value decomposition via one-sided Jacobi rotations.
//!
//! The one-sided Jacobi method orthogonalises the columns of the input matrix
//! with a sequence of 2×2 unitary rotations.  It is slow for large matrices
//! but extremely robust and accurate, which is exactly the trade-off we want
//! for the tiny (≤ 8×8) channel matrices MU-MIMO precoding manipulates.

use crate::complex::Complex;
use crate::matrix::CMat;

/// Maximum number of Jacobi sweeps before giving up (in practice 4–8 suffice
/// for the matrix sizes used in the reproduction).
const MAX_SWEEPS: usize = 60;

/// Singular value decomposition `A = U * diag(s) * V^H`.
///
/// `U` is `m x r`, `V` is `n x r` and `s` holds the `r = min(m, n)` singular
/// values sorted in non-increasing order.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (`m x r`, orthonormal columns).
    pub u: CMat,
    /// Singular values, non-increasing.
    pub s: Vec<f64>,
    /// Right singular vectors (`n x r`, orthonormal columns).
    pub v: CMat,
}

impl Svd {
    /// Computes the SVD of an arbitrary dense complex matrix.
    pub fn new(a: &CMat) -> Self {
        let m = a.rows();
        let n = a.cols();
        if m >= n {
            Self::jacobi_tall(a)
        } else {
            // A = (A^H)^H : if A^H = U1 S V1^H then A = V1 S U1^H.
            let t = Self::jacobi_tall(&a.hermitian());
            Svd {
                u: t.v,
                s: t.s,
                v: t.u,
            }
        }
    }

    /// One-sided Jacobi on a tall (or square) matrix (`m >= n`).
    fn jacobi_tall(a: &CMat) -> Self {
        let m = a.rows();
        let n = a.cols();
        debug_assert!(m >= n);

        // Work on a mutable copy of the columns; accumulate rotations into V.
        let mut w = a.clone();
        let mut v = CMat::identity(n);

        let eps = f64::EPSILON * 16.0;
        for _sweep in 0..MAX_SWEEPS {
            let mut rotated = false;
            for p in 0..n {
                for q in (p + 1)..n {
                    // Gram entries for the column pair (p, q).
                    let mut app = 0.0;
                    let mut aqq = 0.0;
                    let mut apq = Complex::ZERO;
                    for i in 0..m {
                        let wp = w.get(i, p);
                        let wq = w.get(i, q);
                        app += wp.norm_sqr();
                        aqq += wq.norm_sqr();
                        apq += wp.conj() * wq;
                    }
                    let off = apq.norm();
                    if off <= eps * (app * aqq).sqrt() || off == 0.0 {
                        continue;
                    }
                    rotated = true;

                    // Remove the phase of the off-diagonal entry by rotating
                    // column q, making the 2x2 Gram matrix real symmetric.
                    let phase = apq / Complex::from_re(off);
                    let phase_conj = phase.conj();
                    for i in 0..m {
                        let wq = w.get(i, q);
                        w.set(i, q, wq * phase_conj);
                    }
                    for i in 0..n {
                        let vq = v.get(i, q);
                        v.set(i, q, vq * phase_conj);
                    }

                    // Classic real Jacobi rotation zeroing the off-diagonal.
                    let tau = (aqq - app) / (2.0 * off);
                    let t = if tau >= 0.0 {
                        1.0 / (tau + (1.0 + tau * tau).sqrt())
                    } else {
                        -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                    };
                    let cs = 1.0 / (1.0 + t * t).sqrt();
                    let sn = t * cs;

                    for i in 0..m {
                        let wp = w.get(i, p);
                        let wq = w.get(i, q);
                        w.set(i, p, wp.scale(cs) - wq.scale(sn));
                        w.set(i, q, wp.scale(sn) + wq.scale(cs));
                    }
                    for i in 0..n {
                        let vp = v.get(i, p);
                        let vq = v.get(i, q);
                        v.set(i, p, vp.scale(cs) - vq.scale(sn));
                        v.set(i, q, vp.scale(sn) + vq.scale(cs));
                    }
                }
            }
            if !rotated {
                break;
            }
        }

        // Singular values are the column norms; U columns are the normalised columns.
        let mut entries: Vec<(f64, usize)> = (0..n)
            .map(|c| {
                let norm: f64 = (0..m).map(|r| w.get(r, c).norm_sqr()).sum::<f64>().sqrt();
                (norm, c)
            })
            .collect();
        entries.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());

        let mut u = CMat::zeros(m, n);
        let mut s = Vec::with_capacity(n);
        let mut v_sorted = CMat::zeros(n, n);
        for (new_c, &(sigma, old_c)) in entries.iter().enumerate() {
            s.push(sigma);
            if sigma > 0.0 {
                for r in 0..m {
                    u.set(r, new_c, w.get(r, old_c).scale(1.0 / sigma));
                }
            } else {
                // Zero singular value: leave a zero column (caller treats the
                // matrix as rank deficient).
            }
            for r in 0..n {
                v_sorted.set(r, new_c, v.get(r, old_c));
            }
        }

        Svd { u, s, v: v_sorted }
    }

    /// Numerical rank with relative tolerance `tol` (entries below
    /// `tol * s_max` count as zero).
    // lint: allow(unreachable-pub) — proptest_linalg and proptest_precoding keep only full-rank draws
    pub fn rank(&self, tol: f64) -> usize {
        let smax = self.s.first().copied().unwrap_or(0.0);
        if smax == 0.0 {
            return 0;
        }
        self.s.iter().filter(|&&x| x > tol * smax).count()
    }

    /// Condition number `s_max / s_min` (infinite when rank deficient).
    // lint: allow(unreachable-pub) — proptest_linalg and proptest_precoding skip ill-conditioned draws
    pub fn condition_number(&self) -> f64 {
        match (self.s.first(), self.s.last()) {
            (Some(&max), Some(&min)) if min > 0.0 => max / min,
            _ => f64::INFINITY,
        }
    }

    /// Reconstructs `U * diag(s) * V^H` (mainly for testing).
    // lint: allow(unreachable-pub) — proptest_linalg::svd_reconstructs_any_shape checks the factors with it
    pub fn reconstruct(&self) -> CMat {
        let r = self.s.len();
        let mut us = self.u.clone();
        for c in 0..r {
            us.scale_col(c, self.s[c]);
        }
        us.mul(&self.v.hermitian())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_like(rows: usize, cols: usize, seed: u64) -> CMat {
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut m = CMat::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, Complex::new(next(), next()));
            }
        }
        m
    }

    #[test]
    fn reconstructs_square_matrix() {
        let a = random_like(4, 4, 11);
        let svd = Svd::new(&a);
        assert!(svd.reconstruct().approx_eq(&a, 1e-9));
    }

    #[test]
    fn reconstructs_tall_matrix() {
        let a = random_like(6, 3, 5);
        let svd = Svd::new(&a);
        assert!(svd.reconstruct().approx_eq(&a, 1e-9));
    }

    #[test]
    fn reconstructs_wide_matrix() {
        let a = random_like(3, 6, 9);
        let svd = Svd::new(&a);
        assert!(svd.reconstruct().approx_eq(&a, 1e-9));
    }

    #[test]
    fn singular_values_are_sorted_and_nonnegative() {
        let a = random_like(5, 4, 17);
        let svd = Svd::new(&a);
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(svd.s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn u_and_v_have_orthonormal_columns() {
        let a = random_like(5, 3, 23);
        let svd = Svd::new(&a);
        let uhu = svd.u.hermitian().mul(&svd.u);
        let vhv = svd.v.hermitian().mul(&svd.v);
        assert!(uhu.approx_eq(&CMat::identity(3), 1e-9));
        assert!(vhv.approx_eq(&CMat::identity(3), 1e-9));
    }

    #[test]
    fn rank_detects_deficiency() {
        // Rank-1 matrix: outer product of two vectors.
        let u = [
            Complex::new(1.0, 0.5),
            Complex::new(-0.3, 2.0),
            Complex::new(0.7, 0.0),
        ];
        let v = [Complex::new(0.2, -1.0), Complex::new(1.5, 0.5)];
        let mut a = CMat::zeros(3, 2);
        for (i, &ui) in u.iter().enumerate() {
            for (j, &vj) in v.iter().enumerate() {
                a.set(i, j, ui * vj);
            }
        }
        let svd = Svd::new(&a);
        assert_eq!(svd.rank(1e-9), 1);
        assert!(svd.condition_number() > 1e6);
    }

    #[test]
    fn identity_has_unit_singular_values() {
        let svd = Svd::new(&CMat::identity(4));
        for &s in &svd.s {
            assert!((s - 1.0).abs() < 1e-12);
        }
        assert_eq!(svd.rank(1e-12), 4);
        assert!((svd.condition_number() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn frobenius_norm_equals_l2_of_singular_values() {
        let a = random_like(4, 4, 31);
        let svd = Svd::new(&a);
        let s_norm: f64 = svd.s.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((s_norm - a.frobenius_norm()).abs() < 1e-9);
    }
}
