//! Moore–Penrose pseudoinverse.
//!
//! Zero-forcing beamforming's closed-form solution is the pseudoinverse of the
//! downlink channel matrix (paper §3.1.1: "the best precoder is the
//! pseudoinverse of the channel matrix, H†").  Two routes are provided:
//!
//! * [`pseudo_inverse`] — the general, rank-revealing SVD route; works for
//!   any shape and any rank and is the fallback for degenerate inputs.
//! * [`qr_right_pseudo_inverse`] — Householder-QR route for full-row-rank
//!   (clients ≤ antennas) channel matrices: `H† = Q R^{-H}` where
//!   `H^H = QR`.  The diagonal of `R` doubles as the rank check, so the hot
//!   path never pays for an SVD; this is what the precoders use.

use crate::complex::Complex;
use crate::decompose::qr::QrDecomposition;
use crate::decompose::svd::Svd;
use crate::matrix::CMat;

/// Computes the Moore–Penrose pseudoinverse of `a` via the SVD.
///
/// Singular values below `tol * s_max` are treated as zero, so the result is
/// well defined for rank-deficient matrices.
pub fn pseudo_inverse(a: &CMat, tol: f64) -> CMat {
    let svd = Svd::new(a);
    let smax = svd.s.first().copied().unwrap_or(0.0);
    let r = svd.s.len();

    // V * diag(1/s) * U^H, skipping negligible singular values.
    let mut v_scaled = svd.v.clone();
    for c in 0..r {
        let s = svd.s[c];
        let inv = if smax > 0.0 && s > tol * smax {
            1.0 / s
        } else {
            0.0
        };
        v_scaled.scale_col(c, inv);
    }
    v_scaled.mul(&svd.u.hermitian())
}

/// Right pseudoinverse of a full-row-rank matrix (rows ≤ cols) via a
/// Householder QR of `A^H`, with the QR diagonal serving as the rank check.
///
/// With `A^H = Q R` (thin factors, `Q` cols × rows, `R` rows × rows upper
/// triangular), `A = R^H Q^H` and
///
/// ```text
/// A† = A^H (A A^H)^{-1} = Q R (R^H R)^{-1} = Q R^{-H},
/// ```
///
/// so the pseudoinverse falls out of one QR factorisation plus a triangular
/// solve — roughly an order of magnitude cheaper than the Jacobi SVD route
/// for the 4×4/8×8 shapes on the precoding hot path.
///
/// The magnitudes of the diagonal entries of `R` are the column norms of the
/// successively deflated `A^H`, so `min |R_ii| <= tol * max |R_ii|` is a
/// cheap (pivot-free) proxy for rank deficiency.  Returns `None` in that
/// case, or when `rows > cols` — callers fall back to the rank-revealing
/// [`pseudo_inverse`].
pub fn qr_right_pseudo_inverse(a: &CMat, tol: f64) -> Option<CMat> {
    let rows = a.rows();
    let cols = a.cols();
    if rows > cols || rows == 0 {
        return None;
    }
    let qr = QrDecomposition::new(&a.hermitian());
    let r = qr.thin_r();

    let mut max_diag = 0.0f64;
    let mut min_diag = f64::INFINITY;
    for i in 0..rows {
        let d = r.get(i, i).norm();
        max_diag = max_diag.max(d);
        min_diag = min_diag.min(d);
    }
    if max_diag <= 0.0 || min_diag <= tol * max_diag {
        return None;
    }

    // X = R^{-H}: solve the lower-triangular system R^H X = I by forward
    // substitution, one unit-vector right-hand side per column.
    let mut x = CMat::zeros(rows, rows);
    for col in 0..rows {
        for i in 0..rows {
            let mut acc = if i == col {
                Complex::ONE
            } else {
                Complex::ZERO
            };
            for j in 0..i {
                // (R^H)[i][j] = conj(R[j][i])
                acc -= r.get(j, i).conj() * x.get(j, col);
            }
            x.set(i, col, acc / r.get(i, i).conj());
        }
    }
    Some(qr.thin_q().mul(&x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::DEFAULT_EPS;

    fn random_like(rows: usize, cols: usize, seed: u64) -> CMat {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
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
    fn square_pinv_is_inverse() {
        let a = random_like(3, 3, 1);
        let p = pseudo_inverse(&a, DEFAULT_EPS);
        assert!(a.mul(&p).approx_eq(&CMat::identity(3), 1e-8));
        assert!(p.mul(&a).approx_eq(&CMat::identity(3), 1e-8));
    }

    #[test]
    fn wide_pinv_is_right_inverse() {
        // Typical MU-MIMO shape: clients (rows) < antennas (cols).
        let h = random_like(3, 5, 2);
        let p = pseudo_inverse(&h, DEFAULT_EPS);
        assert_eq!(p.shape(), (5, 3));
        assert!(h.mul(&p).approx_eq(&CMat::identity(3), 1e-8));
    }

    #[test]
    fn tall_pinv_is_left_inverse() {
        let h = random_like(5, 3, 4);
        let p = pseudo_inverse(&h, DEFAULT_EPS);
        assert_eq!(p.shape(), (3, 5));
        assert!(p.mul(&h).approx_eq(&CMat::identity(3), 1e-8));
    }

    #[test]
    fn penrose_conditions_hold_for_rank_deficient_matrix() {
        // Build an explicitly rank-2 4x4 matrix.
        let b = random_like(4, 2, 12);
        let c = random_like(2, 4, 13);
        let a = b.mul(&c);
        let p = pseudo_inverse(&a, 1e-10);
        // 1) A P A = A
        assert!(a.mul(&p).mul(&a).approx_eq(&a, 1e-7));
        // 2) P A P = P
        assert!(p.mul(&a).mul(&p).approx_eq(&p, 1e-7));
        // 3) (A P)^H = A P
        let ap = a.mul(&p);
        assert!(ap.hermitian().approx_eq(&ap, 1e-7));
        // 4) (P A)^H = P A
        let pa = p.mul(&a);
        assert!(pa.hermitian().approx_eq(&pa, 1e-7));
    }

    #[test]
    fn qr_route_matches_svd_route_for_full_row_rank() {
        for (rows, cols, seed) in [(2usize, 2usize, 21u64), (3, 5, 22), (4, 4, 23), (4, 6, 24)] {
            let h = random_like(rows, cols, seed);
            let qr = qr_right_pseudo_inverse(&h, 1e-10).unwrap();
            let svd = pseudo_inverse(&h, DEFAULT_EPS);
            assert!(
                qr.approx_eq(&svd, 1e-8),
                "{rows}x{cols} seed {seed}: QR and SVD pseudoinverses disagree"
            );
        }
    }

    #[test]
    fn qr_route_satisfies_penrose_conditions() {
        let h = random_like(4, 6, 31);
        let p = qr_right_pseudo_inverse(&h, 1e-10).unwrap();
        assert!(h.mul(&p).approx_eq(&CMat::identity(4), 1e-8));
        assert!(h.mul(&p).mul(&h).approx_eq(&h, 1e-8));
        assert!(p.mul(&h).mul(&p).approx_eq(&p, 1e-8));
    }

    #[test]
    fn qr_route_rejects_rank_deficient_and_tall_matrices() {
        // Rank-1 wide matrix: the R diagonal collapses and the check trips.
        let b = random_like(3, 1, 41);
        let c = random_like(1, 5, 42);
        let deficient = b.mul(&c);
        assert!(qr_right_pseudo_inverse(&deficient, 1e-10).is_none());
        // Tall matrices (rows > cols) are not full row rank by shape.
        assert!(qr_right_pseudo_inverse(&random_like(5, 3, 43), 1e-10).is_none());
        // Zero matrix.
        assert!(qr_right_pseudo_inverse(&CMat::zeros(2, 4), 1e-10).is_none());
    }

    #[test]
    fn zero_matrix_has_zero_pinv() {
        let a = CMat::zeros(3, 4);
        let p = pseudo_inverse(&a, DEFAULT_EPS);
        assert_eq!(p.shape(), (4, 3));
        assert!(p.frobenius_norm() < 1e-12);
    }
}
