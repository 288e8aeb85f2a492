//! Householder QR decomposition for complex matrices.

use crate::complex::Complex;
use crate::matrix::CMat;

/// QR decomposition `A = Q * R` of an `m x n` complex matrix (`m >= n`),
/// computed with Householder reflections.
///
/// `Q` is `m x m` unitary and `R` is `m x n` upper trapezoidal.  The thin
/// variants [`QrDecomposition::thin_q`] / [`QrDecomposition::thin_r`] return
/// the economical `m x n` / `n x n` factors.
#[derive(Debug, Clone)]
pub struct QrDecomposition {
    q: CMat,
    r: CMat,
}

impl QrDecomposition {
    /// Factorises `a`.
    ///
    /// # Panics
    /// Panics if `a` has more columns than rows (use the transpose instead).
    pub fn new(a: &CMat) -> Self {
        let m = a.rows();
        let n = a.cols();
        assert!(
            m >= n,
            "QR requires rows >= cols ({}x{} given); factorise the transpose",
            m,
            n
        );

        let mut r = a.clone();
        let mut q = CMat::identity(m);

        for k in 0..n.min(m.saturating_sub(1)) {
            // Build the Householder vector for column k below the diagonal.
            let mut x = vec![Complex::ZERO; m - k];
            for i in k..m {
                x[i - k] = r.get(i, k);
            }
            let norm_x: f64 = x.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
            if norm_x < 1e-300 {
                continue;
            }
            // alpha = -e^{i arg(x0)} * ||x||
            let phase = if x[0].norm() > 0.0 {
                x[0] / Complex::from_re(x[0].norm())
            } else {
                Complex::ONE
            };
            let alpha = -phase.scale(norm_x);
            let mut v = x.clone();
            v[0] -= alpha;
            let v_norm_sqr: f64 = v.iter().map(|z| z.norm_sqr()).sum();
            if v_norm_sqr < 1e-300 {
                continue;
            }

            // Apply H = I - 2 v v^H / (v^H v) to R (rows k..m) and accumulate into Q.
            for c in k..n {
                // w = v^H * R[k.., c]
                let mut w = Complex::ZERO;
                for i in k..m {
                    w += v[i - k].conj() * r.get(i, c);
                }
                let w = w.scale(2.0 / v_norm_sqr);
                for i in k..m {
                    let cur = r.get(i, c);
                    r.set(i, c, cur - v[i - k] * w);
                }
            }
            for c in 0..m {
                let mut w = Complex::ZERO;
                for i in k..m {
                    w += v[i - k].conj() * q.get(i, c);
                }
                let w = w.scale(2.0 / v_norm_sqr);
                for i in k..m {
                    let cur = q.get(i, c);
                    q.set(i, c, cur - v[i - k] * w);
                }
            }
        }

        // We accumulated Q^H; the Q factor is its Hermitian transpose.
        QrDecomposition {
            q: q.hermitian(),
            r,
        }
    }

    /// Full `m x m` unitary factor.
    pub fn q(&self) -> &CMat {
        &self.q
    }

    /// Full `m x n` upper-trapezoidal factor.
    pub fn r(&self) -> &CMat {
        &self.r
    }

    /// Economical `m x n` Q factor (first `n` columns of Q).
    pub fn thin_q(&self) -> CMat {
        let m = self.q.rows();
        let n = self.r.cols();
        self.q
            .select(&(0..m).collect::<Vec<_>>(), &(0..n).collect::<Vec<_>>())
    }

    /// Economical `n x n` R factor (first `n` rows of R).
    pub fn thin_r(&self) -> CMat {
        let n = self.r.cols();
        self.r
            .select(&(0..n).collect::<Vec<_>>(), &(0..n).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_like(rows: usize, cols: usize, seed: u64) -> CMat {
        // Small deterministic pseudo-random fill (LCG) — avoids a rand dep here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut m = CMat::zeros(rows, cols);
        for r in 0..rows {
            for cc in 0..cols {
                m.set(r, cc, Complex::new(next(), next()));
            }
        }
        m
    }

    #[test]
    fn qr_reconstructs_original() {
        let a = random_like(4, 3, 7);
        let qr = QrDecomposition::new(&a);
        let recon = qr.q().mul(qr.r());
        assert!(recon.approx_eq(&a, 1e-10));
    }

    #[test]
    fn q_is_unitary() {
        let a = random_like(5, 5, 13);
        let qr = QrDecomposition::new(&a);
        let qhq = qr.q().hermitian().mul(qr.q());
        assert!(qhq.approx_eq(&CMat::identity(5), 1e-10));
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = random_like(4, 4, 21);
        let qr = QrDecomposition::new(&a);
        for r in 1..4 {
            for cidx in 0..r {
                assert!(
                    qr.r().get(r, cidx).norm() < 1e-10,
                    "R({r},{cidx}) not ~0: {}",
                    qr.r().get(r, cidx)
                );
            }
        }
    }

    #[test]
    fn thin_factors_reconstruct() {
        let a = random_like(5, 3, 42);
        let qr = QrDecomposition::new(&a);
        let recon = qr.thin_q().mul(&qr.thin_r());
        assert!(recon.approx_eq(&a, 1e-10));
    }
}
