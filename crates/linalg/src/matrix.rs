//! Dense, row-major complex matrix type.
//!
//! [`CMat`] is the workhorse container of the reproduction: channel matrices
//! **H** (clients × antennas), precoding matrices **V** (antennas × clients)
//! and the intermediate products of the precoders are all `CMat`s.  The type
//! intentionally favours clarity over cleverness: storage is a `Vec<Complex>`
//! in row-major order and all operations are straightforward loops, which is
//! more than fast enough for the ≤ 8×8 matrices MU-MIMO uses.

use crate::complex::Complex;
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// Complex axpy: `y[k] += alpha * x[k]` in place, ascending index order.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
fn caxpy(alpha: Complex, x: &[Complex], y: &mut [Complex]) {
    assert_eq!(x.len(), y.len(), "caxpy: length mismatch");
    for (o, &v) in y.iter_mut().zip(x.iter()) {
        *o += alpha * v;
    }
}

/// A dense complex matrix stored in row-major order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMat {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMat {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m.set(i, i, Complex::ONE);
        }
        m
    }

    /// Creates a matrix from a flat row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    // lint: allow(unreachable-pub) — proptest_linalg and proptest_precoding build random matrices with it
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "CMat::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        CMat { rows, cols, data }
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Panics
    /// Panics if the rows have differing lengths or there are no rows.
    // lint: allow(unreachable-pub) — per_antenna_boundary builds its matrices with it
    pub fn from_rows(rows: &[Vec<Complex>]) -> Self {
        assert!(!rows.is_empty(), "CMat::from_rows: no rows supplied");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "CMat::from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        CMat {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `(rows, cols)`.
    #[inline]
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element accessor.
    ///
    /// # Panics
    /// Panics when the indices are out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Complex {
        assert!(r < self.rows && c < self.cols, "CMat::get out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    ///
    /// # Panics
    /// Panics when the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Complex) {
        assert!(r < self.rows && c < self.cols, "CMat::set out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrowed view of row `r` (the matrix is row-major, so a row is a
    /// contiguous slice).  Zero-copy — the hot paths (batched SINR and
    /// interference accumulation) iterate rows without per-element index
    /// arithmetic or allocation.
    #[inline]
    pub fn row(&self, r: usize) -> &[Complex] {
        assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [Complex] {
        assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Appends a row of zeros, growing the buffer in place (amortised, so
    /// capacity retained from earlier growth is reused).
    pub fn push_zero_row(&mut self) {
        self.data.resize(self.data.len() + self.cols, Complex::ZERO);
        self.rows += 1;
    }

    /// Returns a copy of column `c`.
    pub fn col(&self, c: usize) -> Vec<Complex> {
        assert!(c < self.cols);
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Immutable view over the underlying row-major data.
    pub fn data(&self) -> &[Complex] {
        &self.data
    }

    /// Plain (non-conjugate) transpose.
    pub fn transpose(&self) -> CMat {
        let mut out = CMat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Hermitian (conjugate) transpose `A^H`.
    pub fn hermitian(&self) -> CMat {
        let mut out = CMat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c).conj());
            }
        }
        out
    }

    /// Element-wise complex conjugate.
    pub fn conj(&self) -> CMat {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics on incompatible dimensions.
    pub fn mul(&self, rhs: &CMat) -> CMat {
        assert_eq!(
            self.cols, rhs.rows,
            "CMat::mul: incompatible shapes {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = CMat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == Complex::ZERO {
                    continue;
                }
                caxpy(a, rhs.row(k), out.row_mut(i));
            }
        }
        out
    }

    /// Writes the diagonal of `self * rhs` into `out` without forming the
    /// full product: `out[j] = sum_k self[j,k] * rhs[k,j]`.
    ///
    /// Accumulation matches [`CMat::mul`] term for term (ascending `k`,
    /// skipping exact-zero entries of `self`), so each value is bit-identical
    /// to `self.mul(rhs).get(j, j)` — at O(n²) instead of O(n³) and reusing
    /// the caller's buffer.  This is what the power-balanced water-filling
    /// loop needs: with zero-forcing directions only the diagonal of the
    /// effective channel is ever read.
    ///
    /// # Panics
    /// Panics on incompatible inner dimensions.
    pub fn mul_diag_into(&self, rhs: &CMat, out: &mut Vec<Complex>) {
        assert_eq!(
            self.cols, rhs.rows,
            "CMat::mul_diag_into: incompatible shapes {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let n = self.rows.min(rhs.cols);
        out.clear();
        for j in 0..n {
            let mut acc = Complex::ZERO;
            for k in 0..self.cols {
                let a = self.get(j, k);
                if a == Complex::ZERO {
                    continue;
                }
                acc += a * rhs.get(k, j);
            }
            out.push(acc);
        }
    }

    /// Element-wise sum.
    fn add_mat(&self, rhs: &CMat) -> CMat {
        assert_eq!(self.shape(), rhs.shape(), "CMat::add_mat: shape mismatch");
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }

    /// Element-wise difference.
    fn sub_mat(&self, rhs: &CMat) -> CMat {
        assert_eq!(self.shape(), rhs.shape(), "CMat::sub_mat: shape mismatch");
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }

    /// Multiplies every element by a complex scalar.
    pub fn scale(&self, s: Complex) -> CMat {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Multiplies every element by a real scalar.
    pub fn scale_re(&self, s: f64) -> CMat {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z.scale(s)).collect(),
        }
    }

    /// Scales a single column in place by a real factor.
    ///
    /// This is the primitive the power-balanced precoder relies on: scaling
    /// an entire column of **V** preserves the zero-forcing property while
    /// changing only that stream's power (paper §3.1.2, Step 4).
    pub fn scale_col(&mut self, c: usize, w: f64) {
        assert!(c < self.cols);
        for r in 0..self.rows {
            let v = self.get(r, c);
            self.set(r, c, v.scale(w));
        }
    }

    /// Squared Frobenius norm (sum of squared magnitudes of all entries).
    fn frobenius_norm_sqr(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Frobenius norm.
    // lint: allow(unreachable-pub) — proptest_linalg::frobenius_norm_is_subadditive checks it
    pub fn frobenius_norm(&self) -> f64 {
        self.frobenius_norm_sqr().sqrt()
    }

    /// Sum of squared magnitudes of row `r` — the per-antenna transmit power
    /// when the matrix is a precoder **V** (antennas × streams).
    pub fn row_power(&self, r: usize) -> f64 {
        assert!(r < self.rows);
        (0..self.cols).map(|c| self.get(r, c).norm_sqr()).sum()
    }

    /// Sum of squared magnitudes of column `c` — the per-stream transmit
    /// power when the matrix is a precoder **V**.
    pub fn col_power(&self, c: usize) -> f64 {
        assert!(c < self.cols);
        (0..self.rows).map(|r| self.get(r, c).norm_sqr()).sum()
    }

    /// Extracts the sub-matrix made of the given row and column indices, in
    /// the order supplied.  Used to restrict a channel matrix to the selected
    /// clients / available antennas.
    pub fn select(&self, row_idx: &[usize], col_idx: &[usize]) -> CMat {
        let mut out = CMat::zeros(0, 0);
        self.select_into(row_idx, col_idx, &mut out);
        out
    }

    /// [`select`](Self::select) into `out`, reshaping it and reusing its
    /// buffer, so a caller that keeps one scratch matrix allocates only when
    /// a sub-matrix outgrows every earlier one.
    pub fn select_into(&self, row_idx: &[usize], col_idx: &[usize], out: &mut CMat) {
        out.rows = row_idx.len();
        out.cols = col_idx.len();
        out.data.clear();
        for &r in row_idx {
            let row = self.row(r);
            out.data.extend(col_idx.iter().map(|&c| row[c]));
        }
    }

    /// Bytes of heap the matrix retains (its buffer's capacity).
    pub fn heap_footprint_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<Complex>()
    }

    /// Checks approximate element-wise equality within an absolute tolerance.
    // lint: allow(unreachable-pub) — proptest_linalg compares matrices with it
    pub fn approx_eq(&self, other: &CMat, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| a.approx_eq(b, tol))
    }

    /// Returns `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|z| z.is_finite())
    }
}

impl fmt::Display for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[ ")?;
            for c in 0..self.cols {
                write!(f, "{} ", self.get(r, c))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

impl Add for &CMat {
    type Output = CMat;
    fn add(self, rhs: &CMat) -> CMat {
        self.add_mat(rhs)
    }
}

impl Sub for &CMat {
    type Output = CMat;
    fn sub(self, rhs: &CMat) -> CMat {
        self.sub_mat(rhs)
    }
}

impl Mul for &CMat {
    type Output = CMat;
    fn mul(self, rhs: &CMat) -> CMat {
        CMat::mul(self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CMat {
        /// A matrix from a real-valued row-major slice (imaginary parts zero).
        fn from_real(rows: usize, cols: usize, data: &[f64]) -> Self {
            assert_eq!(data.len(), rows * cols);
            let data = data.iter().map(|&x| Complex::from_re(x)).collect();
            CMat::from_vec(rows, cols, data)
        }
    }

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    /// Deterministic pseudo-random matrix for bit-identity checks.
    fn lcg_mat(rows: usize, cols: usize, mut state: u64) -> CMat {
        let mut m = CMat::zeros(rows, cols);
        for r in 0..rows {
            for cc in 0..cols {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let re = ((state >> 33) as f64) / (1u64 << 31) as f64 - 1.0;
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let im = ((state >> 33) as f64) / (1u64 << 31) as f64 - 1.0;
                m.set(r, cc, c(re, im));
            }
        }
        m
    }

    #[test]
    fn push_zero_row_appends_without_touching_existing_rows() {
        let mut m = lcg_mat(2, 3, 5);
        let before = m.clone();
        m.push_zero_row();
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m.row(0), before.row(0));
        assert_eq!(m.row(1), before.row(1));
        assert!(m.row(2).iter().all(|&z| z == Complex::ZERO));
    }

    #[test]
    fn caxpy_matches_manual_accumulation() {
        let alpha = c(0.7, -0.3);
        let x = [c(1.0, 1.0), c(-2.0, 0.5)];
        let mut y = [c(0.25, -0.75), c(4.0, 4.0)];
        let mut expect = y;
        for (e, &xv) in expect.iter_mut().zip(x.iter()) {
            *e += alpha * xv;
        }
        caxpy(alpha, &x, &mut y);
        assert_eq!(y, expect);
    }

    #[test]
    fn row_views_are_zero_copy_and_consistent_with_get() {
        let m = lcg_mat(3, 4, 7);
        for r in 0..3 {
            let row = m.row(r);
            assert_eq!(row.len(), 4);
            for (cc, &v) in row.iter().enumerate() {
                assert_eq!(v, m.get(r, cc));
            }
        }
    }

    #[test]
    fn mul_diag_into_is_bit_identical_to_full_product_diagonal() {
        // Square, tall and wide cases, including exact-zero entries so the
        // sparsity skip path is exercised on both sides.
        for (rows, inner, cols, seed) in [(4, 4, 4, 1u64), (3, 5, 4, 2), (6, 2, 3, 3)] {
            let mut a = lcg_mat(rows, inner, seed);
            let b = lcg_mat(inner, cols, seed ^ 0xDEAD);
            a.set(0, 0, Complex::ZERO);
            if inner > 1 {
                a.set(rows - 1, inner - 1, Complex::ZERO);
            }
            let full = a.mul(&b);
            let mut diag = Vec::new();
            a.mul_diag_into(&b, &mut diag);
            let n = rows.min(cols);
            assert_eq!(diag.len(), n);
            for (j, &d) in diag.iter().enumerate() {
                assert_eq!(d, full.get(j, j), "entry {j} ({rows}x{inner}x{cols})");
            }
        }
    }

    #[test]
    fn mul_diag_into_reuses_the_buffer() {
        let a = lcg_mat(4, 4, 11);
        let b = lcg_mat(4, 4, 12);
        let mut diag = Vec::with_capacity(8);
        diag.push(c(9.0, 9.0)); // stale content must be cleared
        let cap = diag.capacity();
        a.mul_diag_into(&b, &mut diag);
        assert_eq!(diag.len(), 4);
        assert_eq!(diag.capacity(), cap);
    }

    #[test]
    fn zeros_and_identity_have_expected_entries() {
        let z = CMat::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.data().iter().all(|&x| x == Complex::ZERO));

        let i = CMat::identity(3);
        for r in 0..3 {
            for cidx in 0..3 {
                let expect = if r == cidx {
                    Complex::ONE
                } else {
                    Complex::ZERO
                };
                assert_eq!(i.get(r, cidx), expect);
            }
        }
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = CMat::from_rows(&[
            vec![c(1.0, 2.0), c(3.0, -1.0)],
            vec![c(0.5, 0.0), c(-2.0, 4.0)],
        ]);
        let i = CMat::identity(2);
        assert!(a.mul(&i).approx_eq(&a, 1e-12));
        assert!(i.mul(&a).approx_eq(&a, 1e-12));
    }

    #[test]
    fn matrix_product_matches_hand_computation() {
        let a = CMat::from_real(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = CMat::from_real(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let p = a.mul(&b);
        let expect = CMat::from_real(2, 2, &[19.0, 22.0, 43.0, 50.0]);
        assert!(p.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn hermitian_transposes_and_conjugates() {
        let a = CMat::from_rows(&[vec![c(1.0, 2.0), c(3.0, 4.0)]]);
        let h = a.hermitian();
        assert_eq!(h.shape(), (2, 1));
        assert_eq!(h.get(0, 0), c(1.0, -2.0));
        assert_eq!(h.get(1, 0), c(3.0, -4.0));
    }

    #[test]
    fn transpose_of_transpose_is_original() {
        let a = CMat::from_rows(&[
            vec![c(1.0, -1.0), c(2.0, 0.5), c(0.0, 3.0)],
            vec![c(4.0, 4.0), c(-5.0, 1.0), c(6.0, -6.0)],
        ]);
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
        assert!(a.hermitian().hermitian().approx_eq(&a, 0.0));
    }

    #[test]
    fn row_and_col_power_sum_to_frobenius() {
        let a = CMat::from_rows(&[
            vec![c(1.0, 1.0), c(2.0, 0.0)],
            vec![c(0.0, 3.0), c(1.0, -1.0)],
        ]);
        let by_rows: f64 = (0..2).map(|r| a.row_power(r)).sum();
        let by_cols: f64 = (0..2).map(|cc| a.col_power(cc)).sum();
        assert!((by_rows - a.frobenius_norm_sqr()).abs() < 1e-12);
        assert!((by_cols - a.frobenius_norm_sqr()).abs() < 1e-12);
    }

    #[test]
    fn scale_col_only_affects_that_column() {
        let mut a = CMat::from_real(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        a.scale_col(1, 0.5);
        assert_eq!(a.get(0, 0), c(1.0, 0.0));
        assert_eq!(a.get(0, 1), c(1.0, 0.0));
        assert_eq!(a.get(1, 0), c(3.0, 0.0));
        assert_eq!(a.get(1, 1), c(2.0, 0.0));
    }

    #[test]
    fn select_extracts_submatrix() {
        let a = CMat::from_real(3, 3, &[1., 2., 3., 4., 5., 6., 7., 8., 9.]);
        let s = a.select(&[0, 2], &[1, 2]);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.get(0, 0), c(2.0, 0.0));
        assert_eq!(s.get(0, 1), c(3.0, 0.0));
        assert_eq!(s.get(1, 0), c(8.0, 0.0));
        assert_eq!(s.get(1, 1), c(9.0, 0.0));
    }

    #[test]
    fn operator_overloads_delegate() {
        let a = CMat::from_real(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        let b = CMat::from_real(2, 2, &[2.0, 3.0, 4.0, 5.0]);
        assert!((&a + &b).approx_eq(&CMat::from_real(2, 2, &[3.0, 3.0, 4.0, 6.0]), 1e-12));
        assert!((&b - &a).approx_eq(&CMat::from_real(2, 2, &[1.0, 3.0, 4.0, 4.0]), 1e-12));
        assert!((&a * &b).approx_eq(&b, 1e-12));
    }

    #[test]
    #[should_panic(expected = "incompatible shapes")]
    fn mismatched_multiply_panics() {
        let a = CMat::zeros(2, 3);
        let b = CMat::zeros(2, 3);
        let _ = a.mul(&b);
    }

    #[test]
    fn scale_re_scales_all_entries() {
        let a = CMat::from_real(1, 2, &[2.0, -4.0]);
        let s = a.scale_re(0.5);
        assert_eq!(s.get(0, 0), c(1.0, 0.0));
        assert_eq!(s.get(0, 1), c(-2.0, 0.0));
    }
}
