//! Dense, row-major real (`f64`) matrix.
//!
//! [`FMat`] is the structure-of-arrays companion to [`crate::CMat`]: per-link
//! scalar state (large-scale gains, per-client thresholds, …) that used to
//! live in `Vec<Vec<f64>>` is stored as one contiguous buffer, so hot loops
//! walk rows as plain `&[f64]` slices without pointer chasing and the whole
//! matrix clones as a single memcpy.

/// A dense real matrix stored in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct FMat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl FMat {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        FMat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
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
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element accessor.
    ///
    /// # Panics
    /// Panics when the indices are out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "FMat::get out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    ///
    /// # Panics
    /// Panics when the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "FMat::set out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrowed view of row `r` (contiguous, zero-copy).
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Immutable view over the underlying row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Appends a row of zeros, growing the buffer in place (amortised, so
    /// capacity retained from earlier growth is reused).
    pub fn push_zero_row(&mut self) {
        self.data.resize(self.data.len() + self.cols, 0.0);
        self.rows += 1;
    }

    /// Bytes of heap the matrix retains (its buffer's capacity).
    pub fn heap_footprint_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f64>()
    }

    /// Extracts the sub-matrix made of the given row and column indices, in
    /// the order supplied.
    pub fn select(&self, row_idx: &[usize], col_idx: &[usize]) -> FMat {
        let mut out = FMat::zeros(row_idx.len(), col_idx.len());
        for (i, &r) in row_idx.iter().enumerate() {
            for (j, &c) in col_idx.iter().enumerate() {
                out.set(i, j, self.get(r, c));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FMat {
        /// Builds a matrix from row vectors.
        ///
        /// # Panics
        /// Panics when the rows have unequal lengths.
        fn from_rows(rows: &[Vec<f64>]) -> Self {
            let n_rows = rows.len();
            let n_cols = rows.first().map_or(0, Vec::len);
            let mut data = Vec::with_capacity(n_rows * n_cols);
            for row in rows {
                assert_eq!(row.len(), n_cols, "FMat::from_rows: ragged rows");
                data.extend_from_slice(row);
            }
            FMat {
                rows: n_rows,
                cols: n_cols,
                data,
            }
        }
    }

    #[test]
    fn from_rows_round_trips_indices() {
        let m = FMat::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn select_matches_manual_gather() {
        let m = FMat::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ]);
        let s = m.select(&[2, 0], &[1, 2]);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.get(0, 0), 8.0);
        assert_eq!(s.get(0, 1), 9.0);
        assert_eq!(s.get(1, 0), 2.0);
        assert_eq!(s.get(1, 1), 3.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged_input() {
        FMat::from_rows(&[vec![1.0], vec![2.0, 3.0]]);
    }

    #[test]
    fn push_zero_row_appends_a_zero_row() {
        let mut m = FMat::from_rows(&[vec![1.0, 2.0]]);
        m.push_zero_row();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = FMat::zeros(2, 2);
        m.row_mut(1)[0] = 42.0;
        assert_eq!(m.get(1, 0), 42.0);
    }
}
