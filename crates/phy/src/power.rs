//! Per-antenna and total power accounting for precoding matrices.
//!
//! With the precoder **V** laid out antennas × streams (row `k` = antenna
//! `k`), the power radiated by antenna `k` is the squared magnitude of row
//! `k` and the power spent on stream `j` is the squared magnitude of column
//! `j`.  802.11ac imposes the *per-antenna* constraint (paper Eqn. 3):
//! every row power must stay at or below the per-antenna budget `P`.

use midas_linalg::CMat;

/// Relative tolerance used when checking power constraints (numerical slack).
// lint: allow(unreachable-pub) — per_antenna_boundary pins the constraint slack against it
pub const POWER_TOLERANCE: f64 = 1e-9;

/// Per-antenna transmit powers (row powers) of a precoding matrix, in the
/// same (linear) unit as the matrix entries squared.
pub fn per_antenna_powers(v: &CMat) -> Vec<f64> {
    (0..v.rows()).map(|k| v.row_power(k)).collect()
}

/// Returns `true` when every antenna respects the per-antenna budget
/// `per_antenna_limit` (within a small relative tolerance).
pub fn satisfies_per_antenna(v: &CMat, per_antenna_limit: f64) -> bool {
    per_antenna_powers(v)
        .into_iter()
        .all(|p| p <= per_antenna_limit * (1.0 + POWER_TOLERANCE) + POWER_TOLERANCE)
}

/// Index and power of the antenna that violates the per-antenna budget by the
/// largest amount, or `None` if no antenna violates it.  This is the `k*` of
/// the paper's Step 3 (Eqn. 5).
pub fn worst_violating_antenna(v: &CMat, per_antenna_limit: f64) -> Option<(usize, f64)> {
    per_antenna_powers(v)
        .into_iter()
        .enumerate()
        .filter(|&(_, p)| p > per_antenna_limit * (1.0 + POWER_TOLERANCE) + POWER_TOLERANCE)
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
}

/// Fraction of the available per-antenna power actually used, averaged over
/// antennas (1.0 = every antenna transmits at exactly its limit).  Used to
/// quantify the under-utilisation caused by naïve global scaling.
pub fn power_utilisation(v: &CMat, per_antenna_limit: f64) -> f64 {
    if v.rows() == 0 || per_antenna_limit <= 0.0 {
        return 0.0;
    }
    let used: f64 = per_antenna_powers(v)
        .into_iter()
        .map(|p| (p / per_antenna_limit).min(1.0))
        .sum();
    used / v.rows() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_linalg::Complex;

    fn sample_v() -> CMat {
        // 3 antennas x 2 streams.
        CMat::from_rows(&[
            vec![Complex::new(1.0, 0.0), Complex::new(0.0, 1.0)],
            vec![Complex::new(0.5, 0.5), Complex::new(1.0, -1.0)],
            vec![Complex::new(0.0, 0.0), Complex::new(2.0, 0.0)],
        ])
    }

    #[test]
    fn row_and_column_powers_match_hand_computation() {
        let v = sample_v();
        let rows = per_antenna_powers(&v);
        assert!((rows[0] - 2.0).abs() < 1e-12);
        assert!((rows[1] - 2.5).abs() < 1e-12);
        assert!((rows[2] - 4.0).abs() < 1e-12);
        assert!((v.col_power(0) - 1.5).abs() < 1e-12);
        assert!((v.col_power(1) - 7.0).abs() < 1e-12);
        assert!((rows.iter().sum::<f64>() - 8.5).abs() < 1e-12);
    }

    #[test]
    fn constraint_check_flags_violations() {
        let v = sample_v();
        assert!(satisfies_per_antenna(&v, 4.0));
        assert!(!satisfies_per_antenna(&v, 3.0));
        let (idx, p) = worst_violating_antenna(&v, 2.1).unwrap();
        assert_eq!(idx, 2);
        assert!((p - 4.0).abs() < 1e-12);
        assert!(worst_violating_antenna(&v, 4.0).is_none());
    }

    #[test]
    fn utilisation_is_one_when_all_antennas_at_limit() {
        let v = CMat::from_rows(&[vec![Complex::new(1.0, 0.0)], vec![Complex::new(0.0, 1.0)]]);
        assert!((power_utilisation(&v, 1.0) - 1.0).abs() < 1e-12);
        // Half-power rows -> 50% utilisation.
        let half = v.scale_re(std::f64::consts::FRAC_1_SQRT_2);
        assert!((power_utilisation(&half, 1.0) - 0.5).abs() < 1e-9);
    }
}
