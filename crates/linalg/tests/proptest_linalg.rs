//! Property-based tests for the linear algebra substrate.
//!
//! These exercise the algebraic identities the MU-MIMO precoders rely on,
//! over randomly generated complex matrices of the sizes MIDAS uses (2–8
//! antennas / clients).

use midas_linalg::decompose::{QrDecomposition, Svd};
use midas_linalg::{pinv, CMat, Complex};
use proptest::prelude::*;

/// Strategy producing a complex value with components in [-5, 5].
fn complex_strategy() -> impl Strategy<Value = Complex> {
    (-5.0f64..5.0, -5.0f64..5.0).prop_map(|(re, im)| Complex::new(re, im))
}

/// Strategy producing an `rows x cols` matrix with bounded entries.
fn mat_strategy(rows: usize, cols: usize) -> impl Strategy<Value = CMat> {
    proptest::collection::vec(complex_strategy(), rows * cols)
        .prop_map(move |data| CMat::from_vec(rows, cols, data))
}

/// Strategy producing a wide matrix (rows <= cols), the MU-MIMO channel shape.
fn wide_mat_strategy() -> impl Strategy<Value = CMat> {
    (2usize..=4, 0usize..=3).prop_flat_map(|(rows, extra)| mat_strategy(rows, rows + extra))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn complex_multiplication_is_commutative_and_associative(
        a in complex_strategy(), b in complex_strategy(), c in complex_strategy()
    ) {
        prop_assert!((a * b).approx_eq(b * a, 1e-9));
        prop_assert!(((a * b) * c).approx_eq(a * (b * c), 1e-9));
    }

    #[test]
    fn complex_conjugation_distributes_over_product(a in complex_strategy(), b in complex_strategy()) {
        prop_assert!((a * b).conj().approx_eq(a.conj() * b.conj(), 1e-9));
    }

    #[test]
    fn matrix_product_is_associative(a in mat_strategy(3, 4), b in mat_strategy(4, 2), c in mat_strategy(2, 3)) {
        let left = a.mul(&b).mul(&c);
        let right = a.mul(&b.mul(&c));
        prop_assert!(left.approx_eq(&right, 1e-7));
    }

    #[test]
    fn hermitian_of_product_reverses_order(a in mat_strategy(3, 3), b in mat_strategy(3, 3)) {
        let lhs = a.mul(&b).hermitian();
        let rhs = b.hermitian().mul(&a.hermitian());
        prop_assert!(lhs.approx_eq(&rhs, 1e-8));
    }

    #[test]
    fn frobenius_norm_is_subadditive(a in mat_strategy(3, 3), b in mat_strategy(3, 3)) {
        let sum = &a + &b;
        prop_assert!(sum.frobenius_norm() <= a.frobenius_norm() + b.frobenius_norm() + 1e-9);
    }

    #[test]
    fn qr_reconstructs_and_q_is_unitary(a in mat_strategy(5, 3)) {
        let qr = QrDecomposition::new(&a);
        prop_assert!(qr.q().mul(qr.r()).approx_eq(&a, 1e-8));
        let qhq = qr.q().hermitian().mul(qr.q());
        prop_assert!(qhq.approx_eq(&CMat::identity(5), 1e-8));
    }

    #[test]
    fn svd_reconstructs_any_shape(a in wide_mat_strategy()) {
        let svd = Svd::new(&a);
        prop_assert!(svd.reconstruct().approx_eq(&a, 1e-7));
        // Singular values sorted non-increasing.
        for w in svd.s.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn pseudo_inverse_satisfies_first_penrose_condition(a in wide_mat_strategy()) {
        let p = pinv::pseudo_inverse(&a, 1e-10);
        let apa = a.mul(&p).mul(&a);
        prop_assert!(apa.approx_eq(&a, 1e-6));
    }

    #[test]
    fn pseudo_inverse_is_right_inverse_for_well_conditioned_wide(a in wide_mat_strategy()) {
        let svd = Svd::new(&a);
        prop_assume!(svd.rank(1e-9) == a.rows());
        prop_assume!(svd.condition_number() < 1e4);
        let p = pinv::pseudo_inverse(&a, 1e-12);
        let hp = a.mul(&p);
        prop_assert!(hp.approx_eq(&CMat::identity(a.rows()), 1e-6));
    }
}
