//! # midas-linalg
//!
//! Complex-valued dense linear algebra substrate for the MIDAS (CoNEXT'14)
//! reproduction.
//!
//! MU-MIMO precoding is built on a handful of matrix primitives: complex
//! arithmetic, dense matrix products, Hermitian transposes, and — most importantly for zero-forcing beamforming — the Moore–Penrose
//! pseudoinverse.  The reproduction deliberately avoids external math crates,
//! so this crate implements those primitives from scratch:
//!
//! * [`Complex`] — a `f64`-based complex number with the full operator set.
//! * [`CMat`] — a dense, row-major complex matrix with constructors,
//!   arithmetic, slicing helpers and norms.
//! * [`FMat`] — its real (`f64`) counterpart, the structure-of-arrays store
//!   for per-link scalar state such as large-scale gains.
//! * [`decompose`] — Householder QR and one-sided Jacobi SVD
//!   factorisations.
//! * [`pinv`] — Moore–Penrose pseudoinverse built on the SVD.
//!
//! Everything is deterministic, allocation-light and sized for the small
//! matrices MU-MIMO works with (typically 2×2 to 8×8), but correct for any
//! dense size.
//!
//! ## Example
//!
//! ```
//! use midas_linalg::{CMat, Complex};
//!
//! // Build a 2x2 channel matrix and null it with its pseudoinverse.
//! let h = CMat::from_rows(&[
//!     vec![Complex::new(1.0, 0.2), Complex::new(0.1, -0.3)],
//!     vec![Complex::new(-0.4, 0.5), Complex::new(0.9, 0.0)],
//! ]);
//! let v = midas_linalg::pinv::pseudo_inverse(&h, 1e-12);
//! let prod = h.mul(&v);
//! assert!((prod.get(0, 0).re - 1.0).abs() < 1e-9);
//! assert!(prod.get(0, 1).norm() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod complex;
pub mod decompose;
pub mod fmat;
pub mod matrix;
pub mod pinv;

pub use complex::Complex;
pub use fmat::FMat;
pub use matrix::CMat;

/// Numerical tolerance the unit tests use as the rank threshold.
#[cfg(test)]
const DEFAULT_EPS: f64 = 1e-12;
