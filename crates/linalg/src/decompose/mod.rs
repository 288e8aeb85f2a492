//! Matrix factorisations: Householder QR and a one-sided Jacobi SVD.
//!
//! These are the two factorisations the PHY layer needs:
//!
//! * **QR** backs the full-row-rank pseudoinverse on the precoding hot path
//!   ([`crate::pinv::qr_right_pseudo_inverse`]).
//! * **SVD** backs the rank-revealing Moore–Penrose pseudoinverse used for
//!   ZFBF with rank-deficient or non-square channel matrices, and gives
//!   singular values used in channel-conditioning diagnostics.

pub mod qr;
pub mod svd;

pub use qr::QrDecomposition;
pub use svd::Svd;
