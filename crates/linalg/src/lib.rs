//! # x2v-linalg — dense numerical and exact-rational linear algebra
//!
//! Self-contained linear-algebra substrate for the `x2vec` workspace. The
//! paper's theory leans on spectra (co-spectrality, Theorem 4.3), singular
//! value decompositions (the matrix-factorisation node embeddings of
//! Section 2.1), doubly stochastic matrices and convex minimisation over the
//! Birkhoff polytope (fractional isomorphism, Theorem 3.2; relaxed graph
//! distances, eq. 5.5), matrix norms (Section 5.1), and exact rational
//! solvability of linear systems (Theorems 3.2 and 4.6). All of it is
//! implemented here with no external dependencies:
//!
//! * [`Matrix`] — dense row-major `f64` matrices with the usual operations;
//! * [`eigen`] — cyclic Jacobi symmetric eigendecomposition;
//! * [`svd`] — SVD built on the symmetric eigensolver;
//! * [`norms`] — entrywise `ℓ_p`, Frobenius, operator `p ∈ {1, 2, ∞}`, and
//!   cut norms (exact and local-search approximate);
//! * [`solve`] — LU solves, Householder QR least squares, rank;
//! * [`rational`] — exact `i128` rationals, Gaussian elimination,
//!   determinants, and feasibility of linear systems over ℚ;
//! * [`assignment`] — Hungarian algorithm (the linear-minimisation oracle of
//!   Frank-Wolfe over the Birkhoff polytope);
//! * [`birkhoff`] — Sinkhorn projection and Frank-Wolfe minimisation of
//!   `‖AX − XB‖_F` over doubly stochastic matrices (the [57] connection);
//! * [`sampling`] — Walker alias tables for O(1) discrete sampling (used by
//!   node2vec walks and SGNS negative sampling).
//!
//! ```
//! use x2v_linalg::{Matrix, Rat};
//!
//! // Exact rationals carry the theorem checks:
//! assert_eq!(Rat::new(1, 3) + Rat::new(1, 6), Rat::new(1, 2));
//!
//! // Spectra drive co-spectrality (Theorem 4.3):
//! let path3 = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]);
//! let eigenvalues = x2v_linalg::eigen::sym_eigenvalues(&path3);
//! assert!((eigenvalues[0] - 2f64.sqrt()).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![allow(clippy::needless_range_loop)] // indexed loops mirror the maths in dense kernels

pub mod assignment;
pub mod birkhoff;
pub mod eigen;
mod matrix;
pub mod norms;
pub mod rational;
pub mod sampling;
pub mod solve;
pub mod svd;
pub mod vector;

pub use matrix::Matrix;
pub use rational::Rat;
