//! # x2v-kernel — graph kernels and kernel methods (Sections 2.4, 3.5)
//!
//! The kernel side of the paper:
//!
//! * [`wl`] — the Weisfeiler-Leman subtree kernel of Shervashidze et al.,
//!   both the t-round form and the discounted `K_WL` (Section 3.5);
//! * [`wl2`] — a 2-WL tuple-colour kernel (the higher-dimensional WL
//!   kernel direction of [76]), strictly more expressive than 1-WL;
//! * [`shortest_path`] — the shortest-path kernel;
//! * [`random_walk`] — the direct-product random-walk kernel (the first
//!   dedicated graph kernels, Section 2.4);
//! * [`graphlet`] — 3-/4-node connected-subgraph count kernels;
//! * [`hom`] — the log-scaled homomorphism-vector kernel (the kernel of
//!   eq. (4.1) itself is `x2v_hom::vectors::HomBasis::kernel`);
//! * [`node`] — node kernels (diffusion / regularised Laplacian, the
//!   Kondor–Lafferty line the paper mentions);
//! * [`gram`] — Gram-matrix utilities: centering, cosine normalisation,
//!   PSD verification;
//! * [`svm`] — a kernel SVM (SMO with LIBSVM's second-order working-set
//!   selection): the downstream classifier the paper's empirical claims
//!   are phrased in terms of;
//! * [`kpca`] — kernel principal component analysis;
//! * [`kkmeans`] — kernel k-means clustering.
//!
//! Training and Gram post-processing are guarded: [`svm`] exposes
//! [`svm::KernelSvm::try_train`] (budgeted, deterministic SMO with a typed
//! `NonConvergence` diagnostic at its step cap) and [`gram`] exposes
//! `try_normalize`/`try_center`, which surface NaN/∞ contamination as
//! [`x2v_guard::GuardError::NumericFailure`] instead of silently poisoning
//! every downstream decision value.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![allow(clippy::needless_range_loop)]

pub mod gram;
pub mod graphlet;
pub mod hom;
pub mod kkmeans;
pub mod kpca;
pub mod node;
pub mod random_walk;
pub mod shortest_path;
pub mod svm;
pub mod wl;
pub mod wl2;
