//! # x2v-wl — the Weisfeiler-Leman algorithm family (Section 3)
//!
//! Implements every WL variant the paper discusses:
//!
//! * [`refine`] — 1-WL / colour refinement (Algorithm 1), including the
//!   labelled, directed, and edge-labelled variants of Section 3.2, with
//!   full per-round histories;
//! * [`weighted`] — weighted 1-WL refining by edge-weight sums (eq. 3.1);
//! * [`matrix`] — matrix WL on the weighted bipartite graph of a matrix
//!   (Figure 4) and the colour-refinement dimension reduction of \[44\];
//! * [`kwl`] — the k-dimensional (folklore) WL for `k ≥ 2`, the version
//!   that matches `C^{k+1}`-equivalence (Theorem 3.1) and homomorphism
//!   indistinguishability over treewidth ≤ k (Theorem 4.4);
//! * [`unfold`] — colours as rooted unfolding trees (Figure 5) and the
//!   `wl(c, G)` counts of Section 3.5;
//! * [`features`] — per-round colour histograms in a flat sorted-CSR
//!   layout ([`features::SparseWlFeatures`]), the explicit feature map of
//!   the WL subtree kernel, whose merge-join dot is `x2v-kernel`'s
//!   pairwise WL kernel and whose per-colour transpose fills its Gram rows;
//! * [`fractional`] — fractional isomorphism: combinatorial decision via the
//!   common equitable partition plus an explicit doubly stochastic
//!   certificate, exact over ℚ (Theorem 3.2).
//!
//! Colours are `u64` ids interned in a shared [`ColourInterner`]: a colour
//! depends only on the (rooted, labelled) unfolding tree it abbreviates, so
//! colours computed for *different graphs through the same interner are
//! directly comparable* — the property that makes WL kernels a sparse dot
//! product and `distinguishes` a histogram comparison.
//!
//! The `n^k` tuple universe of [`kwl`] is the crate's exponential hot
//! path: [`kwl::KwlRefiner::try_run`] meters it against an
//! [`x2v_guard::Budget`] — charging the full table size *before*
//! allocating it — so oversized instances fail fast with a typed error
//! instead of aborting on out-of-memory.
//!
//! ```
//! use x2v_graph::{generators::cycle, ops::disjoint_union};
//! use x2v_wl::Refiner;
//!
//! // The paper's running example: 1-WL cannot tell C6 from two triangles.
//! let mut refiner = Refiner::new();
//! let c6 = cycle(6);
//! let two_triangles = disjoint_union(&cycle(3), &cycle(3));
//! assert!(!refiner.distinguishes(&c6, &two_triangles));
//!
//! // …but it easily splits a path from a cycle.
//! assert!(refiner.distinguishes(&c6, &x2v_graph::generators::path(6)));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![allow(clippy::needless_range_loop)]

pub mod features;
pub mod fractional;
mod interner;
pub mod kwl;
pub mod matrix;
pub mod refine;
pub mod unfold;
pub mod weighted;

pub use interner::{Colour, ColourInterner};
pub use refine::{Refiner, WlHistory};
