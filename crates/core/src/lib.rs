//! # x2v-core — the X2vec embedding API
//!
//! The unifying abstraction of the paper: a *vector embedding* is a map
//! from a class of objects (graphs, or nodes of a graph) into `ℝ^d`, and
//! every quality we care about — similarity, downstream accuracy, query
//! answering — factors through the induced geometry. This crate defines the
//! traits all embeddings in the workspace implement and provides the two
//! theory-grounded families as first-class citizens:
//!
//! * [`hom_embed`] — homomorphism-vector embeddings (Section 4): the
//!   log-scaled `Hom_F` graph embedding over a trees-and-cycles basis and
//!   the rooted-tree node embedding of Theorem 4.14;
//! * [`wl_embed`] — Weisfeiler-Leman subtree embeddings (Section 3.5): the
//!   explicit feature map of the WL kernel, densified over a dataset;
//! * [`traits`] — [`GraphEmbedding`], [`NodeEmbedding`], [`GraphKernel`];
//! * [`distance`] — induced distance measures `dist_f(X, Y) = ‖f(X) − f(Y)‖`
//!   and the pairwise machinery downstream tasks consume.
//!
//! Learned embeddings (word2vec/node2vec/graph2vec/TransE/…) live in
//! `x2v-embed` and implement the same traits; kernels and kernel methods in
//! `x2v-kernel`; GNNs in `x2v-gnn`.
//!
//! ```
//! use x2v_core::{GraphEmbedding, hom_embed::HomVectorEmbedding};
//! use x2v_graph::{generators::cycle, ops::permute};
//!
//! // The paper's recommended embedding: log-scaled hom vectors over a
//! // 20-element trees-and-cycles basis.
//! let f = HomVectorEmbedding::trees_and_cycles(20);
//! assert_eq!(f.dimension(), 20);
//!
//! // Isomorphism invariance: the induced distance between isomorphic
//! // copies is exactly zero.
//! let g = cycle(7);
//! let h = permute(&g, &[6, 4, 2, 0, 5, 3, 1]);
//! assert_eq!(f.induced_distance(&g, &h), 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod distance;
pub mod hom_embed;
pub mod traits;
pub mod wl_embed;

pub use traits::{GraphEmbedding, GraphKernel, NodeEmbedding, RowEvaluator};
