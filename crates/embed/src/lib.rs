//! # x2v-embed — learned vector embeddings (Section 2)
//!
//! The "practice" side of the paper, implemented from scratch:
//!
//! * [`word2vec`] — skip-gram with negative sampling (SGNS), the algorithm
//!   whose ideas the paper traces through the whole embedding landscape;
//! * [`walks`] — random-walk corpora: uniform (DeepWalk) and the biased
//!   second-order (p, q)-walks of node2vec;
//! * [`node2vec`] / [`deepwalk`] — node embeddings from walk corpora
//!   (Section 2.1), "shallow"/transductive in the paper's taxonomy;
//! * [`line`](mod@line) — LINE: first-/second-order proximity trained on edges;
//! * [`spectral`] — the matrix-factorisation embeddings of Section 2.1:
//!   SVD of the adjacency matrix (first-order proximity), SVD of
//!   `exp(−c·dist)` similarity, Laplacian eigenmaps, classical MDS — the
//!   three panels of the paper's Figure 2;
//! * [`graph2vec`] — transductive whole-graph embeddings via PV-DBOW over
//!   WL subtree "words" (Section 2.5);
//! * [`transe`] / [`rescal`] — knowledge-graph embeddings (Section 2.3):
//!   relations as translations, and as bilinear forms.
//!
//! Every trainer takes an explicit seed; results are reproducible.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![allow(clippy::needless_range_loop)]

pub mod deepwalk;
pub mod graph2vec;
pub mod line;
pub mod node2vec;
pub mod rescal;
pub mod spectral;
pub mod transe;
pub mod walks;
pub mod word2vec;
