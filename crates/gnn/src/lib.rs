//! # x2v-gnn — message-passing graph neural networks (Sections 2.2, 3.6)
//!
//! The GNN model of the paper's equations (2.1)–(2.2): per layer,
//!
//! ```text
//! a_v   = Σ_{w ∈ N(v)} W_AGG · x_w          (aggregate)
//! x_v'  = σ( W_UP · [x_v ; a_v] )           (update)
//! ```
//!
//! with parameters shared across nodes (what makes the model inductive and
//! size-agnostic). Implemented with explicit matrices and *manual*
//! backpropagation — no autograd dependency:
//!
//! * [`layer`] — one aggregate/update layer, forward and backward;
//! * [`model`] — stacked layers, sum readout, classification heads, SGD
//!   training for graph- and node-level tasks;
//! * [`autoencoder`] — graph autoencoders (Section 2.5): unsupervised
//!   embedding training by adjacency reconstruction;
//! * [`higher`] — 2-dimensional GNNs on vertex pairs (\[78\]), the fully
//!   invariant route past the 1-WL ceiling;
//! * [`express`] — the Section 3.6 expressiveness results as executable
//!   checks: constant-input GNNs cannot separate what 1-WL cannot; random
//!   initial features break that ceiling at the price of losing
//!   per-run isomorphism invariance.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![allow(clippy::needless_range_loop)]

pub mod autoencoder;
pub mod express;
pub mod higher;
pub mod layer;
pub mod model;
