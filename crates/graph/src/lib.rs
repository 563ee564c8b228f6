//! # x2v-graph — graph and relational-structure substrate
//!
//! Core data structures for the `x2vec` workspace, a Rust reproduction of
//! Grohe's *"word2vec, node2vec, graph2vec, X2vec: Towards a Theory of Vector
//! Embeddings of Structured Data"* (PODS 2020).
//!
//! This crate provides everything the theory crates operate on:
//!
//! * [`Graph`] — undirected simple graphs in CSR form, with optional node
//!   labels (the objects of Sections 3 and 4 of the paper);
//! * [`DiGraph`] — directed graphs (Section 3.2, Section 4.2);
//! * [`WeightedGraph`] — real edge weights, the input of weighted 1-WL and
//!   partition functions (Section 3.2, Theorem 4.13);
//! * [`relational`] — relational structures of arbitrary arity and their
//!   binary *incidence structures* (Section 4.2);
//! * [`generators`] — deterministic and random graph families, including the
//!   Cai–Fürer–Immerman construction ([`cfi`]);
//! * [`enumerate`] — exhaustive small-graph and free-tree universes used to
//!   check the paper's theorems on every graph of bounded order;
//! * [`iso`] / [`canon`] — ground-truth isomorphism testing and canonical
//!   forms for small graphs;
//! * [`hash`] — a fast FxHash-style hasher used by the hot colour-interning
//!   paths of the WL crate;
//! * [`csr`] — [`csr::CsrView`], a zero-copy view of a [`Graph`]'s
//!   compressed-sparse-row adjacency ([`Graph::csr`]), scanned by the
//!   walk-generation hot loop.
//!
//! All node indices are `usize` in `0..n`. Graphs are simple (no loops, no
//! parallel edges); builders reject violations with [`GraphError`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![allow(clippy::needless_range_loop)]

pub mod canon;
pub mod cfi;
pub mod csr;
pub mod dist;
pub mod enumerate;
mod error;
pub mod generators;
mod graph;
pub mod hash;
pub mod io;
pub mod iso;
pub mod ops;
pub mod relational;

pub use error::GraphError;
pub use graph::{DiGraph, Graph, GraphBuilder, RootedGraph, WeightedGraph};

/// Convenient result alias for fallible graph construction.
pub type Result<T> = std::result::Result<T, GraphError>;
