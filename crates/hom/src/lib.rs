//! # x2v-hom — homomorphism counting and homomorphism vectors (Section 4)
//!
//! Everything the paper builds on `hom(F, G)`:
//!
//! * [`brute`] — backtracking counts of homomorphisms, embeddings
//!   (injective homs) and epimorphisms (vertex- and edge-surjective homs):
//!   the exact oracle the fast algorithms are tested against;
//! * [`trees`] — the `O(|T|·(n+m))` rooted dynamic program for tree
//!   homomorphisms, plus rooted counts `hom(T, G; r ↦ v)` (Section 4.4);
//! * [`walks`] — closed forms for paths (`1ᵀA^{k−1}1`) and cycles
//!   (`trace A^k`), in exact `u128` arithmetic;
//! * [`treewidth`] — exact treewidth via subset DP and tree-decomposition
//!   construction, the structural parameter governing tractability
//!   (Section 4.3, Dalmau–Jonsson);
//! * [`decomp`] — homomorphism counting for general pattern graphs by
//!   dynamic programming over *nice* tree decompositions, `O(n^{tw+1})`;
//! * [`lovasz`] — the `HOM = P · D · M` machinery from the proof of
//!   Lovász's Theorem 4.2, exactly, over enumerated graph universes;
//! * [`indist`] — deciders for homomorphism indistinguishability over the
//!   classes the paper characterises: paths (Theorem 4.6), cycles
//!   (Theorem 4.3), trees (Theorem 4.4, k = 1), treewidth ≤ k
//!   (Theorem 4.4), plus direct vector comparison;
//! * [`rooted`] — rooted homomorphism vectors as node embeddings
//!   (Theorem 4.14);
//! * [`digraph`] — directed homomorphisms and small-digraph universes
//!   (Theorem 4.11: DAG homomorphism counts determine directed
//!   isomorphism);
//! * [`weighted`] — partition functions: weighted homomorphism counts for
//!   weighted target graphs (Theorem 4.13);
//! * [`vectors`] — the embeddings `Hom_F`, their log-scaled practical form
//!   `(1/|F|) log hom(F, G)`, and the kernel of eq. (4.1); each basis
//!   pattern is counted by the tree DP, a shared closed-walk sweep or the
//!   decomposition DP, whichever its shape allows.
//!
//! The exponential hot paths ([`brute`], [`treewidth`], [`decomp`]) are
//! metered through `x2v-guard`: each has `try_*` variants taking an
//! explicit [`x2v_guard::Budget`] and returning typed
//! [`x2v_guard::GuardError`]s, plus degrading forms
//! ([`brute::hom_count_partial`], [`treewidth::treewidth_budgeted`]) that
//! trade exactness for bounded time. The classic infallible signatures
//! remain, metered against the ambient budget.
//!
//! ```
//! use x2v_graph::generators::{cycle, petersen, star};
//! use x2v_hom::{trees, walks};
//!
//! // Example 4.1's identity: hom(S_k, G) = Σ_v deg(v)^k.
//! let g = petersen(); // 3-regular on 10 nodes
//! assert_eq!(trees::hom_count_tree(&star(2), &g), 10 * 9);
//!
//! // hom(C_k, G) = trace(A^k): triangle-free Petersen has no C3 homs.
//! assert_eq!(walks::hom_cycle(3, &g), 0);
//! assert_eq!(walks::hom_cycle(5, &g), 10 * 12); // 12 five-cycles × aut C5
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![allow(clippy::needless_range_loop)]

pub mod brute;
pub mod decomp;
pub mod digraph;
pub mod indist;
pub mod lovasz;
pub mod rooted;
pub mod trees;
pub mod treewidth;
pub mod vectors;
pub mod walks;
pub mod weighted;
