//! # x2v-similarity — graph distance measures (Section 5)
//!
//! * [`matrix_dist`] — `dist_‖·‖(G, H) = min_P ‖PᵀAP − B‖` over permutation
//!   matrices, exactly (branch-and-bound for entrywise norms, enumeration
//!   for operator/cut norms), plus the edit-distance interpretations (5.3)
//!   and (5.4);
//! * [`relaxed`] — the convex relaxation (5.5) over doubly stochastic
//!   matrices, solved by Frank-Wolfe: a pseudo-metric that is zero exactly
//!   on fractionally isomorphic pairs (Theorem 3.2);
//! * [`cutdist`] — the cut distance `dist_□`;
//! * [`blowup`] — lcm blow-ups that extend the distances to graphs of
//!   different orders (Section 5.1 after \[67\]);
//! * [`compare`] — machinery for the paper's Section 5.2 question:
//!   correlating matrix-norm distances with homomorphism-embedding
//!   distances.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blowup;
pub mod compare;
pub mod cutdist;
pub mod matrix_dist;
pub mod relaxed;
