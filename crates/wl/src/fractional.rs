//! Fractional isomorphism (Theorem 3.2, Tinhofer \[99\]).
//!
//! Graphs `G`, `H` are fractionally isomorphic iff the system
//! `AX = XB`, row/column sums 1, `X ≥ 0` (equations (3.2)–(3.3)) has a
//! rational solution — iff 1-WL does not distinguish them. This module
//! decides the question combinatorially via colour refinement and, in the
//! positive case, *constructs the certificate*: the block matrix that puts
//! weight `1/|class|` between nodes of the same stable colour. The
//! certificate is verified exactly over ℚ.

use crate::refine::Refiner;
use x2v_graph::hash::FxHashMap;
use x2v_graph::Graph;
use x2v_linalg::rational::{Rat, RatMatrix};

/// Whether `g` and `h` are fractionally isomorphic (⟺ 1-WL-equivalent).
pub fn fractionally_isomorphic(g: &Graph, h: &Graph) -> bool {
    !Refiner::new().distinguishes(g, h)
}

/// Constructs the doubly stochastic certificate `X` with `AX = XB` if the
/// graphs are fractionally isomorphic, `None` otherwise. Rows index `V(G)`,
/// columns `V(H)`.
pub fn certificate(g: &Graph, h: &Graph) -> Option<RatMatrix> {
    if g.order() != h.order() {
        return None;
    }
    let n = g.order();
    let mut r = Refiner::new();
    let (colours_g, colours_h) = r.joint_stable_colours(g, h);
    // Class sizes must agree colour-by-colour.
    let mut size_g: FxHashMap<u64, usize> = FxHashMap::default();
    let mut size_h: FxHashMap<u64, usize> = FxHashMap::default();
    for &c in &colours_g {
        *size_g.entry(c).or_insert(0) += 1;
    }
    for &c in &colours_h {
        *size_h.entry(c).or_insert(0) += 1;
    }
    if size_g != size_h {
        return None;
    }
    let mut x = RatMatrix::zeros(n, n);
    for (v, &cv) in colours_g.iter().enumerate() {
        let class = Rat::new(1, size_g[&cv] as i128);
        for (w, &cw) in colours_h.iter().enumerate() {
            if cv == cw {
                x.set(v, w, class);
            }
        }
    }
    debug_assert!(verify_certificate(g, h, &x));
    Some(x)
}

/// Exactly verifies that `x` is a fractional isomorphism from `g` to `h`:
/// doubly stochastic, non-negative, and `A x = x B` over ℚ.
pub fn verify_certificate(g: &Graph, h: &Graph, x: &RatMatrix) -> bool {
    let n = g.order();
    if h.order() != n || x.rows() != n || x.cols() != n {
        return false;
    }
    // Non-negativity and stochasticity.
    for i in 0..n {
        let mut row = Rat::ZERO;
        for j in 0..n {
            let e = x.get(i, j);
            if e.is_negative() {
                return false;
            }
            row = row + e;
        }
        if row != Rat::ONE {
            return false;
        }
    }
    for j in 0..n {
        let mut col = Rat::ZERO;
        for i in 0..n {
            col = col + x.get(i, j);
        }
        if col != Rat::ONE {
            return false;
        }
    }
    // AX = XB where A, B are 0/1 adjacency matrices.
    let adj = |g: &Graph, i: usize, j: usize| {
        if g.has_edge(i, j) {
            Rat::ONE
        } else {
            Rat::ZERO
        }
    };
    for i in 0..n {
        for j in 0..n {
            let mut lhs = Rat::ZERO;
            for k in 0..n {
                if g.has_edge(i, k) {
                    lhs = lhs + x.get(k, j);
                }
            }
            let mut rhs = Rat::ZERO;
            for k in 0..n {
                let xik = x.get(i, k);
                if !xik.is_zero() {
                    rhs = rhs + xik * adj(h, k, j);
                }
            }
            if lhs != rhs {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::generators::{cycle, path, petersen, star};
    use x2v_graph::ops::{disjoint_union, permute};

    #[test]
    fn c6_vs_2c3_certificate_exists_and_verifies() {
        let c6 = cycle(6);
        let tt = disjoint_union(&cycle(3), &cycle(3));
        assert!(fractionally_isomorphic(&c6, &tt));
        let x = certificate(&c6, &tt).expect("fractionally isomorphic");
        assert!(verify_certificate(&c6, &tt, &x));
        // All entries 1/6 (single colour class).
        assert_eq!(x.get(0, 0), Rat::new(1, 6));
    }

    #[test]
    fn isomorphic_graphs_certificate() {
        let g = petersen();
        let h = permute(&g, &[5, 6, 7, 8, 9, 0, 1, 2, 3, 4]);
        let x = certificate(&g, &h).expect("isomorphic implies fractional");
        assert!(verify_certificate(&g, &h, &x));
    }

    #[test]
    fn non_equivalent_graphs_rejected() {
        assert!(!fractionally_isomorphic(&path(4), &star(3)));
        assert!(certificate(&path(4), &star(3)).is_none());
        assert!(certificate(&path(3), &path(4)).is_none());
    }

    #[test]
    fn verify_rejects_bogus_certificate() {
        let g = cycle(4);
        let mut x = RatMatrix::zeros(4, 4);
        for i in 0..4 {
            x.set(i, i, Rat::ONE);
        }
        // Identity is a fractional isomorphism from C4 to itself…
        assert!(verify_certificate(&g, &g, &x));
        // …but not from C4 to P4.
        assert!(!verify_certificate(&g, &path(4), &x));
        // And a non-stochastic matrix fails.
        let zero = RatMatrix::zeros(4, 4);
        assert!(!verify_certificate(&g, &g, &zero));
    }

    #[test]
    fn nontrivial_partition_certificate() {
        // Two stars share no fractional isomorphism with paths, but P4 vs P4
        // has the 2-class certificate.
        let p = path(4);
        let x = certificate(&p, &p).unwrap();
        assert!(verify_certificate(&p, &p, &x));
        // End nodes map only to end nodes.
        assert_eq!(x.get(0, 1), Rat::ZERO);
        assert_eq!(x.get(0, 0), Rat::new(1, 2));
        assert_eq!(x.get(0, 3), Rat::new(1, 2));
    }
}
