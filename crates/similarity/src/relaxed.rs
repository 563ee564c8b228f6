//! The relaxed distance (eq. 5.5): minimise `‖AX − XB‖_F` over doubly
//! stochastic `X` by Frank-Wolfe. A pseudo-metric: zero exactly on
//! fractionally isomorphic pairs (Theorem 3.2), and efficiently computable —
//! the tractable surrogate the paper proposes for the NP-hard exact
//! distances.

use x2v_graph::Graph;
use x2v_linalg::birkhoff::{frank_wolfe_fractional_iso, FrankWolfeResult};
use x2v_linalg::Matrix;

/// Default Frank-Wolfe budget.
const MAX_ITERS: usize = 2000;
const TOL: f64 = 1e-9;

/// The relaxed Frobenius distance between equal-order graphs.
///
/// Frank-Wolfe returns an iterate, so the value is an *upper bound* on the
/// true relaxed optimum, tight to roughly 1e-3 within the default budget —
/// comfortably below the smallest positive exact distances on small graphs,
/// so zero/non-zero classification (Theorem 3.2) is reliable.
///
/// # Panics
/// If orders differ.
pub fn relaxed_distance(g: &Graph, h: &Graph) -> f64 {
    relaxed_distance_full(g, h).objective
}

/// Full Frank-Wolfe result (iterate, objective, iteration count).
pub fn relaxed_distance_full(g: &Graph, h: &Graph) -> FrankWolfeResult {
    assert_eq!(g.order(), h.order(), "relaxed distance needs equal orders");
    let n = g.order();
    let a = Matrix::from_flat(n, n, g.adjacency_flat());
    let b = Matrix::from_flat(n, n, h.adjacency_flat());
    frank_wolfe_fractional_iso(&a, &b, MAX_ITERS, TOL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix_dist::{dist_exact, GraphNorm};
    use x2v_graph::generators::{cycle, path, star};
    use x2v_graph::ops::disjoint_union;
    use x2v_wl::fractional::fractionally_isomorphic;

    #[test]
    fn zero_exactly_on_fractionally_isomorphic_pairs() {
        let c6 = cycle(6);
        let tt = disjoint_union(&cycle(3), &cycle(3));
        assert!(fractionally_isomorphic(&c6, &tt));
        assert!(relaxed_distance(&c6, &tt) < 1e-7);
        // Non-equivalent graphs stay bounded away from zero.
        let p6 = path(6);
        assert!(!fractionally_isomorphic(&c6, &p6));
        assert!(relaxed_distance(&c6, &p6) > 1e-3);
    }

    #[test]
    fn relaxed_lower_bounds_exact() {
        // The Birkhoff polytope contains the permutation matrices, so the
        // relaxed optimum is ≤ the exact Frobenius distance.
        let pairs = [
            (cycle(5), path(5)),
            (star(4), path(5)),
            (cycle(6), disjoint_union(&cycle(3), &cycle(3))),
        ];
        for (g, h) in &pairs {
            let relaxed = relaxed_distance(g, h);
            let exact = dist_exact(g, h, GraphNorm::Entrywise(2.0));
            assert!(
                relaxed <= exact + 1e-6,
                "relaxed {relaxed} must lower-bound exact {exact}"
            );
        }
    }

    #[test]
    fn pseudo_metric_not_metric() {
        // The paper's point: distance 0 between non-isomorphic graphs.
        let c6 = cycle(6);
        let tt = disjoint_union(&cycle(3), &cycle(3));
        assert!(!x2v_graph::iso::are_isomorphic(&c6, &tt));
        assert!(relaxed_distance(&c6, &tt) < 1e-6);
    }

    #[test]
    fn agrees_with_wl_on_small_sample() {
        let graphs = [
            cycle(6),
            path(6),
            star(5),
            disjoint_union(&cycle(3), &cycle(3)),
        ];
        for g in &graphs {
            for h in &graphs {
                let wl = fractionally_isomorphic(g, h);
                let fw = relaxed_distance(g, h) < 1e-6;
                assert_eq!(wl, fw, "{g:?} vs {h:?}");
            }
        }
    }
}
