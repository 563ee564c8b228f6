//! Extending distances to graphs of different orders via blow-ups
//! (Section 5.1, after [67, §8.1]): replace each node by `k` twins so both
//! graphs reach the least common multiple of their orders, then compare
//! with normalised distances.

use crate::matrix_dist::{dist_exact, GraphNorm};
use x2v_graph::ops::blow_up;
use x2v_graph::Graph;

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Least common multiple.
pub fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

/// Blows both graphs up to order `lcm(|G|, |H|)`.
fn blow_up_to_common(g: &Graph, h: &Graph) -> (Graph, Graph) {
    let target = lcm(g.order().max(1), h.order().max(1));
    (
        blow_up(g, target / g.order()),
        blow_up(h, target / h.order()),
    )
}

/// Edit distance between graphs of arbitrary orders: blow up to the lcm,
/// take the exact distance, and normalise by the square of the blow-up
/// order so the value is comparable across scales (graphon-style density
/// normalisation).
///
/// # Panics
/// If the lcm exceeds 10 (the exact-search limit).
pub fn normalised_distance_any_order(g: &Graph, h: &Graph, norm: GraphNorm) -> f64 {
    let (gb, hb) = blow_up_to_common(g, h);
    let n = gb.order() as f64;
    dist_exact(&gb, &hb, norm) / (n * n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::generators::{complete, cycle, path};

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(5, 5), 5);
        assert_eq!(lcm(1, 7), 7);
    }

    #[test]
    fn blow_up_orders_match() {
        let g = cycle(3);
        let h = path(4);
        let (gb, hb) = blow_up_to_common(&g, &h);
        assert_eq!(gb.order(), 12);
        assert_eq!(hb.order(), 12);
    }

    #[test]
    fn same_graph_different_scale_small_distance() {
        // C3 vs its own 2-blow-up C3[2] at the common order 6: distance 0?
        // Not exactly — blow-ups of the same graph to the same order are
        // identical, so the distance vanishes.
        let g = cycle(3);
        let d = normalised_distance_any_order(&g, &blow_up(&g, 2), GraphNorm::Entrywise(1.0));
        assert!(d < 1e-9);
    }

    #[test]
    fn dense_vs_sparse_larger_than_similar_densities() {
        // K2 (density 1) vs P3, and C3 vs P3: compare normalised distances.
        let d_far = normalised_distance_any_order(
            &complete(2),
            &x2v_graph::Graph::empty(3),
            GraphNorm::Entrywise(1.0),
        );
        let d_near = normalised_distance_any_order(&cycle(3), &path(3), GraphNorm::Entrywise(1.0));
        assert!(d_far > d_near);
    }
}
