//! The cut distance `dist_□` (Section 5.1): minimum over alignments of the
//! cut norm of the adjacency difference — the distance under which graph
//! limit theory works (\[67\]) and the only matrix distance with a constant-
//! factor approximation (Alon–Naor).

use crate::matrix_dist::{dist_exact, GraphNorm};
use x2v_graph::Graph;

/// Exact cut distance (small graphs: permutation enumeration × exact cut
/// norm).
pub fn cut_distance_exact(g: &Graph, h: &Graph) -> f64 {
    dist_exact(g, h, GraphNorm::Cut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::generators::{complete, cycle, path};
    use x2v_graph::ops::permute;

    #[test]
    fn zero_for_isomorphic() {
        let g = cycle(5);
        let h = permute(&g, &[4, 2, 0, 3, 1]);
        assert!(cut_distance_exact(&g, &h) < 1e-9);
    }

    #[test]
    fn complete_vs_empty_is_total_edges() {
        let k = complete(5);
        let e = x2v_graph::Graph::empty(5);
        // All 20 ordered non-diagonal pairs differ; best S=T=V gives 20.
        assert_eq!(cut_distance_exact(&k, &e), 20.0);
    }

    #[test]
    fn cut_bounded_by_entrywise_l1() {
        let a = cycle(6);
        let b = path(6);
        let cut = cut_distance_exact(&a, &b);
        let l1 = dist_exact(&a, &b, GraphNorm::Entrywise(1.0));
        assert!(cut <= l1 + 1e-9);
        assert!(cut > 0.0);
    }
}
