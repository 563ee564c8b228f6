//! Graphlet kernels: counts of small induced subgraphs (Section 2.4,
//! Shervashidze et al.'s "efficient graphlet kernels").
//!
//! The 3-graphlet feature vector counts, per unordered vertex triple, which
//! of the four isomorphism types it induces (empty, one edge, path,
//! triangle); the 4-graphlet vector the eleven types on quadruples.
//! Kernels are (optionally normalised) dot products of these vectors.

use x2v_core::GraphKernel;
use x2v_graph::Graph;

/// Counts of induced 3-vertex subgraph types:
/// `[empty, single edge, path P3, triangle]`.
fn graphlet3_counts(g: &Graph) -> [u64; 4] {
    let n = g.order();
    let mut out = [0u64; 4];
    for a in 0..n {
        for b in (a + 1)..n {
            for c in (b + 1)..n {
                let edges = usize::from(g.has_edge(a, b))
                    + usize::from(g.has_edge(a, c))
                    + usize::from(g.has_edge(b, c));
                out[edges] += 1;
            }
        }
    }
    out
}

/// Counts of induced 4-vertex subgraph types, indexed by
/// `(edge count, max degree within the quadruple)` canonicalised to the 11
/// isomorphism classes:
/// `[empty, e1, e2-matching, e2-path, triangle+iso, P4, star, C4, paw,
///   diamond, K4]`.
fn graphlet4_counts(g: &Graph) -> [u64; 11] {
    let n = g.order();
    let mut out = [0u64; 11];
    for a in 0..n {
        for b in (a + 1)..n {
            let eab = g.has_edge(a, b);
            for c in (b + 1)..n {
                let eac = g.has_edge(a, c);
                let ebc = g.has_edge(b, c);
                for d in (c + 1)..n {
                    let ead = g.has_edge(a, d);
                    let ebd = g.has_edge(b, d);
                    let ecd = g.has_edge(c, d);
                    let adj = [eab, eac, ebc, ead, ebd, ecd];
                    let m = adj.iter().filter(|&&e| e).count();
                    // Degrees within the quadruple.
                    let deg = [
                        usize::from(eab) + usize::from(eac) + usize::from(ead),
                        usize::from(eab) + usize::from(ebc) + usize::from(ebd),
                        usize::from(eac) + usize::from(ebc) + usize::from(ecd),
                        usize::from(ead) + usize::from(ebd) + usize::from(ecd),
                    ];
                    let maxd = *deg.iter().max().expect("non-empty");
                    let idx = match (m, maxd) {
                        (0, _) => 0,
                        (1, _) => 1,
                        (2, 1) => 2,                     // perfect matching
                        (2, 2) => 3,                     // path on 3 of the 4
                        (3, 2) if deg.contains(&0) => 4, // triangle + isolated
                        (3, 2) => 5,                     // P4
                        (3, 3) => 6,                     // star K1,3
                        (4, 2) => 7,                     // C4
                        (4, 3) => 8,                     // paw
                        (5, _) => 9,                     // diamond
                        (6, _) => 10,                    // K4
                        _ => unreachable!("impossible 4-vertex graphlet"),
                    };
                    out[idx] += 1;
                }
            }
        }
    }
    out
}

/// The graphlet kernel: dot product of (3- and optionally 4-) graphlet
/// count vectors, optionally normalised to frequencies so graphs of
/// different sizes are comparable.
pub struct GraphletKernel {
    /// Include 4-graphlets (`O(n⁴)`) in addition to 3-graphlets.
    pub use_four: bool,
    /// Normalise counts to frequencies.
    pub normalise: bool,
}

impl GraphletKernel {
    /// 3-graphlet kernel with frequency normalisation.
    pub fn three() -> Self {
        GraphletKernel {
            use_four: false,
            normalise: true,
        }
    }

    /// 3+4-graphlet kernel with frequency normalisation.
    pub fn three_four() -> Self {
        GraphletKernel {
            use_four: true,
            normalise: true,
        }
    }

    /// The explicit feature vector.
    pub fn features(&self, g: &Graph) -> Vec<f64> {
        let mut v: Vec<f64> = graphlet3_counts(g).iter().map(|&x| x as f64).collect();
        if self.use_four {
            v.extend(graphlet4_counts(g).iter().map(|&x| x as f64));
        }
        if self.normalise {
            let total: f64 = v.iter().sum();
            if total > 0.0 {
                for x in &mut v {
                    *x /= total;
                }
            }
        }
        v
    }
}

impl GraphKernel for GraphletKernel {
    fn eval(&self, g: &Graph, h: &Graph) -> f64 {
        x2v_linalg::vector::dot(&self.features(g), &self.features(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gram::is_psd;
    use x2v_graph::generators::{complete, cycle, path, petersen, star};

    #[test]
    fn triangle_counts_in_complete_graphs() {
        let c = graphlet3_counts(&complete(5));
        assert_eq!(c, [0, 0, 0, 10]); // C(5,3) all triangles
        let e = graphlet3_counts(&Graph::empty(5));
        assert_eq!(e, [10, 0, 0, 0]);
    }

    #[test]
    fn path_graphlets() {
        // P4 triples: {0,1,2} path, {1,2,3} path, {0,1,3} one edge,
        // {0,2,3} one edge.
        let c = graphlet3_counts(&path(4));
        assert_eq!(c, [0, 2, 2, 0]);
    }

    #[test]
    fn four_graphlet_totals() {
        let g = petersen();
        let c = graphlet4_counts(&g);
        let total: u64 = c.iter().sum();
        assert_eq!(total, 210); // C(10,4)
                                // Petersen is triangle-free: no triangle-containing classes.
        assert_eq!(c[4], 0);
        assert_eq!(c[8], 0);
        assert_eq!(c[9], 0);
        assert_eq!(c[10], 0);
        // Petersen has girth 5: no C4 either.
        assert_eq!(c[7], 0);
    }

    #[test]
    fn four_graphlets_of_k4() {
        let c = graphlet4_counts(&complete(4));
        assert_eq!(c[10], 1);
        assert_eq!(c.iter().sum::<u64>(), 1);
    }

    #[test]
    fn star_has_star_graphlet() {
        let c = graphlet4_counts(&star(3));
        assert_eq!(c[6], 1);
    }

    #[test]
    fn kernel_psd_and_normalised() {
        let k = GraphletKernel::three_four();
        let graphs = vec![cycle(5), path(5), star(4), complete(5), petersen()];
        assert!(is_psd(&k.gram(&graphs), 1e-9));
        let f = k.features(&cycle(6));
        // Normalisation is over the concatenated count vector.
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
