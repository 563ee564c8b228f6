//! Matrix-factorisation node embeddings (Section 2.1) — the three panels of
//! the paper's Figure 2, plus Laplacian eigenmaps and classical MDS.
//!
//! The similarity-matrix framework: choose `S ∈ ℝ^{V×V}`, then find `X`
//! minimising `‖XXᵀ − S‖_F` — solved by the truncated eigen/SVD
//! factorisation of `S`.

use x2v_core::NodeEmbedding;
use x2v_graph::dist::{all_pairs_distances, INF};
use x2v_graph::Graph;
use x2v_linalg::eigen::sym_eigen;
use x2v_linalg::svd::truncated_factor;
use x2v_linalg::Matrix;

/// First-order proximity: `S` = adjacency matrix, factored by truncated SVD
/// (Figure 2a).
pub struct AdjacencySvd {
    /// Embedding dimension.
    pub dim: usize,
}

impl NodeEmbedding for AdjacencySvd {
    fn embed_nodes(&self, g: &Graph) -> Vec<Vec<f64>> {
        let a = Matrix::from_flat(g.order(), g.order(), g.adjacency_flat());
        matrix_rows(&truncated_factor(&a, self.dim))
    }

    fn dimension(&self) -> usize {
        self.dim
    }
}

/// Exponential-distance similarity `S_vw = exp(−c · dist(v, w))`, factored
/// by truncated SVD (Figure 2b; the paper's example uses `c = 2`).
pub struct ExpDistanceSvd {
    /// Embedding dimension.
    pub dim: usize,
    /// Decay rate `c > 0`.
    pub c: f64,
}

impl ExpDistanceSvd {
    /// The similarity matrix `exp(−c·dist)` (unreachable pairs get 0).
    fn similarity_matrix(&self, g: &Graph) -> Matrix {
        let n = g.order();
        let d = all_pairs_distances(g);
        let mut s = Matrix::zeros(n, n);
        for v in 0..n {
            for w in 0..n {
                let dist = d[v * n + w];
                s[(v, w)] = if dist == INF {
                    0.0
                } else {
                    (-self.c * dist as f64).exp()
                };
            }
        }
        s
    }
}

impl NodeEmbedding for ExpDistanceSvd {
    fn embed_nodes(&self, g: &Graph) -> Vec<Vec<f64>> {
        matrix_rows(&truncated_factor(&self.similarity_matrix(g), self.dim))
    }

    fn dimension(&self) -> usize {
        self.dim
    }
}

/// Laplacian eigenmaps (Belkin–Niyogi \[11\]): the eigenvectors of the
/// unnormalised Laplacian `L = D − A` for the smallest non-zero
/// eigenvalues.
pub struct LaplacianEigenmap {
    /// Embedding dimension.
    pub dim: usize,
}

impl NodeEmbedding for LaplacianEigenmap {
    fn embed_nodes(&self, g: &Graph) -> Vec<Vec<f64>> {
        let n = g.order();
        let mut l = Matrix::zeros(n, n);
        for v in 0..n {
            l[(v, v)] = g.degree(v) as f64;
        }
        for (u, v) in g.edges() {
            l[(u, v)] = -1.0;
            l[(v, u)] = -1.0;
        }
        let e = sym_eigen(&l);
        // Eigenvalues are sorted descending; take the `dim` smallest
        // *non-trivial* ones (skip the ≈0 constant eigenvector(s)).
        let mut cols: Vec<usize> = (0..n).rev().filter(|&j| e.values[j] > 1e-9).collect();
        cols.truncate(self.dim);
        let mut out = vec![vec![0.0; cols.len()]; n];
        for (k, &j) in cols.iter().enumerate() {
            for (v, row) in out.iter_mut().enumerate() {
                row[k] = e.vectors[(v, j)];
            }
        }
        out
    }

    fn dimension(&self) -> usize {
        self.dim
    }
}

/// Classical multidimensional scaling (Kruskal \[63\], Isomap-style when
/// applied to shortest-path distances): double-centre the squared distance
/// matrix and factor.
pub struct ClassicalMds {
    /// Embedding dimension.
    pub dim: usize,
}

impl NodeEmbedding for ClassicalMds {
    fn embed_nodes(&self, g: &Graph) -> Vec<Vec<f64>> {
        let n = g.order();
        let d = all_pairs_distances(g);
        // Replace INF with (diameter + 1) so disconnected graphs still embed.
        let finite_max = d.iter().filter(|&&x| x != INF).max().copied().unwrap_or(0);
        let sq = |x: usize| {
            let x = if x == INF { finite_max + 1 } else { x };
            (x * x) as f64
        };
        // B = −1/2 J D² J with J = I − 11ᵀ/n.
        let mut d2 = Matrix::zeros(n, n);
        for v in 0..n {
            for w in 0..n {
                d2[(v, w)] = sq(d[v * n + w]);
            }
        }
        let row_means: Vec<f64> = (0..n)
            .map(|i| d2.row(i).iter().sum::<f64>() / n as f64)
            .collect();
        let total: f64 = row_means.iter().sum::<f64>() / n as f64;
        let mut b = Matrix::zeros(n, n);
        for v in 0..n {
            for w in 0..n {
                b[(v, w)] = -0.5 * (d2[(v, w)] - row_means[v] - row_means[w] + total);
            }
        }
        let e = sym_eigen(&b);
        let mut out = vec![vec![0.0; self.dim.min(n)]; n];
        for j in 0..self.dim.min(n) {
            let lam = e.values[j].max(0.0).sqrt();
            for (v, row) in out.iter_mut().enumerate() {
                row[j] = e.vectors[(v, j)] * lam;
            }
        }
        out
    }

    fn dimension(&self) -> usize {
        self.dim
    }
}

fn matrix_rows(m: &Matrix) -> Vec<Vec<f64>> {
    (0..m.rows()).map(|i| m.row(i).to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_linalg::vector::euclidean;

    #[test]
    fn adjacency_svd_reconstructs_low_rank() {
        // Complete bipartite K(2,3): adjacency has rank 2.
        let g = x2v_graph::generators::complete_bipartite(2, 3);
        let emb = AdjacencySvd { dim: 2 }.embed_nodes(&g);
        // Same-side nodes coincide (identical rows of A).
        assert!(euclidean(&emb[0], &emb[1]) < 1e-8);
        assert!(euclidean(&emb[2], &emb[3]) < 1e-8);
        assert!(euclidean(&emb[0], &emb[2]) > 0.1);
    }

    #[test]
    fn exp_distance_similarity_values() {
        let g = x2v_graph::generators::path(3);
        let s = ExpDistanceSvd { dim: 2, c: 2.0 }.similarity_matrix(&g);
        assert!((s[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((s[(0, 1)] - (-2.0f64).exp()).abs() < 1e-12);
        assert!((s[(0, 2)] - (-4.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn mds_recovers_path_geometry() {
        // P5 embeds (classically) along a line: the first coordinate must
        // be monotone along the path.
        let g = x2v_graph::generators::path(5);
        let emb = ClassicalMds { dim: 1 }.embed_nodes(&g);
        let xs: Vec<f64> = emb.iter().map(|v| v[0]).collect();
        let increasing = xs.windows(2).all(|w| w[0] < w[1]);
        let decreasing = xs.windows(2).all(|w| w[0] > w[1]);
        assert!(increasing || decreasing, "{xs:?}");
    }

    #[test]
    fn laplacian_eigenmap_separates_two_cliques() {
        // Two cliques joined by one edge: the Fiedler vector splits them.
        let mut edges = Vec::new();
        for u in 0..4 {
            for v in (u + 1)..4 {
                edges.push((u, v));
                edges.push((u + 4, v + 4));
            }
        }
        edges.push((0, 4));
        let g = x2v_graph::Graph::from_edges_unchecked(8, &edges);
        let emb = LaplacianEigenmap { dim: 1 }.embed_nodes(&g);
        let side = |v: usize| emb[v][0].signum();
        assert_eq!(side(1), side(2));
        assert_eq!(side(5), side(6));
        assert_ne!(side(1), side(5));
    }

    #[test]
    fn embeddings_have_requested_dimension() {
        let g = x2v_graph::generators::cycle(6);
        assert_eq!(AdjacencySvd { dim: 3 }.embed_nodes(&g)[0].len(), 3);
        assert_eq!(
            ExpDistanceSvd { dim: 2, c: 2.0 }.embed_nodes(&g)[0].len(),
            2
        );
        assert_eq!(ClassicalMds { dim: 2 }.embed_nodes(&g)[0].len(), 2);
    }
}
