//! Node kernels (Section 2.4's side remark: diffusion kernels on graphs,
//! Kondor–Lafferty [60] / Smola–Kondor [96]) — positive semidefinite
//! similarity matrices on the *nodes* of one graph, implicitly embedding
//! the nodes into a Hilbert space.

use x2v_graph::Graph;
use x2v_linalg::eigen::sym_eigen;
use x2v_linalg::Matrix;

/// The graph Laplacian `L = D − A`.
fn laplacian(g: &Graph) -> Matrix {
    let n = g.order();
    let mut l = Matrix::zeros(n, n);
    for v in 0..n {
        l[(v, v)] = g.degree(v) as f64;
    }
    for (u, v) in g.edges() {
        l[(u, v)] = -1.0;
        l[(v, u)] = -1.0;
    }
    l
}

/// The heat / diffusion node kernel `K = exp(−β L)` via the Laplacian
/// eigendecomposition. PSD for every `β ≥ 0`; rows give each node's heat
/// distribution after time β.
pub fn diffusion_kernel(g: &Graph, beta: f64) -> Matrix {
    assert!(beta >= 0.0, "diffusion time must be non-negative");
    let e = sym_eigen(&laplacian(g));
    let exp_vals: Vec<f64> = e.values.iter().map(|&l| (-beta * l).exp()).collect();
    e.vectors
        .matmul(&Matrix::diag(&exp_vals))
        .matmul(&e.vectors.transpose())
}

/// The regularised Laplacian node kernel `K = (I + βL)^{−1}`, another
/// classic from [96]. Computed spectrally.
pub fn regularised_laplacian_kernel(g: &Graph, beta: f64) -> Matrix {
    assert!(beta >= 0.0, "regularisation must be non-negative");
    let e = sym_eigen(&laplacian(g));
    let inv_vals: Vec<f64> = e.values.iter().map(|&l| 1.0 / (1.0 + beta * l)).collect();
    e.vectors
        .matmul(&Matrix::diag(&inv_vals))
        .matmul(&e.vectors.transpose())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gram::is_psd;
    use x2v_graph::generators::{cycle, path, petersen};

    #[test]
    fn beta_zero_is_identity() {
        let k = diffusion_kernel(&cycle(5), 0.0);
        assert!(k.approx_eq(&Matrix::identity(5), 1e-9));
    }

    #[test]
    fn kernels_are_psd() {
        for g in [cycle(6), path(5), petersen()] {
            assert!(is_psd(&diffusion_kernel(&g, 0.7), 1e-8));
            assert!(is_psd(&regularised_laplacian_kernel(&g, 0.5), 1e-8));
        }
    }

    #[test]
    fn diffusion_respects_distance() {
        // On a path, heat from node 0 reaches node 1 before node 4.
        let k = diffusion_kernel(&path(5), 0.5);
        assert!(k[(0, 1)] > k[(0, 2)]);
        assert!(k[(0, 2)] > k[(0, 4)]);
        // Symmetric.
        assert!((k[(0, 3)] - k[(3, 0)]).abs() < 1e-9);
    }

    #[test]
    fn rows_sum_to_one() {
        // exp(−βL)·1 = 1 (the constant vector is in L's kernel): heat is
        // conserved.
        let k = diffusion_kernel(&cycle(7), 1.3);
        for i in 0..7 {
            let s: f64 = k.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-8, "row {i} sums to {s}");
        }
    }

    #[test]
    fn regularised_kernel_smooths() {
        let k = regularised_laplacian_kernel(&path(4), 1.0);
        assert!(k[(0, 1)] > k[(0, 3)]);
    }
}
