//! Singular value decomposition built on the Jacobi symmetric eigensolver.
//!
//! The matrix-factorisation node embeddings of Section 2.1 minimise
//! `‖XXᵀ − S‖_F`, solved by truncating the SVD (for symmetric `S`, the
//! eigendecomposition) of the similarity matrix.

use crate::eigen::sym_eigen;
use crate::Matrix;

/// Result of a (thin) singular value decomposition `A = U Σ Vᵀ`.
pub struct Svd {
    /// Left singular vectors (columns), `m × r`.
    pub u: Matrix,
    /// Singular values, descending, length `r = min(m, n)`.
    pub sigma: Vec<f64>,
    /// Right singular vectors (columns), `n × r`.
    pub v: Matrix,
}

/// Thin SVD via the eigendecomposition of `AᵀA` (or `AAᵀ`, whichever is
/// smaller). Accurate enough for the moderate condition numbers of the
/// similarity matrices this workspace factorises.
pub fn svd(a: &Matrix) -> Svd {
    let (m, n) = (a.rows(), a.cols());
    if m >= n {
        // Eigen of AᵀA gives V and σ²; U = A V Σ⁻¹.
        let ata = a.transpose().matmul(a);
        let e = sym_eigen(&ata);
        let sigma: Vec<f64> = e.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
        let v = e.vectors;
        let av = a.matmul(&v);
        let mut u = Matrix::zeros(m, n);
        for j in 0..n {
            if sigma[j] > 1e-12 {
                for i in 0..m {
                    u[(i, j)] = av[(i, j)] / sigma[j];
                }
            }
        }
        Svd { u, sigma, v }
    } else {
        let t = svd(&a.transpose());
        Svd {
            u: t.v,
            sigma: t.sigma,
            v: t.u,
        }
    }
}

/// Rank-`d` factor embedding: rows are `u_i √σ_i` for the top `d` singular
/// triples — the minimiser of `‖XXᵀ − S‖_F` over rank-d `X` for symmetric
/// PSD `S`, and the standard spectral node embedding for general `S`.
///
/// Returns an `m × d` matrix.
pub fn truncated_factor(a: &Matrix, d: usize) -> Matrix {
    let s = svd(a);
    let d = d.min(s.sigma.len());
    let mut x = Matrix::zeros(a.rows(), d);
    for j in 0..d {
        let scale = s.sigma[j].max(0.0).sqrt();
        for i in 0..a.rows() {
            x[(i, j)] = s.u[(i, j)] * scale;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconstructs_full_rank() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 3.0], &[0.0, 2.0]]);
        let s = svd(&a);
        let recon = s.u.matmul(&Matrix::diag(&s.sigma)).matmul(&s.v.transpose());
        assert!(recon.approx_eq(&a, 1e-9));
    }

    #[test]
    fn singular_values_sorted_nonnegative() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, -1.0, 1.0]]);
        let s = svd(&a);
        for w in s.sigma.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(s.sigma.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn known_diagonal() {
        let a = Matrix::diag(&[-5.0, 3.0]);
        let s = svd(&a);
        assert!((s.sigma[0] - 5.0).abs() < 1e-10);
        assert!((s.sigma[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn factor_embedding_shape_and_quality() {
        // S = XXᵀ for a known X should be recovered up to rotation:
        // check only the objective value.
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let s = x.matmul(&x.transpose());
        let y = truncated_factor(&s, 2);
        assert_eq!((y.rows(), y.cols()), (3, 2));
        let recon = y.matmul(&y.transpose());
        assert!(recon.approx_eq(&s, 1e-8));
    }

    #[test]
    fn wide_matrix_path() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        let s = svd(&a);
        let recon = s.u.matmul(&Matrix::diag(&s.sigma)).matmul(&s.v.transpose());
        assert!(recon.approx_eq(&a, 1e-9));
    }
}
