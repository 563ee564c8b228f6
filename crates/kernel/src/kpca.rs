//! Kernel principal component analysis (Schölkopf et al., Section 2.4).
//!
//! Centre the Gram matrix in feature space, eigendecompose, and project
//! onto the leading components scaled by `1/√λ` so the projected features
//! have unit variance directions.

use crate::gram::center;
use x2v_linalg::eigen::sym_eigen;
use x2v_linalg::Matrix;

/// A fitted kernel PCA model.
pub struct KernelPca {
    /// Scaled eigenvectors (columns): `n_train × d`.
    projection: Matrix,
    /// Training Gram matrix (uncentred) for projecting new data.
    k_train: Matrix,
    /// Eigenvalues of the centred Gram matrix (descending, length d).
    pub eigenvalues: Vec<f64>,
}

impl KernelPca {
    /// Fits `d` components from a training Gram matrix.
    pub fn fit(k_train: &Matrix, d: usize) -> Self {
        let kc = center(k_train);
        let e = sym_eigen(&kc);
        let d = d.min(e.values.len());
        let n = k_train.rows();
        let mut projection = Matrix::zeros(n, d);
        let mut eigenvalues = Vec::with_capacity(d);
        for j in 0..d {
            let lam = e.values[j].max(0.0);
            eigenvalues.push(lam);
            let scale = if lam > 1e-12 { 1.0 / lam.sqrt() } else { 0.0 };
            for i in 0..n {
                projection[(i, j)] = e.vectors[(i, j)] * scale;
            }
        }
        KernelPca {
            projection,
            k_train: k_train.clone(),
            eigenvalues,
        }
    }

    /// Embedded training points (`n × d`): rows are the kPCA coordinates.
    pub fn transform_train(&self) -> Matrix {
        center(&self.k_train).matmul(&self.projection)
    }

    /// Number of components.
    pub fn dimension(&self) -> usize {
        self.projection.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gram_of(points: &[Vec<f64>]) -> Matrix {
        let n = points.len();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = x2v_linalg::vector::dot(&points[i], &points[j]);
            }
        }
        m
    }

    #[test]
    fn linear_kernel_recovers_pca() {
        // Points on a line y = 2x: one dominant component.
        let pts: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let pca = KernelPca::fit(&gram_of(&pts), 2);
        assert!(pca.eigenvalues[0] > 1.0);
        assert!(pca.eigenvalues[1] < 1e-8, "second component ~ 0");
    }

    #[test]
    fn transform_train_separates_clusters() {
        let pts = vec![
            vec![0.0, 0.0],
            vec![0.1, 0.1],
            vec![5.0, 5.0],
            vec![5.1, 4.9],
        ];
        let pca = KernelPca::fit(&gram_of(&pts), 1);
        let t = pca.transform_train();
        // First component separates the two clusters by sign.
        assert_eq!(t[(0, 0)].signum(), t[(1, 0)].signum());
        assert_eq!(t[(2, 0)].signum(), t[(3, 0)].signum());
        assert_ne!(t[(0, 0)].signum(), t[(2, 0)].signum());
    }

    #[test]
    fn projected_variances_match_eigenvalues() {
        let pts = vec![
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![2.0, 2.0],
            vec![3.0, 1.5],
        ];
        let pca = KernelPca::fit(&gram_of(&pts), 2);
        let t = pca.transform_train();
        for j in 0..2 {
            let var: f64 = (0..4).map(|i| t[(i, j)] * t[(i, j)]).sum();
            assert!(
                (var - pca.eigenvalues[j]).abs() < 1e-8 * (1.0 + pca.eigenvalues[j]),
                "component {j}"
            );
        }
    }
}
