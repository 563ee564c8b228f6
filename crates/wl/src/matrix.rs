//! Matrix WL (Section 3.2, Figure 4): colour refinement on the weighted
//! bipartite graph of a matrix, and the colour-refinement dimension
//! reduction of \[44\] that shrinks linear programs with symmetries.
//!
//! With an `m × n` matrix `A` we associate the weighted bipartite graph on
//! `{v_1 … v_m} ∪ {w_1 … w_n}` with `α(v_i, w_j) = A_ij`, rows and columns
//! initially coloured apart, and run weighted 1-WL. The stable partition of
//! rows/columns is an equitable partition of the matrix; averaging over the
//! classes yields a smaller quotient matrix whose linear-algebraic behaviour
//! on partition-constant vectors matches the original — the dimension
//! reduction used in \[44\] to speed up LP solving.

use crate::weighted::WeightedRefiner;
use x2v_graph::WeightedGraph;
use x2v_linalg::Matrix;

/// The stable matrix-WL partition of a matrix.
#[derive(Clone, Debug)]
pub struct MatrixPartition {
    /// Row class per row (classes numbered `0..num_row_classes`).
    pub row_class: Vec<usize>,
    /// Column class per column.
    pub col_class: Vec<usize>,
    /// Number of row classes.
    pub num_row_classes: usize,
    /// Number of column classes.
    pub num_col_classes: usize,
    /// Rounds to stability.
    pub rounds: usize,
}

/// Runs matrix WL on `a` and returns the stable row/column partition.
pub fn matrix_wl(a: &Matrix) -> MatrixPartition {
    let (m, n) = (a.rows(), a.cols());
    // Bipartite weighted graph: rows are 0..m, columns m..m+n.
    let mut edges = Vec::new();
    for i in 0..m {
        for j in 0..n {
            let w = a[(i, j)];
            if w != 0.0 {
                edges.push((i, m + j, w));
            }
        }
    }
    let mut g = WeightedGraph::from_weighted_edges(m + n, &edges).expect("valid bipartite edges");
    // Initial colouring distinguishes rows from columns.
    let mut labels = vec![0u32; m];
    labels.extend(std::iter::repeat_n(1u32, n));
    g.set_labels(labels).expect("length matches");
    let mut wr = WeightedRefiner::new();
    let h = wr.refine_to_stable(&g);
    let stable = h.stable();
    // Densify colour ids separately for rows and columns.
    let dense = |slice: &[u64]| {
        let mut sorted: Vec<u64> = slice.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let map: Vec<usize> = slice
            .iter()
            .map(|c| sorted.binary_search(c).expect("present"))
            .collect();
        (map, sorted.len())
    };
    let (row_class, num_row_classes) = dense(&stable[..m]);
    let (col_class, num_col_classes) = dense(&stable[m..]);
    MatrixPartition {
        row_class,
        col_class,
        num_row_classes,
        num_col_classes,
        rounds: h.stable_round,
    }
}

/// The quotient (reduced) matrix of \[44\]: entry `(I, J)` is the sum of
/// `A_ij` over `j ∈ J` for any representative row `i ∈ I` (well-defined on a
/// stable partition; this implementation averages over rows of the class so
/// numerical noise cancels).
pub fn quotient_matrix(a: &Matrix, p: &MatrixPartition) -> Matrix {
    let mut q = Matrix::zeros(p.num_row_classes, p.num_col_classes);
    let mut rows_in = vec![0usize; p.num_row_classes];
    for &rc in &p.row_class {
        rows_in[rc] += 1;
    }
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            q[(p.row_class[i], p.col_class[j])] += a[(i, j)];
        }
    }
    for rc in 0..p.num_row_classes {
        for cc in 0..p.num_col_classes {
            q[(rc, cc)] /= rows_in[rc] as f64;
        }
    }
    q
}

/// Lifts a solution of the quotient system back to the full space:
/// `x_j = y_{colclass(j)}` (partition-constant lift).
pub fn lift_solution(y: &[f64], p: &MatrixPartition) -> Vec<f64> {
    p.col_class.iter().map(|&c| y[c]).collect()
}

/// Compresses a partition-constant right-hand side `b` (one value per row
/// class, taken from any representative). Returns `None` if `b` is not
/// constant on some row class (tolerance `tol`).
pub fn compress_rhs(b: &[f64], p: &MatrixPartition, tol: f64) -> Option<Vec<f64>> {
    let mut out = vec![f64::NAN; p.num_row_classes];
    for (i, &bi) in b.iter().enumerate() {
        let c = p.row_class[i];
        if out[c].is_nan() {
            out[c] = bi;
        } else if (out[c] - bi).abs() > tol {
            return None;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_matrix_collapses_to_one_class() {
        let a = Matrix::filled(4, 6, 2.0);
        let p = matrix_wl(&a);
        assert_eq!(p.num_row_classes, 1);
        assert_eq!(p.num_col_classes, 1);
        let q = quotient_matrix(&a, &p);
        assert_eq!(q.rows(), 1);
        assert_eq!(q[(0, 0)], 12.0); // row sum of a class representative
    }

    #[test]
    fn block_structure_recovered() {
        // Two row blocks with different patterns.
        let a = Matrix::from_rows(&[
            &[1.0, 1.0, 0.0, 0.0],
            &[1.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 3.0, 3.0],
            &[0.0, 0.0, 3.0, 3.0],
        ]);
        let p = matrix_wl(&a);
        assert_eq!(p.num_row_classes, 2);
        assert_eq!(p.num_col_classes, 2);
        assert_eq!(p.row_class[0], p.row_class[1]);
        assert_ne!(p.row_class[0], p.row_class[2]);
    }

    #[test]
    fn quotient_system_solves_symmetric_lp_style_system() {
        // A x = b with A having interchangeable columns: solve the 1-class
        // quotient and lift.
        let a = Matrix::from_rows(&[&[2.0, 2.0], &[2.0, 2.0]]);
        let b = [8.0, 8.0];
        let p = matrix_wl(&a);
        assert_eq!(p.num_col_classes, 1);
        let q = quotient_matrix(&a, &p);
        let rb = compress_rhs(&b, &p, 1e-12).unwrap();
        // Quotient: 4 y = 8 → y = 2; lift: x = (2, 2).
        let y = rb[0] / q[(0, 0)];
        let x = lift_solution(&[y], &p);
        let ax = a.matvec(&x);
        assert!((ax[0] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn rhs_breaking_symmetry_detected() {
        let a = Matrix::filled(2, 2, 1.0);
        let p = matrix_wl(&a);
        assert!(compress_rhs(&[1.0, 2.0], &p, 1e-12).is_none());
        assert!(compress_rhs(&[3.0, 3.0], &p, 1e-12).is_some());
    }

    #[test]
    fn asymmetric_matrix_keeps_full_rank_classes() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let p = matrix_wl(&a);
        assert_eq!(p.num_row_classes, 2);
        assert_eq!(p.num_col_classes, 2);
        let q = quotient_matrix(&a, &p);
        // Quotient of a fully-asymmetric matrix is (a permutation of) itself.
        let mut entries: Vec<f64> = q.as_slice().to_vec();
        entries.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(entries, vec![1.0, 2.0, 3.0, 4.0]);
    }
}
