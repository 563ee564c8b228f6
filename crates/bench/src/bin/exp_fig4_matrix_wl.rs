//! E3 (Figure 4): matrix WL — the stable colouring of a matrix via its
//! weighted bipartite graph, plus the \[44\]-style dimension reduction.

use x2v_bench::harness::{print_header, print_row};
use x2v_linalg::Matrix;
use x2v_wl::matrix::{compress_rhs, lift_solution, matrix_wl, quotient_matrix};

fn main() {
    let _obs = x2v_bench::ObsRun::new("exp_fig4_matrix_wl");
    println!("E3 — matrix WL (Figure 4) and colour-refinement dimension reduction [44]\n");
    // A structured matrix with repeated row/column patterns.
    let a = Matrix::from_rows(&[
        &[2.0, 2.0, 1.0, 1.0, 0.0, 0.0],
        &[2.0, 2.0, 1.0, 1.0, 0.0, 0.0],
        &[0.0, 0.0, 3.0, 3.0, 1.0, 1.0],
        &[0.0, 0.0, 3.0, 3.0, 1.0, 1.0],
        &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0],
    ]);
    let p = matrix_wl(&a);
    println!("matrix: 5 x 6, stable after {} rounds", p.rounds);
    let widths = [12, 40];
    print_header(&["side", "class per index"], &widths);
    print_row(&["rows".into(), format!("{:?}", p.row_class)], &widths);
    print_row(&["columns".into(), format!("{:?}", p.col_class)], &widths);
    println!(
        "\nreduction: {} x {}  ->  {} x {}",
        a.rows(),
        a.cols(),
        p.num_row_classes,
        p.num_col_classes
    );
    let q = quotient_matrix(&a, &p);
    println!("quotient matrix: {q:?}");
    // Solve A x = b for a partition-constant b via the quotient.
    let b: Vec<f64> = (0..a.rows())
        .map(|i| (p.row_class[i] + 1) as f64 * 6.0)
        .collect();
    if let Some(rb) = compress_rhs(&b, &p, 1e-9) {
        if q.rows() == q.cols() {
            if let Some(y) = x2v_linalg::solve::lu_solve(&q, &rb) {
                let x = lift_solution(&y, &p);
                let ax = a.matvec(&x);
                let resid: f64 = ax
                    .iter()
                    .zip(&b)
                    .map(|(u, v)| (u - v) * (u - v))
                    .sum::<f64>()
                    .sqrt();
                println!(
                    "\nquotient solve of A·x = b (partition-constant b): residual {resid:.2e}"
                );
            }
        } else {
            let y = x2v_linalg::solve::qr_least_squares(&q, &rb);
            let x = lift_solution(&y, &p);
            let ax = a.matvec(&x);
            let resid: f64 = ax
                .iter()
                .zip(&b)
                .map(|(u, v)| (u - v) * (u - v))
                .sum::<f64>()
                .sqrt();
            println!("\nquotient least-squares of A·x = b: residual {resid:.2e}");
        }
    }
}
