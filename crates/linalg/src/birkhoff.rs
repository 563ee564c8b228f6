//! Optimisation over the Birkhoff polytope of doubly stochastic matrices.
//!
//! Two tools from the paper:
//!
//! * **Sinkhorn projection** — rescales a positive matrix to doubly
//!   stochastic form; used to produce feasible starting points.
//! * **Frank-Wolfe minimisation** of `f(X) = ‖AX − XB‖²_F` over doubly
//!   stochastic `X` — the convex program whose zero set characterises
//!   *fractional isomorphism* (Theorem 3.2). The paper points out ([57])
//!   that Frank-Wolfe iterations on this objective mirror the refinement
//!   rounds of 1-WL; the linear-minimisation oracle is a min-cost assignment
//!   solved by [`crate::assignment::hungarian`], and the step size has a
//!   closed form because `f` is quadratic.

use crate::assignment::{hungarian, permutation_matrix};
use crate::norms::frobenius;
use crate::Matrix;

/// Sinkhorn–Knopp projection: alternately normalises rows and columns of a
/// strictly positive matrix until both sums are within `tol` of 1.
///
/// # Panics
/// If the matrix is not square or has a non-positive entry.
pub fn sinkhorn(m: &Matrix, tol: f64, max_iters: usize) -> Matrix {
    assert!(m.is_square(), "sinkhorn needs a square matrix");
    assert!(
        m.as_slice().iter().all(|&x| x > 0.0),
        "sinkhorn needs strictly positive entries"
    );
    let n = m.rows();
    let mut x = m.clone();
    for _ in 0..max_iters {
        for i in 0..n {
            let s: f64 = x.row(i).iter().sum();
            for v in x.row_mut(i) {
                *v /= s;
            }
        }
        let mut worst = 0.0f64;
        for j in 0..n {
            let s: f64 = (0..n).map(|i| x[(i, j)]).sum();
            for i in 0..n {
                x[(i, j)] /= s;
            }
            worst = worst.max((s - 1.0).abs());
        }
        // After column normalisation, check row deviation.
        let mut row_dev = 0.0f64;
        for i in 0..n {
            let s: f64 = x.row(i).iter().sum();
            row_dev = row_dev.max((s - 1.0).abs());
        }
        if worst.max(row_dev) < tol {
            break;
        }
    }
    x
}

/// Whether `x` is doubly stochastic within tolerance.
pub fn is_doubly_stochastic(x: &Matrix, tol: f64) -> bool {
    if !x.is_square() {
        return false;
    }
    let n = x.rows();
    if x.as_slice().iter().any(|&v| v < -tol) {
        return false;
    }
    for i in 0..n {
        if (x.row(i).iter().sum::<f64>() - 1.0).abs() > tol {
            return false;
        }
    }
    for j in 0..n {
        if ((0..n).map(|i| x[(i, j)]).sum::<f64>() - 1.0).abs() > tol {
            return false;
        }
    }
    true
}

/// Result of the Frank-Wolfe minimisation.
pub struct FrankWolfeResult {
    /// The final iterate (doubly stochastic up to numerical error).
    pub x: Matrix,
    /// `‖A X − X B‖_F` at the final iterate.
    pub objective: f64,
    /// Iterations performed.
    pub iterations: usize,
}

/// Minimises `‖AX − XB‖²_F` over doubly stochastic `X` by *away-step*
/// Frank-Wolfe with exact line search. `A`, `B` must be square of equal
/// order.
///
/// The away steps keep an explicit convex decomposition of the iterate over
/// Birkhoff vertices (permutation matrices) and remove mass from the worst
/// active vertex when that descends faster — restoring linear convergence
/// where classic Frank-Wolfe zig-zags at `O(1/k)` near faces. The LMO is a
/// min-cost assignment ([`hungarian`]).
///
/// Returns an objective near zero iff the graphs with adjacency matrices
/// `A`, `B` are fractionally isomorphic (Theorem 3.2).
pub fn frank_wolfe_fractional_iso(
    a: &Matrix,
    b: &Matrix,
    max_iters: usize,
    tol: f64,
) -> FrankWolfeResult {
    assert!(
        a.is_square() && b.is_square(),
        "adjacency matrices must be square"
    );
    assert_eq!(a.rows(), b.rows(), "graphs must have equal order");
    let n = a.rows();
    // Active set: vertices (as assignments) with weights; start from the
    // barycentre's support being huge is impractical, so start at a single
    // vertex (the identity) — any feasible start works.
    let mut active: Vec<(Vec<usize>, f64)> = vec![((0..n).collect(), 1.0)];
    let mut x = permutation_matrix(&active[0].0);
    let residual = |x: &Matrix| &a.matmul(x) - &x.matmul(b);
    let mut iterations = 0;
    for it in 0..max_iters {
        iterations = it + 1;
        let r = residual(&x);
        let obj = frobenius(&r);
        if obj < tol {
            break;
        }
        // ∇f(X) = 2 (Aᵀ R − R Bᵀ) for f = ‖R‖², R = AX − XB.
        let grad = (&a.transpose().matmul(&r) - &r.matmul(&b.transpose())).scaled(2.0);
        // Frank-Wolfe vertex: minimise ⟨grad, S⟩.
        let (fw_assign, _) = hungarian(&grad);
        let s = permutation_matrix(&fw_assign);
        let fw_gap = grad.frobenius_dot(&(&x - &s));
        if fw_gap < tol * tol {
            break;
        }
        // Away vertex: the active vertex maximising ⟨grad, V⟩.
        let (away_idx, _) = active
            .iter()
            .enumerate()
            .map(|(i, (assign, _))| {
                let dot: f64 = assign
                    .iter()
                    .enumerate()
                    .map(|(row, &col)| grad[(row, col)])
                    .sum();
                (i, dot)
            })
            .max_by(|p, q| p.1.partial_cmp(&q.1).expect("finite gradient"))
            .expect("active set non-empty");
        let v = permutation_matrix(&active[away_idx].0);
        let away_gap = grad.frobenius_dot(&(&v - &x));
        let (d, gamma_max, is_away) = if fw_gap >= away_gap {
            (&s - &x, 1.0, false)
        } else {
            let alpha = active[away_idx].1;
            (&x - &v, alpha / (1.0 - alpha).max(1e-18), true)
        };
        // Exact line search for the quadratic along D.
        let rd = &a.matmul(&d) - &d.matmul(b);
        let denom = rd.frobenius_dot(&rd);
        let gamma = if denom < 1e-18 {
            gamma_max
        } else {
            (-r.frobenius_dot(&rd) / denom).clamp(0.0, gamma_max)
        };
        if gamma <= 1e-15 {
            break;
        }
        x = &x + &d.scaled(gamma);
        // Update the convex decomposition.
        if is_away {
            for (_, w) in active.iter_mut() {
                *w *= 1.0 + gamma;
            }
            active[away_idx].1 -= gamma;
        } else {
            for (_, w) in active.iter_mut() {
                *w *= 1.0 - gamma;
            }
            if let Some(entry) = active.iter_mut().find(|(assign, _)| *assign == fw_assign) {
                entry.1 += gamma;
            } else {
                active.push((fw_assign, gamma));
            }
        }
        active.retain(|&(_, w)| w > 1e-12);
    }
    let objective = frobenius(&residual(&x));
    FrankWolfeResult {
        x,
        objective,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sinkhorn_produces_doubly_stochastic() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let x = sinkhorn(&m, 1e-10, 1000);
        assert!(is_doubly_stochastic(&x, 1e-8));
    }

    #[test]
    fn barycentre_is_doubly_stochastic() {
        assert!(is_doubly_stochastic(&Matrix::filled(5, 5, 0.2), 1e-12));
        assert!(!is_doubly_stochastic(&Matrix::zeros(2, 2), 1e-12));
    }

    #[test]
    fn identical_graphs_reach_zero() {
        // C4 adjacency.
        let a = Matrix::from_rows(&[
            &[0.0, 1.0, 0.0, 1.0],
            &[1.0, 0.0, 1.0, 0.0],
            &[0.0, 1.0, 0.0, 1.0],
            &[1.0, 0.0, 1.0, 0.0],
        ]);
        let r = frank_wolfe_fractional_iso(&a, &a, 200, 1e-9);
        assert!(r.objective < 1e-8, "objective {}", r.objective);
    }

    #[test]
    fn c6_vs_2c3_fractionally_isomorphic() {
        // The paper's running example: 1-WL cannot distinguish C6 from two
        // triangles, so they are fractionally isomorphic and Frank-Wolfe
        // must reach (near) zero.
        let c6 = Matrix::from_rows(&[
            &[0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            &[1.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0, 1.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0, 0.0, 1.0],
            &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0],
        ]);
        let tt = Matrix::from_rows(&[
            &[0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
            &[1.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            &[1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0, 1.0, 1.0],
            &[0.0, 0.0, 0.0, 1.0, 0.0, 1.0],
            &[0.0, 0.0, 0.0, 1.0, 1.0, 0.0],
        ]);
        // The barycentre is already a fractional isomorphism for regular
        // graphs of equal degree; Frank-Wolfe should confirm instantly.
        let r = frank_wolfe_fractional_iso(&c6, &tt, 200, 1e-9);
        assert!(r.objective < 1e-8, "objective {}", r.objective);
        assert!(is_doubly_stochastic(&r.x, 1e-6));
    }

    #[test]
    fn different_degree_graphs_stay_positive() {
        // P3 vs K3: not fractionally isomorphic (degree sequences differ).
        let p3 = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]);
        let k3 = Matrix::from_rows(&[&[0.0, 1.0, 1.0], &[1.0, 0.0, 1.0], &[1.0, 1.0, 0.0]]);
        let r = frank_wolfeen(&p3, &k3);
        assert!(r.objective > 0.1, "objective {}", r.objective);
    }

    fn frank_wolfeen(a: &Matrix, b: &Matrix) -> FrankWolfeResult {
        frank_wolfe_fractional_iso(a, b, 500, 1e-10)
    }
}
