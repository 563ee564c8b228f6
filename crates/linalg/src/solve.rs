//! Floating-point linear solvers: LU with partial pivoting, Householder QR
//! least squares and numerical rank.

use crate::Matrix;

/// Solves `A x = b` by LU with partial pivoting. Returns `None` if `A` is
/// numerically singular.
///
/// # Panics
/// On shape mismatch.
pub fn lu_solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    assert!(a.is_square(), "lu_solve needs a square matrix");
    assert_eq!(a.rows(), b.len(), "rhs length mismatch");
    let n = a.rows();
    let mut m = a.clone();
    let mut x = b.to_vec();
    for col in 0..n {
        // Partial pivot.
        let piv = (col..n)
            .max_by(|&i, &j| {
                m[(i, col)]
                    .abs()
                    .partial_cmp(&m[(j, col)].abs())
                    .expect("finite entries")
            })
            .expect("non-empty range");
        if m[(piv, col)].abs() < 1e-12 {
            return None;
        }
        if piv != col {
            for j in 0..n {
                let t = m[(col, j)];
                m[(col, j)] = m[(piv, j)];
                m[(piv, j)] = t;
            }
            x.swap(col, piv);
        }
        for i in (col + 1)..n {
            let f = m[(i, col)] / m[(col, col)];
            if f == 0.0 {
                continue;
            }
            for j in col..n {
                let v = m[(col, j)];
                m[(i, j)] -= f * v;
            }
            x[i] -= f * x[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        x[col] /= m[(col, col)];
        let xc = x[col];
        for i in 0..col {
            x[i] -= m[(i, col)] * xc;
        }
    }
    Some(x)
}

/// Least-squares solution of `min ‖A x − b‖₂` via Householder QR. Works for
/// `rows ≥ cols`; rank-deficient columns get coefficient 0.
///
/// # Panics
/// On shape mismatch or `rows < cols`.
pub fn qr_least_squares(a: &Matrix, b: &[f64]) -> Vec<f64> {
    let (m, n) = (a.rows(), a.cols());
    assert!(m >= n, "qr_least_squares expects rows >= cols");
    assert_eq!(b.len(), m, "rhs length mismatch");
    let mut r = a.clone();
    let mut y = b.to_vec();
    for k in 0..n {
        // Householder vector for column k below the diagonal.
        let mut norm = 0.0;
        for i in k..m {
            norm += r[(i, k)] * r[(i, k)];
        }
        let norm = norm.sqrt();
        if norm < 1e-14 {
            continue;
        }
        let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
        let mut v = vec![0.0; m - k];
        v[0] = r[(k, k)] - alpha;
        for i in (k + 1)..m {
            v[i - k] = r[(i, k)];
        }
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        if vnorm2 < 1e-28 {
            continue;
        }
        // Apply H = I − 2 v vᵀ / ‖v‖² to R (columns k..n) and to y.
        for j in k..n {
            let dot: f64 = (k..m).map(|i| v[i - k] * r[(i, j)]).sum();
            let f = 2.0 * dot / vnorm2;
            for i in k..m {
                r[(i, j)] -= f * v[i - k];
            }
        }
        let dot: f64 = (k..m).map(|i| v[i - k] * y[i]).sum();
        let f = 2.0 * dot / vnorm2;
        for i in k..m {
            y[i] -= f * v[i - k];
        }
    }
    // Back substitution on the upper triangle.
    let mut x = vec![0.0; n];
    for k in (0..n).rev() {
        let mut s = y[k];
        for j in (k + 1)..n {
            s -= r[(k, j)] * x[j];
        }
        if r[(k, k)].abs() < 1e-12 {
            x[k] = 0.0;
        } else {
            x[k] = s / r[(k, k)];
        }
    }
    x
}

/// Numerical rank via QR-like elimination with a relative tolerance.
pub fn rank(a: &Matrix, tol: f64) -> usize {
    let mut m = a.clone();
    let (rows, cols) = (m.rows(), m.cols());
    let scale = m
        .as_slice()
        .iter()
        .fold(0.0f64, |acc, &x| acc.max(x.abs()))
        .max(1e-300);
    let mut rank = 0;
    let mut row = 0;
    for col in 0..cols {
        if row >= rows {
            break;
        }
        let piv = (row..rows)
            .max_by(|&i, &j| {
                m[(i, col)]
                    .abs()
                    .partial_cmp(&m[(j, col)].abs())
                    .expect("finite")
            })
            .expect("non-empty");
        if m[(piv, col)].abs() <= tol * scale {
            continue;
        }
        if piv != row {
            for j in 0..cols {
                let t = m[(row, j)];
                m[(row, j)] = m[(piv, j)];
                m[(piv, j)] = t;
            }
        }
        for i in (row + 1)..rows {
            let f = m[(i, col)] / m[(row, col)];
            for j in col..cols {
                let v = m[(row, j)];
                m[(i, j)] -= f * v;
            }
        }
        rank += 1;
        row += 1;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_solves_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = lu_solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn lu_detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(lu_solve(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn qr_exact_system() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, -1.0], &[2.0, 0.0]]);
        // b in the column space: A [1, 2]ᵀ = [3, -1, 2]
        let x = qr_least_squares(&a, &[3.0, -1.0, 2.0]);
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn qr_least_squares_regression_line() {
        // Fit y = 2x + 1 with noiseless data.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0], &[3.0, 1.0]]);
        let b = [1.0, 3.0, 5.0, 7.0];
        let x = qr_least_squares(&a, &b);
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn rank_cases() {
        assert_eq!(rank(&Matrix::identity(3), 1e-9), 3);
        let r1 = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(rank(&r1, 1e-9), 1);
        assert_eq!(rank(&Matrix::zeros(3, 2), 1e-9), 0);
        let wide = Matrix::from_rows(&[&[1.0, 0.0, 3.0], &[0.0, 1.0, 1.0]]);
        assert_eq!(rank(&wide, 1e-9), 2);
    }
}
