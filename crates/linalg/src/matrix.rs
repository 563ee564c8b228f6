//! Dense row-major `f64` matrices.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense matrix of `f64`, stored row-major.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Wraps a row-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Matrix { rows, cols, data }
    }

    /// Builds from nested rows (handy in tests).
    ///
    /// # Panics
    /// If the rows are ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Diagonal matrix from entries.
    pub fn diag(entries: &[f64]) -> Self {
        let n = entries.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` collected into a vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// On shape mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "shape mismatch in matmul");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order: unit-stride access to rhs and out rows.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, r) in orow.iter_mut().zip(rrow) {
                    *o += a * r;
                }
            }
        }
        out
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    /// On shape mismatch.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, x.len(), "shape mismatch in matvec");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Scales every entry in place.
    fn scale_in_place(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns `self * s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_in_place(s);
        m
    }

    /// Sum of diagonal entries.
    ///
    /// # Panics
    /// If not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// `self^k` by repeated squaring (`k = 0` gives the identity).
    ///
    /// # Panics
    /// If not square.
    pub fn pow(&self, mut k: u32) -> Matrix {
        assert!(self.is_square(), "power of non-square matrix");
        let mut result = Matrix::identity(self.rows);
        let mut base = self.clone();
        while k > 0 {
            if k & 1 == 1 {
                result = result.matmul(&base);
            }
            k >>= 1;
            if k > 0 {
                base = base.matmul(&base);
            }
        }
        result
    }

    /// Frobenius inner product `⟨self, rhs⟩ = Σ_ij self_ij rhs_ij`.
    ///
    /// # Panics
    /// On shape mismatch.
    pub fn frobenius_dot(&self, rhs: &Matrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).sum()
    }

    /// Maximum absolute entry difference to `rhs`.
    fn max_abs_diff(&self, rhs: &Matrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Whether all entries are within `tol` of `rhs`.
    pub fn approx_eq(&self, rhs: &Matrix, tol: f64) -> bool {
        (self.rows, self.cols) == (rhs.rows, rhs.cols) && self.max_abs_diff(rhs) <= tol
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:8.4}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
        assert_eq!(Matrix::identity(3).trace(), 3.0);
        assert_eq!(Matrix::diag(&[1.0, 2.0])[(1, 1)], 2.0);
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn transpose_and_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        assert_eq!(a.transpose().rows(), 3);
        let s = &a + &a;
        assert_eq!(s[(0, 2)], 6.0);
        let d = &s - &a;
        assert_eq!(d, a);
        assert_eq!(a.scaled(2.0)[(0, 0)], 2.0);
    }

    #[test]
    fn power_matches_repeated_multiplication() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0]]); // Fibonacci
        let a5 = a.pow(5);
        // A^5 = [[3,5],[5,8]]
        assert_eq!(a5, Matrix::from_rows(&[&[3.0, 5.0], &[5.0, 8.0]]));
        assert_eq!(a.pow(0), Matrix::identity(2));
    }

    #[test]
    fn frobenius_dot_and_diff() {
        let a = Matrix::identity(2);
        let b = Matrix::filled(2, 2, 1.0);
        assert_eq!(a.frobenius_dot(&b), 2.0);
        assert_eq!(a.max_abs_diff(&b), 1.0);
        assert!(a.approx_eq(&a, 0.0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
