//! Exact rational arithmetic over `i128` and exact Gaussian elimination.
//!
//! Theorems 3.2 and 4.6 characterise WL-/path-indistinguishability via the
//! existence of *rational* solutions to the linear systems (3.2)–(3.3).
//! Because those systems have integer coefficients, rational feasibility
//! coincides with real feasibility — so exact elimination here decides both,
//! with none of the tolerance headaches of floating point.
//!
//! Arithmetic is overflow-checked: operations panic with a clear message
//! rather than silently wrapping, which is the correct failure mode for a
//! proof-checking tool.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number `num / den` with `den > 0`, always reduced.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Constructs `num / den` in lowest terms.
    ///
    /// # Panics
    /// If `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "zero denominator");
        let g = gcd(num, den).max(1);
        let sign = if den < 0 { -1 } else { 1 };
        Rat {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// The integer `n` as a rational.
    pub fn int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Whether this is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// On zero.
    fn recip(&self) -> Rat {
        assert!(self.num != 0, "division by zero rational");
        Rat::new(self.den, self.num)
    }

    fn checked(num: Option<i128>, den: Option<i128>) -> Rat {
        let num = num.expect("rational arithmetic overflow (numerator)");
        let den = den.expect("rational arithmetic overflow (denominator)");
        Rat::new(num, den)
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        // a/b + c/d = (a d + c b) / (b d), reducing by g = gcd(b, d) first.
        let g = gcd(self.den, rhs.den).max(1);
        let lhs_den = self.den / g;
        let rhs_den = rhs.den / g;
        Rat::checked(
            self.num
                .checked_mul(rhs_den)
                .and_then(|x| rhs.num.checked_mul(lhs_den).and_then(|y| x.checked_add(y))),
            lhs_den.checked_mul(rhs.den),
        )
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        // Cross-reduce before multiplying to delay overflow.
        let g1 = gcd(self.num, rhs.den).max(1);
        let g2 = gcd(rhs.num, self.den).max(1);
        Rat::checked(
            (self.num / g1).checked_mul(rhs.num / g2),
            (self.den / g2).checked_mul(rhs.den / g1),
        )
    }
}

impl Div for Rat {
    type Output = Rat;
    #[allow(clippy::suspicious_arithmetic_impl)] // division IS multiplication by the reciprocal
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // a/b vs c/d (b, d > 0): compare a d vs c b.
        let lhs = self
            .num
            .checked_mul(other.den)
            .expect("overflow in comparison");
        let rhs = other
            .num
            .checked_mul(self.den)
            .expect("overflow in comparison");
        lhs.cmp(&rhs)
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A dense matrix of rationals.
#[derive(Clone, PartialEq, Eq)]
pub struct RatMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Rat>,
}

impl RatMatrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        RatMatrix {
            rows,
            cols,
            data: vec![Rat::ZERO; rows * cols],
        }
    }

    /// From integer rows.
    #[cfg(test)]
    fn from_int_rows(rows: &[&[i128]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend(row.iter().map(|&x| Rat::int(x)));
        }
        RatMatrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry access.
    pub fn get(&self, i: usize, j: usize) -> Rat {
        self.data[i * self.cols + j]
    }

    /// Entry mutation.
    pub fn set(&mut self, i: usize, j: usize, v: Rat) {
        self.data[i * self.cols + j] = v;
    }

    /// Matrix product.
    ///
    /// # Panics
    /// On shape mismatch.
    pub fn matmul(&self, rhs: &RatMatrix) -> RatMatrix {
        assert_eq!(self.cols, rhs.rows, "shape mismatch");
        let mut out = RatMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a.is_zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    let cur = out.get(i, j);
                    out.set(i, j, cur + a * rhs.get(k, j));
                }
            }
        }
        out
    }

    /// Reduced row echelon form; returns (rref, pivot columns).
    fn rref(&self) -> (RatMatrix, Vec<usize>) {
        let mut m = self.clone();
        let mut pivots = Vec::new();
        let mut row = 0;
        for col in 0..m.cols {
            if row >= m.rows {
                break;
            }
            // Find a pivot.
            let Some(piv) = (row..m.rows).find(|&i| !m.get(i, col).is_zero()) else {
                continue;
            };
            // Swap rows.
            if piv != row {
                for j in 0..m.cols {
                    let a = m.get(row, j);
                    let b = m.get(piv, j);
                    m.set(row, j, b);
                    m.set(piv, j, a);
                }
            }
            // Scale pivot row to leading 1.
            let inv = m.get(row, col).recip();
            for j in col..m.cols {
                let v = m.get(row, j) * inv;
                m.set(row, j, v);
            }
            // Eliminate the column everywhere else.
            for i in 0..m.rows {
                if i == row || m.get(i, col).is_zero() {
                    continue;
                }
                let f = m.get(i, col);
                for j in col..m.cols {
                    let v = m.get(i, j) - f * m.get(row, j);
                    m.set(i, j, v);
                }
            }
            pivots.push(col);
            row += 1;
        }
        (m, pivots)
    }

    /// Exact rank.
    pub fn rank(&self) -> usize {
        self.rref().1.len()
    }

    /// Exact determinant by fraction-free-ish elimination over `Rat`.
    ///
    /// # Panics
    /// If not square.
    pub fn determinant(&self) -> Rat {
        assert_eq!(self.rows, self.cols, "determinant of non-square matrix");
        let mut m = self.clone();
        let n = m.rows;
        let mut det = Rat::ONE;
        for col in 0..n {
            let Some(piv) = (col..n).find(|&i| !m.get(i, col).is_zero()) else {
                return Rat::ZERO;
            };
            if piv != col {
                det = -det;
                for j in 0..n {
                    let a = m.get(col, j);
                    let b = m.get(piv, j);
                    m.set(col, j, b);
                    m.set(piv, j, a);
                }
            }
            let p = m.get(col, col);
            det = det * p;
            let inv = p.recip();
            for i in (col + 1)..n {
                let f = m.get(i, col) * inv;
                if f.is_zero() {
                    continue;
                }
                for j in col..n {
                    let v = m.get(i, j) - f * m.get(col, j);
                    m.set(i, j, v);
                }
            }
        }
        det
    }

    /// Decides whether `A x = b` has a rational solution; returns one if so.
    pub fn solve(&self, b: &[Rat]) -> Option<Vec<Rat>> {
        assert_eq!(b.len(), self.rows, "rhs length mismatch");
        // Augment and reduce.
        let mut aug = RatMatrix::zeros(self.rows, self.cols + 1);
        for i in 0..self.rows {
            for j in 0..self.cols {
                aug.set(i, j, self.get(i, j));
            }
            aug.set(i, self.cols, b[i]);
        }
        let (r, pivots) = aug.rref();
        // Infeasible iff some pivot lies in the augmented column.
        if pivots.contains(&self.cols) {
            return None;
        }
        let mut x = vec![Rat::ZERO; self.cols];
        for (row, &col) in pivots.iter().enumerate() {
            x[col] = r.get(row, self.cols);
        }
        Some(x)
    }
}

impl fmt::Debug for RatMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RatMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.get(i, j))?;
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
    fn rat_arithmetic() {
        let a = Rat::new(1, 2);
        let b = Rat::new(1, 3);
        assert_eq!(a + b, Rat::new(5, 6));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 6));
        assert_eq!(a / b, Rat::new(3, 2));
        assert_eq!(-a, Rat::new(-1, 2));
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(1, -2), Rat::new(-1, 2));
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert_eq!(format!("{}", Rat::new(-3, 6)), "-1/2");
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn determinant_known() {
        let m = RatMatrix::from_int_rows(&[&[2, 1], &[1, 3]]);
        assert_eq!(m.determinant(), Rat::int(5));
        let s = RatMatrix::from_int_rows(&[&[1, 2], &[2, 4]]);
        assert_eq!(s.determinant(), Rat::ZERO);
        // Triangular with diagonal 1,2,3.
        let t = RatMatrix::from_int_rows(&[&[1, 5, 7], &[0, 2, 9], &[0, 0, 3]]);
        assert_eq!(t.determinant(), Rat::int(6));
    }

    #[test]
    fn rank_and_rref() {
        let m = RatMatrix::from_int_rows(&[&[1, 2, 3], &[2, 4, 6], &[1, 0, 1]]);
        assert_eq!(m.rank(), 2);
        assert_eq!(RatMatrix::from_int_rows(&[&[0, 0], &[0, 0]]).rank(), 0);
    }

    #[test]
    fn solve_feasible() {
        let a = RatMatrix::from_int_rows(&[&[2, 1], &[1, 3]]);
        let x = a.solve(&[Rat::int(5), Rat::int(10)]).unwrap();
        assert_eq!(x, vec![Rat::int(1), Rat::int(3)]);
    }

    #[test]
    fn solve_infeasible_and_underdetermined() {
        // x + y = 1, x + y = 2: infeasible.
        let a = RatMatrix::from_int_rows(&[&[1, 1], &[1, 1]]);
        assert!(a.solve(&[Rat::int(1), Rat::int(2)]).is_none());
        // x + y = 2 alone: feasible (particular solution with free var 0).
        let u = RatMatrix::from_int_rows(&[&[1, 1]]);
        let x = u.solve(&[Rat::int(2)]).unwrap();
        assert_eq!(x[0] + x[1], Rat::int(2));
    }

    #[test]
    fn matmul_exact() {
        let a = RatMatrix::from_int_rows(&[&[1, 2], &[3, 4]]);
        let b = RatMatrix::from_int_rows(&[&[5, 6], &[7, 8]]);
        let c = a.matmul(&b);
        assert_eq!(c.get(0, 0), Rat::int(19));
        assert_eq!(c.get(1, 1), Rat::int(50));
    }

    #[test]
    fn cross_reduction_delays_overflow() {
        // (2^80 / 3) * (3 / 2^80) = 1 must not overflow.
        let big = 1i128 << 80;
        let a = Rat::new(big, 3);
        let b = Rat::new(3, big);
        assert_eq!(a * b, Rat::ONE);
    }
}
