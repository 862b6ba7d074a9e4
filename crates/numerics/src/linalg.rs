//! Small dense matrices with LU and Cholesky factorizations.
//!
//! The solver's Hessians are tiny (at most `k1 + k2 + 1 ≈ 17` square), so a
//! simple row-major `Vec<f64>` representation with partial-pivoting LU is
//! both adequate and cache friendly.

// Index-based loops mirror the textbook matrix algorithms here;
// iterator rewrites would obscure the pivots.
#![allow(clippy::needless_range_loop)]

use crate::{Error, Result};

/// Row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(rows * cols, data.len());
        Matrix { rows, cols, data }
    }

    /// Build from nested rows (test convenience).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c);
            data.extend_from_slice(row);
        }
        Matrix::from_vec(r, c, data)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow a row as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Flat data access.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Set every entry to zero (reuse allocation between Newton steps).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Matrix-vector product.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        (0..self.rows).map(|i| crate::dot(self.row(i), x)).collect()
    }

    /// Transposed matrix-vector product `A^T x`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows);
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += xi * a;
            }
        }
        out
    }

    /// Matrix product `A * B`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows);
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Solve `A x = b` by LU with partial pivoting (A square). Does not
    /// modify `self`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let lu = Lu::factor(self.clone())?;
        Ok(lu.solve(b))
    }

    /// Cholesky factorization of a symmetric positive definite matrix.
    pub fn cholesky(&self) -> Result<Cholesky> {
        Cholesky::factor(self)
    }

    /// Inverse via LU (small matrices only).
    pub fn inverse(&self) -> Result<Matrix> {
        assert_eq!(self.rows, self.cols);
        let n = self.rows;
        let lu = Lu::factor(self.clone())?;
        let mut out = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = lu.solve(&e);
            e[j] = 0.0;
            for i in 0..n {
                out[(i, j)] = col[i];
            }
        }
        Ok(out)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// LU factorization with partial pivoting (Doolittle, in place).
pub struct Lu {
    lu: Matrix,
    perm: Vec<usize>,
}

impl Lu {
    /// Factor a square matrix, consuming it.
    pub fn factor(mut a: Matrix) -> Result<Self> {
        assert_eq!(a.rows, a.cols);
        let n = a.rows;
        let mut perm: Vec<usize> = (0..n).collect();
        for col in 0..n {
            // Pivot: largest magnitude in this column at or below diagonal.
            let mut pivot = col;
            let mut best = a[(col, col)].abs();
            for r in col + 1..n {
                let v = a[(r, col)].abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best == 0.0 || !best.is_finite() {
                return Err(Error::Singular { pivot: col });
            }
            if pivot != col {
                for j in 0..n {
                    let tmp = a[(col, j)];
                    a[(col, j)] = a[(pivot, j)];
                    a[(pivot, j)] = tmp;
                }
                perm.swap(col, pivot);
            }
            let d = a[(col, col)];
            for r in col + 1..n {
                let factor = a[(r, col)] / d;
                a[(r, col)] = factor;
                if factor == 0.0 {
                    continue;
                }
                for j in col + 1..n {
                    let v = a[(col, j)];
                    a[(r, j)] -= factor * v;
                }
            }
        }
        Ok(Lu { lu: a, perm })
    }

    /// Solve `A x = b` using the stored factorization.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.rows;
        assert_eq!(b.len(), n);
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in i + 1..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        x
    }
}

/// Cholesky factorization `A = L L^T` of a symmetric positive definite
/// matrix (lower triangular factor stored densely).
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factor a symmetric positive definite matrix.
    pub fn factor(a: &Matrix) -> Result<Self> {
        assert_eq!(a.rows, a.cols);
        let n = a.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(Error::NotPositiveDefinite { pivot: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Solve `A x = b` using the factorization.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows;
        assert_eq!(b.len(), n);
        let mut y = b.to_vec();
        for i in 0..n {
            let mut acc = y[i];
            for j in 0..i {
                acc -= self.l[(i, j)] * y[j];
            }
            y[i] = acc / self.l[(i, i)];
        }
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in i + 1..n {
                acc -= self.l[(j, i)] * y[j];
            }
            y[i] = acc / self.l[(i, i)];
        }
        y
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_solves_small_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn lu_detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(a.solve(&[1.0, 2.0]), Err(Error::Singular { .. })));
    }

    #[test]
    fn lu_pivots_past_a_zero_diagonal() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = Lu::factor(a).unwrap().solve(&[2.0, 3.0]);
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Matrix::from_rows(&[&[4.0, 7.0, 1.0], &[2.0, 6.0, 0.5], &[1.0, 1.0, 3.0]]);
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn cholesky_solves_spd() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let ch = a.cholesky().unwrap();
        let x = ch.solve(&[2.0, 1.0]);
        // Verify A x = b.
        let b = a.matvec(&x);
        assert!((b[0] - 2.0).abs() < 1e-12);
        assert!((b[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(matches!(
            a.cholesky().err(),
            Some(Error::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn matvec_and_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(a.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
    }
}
