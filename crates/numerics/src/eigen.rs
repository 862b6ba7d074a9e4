//! Symmetric eigenvalues by the cyclic Jacobi method, plus
//! condition-number estimation.
//!
//! The paper's solver chooses how many standard/log moments to use
//! (`k1`, `k2`) by thresholding the condition number of the Newton Hessian
//! (Section 4.3.1, `κ_max = 10^4` in the evaluation). The Hessians involved
//! are tiny symmetric matrices, for which cyclic Jacobi is simple, robust,
//! and accurate.

use crate::linalg::Matrix;

/// Eigenvalues of a symmetric matrix, in ascending order, by cyclic
/// Jacobi rotations.
///
/// The rotations read both triangles of `a` (the pivot `a[(p, q)]` comes
/// from the upper one, the convergence test from the lower), so `a` must
/// be stored symmetric. Converges quadratically; for the at most 35 x 35
/// matrices used here a handful of sweeps suffices.
pub fn sym_eigenvalues(a: &Matrix) -> Vec<f64> {
    let mut values = jacobi_diagonal(a);
    values.sort_by(|x, y| x.total_cmp(y));
    values
}

/// The diagonal that cyclic Jacobi rotations leave in a copy of `a`, in
/// row order. Eigenvectors are not accumulated: no caller reads them.
fn jacobi_diagonal(a: &Matrix) -> Vec<f64> {
    let n = a.rows();
    assert_eq!(n, a.cols());
    let mut m = a.data().to_vec();
    let max_sweeps = 64;
    for _ in 0..max_sweeps {
        // Off-diagonal Frobenius norm.
        let mut off = 0.0;
        for i in 0..n {
            for j in 0..i {
                off += m[i * n + j] * m[i * n + j];
            }
        }
        let max_abs = m.iter().fold(0.0f64, |acc, &x| acc.max(x.abs()));
        if off.sqrt() < 1e-14 * (1.0 + max_abs) {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[p * n + q];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                let theta = 0.5 * (aqq - app) / apq;
                // Stable tangent of the rotation angle.
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply rotation J(p, q, theta) on both sides: m = J^T m J.
                for row in m.chunks_exact_mut(n) {
                    let (mkp, mkq) = (row[p], row[q]);
                    row[p] = c * mkp - s * mkq;
                    row[q] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let (mpk, mqk) = (m[p * n + k], m[q * n + k]);
                    m[p * n + k] = c * mpk - s * mqk;
                    m[q * n + k] = s * mpk + c * mqk;
                }
            }
        }
    }
    (0..n).map(|i| m[i * n + i]).collect()
}

/// Spectral (2-norm) condition number of a symmetric matrix:
/// `max |λ| / min |λ|`. Returns `f64::INFINITY` for singular matrices.
pub fn condition_number_sym(a: &Matrix) -> f64 {
    // `max` and `min` are exact and order-free, so the eigenvalues need
    // no sorting here.
    let values = jacobi_diagonal(a);
    let max = values.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
    let min = values.iter().fold(f64::INFINITY, |m, &x| m.min(x.abs()));
    if min == 0.0 || !min.is_finite() {
        f64::INFINITY
    } else {
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eigen_diagonal() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -1.0]]);
        let e = sym_eigenvalues(&a);
        assert!((e[0] + 1.0).abs() < 1e-12);
        assert!((e[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn eigen_2x2_known() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = sym_eigenvalues(&a);
        assert!((e[0] - 1.0).abs() < 1e-12);
        assert!((e[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn condition_number_basic() {
        let a = Matrix::from_rows(&[&[100.0, 0.0], &[0.0, 1.0]]);
        assert!((condition_number_sym(&a) - 100.0).abs() < 1e-9);
        let singular = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(condition_number_sym(&singular) > 1e12);
    }

    #[test]
    fn hilbert_matrix_is_ill_conditioned() {
        // Classic ill-conditioning example mirroring the monomial-basis
        // Hessian problem the paper describes.
        let n = 6;
        let mut h = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                h[(i, j)] = 1.0 / ((i + j + 1) as f64);
            }
        }
        let kappa = condition_number_sym(&h);
        assert!(kappa > 1e6, "kappa = {kappa}");
    }
}
