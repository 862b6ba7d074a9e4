//! Singular value decomposition by the one-sided Jacobi method.
//!
//! Used by the `svd` lesion-study estimator (Section 6.3 of the paper),
//! which discretizes the density domain and solves for the least-norm
//! density matching the observed moments — i.e. applies the pseudo-inverse
//! of a short, wide moment matrix.

use numerics::linalg::Matrix;

/// Thin SVD `A = U Σ V^T` of an `m x n` matrix with `m >= n`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// `m x n` matrix with orthonormal columns.
    pub u: Matrix,
    /// Singular values, descending.
    pub sigma: Vec<f64>,
    /// `n x n` orthogonal matrix.
    pub v: Matrix,
}

/// One-sided Jacobi SVD for a tall (or square) matrix `m >= n`.
///
/// Rotates pairs of columns of `A` until they are mutually orthogonal; the
/// column norms are then the singular values. Quadratically convergent and
/// very accurate for the small systems used here.
pub fn svd_tall(a: &Matrix) -> Svd {
    let m = a.rows();
    let n = a.cols();
    assert!(m >= n, "svd_tall requires rows >= cols");
    let mut u = a.clone();
    let mut v = Matrix::identity(n);
    let max_sweeps = 60;
    let eps = 1e-15;
    for _ in 0..max_sweeps {
        let mut converged = true;
        for p in 0..n {
            for q in (p + 1)..n {
                // Gram entries for the (p, q) column pair.
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = 0.0;
                for i in 0..m {
                    let up = u[(i, p)];
                    let uq = u[(i, q)];
                    app += up * up;
                    aqq += uq * uq;
                    apq += up * uq;
                }
                if apq.abs() <= eps * (app * aqq).sqrt() {
                    continue;
                }
                converged = false;
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let up = u[(i, p)];
                    let uq = u[(i, q)];
                    u[(i, p)] = c * up - s * uq;
                    u[(i, q)] = s * up + c * uq;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = c * vp - s * vq;
                    v[(i, q)] = s * vp + c * vq;
                }
            }
        }
        if converged {
            break;
        }
    }
    // Column norms are singular values; normalize U's columns.
    let mut sigma: Vec<f64> =
        (0..n).map(|j| (0..m).map(|i| u[(i, j)] * u[(i, j)]).sum::<f64>().sqrt()).collect();
    for j in 0..n {
        if sigma[j] > 0.0 {
            for i in 0..m {
                u[(i, j)] /= sigma[j];
            }
        }
    }
    // Sort descending by singular value.
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| sigma[b].partial_cmp(&sigma[a]).unwrap());
    let mut u_sorted = Matrix::zeros(m, n);
    let mut v_sorted = Matrix::zeros(n, n);
    let mut s_sorted = vec![0.0; n];
    for (new, &old) in idx.iter().enumerate() {
        s_sorted[new] = sigma[old];
        for i in 0..m {
            u_sorted[(i, new)] = u[(i, old)];
        }
        for i in 0..n {
            v_sorted[(i, new)] = v[(i, old)];
        }
    }
    sigma = s_sorted;
    Svd { u: u_sorted, sigma, v: v_sorted }
}

/// Minimum-norm solution of the (usually underdetermined) system
/// `A x = b` for a short, wide `A` (`rows <= cols`), via the SVD of `A^T`.
///
/// Singular values below `rcond * sigma_max` are treated as zero.
pub fn least_norm_solve(a: &Matrix, b: &[f64], rcond: f64) -> Vec<f64> {
    assert!(a.rows() <= a.cols());
    assert_eq!(b.len(), a.rows());
    // A^T = U Σ V^T (tall). Then A = V Σ U^T and pinv(A) = U Σ^+ V^T.
    let svd = svd_tall(&a.transpose());
    let cutoff = rcond * svd.sigma.first().copied().unwrap_or(0.0);
    // y = Σ^+ V^T b
    let vtb = svd.v.matvec_t(b);
    let y: Vec<f64> =
        vtb.iter().zip(&svd.sigma).map(|(&c, &s)| if s > cutoff { c / s } else { 0.0 }).collect();
    // x = U y
    svd.u.matvec(&y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(svd: &Svd) -> Matrix {
        let m = svd.u.rows();
        let n = svd.v.rows();
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..svd.sigma.len() {
                    acc += svd.u[(i, k)] * svd.sigma[k] * svd.v[(j, k)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    #[test]
    fn svd_reconstructs_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let svd = svd_tall(&a);
        let r = reconstruct(&svd);
        for i in 0..3 {
            for j in 0..2 {
                assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
        // Singular values descending and positive.
        assert!(svd.sigma[0] >= svd.sigma[1]);
        assert!(svd.sigma[1] > 0.0);
    }

    #[test]
    fn svd_known_singular_values() {
        // diag(3, 1) padded: singular values exactly 3 and 1.
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0], &[0.0, 0.0]]);
        let svd = svd_tall(&a);
        assert!((svd.sigma[0] - 3.0).abs() < 1e-12);
        assert!((svd.sigma[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn least_norm_satisfies_constraints() {
        // One equation, three unknowns: x0 + x1 + x2 = 3.
        let a = Matrix::from_rows(&[&[1.0, 1.0, 1.0]]);
        let x = least_norm_solve(&a, &[3.0], 1e-12);
        let sum: f64 = x.iter().sum();
        assert!((sum - 3.0).abs() < 1e-10);
        // Least-norm solution is the uniform one.
        for &xi in &x {
            assert!((xi - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn least_norm_two_constraints() {
        let a = Matrix::from_rows(&[&[1.0, 1.0, 1.0, 1.0], &[1.0, 2.0, 3.0, 4.0]]);
        let b = [1.0, 2.5];
        let x = least_norm_solve(&a, &b, 1e-12);
        let ax = a.matvec(&x);
        assert!((ax[0] - b[0]).abs() < 1e-10);
        assert!((ax[1] - b[1]).abs() < 1e-10);
    }
}
