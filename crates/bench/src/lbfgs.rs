//! Limited-memory BFGS with Armijo backtracking.
//!
//! The paper's lesion study (Section 6.3) compares the optimized Newton
//! solver against a first-order L-BFGS solver (the reference implementation
//! used a Java port of `liblbfgs`). We implement the standard two-loop
//! recursion with a small history and a backtracking line search.

use numerics::{dot, norm_inf, Error, Result};

/// An objective providing value and gradient only.
pub(crate) trait GradObjective {
    /// Problem dimension.
    fn dim(&self) -> usize;
    /// Evaluate value and gradient at `theta`.
    fn eval(&mut self, theta: &[f64], grad: &mut [f64]) -> f64;
}

/// Configuration for [`lbfgs_minimize`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct LbfgsOptions {
    /// History size (number of (s, y) pairs).
    pub(crate) memory: usize,
    /// Stop when the gradient infinity-norm drops below this.
    pub(crate) grad_tol: f64,
    /// Maximum iterations.
    pub(crate) max_iter: usize,
    /// Armijo constant.
    pub(crate) armijo_c: f64,
    /// Line-search shrink factor.
    pub(crate) backtrack: f64,
    /// Max line-search steps.
    pub(crate) max_line_search: usize,
}

impl Default for LbfgsOptions {
    fn default() -> Self {
        LbfgsOptions {
            memory: 10,
            grad_tol: 1e-9,
            max_iter: 500,
            armijo_c: 1e-4,
            backtrack: 0.5,
            max_line_search: 60,
        }
    }
}

/// Minimize a smooth objective with L-BFGS, returning the minimizer.
pub(crate) fn lbfgs_minimize<O: GradObjective>(
    obj: &mut O,
    theta0: &[f64],
    opt: LbfgsOptions,
) -> Result<Vec<f64>> {
    let n = obj.dim();
    let mut theta = theta0.to_vec();
    let mut grad = vec![0.0; n];
    let mut value = obj.eval(&theta, &mut grad);
    if !value.is_finite() {
        return Err(Error::InvalidArgument("objective not finite at start"));
    }
    let mut s_hist: Vec<Vec<f64>> = Vec::new();
    let mut y_hist: Vec<Vec<f64>> = Vec::new();
    let mut rho_hist: Vec<f64> = Vec::new();
    for iter in 0..opt.max_iter {
        if norm_inf(&grad) <= opt.grad_tol {
            return Ok(theta);
        }
        // Two-loop recursion to compute H~ * (-g).
        let mut q: Vec<f64> = grad.iter().map(|g| -g).collect();
        let m = s_hist.len();
        let mut alpha = vec![0.0; m];
        for i in (0..m).rev() {
            alpha[i] = rho_hist[i] * dot(&s_hist[i], &q);
            for (qj, yj) in q.iter_mut().zip(&y_hist[i]) {
                *qj -= alpha[i] * yj;
            }
        }
        // Initial Hessian scaling gamma = s'y / y'y from the latest pair.
        if let (Some(s), Some(y)) = (s_hist.last(), y_hist.last()) {
            let gamma = dot(s, y) / dot(y, y).max(1e-300);
            for qj in q.iter_mut() {
                *qj *= gamma;
            }
        }
        for i in 0..m {
            let beta = rho_hist[i] * dot(&y_hist[i], &q);
            for (qj, sj) in q.iter_mut().zip(&s_hist[i]) {
                *qj += (alpha[i] - beta) * sj;
            }
        }
        let dir = q;
        let slope = dot(&grad, &dir);
        let (dir, slope) = if slope < 0.0 {
            (dir, slope)
        } else {
            let g2 = dot(&grad, &grad);
            (grad.iter().map(|g| -g).collect(), -g2)
        };
        // Backtracking line search.
        let mut t = 1.0;
        let mut accepted = false;
        let old_theta = theta.clone();
        let old_grad = grad.clone();
        for _ in 0..opt.max_line_search {
            for ((th, &ot), &d) in theta.iter_mut().zip(&old_theta).zip(&dir) {
                *th = ot + t * d;
            }
            let new_value = obj.eval(&theta, &mut grad);
            if new_value.is_finite() && new_value <= value + opt.armijo_c * t * slope {
                value = new_value;
                accepted = true;
                break;
            }
            t *= opt.backtrack;
        }
        if !accepted {
            theta.copy_from_slice(&old_theta);
            let gnorm = norm_inf(&old_grad);
            if gnorm <= opt.grad_tol.max(1e-6) {
                return Ok(theta);
            }
            return Err(Error::NoConvergence { iterations: iter + 1, residual: gnorm });
        }
        // Update history.
        let s: Vec<f64> = theta.iter().zip(&old_theta).map(|(a, b)| a - b).collect();
        let y: Vec<f64> = grad.iter().zip(&old_grad).map(|(a, b)| a - b).collect();
        let sy = dot(&s, &y);
        if sy > 1e-12 * norm2(&s) * norm2(&y) {
            if s_hist.len() == opt.memory {
                s_hist.remove(0);
                y_hist.remove(0);
                rho_hist.remove(0);
            }
            rho_hist.push(1.0 / sy);
            s_hist.push(s);
            y_hist.push(y);
        }
    }
    Err(Error::NoConvergence { iterations: opt.max_iter, residual: norm_inf(&grad) })
}

/// Euclidean norm of a slice.
fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Rosenbrock;
    impl GradObjective for Rosenbrock {
        fn dim(&self) -> usize {
            2
        }
        fn eval(&mut self, t: &[f64], g: &mut [f64]) -> f64 {
            let (x, y) = (t[0], t[1]);
            g[0] = -2.0 * (1.0 - x) - 400.0 * x * (y - x * x);
            g[1] = 200.0 * (y - x * x);
            (1.0 - x).powi(2) + 100.0 * (y - x * x).powi(2)
        }
    }

    #[test]
    fn lbfgs_rosenbrock() {
        let theta = lbfgs_minimize(
            &mut Rosenbrock,
            &[-1.2, 1.0],
            LbfgsOptions { max_iter: 2000, grad_tol: 1e-8, ..Default::default() },
        )
        .unwrap();
        assert!((theta[0] - 1.0).abs() < 1e-5);
        assert!((theta[1] - 1.0).abs() < 1e-5);
    }

    struct Quadratic10;
    impl GradObjective for Quadratic10 {
        fn dim(&self) -> usize {
            10
        }
        fn eval(&mut self, t: &[f64], g: &mut [f64]) -> f64 {
            let mut v = 0.0;
            for i in 0..10 {
                let w = (i + 1) as f64;
                g[i] = 2.0 * w * (t[i] - 1.0);
                v += w * (t[i] - 1.0).powi(2);
            }
            v
        }
    }

    #[test]
    fn lbfgs_quadratic_high_dim() {
        let theta = lbfgs_minimize(&mut Quadratic10, &[0.0; 10], LbfgsOptions::default()).unwrap();
        for &x in &theta {
            assert!((x - 1.0).abs() < 1e-6);
        }
        assert!(Quadratic10.eval(&theta, &mut [0.0; 10]) < 1e-10);
    }

    #[test]
    fn lbfgs_convex_exponential() {
        struct E;
        impl GradObjective for E {
            fn dim(&self) -> usize {
                1
            }
            fn eval(&mut self, t: &[f64], g: &mut [f64]) -> f64 {
                g[0] = t[0].exp() - 1.0;
                t[0].exp() - t[0]
            }
        }
        let theta = lbfgs_minimize(&mut E, &[3.0], LbfgsOptions::default()).unwrap();
        assert!(theta[0].abs() < 1e-7);
    }
}
