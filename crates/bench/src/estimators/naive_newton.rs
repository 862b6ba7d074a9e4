//! The `newton` lesion estimator: the paper's continuous maximum-entropy
//! objective, but with every gradient/Hessian entry evaluated by adaptive
//! Romberg quadrature instead of the Chebyshev-approximation pipeline of
//! Section 4.3.
//!
//! Identical solution to the optimized solver (same convex problem), but
//! each Newton iteration performs `O(k²)` independent numerical integrals
//! with hundreds of `exp` evaluations each — the paper measures the
//! optimized pipeline ~20× faster, and Figure 10 shows `newton` an order
//! of magnitude slower than `opt`.

use super::{quantiles_from_masses, QuantileEstimator};
use crate::integrate::romberg;
use moments_sketch::solver::basis::{cheb_moments, Basis, PrimaryDomain};
use moments_sketch::{Error, MomentsSketch, Result, SolverConfig};
use numerics::linalg::Matrix;
use numerics::optimize::{newton_minimize, NewtonObjective, NewtonOptions};

/// Naive-integration Newton solver over the continuous objective.
#[derive(Debug, Clone, Copy)]
pub struct NaiveNewtonEstimator {
    /// Standard moments to use.
    pub k1: usize,
    /// Log moments to use.
    pub k2: usize,
    /// Romberg tolerance per integral.
    pub tol: f64,
}

impl Default for NaiveNewtonEstimator {
    fn default() -> Self {
        NaiveNewtonEstimator { k1: 10, k2: 0, tol: 1e-9 }
    }
}

struct RombergObjective<'a> {
    basis: &'a Basis,
    tol: f64,
}

impl RombergObjective<'_> {
    /// Every basis function at `u`, evaluated once per quadrature point.
    fn row(&self, u: f64) -> Vec<f64> {
        let mut row = vec![0.0; self.basis.dim()];
        self.basis.eval_row(u, &mut row);
        row
    }

    fn density(&self, theta: &[f64], u: f64) -> f64 {
        density_of_row(theta, &self.row(u))
    }

    fn integral<F: FnMut(f64) -> f64>(&self, f: F) -> f64 {
        romberg(f, -1.0, 1.0, self.tol, 22).unwrap_or(f64::INFINITY)
    }
}

/// `exp(θ · row)`, saturating to infinity past the solver's exponent cap.
fn density_of_row(theta: &[f64], row: &[f64]) -> f64 {
    let mut s = 0.0;
    for (t, v) in theta.iter().zip(row) {
        s += t * v;
    }
    if s > 500.0 {
        f64::INFINITY
    } else {
        s.exp()
    }
}

impl NewtonObjective for RombergObjective<'_> {
    fn dim(&self) -> usize {
        self.basis.dim()
    }

    fn eval(&mut self, theta: &[f64], grad: &mut [f64], hess: &mut Matrix) -> f64 {
        let dim = self.basis.dim();
        // One numerical integral per value / gradient / Hessian entry —
        // the naive O(k²) integration cost the paper optimizes away.
        let total = self.integral(|u| self.density(theta, u));
        if !total.is_finite() {
            return f64::INFINITY;
        }
        #[allow(clippy::needless_range_loop, reason = "index doubles as the moment order")]
        for i in 0..dim {
            grad[i] = self.integral(|u| {
                let row = self.row(u);
                row[i] * density_of_row(theta, &row)
            }) - self.basis.mu[i];
        }
        for i in 0..dim {
            for j in i..dim {
                let v = self.integral(|u| {
                    let row = self.row(u);
                    row[i] * row[j] * density_of_row(theta, &row)
                });
                hess[(i, j)] = v;
                hess[(j, i)] = v;
            }
        }
        total - numerics::dot(theta, &self.basis.mu)
    }
}

impl QuantileEstimator for NaiveNewtonEstimator {
    fn name(&self) -> &'static str {
        "newton"
    }

    fn estimate(&self, sketch: &MomentsSketch, phis: &[f64]) -> Result<Vec<f64>> {
        if sketch.is_empty() {
            return Err(Error::EmptySketch);
        }
        if sketch.min() >= sketch.max() {
            return Ok(vec![sketch.min(); phis.len()]);
        }
        let basis = Basis::new(cheb_moments(sketch, self.k2 > 0)?, self.k1, self.k2);
        let mut obj = RombergObjective { basis: &basis, tol: self.tol };
        let mut theta0 = vec![0.0; basis.dim()];
        theta0[0] = (0.5f64).ln();
        let cfg = SolverConfig::default();
        let res = newton_minimize(
            &mut obj,
            &theta0,
            NewtonOptions {
                grad_tol: cfg.grad_tol.max(1e-9),
                max_iter: cfg.max_iter,
                ..Default::default()
            },
        )
        .map_err(|e| Error::SolverFailed { reason: format!("naive newton: {e}") })?;
        // Quantiles from a fine grid of the solved density.
        let n = 2048;
        let grid = super::uniform_grid(n);
        let du = 2.0 / n as f64;
        let masses: Vec<f64> = grid.iter().map(|&u| obj.density(&res.theta, u) * du).collect();
        let dom = match basis.primary {
            PrimaryDomain::Standard => basis.std_dom,
            PrimaryDomain::Log => *basis.log_dom.as_ref().unwrap(),
        };
        let is_log = basis.primary == PrimaryDomain::Log;
        quantiles_from_masses(&grid, &masses, phis, &dom, is_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::test_support::*;
    use crate::estimators::OptEstimator;

    #[test]
    fn agrees_with_optimized_solver() {
        let data = normal_grid(20_000);
        let s = MomentsSketch::from_data(8, &data);
        let ps = eval_phis();
        let naive = NaiveNewtonEstimator { k1: 8, k2: 0, tol: 1e-9 }.estimate(&s, &ps).unwrap();
        let opt = OptEstimator {
            config: SolverConfig { k1: Some(8), k2: Some(0), ..Default::default() },
        }
        .estimate(&s, &ps)
        .unwrap();
        for (a, b) in naive.iter().zip(&opt) {
            assert!((a - b).abs() < 0.02, "{a} vs {b}");
        }
    }

    #[test]
    fn log_moment_configuration() {
        let data = lognormal_grid(20_000, 1.5);
        let s = MomentsSketch::from_data(8, &data);
        let ps = eval_phis();
        let qs = NaiveNewtonEstimator { k1: 0, k2: 8, tol: 1e-8 }.estimate(&s, &ps).unwrap();
        let err = avg_quantile_error(&data, &qs, &ps);
        assert!(err < 0.01, "err {err}");
    }

    #[test]
    fn point_mass_short_circuits() {
        let s = MomentsSketch::from_data(4, &[3.0, 3.0]);
        let qs = NaiveNewtonEstimator::default().estimate(&s, &[0.5]).unwrap();
        assert_eq!(qs[0], 3.0);
    }
}
