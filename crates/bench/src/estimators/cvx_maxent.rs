//! The `cvx-maxent` lesion estimator: discretize the domain and solve the
//! maximum entropy problem with a *generic* dual Newton method on the grid
//! (Boyd & Vandenberghe, Chapter 7) — no Chebyshev-approximation tricks,
//! no closed-form integrals.
//!
//! Accuracy matches the optimized solver (same objective, discretized),
//! but every iteration costs `O(grid × k²)` exponentials, making it two to
//! three orders of magnitude slower — the "maximum entropy is accurate,
//! generic solvers are slow" row pair of Figure 10.

use super::{quantiles_from_masses, scaled_setup, uniform_grid, MomentSource, QuantileEstimator};
use moments_sketch::stats::cheb_moments_from_mono;
use moments_sketch::{Error, MomentsSketch, Result};
use numerics::chebyshev;
use numerics::linalg::Matrix;
use numerics::optimize::{newton_minimize, NewtonObjective, NewtonOptions};

/// Discretized maximum entropy via dual Newton on a uniform grid.
#[derive(Debug, Clone, Copy)]
pub struct CvxMaxEntEstimator {
    /// Which moment set to use.
    pub source: MomentSource,
    /// Discretization points (the paper uses 1000).
    pub grid: usize,
}

impl Default for CvxMaxEntEstimator {
    fn default() -> Self {
        CvxMaxEntEstimator { source: MomentSource::Standard, grid: 1000 }
    }
}

/// Dual objective: `L(θ) = Δ Σ_i exp(Σ_j θ_j g_j(u_i)) - θ·μ̃` with
/// Chebyshev constraint functions `g_j = T_j` (the basis change only
/// reparametrizes the same density family; it keeps the generic solver
/// from failing for reasons unrelated to its cost).
struct GridDual {
    /// `g[j][i] = T_j(u_i)`.
    g: Vec<Vec<f64>>,
    mu: Vec<f64>,
    du: f64,
}

impl NewtonObjective for GridDual {
    fn dim(&self) -> usize {
        self.mu.len()
    }

    fn eval(&mut self, theta: &[f64], grad: &mut [f64], hess: &mut Matrix) -> f64 {
        let dim = self.mu.len();
        let n = self.g[0].len();
        grad.iter_mut().for_each(|x| *x = 0.0);
        hess.fill_zero();
        let mut total = 0.0;
        for i in 0..n {
            let mut s = 0.0;
            for (t, gj) in theta.iter().zip(&self.g) {
                s += t * gj[i];
            }
            if s > 500.0 {
                return f64::INFINITY;
            }
            let f = s.exp() * self.du;
            total += f;
            for a in 0..dim {
                let ga = self.g[a][i];
                grad[a] += ga * f;
                for b in a..dim {
                    hess[(a, b)] += ga * self.g[b][i] * f;
                }
            }
        }
        for a in 0..dim {
            grad[a] -= self.mu[a];
            for b in 0..a {
                hess[(a, b)] = hess[(b, a)];
            }
        }
        total - numerics::dot(theta, &self.mu)
    }
}

impl QuantileEstimator for CvxMaxEntEstimator {
    fn name(&self) -> &'static str {
        "cvx-maxent"
    }

    fn estimate(&self, sketch: &MomentsSketch, phis: &[f64]) -> Result<Vec<f64>> {
        let (dom, mono, is_log) = scaled_setup(sketch, self.source)?;
        let mu = cheb_moments_from_mono(&mono);
        let n = self.grid.max(16);
        let grid = uniform_grid(n);
        let dim = mu.len();
        let g: Vec<Vec<f64>> =
            (0..dim).map(|j| grid.iter().map(|&u| chebyshev::t_eval(j, u)).collect()).collect();
        let mut obj = GridDual { g, mu, du: 2.0 / n as f64 };
        let mut theta0 = vec![0.0; dim];
        theta0[0] = (0.5f64).ln();
        let res = newton_minimize(&mut obj, &theta0, NewtonOptions::default())
            .map_err(|e| Error::SolverFailed { reason: format!("cvx-maxent: {e}") })?;
        // Recover the masses at the grid points.
        let masses: Vec<f64> = (0..n)
            .map(|i| {
                let mut s = 0.0;
                for (t, gj) in res.theta.iter().zip(&obj.g) {
                    s += t * gj[i];
                }
                s.exp() * obj.du
            })
            .collect();
        quantiles_from_masses(&grid, &masses, phis, &dom, is_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::test_support::*;
    use crate::estimators::OptEstimator;

    #[test]
    fn matches_optimized_solver_accuracy() {
        let data = normal_grid(30_000);
        let s = MomentsSketch::from_data(10, &data);
        let ps = eval_phis();
        let cvx = CvxMaxEntEstimator::default().estimate(&s, &ps).unwrap();
        let opt = OptEstimator::default().estimate(&s, &ps).unwrap();
        let e_cvx = avg_quantile_error(&data, &cvx, &ps);
        let e_opt = avg_quantile_error(&data, &opt, &ps);
        assert!(e_cvx < 0.01, "cvx error {e_cvx}");
        assert!((e_cvx - e_opt).abs() < 0.01, "{e_cvx} vs {e_opt}");
    }

    #[test]
    fn uniform_data_gives_uniform_density() {
        let data: Vec<f64> = (0..20_000).map(|i| i as f64 / 19_999.0).collect();
        let s = MomentsSketch::from_data(8, &data);
        let ps = eval_phis();
        let qs = CvxMaxEntEstimator { grid: 400, ..Default::default() }.estimate(&s, &ps).unwrap();
        let err = avg_quantile_error(&data, &qs, &ps);
        assert!(err < 0.01, "err {err}");
    }

    #[test]
    fn log_source_on_heavy_tail() {
        let data = lognormal_grid(30_000, 1.8);
        let s = MomentsSketch::from_data(10, &data);
        let ps = eval_phis();
        let qs =
            CvxMaxEntEstimator { source: MomentSource::Log, grid: 500 }.estimate(&s, &ps).unwrap();
        let err = avg_quantile_error(&data, &qs, &ps);
        assert!(err < 0.01, "err {err}");
    }
}
