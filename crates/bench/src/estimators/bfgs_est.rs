//! The `bfgs` lesion estimator: first-order L-BFGS on the continuous
//! maximum-entropy objective.
//!
//! Uses the same Chebyshev-approximation machinery as the optimized solver
//! to evaluate values and gradients, but no Hessian — per Section 4.3 of
//! the paper, the Hessian is nearly free once the gradient integrations
//! are done, so the second-order method needs far fewer (comparably
//! priced) iterations and wins overall. This estimator quantifies that
//! gap.

use super::QuantileEstimator;
use crate::lbfgs::{lbfgs_minimize, GradObjective, LbfgsOptions};
use moments_sketch::solver::basis::{cheb_moments, Basis};
use moments_sketch::solver::maxent::MaxEntObjective;
use moments_sketch::{Error, MaxEntSolution, MomentsSketch, Result};

/// L-BFGS on the continuous max-ent objective.
#[derive(Debug, Clone, Copy)]
pub struct BfgsEstimator {
    /// Standard moments to use.
    pub k1: usize,
    /// Log moments to use.
    pub k2: usize,
}

impl Default for BfgsEstimator {
    fn default() -> Self {
        BfgsEstimator { k1: 10, k2: 0 }
    }
}

struct FirstOrder {
    inner: MaxEntObjective,
}

impl GradObjective for FirstOrder {
    fn dim(&self) -> usize {
        numerics::optimize::NewtonObjective::dim(&self.inner)
    }
    fn eval(&mut self, theta: &[f64], grad: &mut [f64]) -> f64 {
        self.inner.eval_value_grad(theta, grad)
    }
}

impl QuantileEstimator for BfgsEstimator {
    fn name(&self) -> &'static str {
        "bfgs"
    }

    fn estimate(&self, sketch: &MomentsSketch, phis: &[f64]) -> Result<Vec<f64>> {
        if sketch.is_empty() {
            return Err(Error::EmptySketch);
        }
        if sketch.min() >= sketch.max() {
            return Ok(vec![sketch.min(); phis.len()]);
        }
        let basis = Basis::new(cheb_moments(sketch, self.k2 > 0)?, self.k1, self.k2);
        let n_nodes = if basis.k1 > 0 && basis.k2 > 0 { 128 } else { 64 };
        let mut obj = FirstOrder { inner: MaxEntObjective::new(&basis, n_nodes) };
        let mut theta0 = vec![0.0; basis.dim()];
        theta0[0] = (0.5f64).ln();
        let theta = lbfgs_minimize(
            &mut obj,
            &theta0,
            LbfgsOptions {
                // L-BFGS struggles to polish the last digit on stiff
                // log-basis problems; 1e-7 moment residuals are far below
                // quantile-level significance.
                grad_tol: 1e-7,
                max_iter: 2000,
                ..Default::default()
            },
        )
        .map_err(|e| Error::SolverFailed { reason: format!("bfgs: {e}") })?;
        let node_f = obj.inner.density_at_nodes(&theta);
        MaxEntSolution::from_node_density(sketch, basis, &node_f)?.quantiles(phis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::test_support::*;
    use crate::estimators::OptEstimator;
    use moments_sketch::SolverConfig;

    #[test]
    fn agrees_with_newton_solution() {
        let data = normal_grid(20_000);
        let s = MomentsSketch::from_data(10, &data);
        let ps = eval_phis();
        let bfgs = BfgsEstimator { k1: 10, k2: 0 }.estimate(&s, &ps).unwrap();
        let opt = OptEstimator {
            config: SolverConfig { k1: Some(10), k2: Some(0), ..Default::default() },
        }
        .estimate(&s, &ps)
        .unwrap();
        for (a, b) in bfgs.iter().zip(&opt) {
            assert!((a - b).abs() < 0.01, "{a} vs {b}");
        }
    }

    #[test]
    fn log_configuration_on_heavy_tail() {
        let data = lognormal_grid(20_000, 1.5);
        let s = MomentsSketch::from_data(10, &data);
        let ps = eval_phis();
        let qs = BfgsEstimator { k1: 0, k2: 10 }.estimate(&s, &ps).unwrap();
        let err = avg_quantile_error(&data, &qs, &ps);
        assert!(err < 0.01, "err {err}");
    }

    #[test]
    fn point_mass_short_circuits() {
        let s = MomentsSketch::from_data(4, &[7.0, 7.0, 7.0]);
        let qs = BfgsEstimator::default().estimate(&s, &[0.9]).unwrap();
        assert_eq!(qs[0], 7.0);
    }
}
