//! The `svd` lesion estimator: discretize the domain and take the
//! *least-norm* density matching the moments, via the pseudo-inverse of
//! the moment matrix (one-sided Jacobi SVD).
//!
//! No positivity or entropy regularization — the solution can dip
//! negative, which is exactly why it is less accurate than the maximum
//! entropy routes in Figure 10 (we clamp negatives when forming the CDF).

use super::{quantiles_from_masses, scaled_setup, uniform_grid, MomentSource, QuantileEstimator};
use crate::svd::least_norm_solve;
use moments_sketch::{MomentsSketch, Result};
use numerics::linalg::Matrix;

/// Least-norm discretized density via SVD pseudo-inverse.
#[derive(Debug, Clone, Copy)]
pub struct SvdEstimator {
    /// Which moment set to use.
    pub source: MomentSource,
    /// Discretization points (the paper uses 1000).
    pub grid: usize,
}

impl Default for SvdEstimator {
    fn default() -> Self {
        SvdEstimator { source: MomentSource::Standard, grid: 256 }
    }
}

impl QuantileEstimator for SvdEstimator {
    fn name(&self) -> &'static str {
        "svd"
    }

    fn estimate(&self, sketch: &MomentsSketch, phis: &[f64]) -> Result<Vec<f64>> {
        let (dom, mono, is_log) = scaled_setup(sketch, self.source)?;
        let n = self.grid.max(8);
        let grid = uniform_grid(n);
        let k = mono.len() - 1;
        // Moment matrix A[j][i] = u_i^j; constraints A p = mono.
        let mut a = Matrix::zeros(k + 1, n);
        for (i, &u) in grid.iter().enumerate() {
            let mut pw = 1.0;
            for j in 0..=k {
                a[(j, i)] = pw;
                pw *= u;
            }
        }
        let p = least_norm_solve(&a, &mono, 1e-12);
        quantiles_from_masses(&grid, &p, phis, &dom, is_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::test_support::*;

    #[test]
    fn reasonable_on_smooth_symmetric_data() {
        let data = normal_grid(30_000);
        let s = MomentsSketch::from_data(10, &data);
        let ps = eval_phis();
        let qs = SvdEstimator::default().estimate(&s, &ps).unwrap();
        let err = avg_quantile_error(&data, &qs, &ps);
        assert!(err < 0.05, "err {err}");
    }

    #[test]
    fn solution_matches_constraints() {
        // The least-norm density must reproduce the input moments.
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64 / 9999.0).powi(2)).collect();
        let s = MomentsSketch::from_data(8, &data);
        let (dom, mono, _) = crate::estimators::scaled_setup(&s, MomentSource::Standard).unwrap();
        let n = 256;
        let grid = uniform_grid(n);
        let k = mono.len() - 1;
        let mut a = Matrix::zeros(k + 1, n);
        for (i, &u) in grid.iter().enumerate() {
            let mut pw = 1.0;
            for j in 0..=k {
                a[(j, i)] = pw;
                pw *= u;
            }
        }
        let p = least_norm_solve(&a, &mono, 1e-12);
        let recon = a.matvec(&p);
        for (r, m) in recon.iter().zip(&mono) {
            assert!((r - m).abs() < 1e-8, "{r} vs {m}");
        }
        let _ = dom;
    }

    #[test]
    fn worse_than_opt_on_long_tail() {
        let data = lognormal_grid(30_000, 1.5);
        let s = MomentsSketch::from_data(10, &data);
        let ps = eval_phis();
        let svd = SvdEstimator { source: MomentSource::Log, grid: 256 }.estimate(&s, &ps).unwrap();
        let opt = crate::estimators::OptEstimator::default().estimate(&s, &ps).unwrap();
        let e_svd = avg_quantile_error(&data, &svd, &ps);
        let e_opt = avg_quantile_error(&data, &opt, &ps);
        assert!(e_opt <= e_svd + 1e-6, "opt {e_opt} vs svd {e_svd}");
    }
}
