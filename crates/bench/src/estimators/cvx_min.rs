//! The `cvx-min` lesion estimator: discretize the domain and solve a
//! linear program for the density with *minimal maximum mass* subject to
//! the moment constraints.
//!
//! The reference implementation handed this to the ECOS cone solver; we
//! use a dense two-phase simplex ([`crate::simplex`]). Moment
//! equalities carry symmetric penalty slacks so that tiny discretization
//! infeasibilities cannot make the program infeasible.

use super::{quantiles_from_masses, scaled_setup, uniform_grid, MomentSource, QuantileEstimator};
use crate::simplex::{solve as lp_solve, StandardLp};
use moments_sketch::{Error, MomentsSketch, Result};

/// Minimax-density LP estimator.
#[derive(Debug, Clone, Copy)]
pub struct CvxMinEstimator {
    /// Which moment set to use.
    pub source: MomentSource,
    /// Discretization points (the paper uses 1000; smaller grids trade
    /// accuracy for LP solve time).
    pub grid: usize,
}

impl Default for CvxMinEstimator {
    fn default() -> Self {
        CvxMinEstimator { source: MomentSource::Standard, grid: 128 }
    }
}

impl QuantileEstimator for CvxMinEstimator {
    fn name(&self) -> &'static str {
        "cvx-min"
    }

    fn estimate(&self, sketch: &MomentsSketch, phis: &[f64]) -> Result<Vec<f64>> {
        let (dom, mono, is_log) = scaled_setup(sketch, self.source)?;
        let n = self.grid.max(8);
        let grid = uniform_grid(n);
        let k = mono.len() - 1;
        // Variables: [p_0..p_{n-1}, t, s_0..s_{n-1}, sp_0..sp_k, sm_0..sm_k]
        //   p: point masses, t: max-mass bound, s: cap slacks,
        //   sp/sm: signed moment-violation slacks (penalized).
        let n_vars = n + 1 + n + 2 * (k + 1);
        let t_col = n;
        let s0 = n + 1;
        let sp0 = s0 + n;
        let sm0 = sp0 + (k + 1);
        let mut a = Vec::with_capacity((k + 1) + n);
        let mut b = Vec::with_capacity((k + 1) + n);
        // Moment rows: Σ_i p_i u_i^j + sp_j - sm_j = m_j  (j = 0 is the
        // normalization Σ p = 1).
        for j in 0..=k {
            let mut row = vec![0.0; n_vars];
            for (i, &u) in grid.iter().enumerate() {
                row[i] = u.powi(j as i32);
            }
            row[sp0 + j] = 1.0;
            row[sm0 + j] = -1.0;
            a.push(row);
            b.push(mono[j]);
        }
        // Cap rows: p_i - t + s_i = 0.
        for i in 0..n {
            let mut row = vec![0.0; n_vars];
            row[i] = 1.0;
            row[t_col] = -1.0;
            row[s0 + i] = 1.0;
            a.push(row);
            b.push(0.0);
        }
        // Objective: minimize t + M * Σ (sp + sm).
        let penalty = 1e4;
        let mut c = vec![0.0; n_vars];
        c[t_col] = 1.0;
        for j in 0..=k {
            c[sp0 + j] = penalty;
            c[sm0 + j] = penalty;
        }
        let x = lp_solve(&StandardLp { a, b, c })
            .map_err(|e| Error::SolverFailed { reason: format!("cvx-min LP: {e:?}") })?;
        quantiles_from_masses(&grid, &x[..n], phis, &dom, is_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::test_support::*;

    #[test]
    fn recovers_uniform_distribution() {
        // For uniform data the minimax density IS the uniform density.
        let data: Vec<f64> = (0..20_000).map(|i| i as f64 / 19_999.0).collect();
        let s = MomentsSketch::from_data(8, &data);
        let ps = eval_phis();
        let qs = CvxMinEstimator::default().estimate(&s, &ps).unwrap();
        let err = avg_quantile_error(&data, &qs, &ps);
        assert!(err < 0.02, "err {err}");
    }

    #[test]
    fn respects_moment_constraints_approximately() {
        let data = normal_grid(20_000);
        let s = MomentsSketch::from_data(8, &data);
        let ps = vec![0.5];
        let qs = CvxMinEstimator::default().estimate(&s, &ps).unwrap();
        // Median of a symmetric distribution near 0.
        assert!(qs[0].abs() < 0.15, "median {}", qs[0]);
    }

    #[test]
    fn log_source_long_tail() {
        let data = lognormal_grid(20_000, 1.5);
        let s = MomentsSketch::from_data(8, &data);
        let ps = eval_phis();
        let qs =
            CvxMinEstimator { source: MomentSource::Log, grid: 128 }.estimate(&s, &ps).unwrap();
        let err = avg_quantile_error(&data, &qs, &ps);
        assert!(err < 0.1, "err {err}");
    }
}
