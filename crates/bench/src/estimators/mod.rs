//! Alternative moment-based quantile estimators — the lesion study of
//! Section 6.3 (Figure 10) of the paper.
//!
//! All estimators consume the *same* moments sketch; they differ only in
//! how they turn moments into quantiles:
//!
//! | name        | idea                                                        |
//! |-------------|-------------------------------------------------------------|
//! | `gaussian`  | fit a normal (or log-normal) to mean and variance           |
//! | `mnat`      | Mnatsakanov's closed-form discrete CDF reconstruction       |
//! | `svd`       | discretize the domain, least-norm density via pseudo-inverse|
//! | `cvx-min`   | discretize, LP minimizing the max density (simplex)         |
//! | `cvx-maxent`| discretize, generic max-entropy dual Newton on the grid     |
//! | `newton`    | the continuous max-ent objective, Romberg-integrated Hessian|
//! | `bfgs`      | the continuous objective with first-order L-BFGS            |
//! | `opt`       | the optimized solver, [`moments_sketch::solver`]            |
//!
//! Solvers that use the maximum entropy principle are substantially more
//! accurate; the optimized solver is orders of magnitude faster than the
//! discretized/naive routes — reproducing both panels of Figure 10.

mod bfgs_est;
mod cvx_maxent;
mod cvx_min;
mod gaussian;
mod mnat;
mod naive_newton;
mod svd_est;

pub use bfgs_est::BfgsEstimator;
pub use cvx_maxent::CvxMaxEntEstimator;
pub use cvx_min::CvxMinEstimator;
pub use gaussian::GaussianEstimator;
pub use mnat::MnatEstimator;
pub use naive_newton::NaiveNewtonEstimator;
pub use svd_est::SvdEstimator;

use moments_sketch::stats::{max_stable_k, shifted_moments, ScaledDomain};
use moments_sketch::{Error, MomentsSketch, Result, SolverConfig};

/// Which moment set an estimator consumes. The paper's lesion study uses
/// only log moments on `milan` and only standard moments on `hepmass` so
/// every estimator sees identical inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MomentSource {
    /// Standard moments `E[x^i]`.
    Standard,
    /// Log moments `E[ln^i x]` (requires strictly positive data).
    Log,
}

/// A quantile estimator operating on a moments sketch.
pub trait QuantileEstimator {
    /// Short display name matching the paper's figure labels.
    fn name(&self) -> &'static str;
    /// Estimate the given `φ`-quantiles.
    fn estimate(&self, sketch: &MomentsSketch, phis: &[f64]) -> Result<Vec<f64>>;
}

/// The paper's full solver exposed through the common estimator interface
/// (the `opt` row of Figure 10).
#[derive(Debug, Clone, Default)]
pub struct OptEstimator {
    /// Solver configuration (allows forcing `k1`/`k2` for fair
    /// comparisons).
    pub config: SolverConfig,
}

impl QuantileEstimator for OptEstimator {
    fn name(&self) -> &'static str {
        "opt"
    }
    fn estimate(&self, sketch: &MomentsSketch, phis: &[f64]) -> Result<Vec<f64>> {
        moments_sketch::solver::solve(sketch, &self.config)?.quantiles(phis)
    }
}

/// Shared setup: the scaled working domain and the monomial moments of the
/// scaled variable for the chosen source.
///
/// Returns `(domain, moments, is_log)`; for `Log` the domain maps
/// `[ln xmin, ln xmax]` onto `[-1, 1]` and callers must exponentiate
/// mapped-back values.
pub(crate) fn scaled_setup(
    sketch: &MomentsSketch,
    source: MomentSource,
) -> Result<(ScaledDomain, Vec<f64>, bool)> {
    if sketch.is_empty() {
        return Err(Error::EmptySketch);
    }
    match source {
        MomentSource::Standard => {
            let dom = ScaledDomain::from_range(sketch.min(), sketch.max());
            let cap = max_stable_k(dom.offset()).min(sketch.k());
            let mono = shifted_moments(&sketch.moments()[..=cap], &dom);
            Ok((dom, mono, false))
        }
        MomentSource::Log => {
            if !sketch.log_usable() {
                return Err(Error::InvalidArgument("log moments unavailable (non-positive data)"));
            }
            let dom = ScaledDomain::from_range(sketch.min().ln(), sketch.max().ln());
            let cap = max_stable_k(dom.offset()).min(sketch.k());
            let mono = shifted_moments(&sketch.log_moments()[..=cap], &dom);
            Ok((dom, mono, true))
        }
    }
}

/// Map a scaled-domain value back to data units.
#[inline]
pub(crate) fn map_back(dom: &ScaledDomain, u: f64, is_log: bool) -> f64 {
    let v = dom.unscale(u);
    if is_log {
        v.exp()
    } else {
        v
    }
}

/// Invert a discrete distribution (grid points in `[-1, 1]` with
/// non-negative masses) at the requested quantile fractions, with linear
/// interpolation between grid points.
pub(crate) fn quantiles_from_masses(
    grid: &[f64],
    masses: &[f64],
    phis: &[f64],
    dom: &ScaledDomain,
    is_log: bool,
) -> Result<Vec<f64>> {
    debug_assert_eq!(grid.len(), masses.len());
    let total: f64 = masses.iter().map(|&m| m.max(0.0)).sum();
    if !(total.is_finite() && total > 0.0) {
        return Err(Error::SolverFailed {
            reason: "estimator produced a degenerate distribution".into(),
        });
    }
    // Cumulative mass evaluated at each grid point.
    let mut cum = Vec::with_capacity(grid.len());
    let mut acc = 0.0;
    for &m in masses {
        acc += m.max(0.0) / total;
        cum.push(acc);
    }
    let mut out = Vec::with_capacity(phis.len());
    for &phi in phis {
        if !(phi > 0.0 && phi < 1.0) {
            return Err(Error::InvalidQuantile(phi));
        }
        let idx = cum.partition_point(|&c| c < phi);
        let u = if idx == 0 {
            grid[0]
        } else if idx >= grid.len() {
            grid[grid.len() - 1]
        } else {
            // Interpolate between the previous and current grid points.
            let (c0, c1) = (cum[idx - 1], cum[idx]);
            let (g0, g1) = (grid[idx - 1], grid[idx]);
            if c1 > c0 {
                g0 + (g1 - g0) * (phi - c0) / (c1 - c0)
            } else {
                g1
            }
        };
        out.push(map_back(dom, u, is_log));
    }
    Ok(out)
}

/// A uniform cell-centered grid of `n` points on `[-1, 1]`.
pub(crate) fn uniform_grid(n: usize) -> Vec<f64> {
    (0..n).map(|i| -1.0 + 2.0 * (i as f64 + 0.5) / n as f64).collect()
}

#[cfg(test)]
pub(crate) mod test_support {
    pub(crate) use msketch_sketches::{avg_quantile_error, exact::eval_phis};

    /// Deterministic heavy-tailed (log-normal-grid) dataset.
    pub(crate) fn lognormal_grid(n: usize, sigma: f64) -> Vec<f64> {
        (1..n)
            .map(|i| (sigma * numerics::special::inv_norm_cdf(i as f64 / n as f64)).exp())
            .collect()
    }

    /// Deterministic standard-normal-grid dataset.
    pub(crate) fn normal_grid(n: usize) -> Vec<f64> {
        (1..n).map(|i| numerics::special::inv_norm_cdf(i as f64 / n as f64)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    #[test]
    fn masses_inversion_uniform() {
        let grid = uniform_grid(100);
        let masses = vec![1.0; 100];
        let dom = ScaledDomain::from_range(0.0, 1.0);
        let qs = quantiles_from_masses(&grid, &masses, &[0.25, 0.5, 0.75], &dom, false).unwrap();
        assert!((qs[0] - 0.25).abs() < 0.02);
        assert!((qs[1] - 0.5).abs() < 0.02);
        assert!((qs[2] - 0.75).abs() < 0.02);
    }

    #[test]
    fn masses_inversion_rejects_degenerate() {
        let dom = ScaledDomain::from_range(0.0, 1.0);
        assert!(quantiles_from_masses(&[0.0], &[0.0], &[0.5], &dom, false).is_err());
    }

    #[test]
    fn opt_estimator_through_trait() {
        let data = normal_grid(20_000);
        let s = MomentsSketch::from_data(10, &data);
        let est = OptEstimator::default();
        let ps = eval_phis();
        let qs = est.estimate(&s, &ps).unwrap();
        assert!(avg_quantile_error(&data, &qs, &ps) < 0.01);
        assert_eq!(est.name(), "opt");
    }

    #[test]
    fn scaled_setup_log_requires_positive() {
        let s = MomentsSketch::from_data(4, &[-1.0, 2.0]);
        assert!(scaled_setup(&s, MomentSource::Log).is_err());
        assert!(scaled_setup(&s, MomentSource::Standard).is_ok());
    }
}
