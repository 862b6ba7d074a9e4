//! The `gaussian` lesion estimator: fit a normal distribution to the first
//! two moments and read quantiles off its quantile function.
//!
//! Fast (microseconds) but ignores every moment beyond the second, so it
//! is badly biased on anything non-Gaussian — the cheapest row of
//! Figure 10. With [`MomentSource::Log`] it fits a log-normal instead,
//! which is what the paper's milan configuration amounts to.

use super::{MomentSource, QuantileEstimator};
use moments_sketch::{Error, MomentsSketch, Result};
use numerics::special::inv_norm_cdf;

/// Normal / log-normal moment fit.
#[derive(Debug, Clone, Copy)]
pub struct GaussianEstimator {
    /// Which moment set to fit.
    pub source: MomentSource,
}

impl Default for GaussianEstimator {
    fn default() -> Self {
        GaussianEstimator { source: MomentSource::Standard }
    }
}

impl QuantileEstimator for GaussianEstimator {
    fn name(&self) -> &'static str {
        "gaussian"
    }

    fn estimate(&self, sketch: &MomentsSketch, phis: &[f64]) -> Result<Vec<f64>> {
        if sketch.is_empty() {
            return Err(Error::EmptySketch);
        }
        let (m1, m2, is_log) = match self.source {
            MomentSource::Standard => {
                let m = sketch.moments();
                (m[1], m[2], false)
            }
            MomentSource::Log => {
                if !sketch.log_usable() {
                    return Err(Error::InvalidArgument(
                        "log moments unavailable (non-positive data)",
                    ));
                }
                let m = sketch.log_moments();
                (m[1], m[2], true)
            }
        };
        let sigma = (m2 - m1 * m1).max(0.0).sqrt();
        phis.iter()
            .map(|&phi| {
                if !(phi > 0.0 && phi < 1.0) {
                    return Err(Error::InvalidQuantile(phi));
                }
                let q = m1 + sigma * inv_norm_cdf(phi);
                let q = if is_log { q.exp() } else { q };
                Ok(q.clamp(sketch.min(), sketch.max()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::test_support::*;

    #[test]
    fn exact_on_gaussian_data() {
        let data = normal_grid(50_000);
        let s = MomentsSketch::from_data(10, &data);
        let est = GaussianEstimator::default();
        let ps = eval_phis();
        let qs = est.estimate(&s, &ps).unwrap();
        assert!(avg_quantile_error(&data, &qs, &ps) < 0.005);
    }

    #[test]
    fn lognormal_fit_with_log_source() {
        let data = lognormal_grid(50_000, 1.5);
        let s = MomentsSketch::from_data(10, &data);
        let est = GaussianEstimator { source: MomentSource::Log };
        let ps = eval_phis();
        let qs = est.estimate(&s, &ps).unwrap();
        assert!(avg_quantile_error(&data, &qs, &ps) < 0.01);
    }

    #[test]
    fn biased_on_skewed_data_with_standard_source() {
        // Exponential data: a two-moment normal fit is visibly wrong.
        let data: Vec<f64> = (1..50_000).map(|i| -(1.0 - i as f64 / 50_000.0f64).ln()).collect();
        let s = MomentsSketch::from_data(10, &data);
        let est = GaussianEstimator::default();
        let ps = eval_phis();
        let qs = est.estimate(&s, &ps).unwrap();
        assert!(avg_quantile_error(&data, &qs, &ps) > 0.02);
    }

    #[test]
    fn estimates_clamped_to_range() {
        let data = vec![1.0, 1.1, 0.9, 1.05, 0.95];
        let s = MomentsSketch::from_data(4, &data);
        let qs = GaussianEstimator::default().estimate(&s, &[0.001, 0.999]).unwrap();
        assert!(qs[0] >= s.min());
        assert!(qs[1] <= s.max());
    }
}
