//! The `mnat` lesion estimator: Mnatsakanov's closed-form reconstruction
//! of a CDF from its Hausdorff moments (Mnatsakanov 2008, cited as \[58\]).
//!
//! For a variable `y` supported on `\[0, 1\]` with moments `μ_0..μ_α`, the
//! operator
//!
//! ```text
//! F_α(y) = Σ_{m=0}^{⌊αy⌋} Σ_{j=m}^{α} C(α,j) C(j,m) (-1)^{j-m} μ_j
//! ```
//!
//! converges to the CDF as `α → ∞`. With only `α = k ≈ 10` moments the
//! reconstruction is a coarse staircase — cheap but inaccurate, exactly as
//! the lesion study shows.

use super::{quantiles_from_masses, scaled_setup, MomentSource, QuantileEstimator};
use moments_sketch::stats::{max_stable_k, shifted_moments, ScaledDomain};
use moments_sketch::{MomentsSketch, Result};
use numerics::special::binomial;

/// Mnatsakanov moment-CDF reconstruction.
#[derive(Debug, Clone, Copy)]
pub struct MnatEstimator {
    /// Which moment set to reconstruct from.
    pub source: MomentSource,
}

impl Default for MnatEstimator {
    fn default() -> Self {
        MnatEstimator { source: MomentSource::Standard }
    }
}

/// CDF staircase levels `F_α` at `y = (m+1)/α`, `m = 0..α`, from moments
/// of a `\[0, 1\]`-supported variable.
pub(crate) fn mnat_cdf_levels(mu01: &[f64]) -> Vec<f64> {
    let alpha = mu01.len() - 1;
    // B(m) = Σ_{j=m}^{α} C(α,j) C(j,m) (-1)^{j-m} μ_j — the mass the
    // operator assigns to cell m.
    let mut levels = Vec::with_capacity(alpha + 1);
    let mut acc = 0.0;
    for m in 0..=alpha {
        let mut b = 0.0;
        #[allow(clippy::needless_range_loop)] // index doubles as the moment order
        for j in m..=alpha {
            let sign = if (j - m) % 2 == 0 { 1.0 } else { -1.0 };
            b += binomial(alpha, j) * binomial(j, m) * sign * mu01[j];
        }
        acc += b;
        levels.push(acc.clamp(0.0, 1.0));
    }
    // Enforce monotonicity against the alternating-sum cancellation noise.
    for i in 1..levels.len() {
        if levels[i] < levels[i - 1] {
            levels[i] = levels[i - 1];
        }
    }
    levels
}

impl QuantileEstimator for MnatEstimator {
    fn name(&self) -> &'static str {
        "mnat"
    }

    fn estimate(&self, sketch: &MomentsSketch, phis: &[f64]) -> Result<Vec<f64>> {
        let (dom, _mono, is_log) = scaled_setup(sketch, self.source)?;
        // Re-shift onto [0, 1]: y = (x - lo) / (hi - lo).
        let (lo, hi) = (dom.center - dom.radius, dom.center + dom.radius);
        let dom01 = ScaledDomain { center: lo, radius: (hi - lo).max(f64::MIN_POSITIVE) };
        let raw = match self.source {
            MomentSource::Standard => sketch.moments(),
            MomentSource::Log => sketch.log_moments(),
        };
        let cap = max_stable_k(0.5).min(raw.len() - 1);
        let mu01 = shifted_moments(&raw[..=cap], &dom01);
        let levels = mnat_cdf_levels(&mu01);
        let alpha = levels.len() - 1;
        // Convert the staircase into point masses at cell midpoints of the
        // scaled [-1, 1] domain and invert with interpolation.
        let mut grid = Vec::with_capacity(alpha + 1);
        let mut masses = Vec::with_capacity(alpha + 1);
        let mut prev = 0.0;
        for (m, &level) in levels.iter().enumerate() {
            let y_mid = (m as f64 + 0.5) / (alpha as f64 + 1.0);
            grid.push(2.0 * y_mid - 1.0); // [0,1] -> [-1,1]
            masses.push((level - prev).max(0.0));
            prev = level;
        }
        quantiles_from_masses(&grid, &masses, phis, &dom, is_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::test_support::*;

    #[test]
    fn cdf_levels_monotone_and_normalized() {
        let data: Vec<f64> = (0..5000).map(|i| i as f64 / 4999.0).collect();
        let s = MomentsSketch::from_data(10, &data);
        let dom01 = ScaledDomain { center: 0.0, radius: 1.0 };
        let mu01 = shifted_moments(&s.moments(), &dom01);
        let levels = mnat_cdf_levels(&mu01);
        for w in levels.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!((levels.last().unwrap() - 1.0).abs() < 0.05);
    }

    #[test]
    fn coarse_but_sane_on_uniform() {
        let data: Vec<f64> = (0..20_000).map(|i| i as f64 / 19_999.0).collect();
        let s = MomentsSketch::from_data(10, &data);
        let ps = eval_phis();
        let qs = MnatEstimator::default().estimate(&s, &ps).unwrap();
        let err = avg_quantile_error(&data, &qs, &ps);
        // Mnatsakanov at alpha=10 is coarse; expect moderate error.
        assert!(err < 0.12, "err {err}");
    }

    #[test]
    fn log_source_on_heavy_tail() {
        let data = lognormal_grid(20_000, 2.0);
        let s = MomentsSketch::from_data(10, &data);
        let ps = eval_phis();
        let qs = MnatEstimator { source: MomentSource::Log }.estimate(&s, &ps).unwrap();
        let err_log = avg_quantile_error(&data, &qs, &ps);
        let qs_std = MnatEstimator::default().estimate(&s, &ps).unwrap();
        let err_std = avg_quantile_error(&data, &qs_std, &ps);
        assert!(err_log < err_std, "log source should help: {err_log} vs {err_std}");
    }

    #[test]
    fn less_accurate_than_opt() {
        // The core claim of the lesion study.
        let data = normal_grid(30_000);
        let s = MomentsSketch::from_data(10, &data);
        let ps = eval_phis();
        let mnat = MnatEstimator::default().estimate(&s, &ps).unwrap();
        let opt = crate::estimators::OptEstimator::default().estimate(&s, &ps).unwrap();
        assert!(avg_quantile_error(&data, &mnat, &ps) > avg_quantile_error(&data, &opt, &ps));
    }
}
