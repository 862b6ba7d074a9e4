//! Moment-shift arithmetic and floating-point stability rules
//! (Section 4.3.2 and Appendices B–C of the paper).
//!
//! Both the maximum-entropy solver and the theoretical error bounds work
//! with moments of data shifted and scaled onto `[-1, 1]`. The shift is
//! performed with binomial expansions of the raw power sums, which is the
//! primary source of floating-point precision loss in the pipeline; this
//! module also implements the paper's closed-form bound on the highest
//! usable moment order (Equation 21).

use numerics::chebyshev;
use numerics::special::binomial_row;

/// A linear map between a data interval `[a, b]` and `[-1, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaledDomain {
    /// Interval midpoint `(a + b) / 2`.
    pub center: f64,
    /// Interval half-width `(b - a) / 2`.
    pub radius: f64,
}

impl ScaledDomain {
    /// Domain for the interval `[a, b]` (requires `a <= b`).
    pub fn from_range(a: f64, b: f64) -> Self {
        debug_assert!(a <= b);
        ScaledDomain {
            center: 0.5 * (a + b),
            radius: 0.5 * (b - a),
        }
    }

    /// Map a data value into `[-1, 1]`.
    #[inline]
    pub fn scale(&self, x: f64) -> f64 {
        if self.radius == 0.0 {
            0.0
        } else {
            (x - self.center) / self.radius
        }
    }

    /// Map a scaled value back to the data interval.
    #[inline]
    pub fn unscale(&self, u: f64) -> f64 {
        self.center + self.radius * u
    }

    /// The offset `c` of the scaled data: after scaling by `radius`, the
    /// data lies in `[c - 1, c + 1]` with `c = center / radius`. This is
    /// the `c` of the paper's stability analysis (Appendix B).
    #[inline]
    pub fn offset(&self) -> f64 {
        if self.radius == 0.0 {
            0.0
        } else {
            self.center / self.radius
        }
    }

    /// True when the interval has zero width (point-mass data).
    #[inline]
    pub fn degenerate(&self) -> bool {
        self.radius <= 0.0
    }
}

/// Moments of the shifted/scaled variable `u = (x - center) / radius`
/// computed from raw moments `μ_i = E[x^i]` by binomial expansion:
///
/// `E[u^j] = r^{-j} Σ_i C(j, i) (-c)^{j-i} μ_i`.
///
/// Returns `E[u^0..=u^k]` where `k = raw.len() - 1`.
pub fn shifted_moments(raw: &[f64], dom: &ScaledDomain) -> Vec<f64> {
    let k = raw.len() - 1;
    let mut out = Vec::with_capacity(k + 1);
    if dom.degenerate() {
        // Point mass at the center: u == 0, so E[u^0] = 1 and the rest 0.
        out.push(1.0);
        out.extend(std::iter::repeat_n(0.0, k));
        return out;
    }
    let c = dom.center;
    let r_inv = 1.0 / dom.radius;
    #[allow(clippy::needless_range_loop)] // j is the moment order, not just an index
    for j in 0..=k {
        let row = binomial_row(j);
        let mut acc = 0.0;
        // Accumulate smallest-to-largest binomial weight for stability.
        for (i, &b) in row.iter().enumerate() {
            let sign_pow = (-c).powi((j - i) as i32);
            acc += b * sign_pow * raw[i];
        }
        out.push(acc * r_inv.powi(j as i32));
    }
    out
}

/// Chebyshev moments `E[T_n(u)]` from monomial moments `E[u^j]`.
pub fn cheb_moments_from_mono(mono: &[f64]) -> Vec<f64> {
    let k = mono.len() - 1;
    let table = chebyshev::t_coefficient_table(k);
    table
        .iter()
        .map(|row| row.iter().zip(mono).map(|(&t, &m)| t * m).sum())
        .collect()
}

/// The paper's bound (Equation 21, Appendix B) on the highest moment order
/// that remains numerically useful after shifting data centered at offset
/// `c` (in scaled units) onto `[-1, 1]` under double precision:
///
/// `k <= 13.35 / (0.78 + log10(|c| + 1))`.
///
/// Data centered at zero supports k ≈ 17; in practice the paper caps the
/// sketch at `k < 16`.
pub fn max_stable_k(c: f64) -> usize {
    let k = 13.35 / (0.78 + (c.abs() + 1.0).log10());
    k.floor().max(2.0) as usize
}

/// Summary statistics (mean, population stddev, skewness) from a slice;
/// used to validate dataset generators against Table 1 of the paper.
#[derive(Debug, Clone, Copy)]
pub struct Describe {
    /// Number of values.
    pub n: usize,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Skewness (third standardized moment).
    pub skew: f64,
}

/// Compute [`Describe`] for a data slice in a single pass of power sums.
pub fn describe(data: &[f64]) -> Describe {
    let n = data.len();
    assert!(n > 0);
    let (mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64);
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &x in data {
        s1 += x;
        s2 += x * x;
        s3 += x * x * x;
        min = min.min(x);
        max = max.max(x);
    }
    let nf = n as f64;
    let mean = s1 / nf;
    let var = (s2 / nf - mean * mean).max(0.0);
    let stddev = var.sqrt();
    let m3 = s3 / nf - 3.0 * mean * var - mean * mean * mean;
    let skew = if stddev > 0.0 {
        m3 / var.powf(1.5)
    } else {
        0.0
    };
    Describe {
        n,
        min,
        max,
        mean,
        stddev,
        skew,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_domain_roundtrip() {
        let d = ScaledDomain::from_range(3.0, 7.0);
        assert_eq!(d.scale(3.0), -1.0);
        assert_eq!(d.scale(7.0), 1.0);
        assert_eq!(d.scale(5.0), 0.0);
        assert!((d.unscale(d.scale(4.2)) - 4.2).abs() < 1e-12);
        assert!((d.offset() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_domain() {
        let d = ScaledDomain::from_range(2.0, 2.0);
        assert!(d.degenerate());
        assert_eq!(d.scale(2.0), 0.0);
    }

    #[test]
    fn shifted_moments_match_direct_computation() {
        let data = [1.0, 2.0, 3.5, 7.0, 4.25];
        let k = 6;
        let n = data.len() as f64;
        let raw: Vec<f64> = (0..=k)
            .map(|j| data.iter().map(|&x: &f64| x.powi(j as i32)).sum::<f64>() / n)
            .collect();
        let dom = ScaledDomain::from_range(1.0, 7.0);
        let shifted = shifted_moments(&raw, &dom);
        #[allow(clippy::needless_range_loop)] // index doubles as the moment order
        for j in 0..=k {
            let direct: f64 = data
                .iter()
                .map(|&x| dom.scale(x).powi(j as i32))
                .sum::<f64>()
                / n;
            assert!(
                (shifted[j] - direct).abs() < 1e-10,
                "j={j}: {} vs {direct}",
                shifted[j]
            );
        }
    }

    #[test]
    fn cheb_moments_match_direct_computation() {
        let data = [0.1, 0.9, 0.4, 0.77, 0.23];
        let n = data.len() as f64;
        let dom = ScaledDomain::from_range(0.1, 0.9);
        let k = 5;
        let raw: Vec<f64> = (0..=k)
            .map(|j| data.iter().map(|&x: &f64| x.powi(j as i32)).sum::<f64>() / n)
            .collect();
        let mono = shifted_moments(&raw, &dom);
        let cheb = cheb_moments_from_mono(&mono);
        #[allow(clippy::needless_range_loop)] // index doubles as the moment order
        for t in 0..=k {
            let direct: f64 = data
                .iter()
                .map(|&x| chebyshev::t_eval(t, dom.scale(x)))
                .sum::<f64>()
                / n;
            assert!(
                (cheb[t] - direct).abs() < 1e-10,
                "T_{t}: {} vs {direct}",
                cheb[t]
            );
        }
    }

    #[test]
    fn stable_k_formula() {
        // Paper: data centered at 0 supports at least 17 stable moments.
        assert!(max_stable_k(0.0) >= 17);
        // c = 2 (range [xmin, 3 xmin]): at least 10 stable moments.
        assert!(max_stable_k(2.0) >= 10);
        // Monotone decreasing in |c|.
        assert!(max_stable_k(10.0) <= max_stable_k(2.0));
        assert_eq!(max_stable_k(5.0), max_stable_k(-5.0));
    }

    #[test]
    fn describe_matches_known_values() {
        let d = describe(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(d.n, 8);
        assert_eq!(d.mean, 5.0);
        assert!((d.stddev - 2.0).abs() < 1e-12);
        assert_eq!(d.min, 2.0);
        assert_eq!(d.max, 9.0);
        // Symmetric-ish data: small skew.
        assert!(d.skew.abs() < 1.0);
    }

    #[test]
    fn describe_exponential_skew() {
        // Exponential(1) has skewness 2; a deterministic quantile grid
        // approximates it.
        let data: Vec<f64> = (1..10_000)
            .map(|i| -(1.0 - i as f64 / 10_000.0f64).ln())
            .collect();
        let d = describe(&data);
        assert!((d.mean - 1.0).abs() < 0.01);
        assert!((d.skew - 2.0).abs() < 0.15, "skew {}", d.skew);
    }
}
