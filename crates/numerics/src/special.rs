//! Special functions: error function, inverse normal CDF, log-gamma, and
//! binomial coefficients.
//!
//! The `gaussian` lesion estimator needs the normal quantile function; the
//! moment-shift arithmetic (Appendix B of the paper) needs binomial
//! coefficients; skewness calibration of dataset generators uses log-gamma.

use std::f64::consts::PI;

/// Error function, accurate to ~1e-15 (rational expansion from
/// W. J. Cody's algorithm, as popularized in Numerical Recipes).
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Complementary error function.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 2.0 / (2.0 + z);
    let ty = 4.0 * t - 2.0;
    // Chebyshev fit coefficients (Numerical Recipes erfc_cheb).
    const COF: [f64; 28] = [
        -1.3026537197817094,
        6.419_697_923_564_902e-1,
        1.9476473204185836e-2,
        -9.561_514_786_808_63e-3,
        -9.46595344482036e-4,
        3.66839497852761e-4,
        4.2523324806907e-5,
        -2.0278578112534e-5,
        -1.624290004647e-6,
        1.303655835580e-6,
        1.5626441722e-8,
        -8.5238095915e-8,
        6.529054439e-9,
        5.059343495e-9,
        -9.91364156e-10,
        -2.27365122e-10,
        9.6467911e-11,
        2.394038e-12,
        -6.886027e-12,
        8.94487e-13,
        3.13092e-13,
        -1.12708e-13,
        3.81e-16,
        7.106e-15,
        -1.523e-15,
        -9.4e-17,
        1.21e-16,
        -2.8e-17,
    ];
    let mut d = 0.0;
    let mut dd = 0.0;
    for &c in COF.iter().skip(1).rev() {
        let tmp = d;
        d = ty * d - dd + c;
        dd = tmp;
    }
    let ans = t * (-z * z + 0.5 * (COF[0] + ty * d) - dd).exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Standard normal CDF.
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Inverse standard normal CDF (quantile function).
///
/// Acklam's rational approximation refined by one Halley step, giving
/// near machine precision over `(0, 1)`.
pub fn inv_norm_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p must be in (0, 1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    let x = if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement step.
    let e = norm_cdf(x) - p;
    let u = e * (2.0 * PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

/// Natural log of the gamma function (Lanczos approximation, g = 7).
pub fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.5203681218851,
        -1259.1392167224028,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507343278686905,
        -0.13857109526572012,
        9.984_369_578_019_572e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = G[0];
    let t = x + 7.5;
    for (i, &g) in G.iter().enumerate().skip(1) {
        a += g / (x + i as f64);
    }
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Binomial coefficient as `f64`, stable for moderate `n`.
pub fn binomial(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0f64;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

/// A full row of Pascal's triangle: `[C(n,0), ..., C(n,n)]`.
pub fn binomial_row(n: usize) -> Vec<f64> {
    let mut row = vec![1.0; n + 1];
    for k in 1..=n {
        row[k] = row[k - 1] * (n - k + 1) as f64 / k as f64;
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // Reference values from Abramowitz & Stegun.
        assert!((erf(0.0)).abs() < 1e-15);
        assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-12);
        assert!((erf(-1.0) + 0.8427007929497149).abs() < 1e-12);
        assert!((erf(2.0) - 0.9953222650189527).abs() < 1e-12);
    }

    #[test]
    fn norm_cdf_symmetry() {
        for &x in &[0.1, 0.5, 1.0, 2.5] {
            assert!((norm_cdf(x) + norm_cdf(-x) - 1.0).abs() < 1e-14);
        }
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-15);
        assert!((norm_cdf(1.96) - 0.9750021048517795).abs() < 1e-10);
    }

    #[test]
    fn inv_norm_cdf_roundtrip() {
        for &p in &[1e-6, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0 - 1e-6] {
            let x = inv_norm_cdf(p);
            assert!((norm_cdf(x) - p).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn ln_gamma_reference() {
        // Gamma(5) = 24.
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-12);
        // Gamma(0.5) = sqrt(pi).
        assert!((ln_gamma(0.5) - PI.sqrt().ln()).abs() < 1e-12);
        // Recurrence Gamma(x+1) = x Gamma(x).
        let x = 3.7;
        assert!((ln_gamma(x + 1.0) - (ln_gamma(x) + x.ln())).abs() < 1e-12);
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(10, 0), 1.0);
        assert_eq!(binomial(10, 10), 1.0);
        assert_eq!(binomial(3, 5), 0.0);
        let row = binomial_row(6);
        assert_eq!(row, vec![1.0, 6.0, 15.0, 20.0, 15.0, 6.0, 1.0]);
    }
}
