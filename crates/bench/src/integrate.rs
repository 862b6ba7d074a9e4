//! Romberg quadrature, the integrator of the `newton` lesion estimator
//! (Section 6.3), which evaluates every Hessian entry with it instead of
//! the optimized solver's closed-form Chebyshev integrals.

use numerics::{Error, Result};

/// Romberg integration with Richardson extrapolation.
///
/// Subdivides until successive extrapolants agree to `tol` (relative) or
/// `max_levels` is reached.
pub fn romberg<F: FnMut(f64) -> f64>(
    mut f: F,
    a: f64,
    b: f64,
    tol: f64,
    max_levels: usize,
) -> Result<f64> {
    assert!((2..=30).contains(&max_levels));
    let mut r = vec![vec![0.0f64; max_levels]; max_levels];
    let mut h = b - a;
    r[0][0] = 0.5 * h * (f(a) + f(b));
    let mut n = 1usize;
    for i in 1..max_levels {
        h *= 0.5;
        // Trapezoid refinement: add midpoints only.
        let mut sum = 0.0;
        for k in 0..n {
            sum += f(a + (2 * k + 1) as f64 * h);
        }
        r[i][0] = 0.5 * r[i - 1][0] + h * sum;
        n *= 2;
        let mut factor = 1.0f64;
        for j in 1..=i {
            factor *= 4.0;
            r[i][j] = r[i][j - 1] + (r[i][j - 1] - r[i - 1][j - 1]) / (factor - 1.0);
        }
        let est = r[i][i];
        let prev = r[i - 1][i - 1];
        if i >= 3 && (est - prev).abs() <= tol * (1.0 + est.abs()) {
            return Ok(est);
        }
    }
    Err(Error::NoConvergence {
        iterations: max_levels,
        residual: (r[max_levels - 1][max_levels - 1] - r[max_levels - 2][max_levels - 2]).abs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn romberg_polynomial() {
        let v = romberg(|x| x * x * x - x + 2.0, -1.0, 3.0, 1e-12, 20).unwrap();
        // ∫ = [x^4/4 - x^2/2 + 2x] from -1 to 3 = (20.25 - 4.5 + 6) - (0.25 - 0.5 - 2)
        let exact = (81.0 / 4.0 - 4.5 + 6.0) - (0.25 - 0.5 - 2.0);
        assert!((v - exact).abs() < 1e-10);
    }

    #[test]
    fn romberg_exponential() {
        let v = romberg(|x| x.exp(), 0.0, 1.0, 1e-12, 24).unwrap();
        assert!((v - (std::f64::consts::E - 1.0)).abs() < 1e-10);
    }
}
