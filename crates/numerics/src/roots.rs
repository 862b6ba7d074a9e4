//! Root finding: Brent's method and a real-rooted polynomial solver.
//!
//! Quantile estimation inverts the maximum-entropy CDF with Brent's method
//! (Section 4.2 cites Press et al.), and the Racz–Tari–Telek bound needs
//! all roots of small polynomials that are guaranteed real-rooted (they are
//! orthogonal-style polynomials of a positive moment functional). For the
//! latter we use derivative interlacing: the critical points of `p` split
//! the line into intervals each containing at most one root of `p`.

use crate::{poly, Error, Result};

/// Options for Brent's method.
#[derive(Debug, Clone, Copy)]
pub struct BrentOptions {
    /// Absolute tolerance on the root location.
    pub x_tol: f64,
    /// Maximum iterations.
    pub max_iter: usize,
}

impl Default for BrentOptions {
    fn default() -> Self {
        BrentOptions {
            x_tol: 1e-12,
            max_iter: 200,
        }
    }
}

/// Find a root of `f` in `[a, b]` by Brent's method.
///
/// `f(a)` and `f(b)` must have opposite signs (or one endpoint must be an
/// exact root).
pub fn brent<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, opt: BrentOptions) -> Result<f64> {
    let (mut a, mut b) = (a, b);
    let mut fa = f(a);
    let mut fb = f(b);
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa * fb > 0.0 {
        return Err(Error::NoBracket { lo: a, hi: b });
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut e = d;
    for _ in 0..opt.max_iter {
        if fb.abs() > fc.abs() {
            // Ensure b is the best approximation so far.
            a = b;
            b = c;
            c = a;
            fa = fb;
            fb = fc;
            fc = fa;
        }
        let tol1 = 2.0 * f64::EPSILON * b.abs() + 0.5 * opt.x_tol;
        let xm = 0.5 * (c - b);
        if xm.abs() <= tol1 || fb == 0.0 {
            return Ok(b);
        }
        if e.abs() >= tol1 && fa.abs() > fb.abs() {
            // Attempt inverse quadratic interpolation / secant.
            let s = fb / fa;
            let (mut p, mut q);
            if a == c {
                p = 2.0 * xm * s;
                q = 1.0 - s;
            } else {
                let qq = fa / fc;
                let r = fb / fc;
                p = s * (2.0 * xm * qq * (qq - r) - (b - a) * (r - 1.0));
                q = (qq - 1.0) * (r - 1.0) * (s - 1.0);
            }
            if p > 0.0 {
                q = -q;
            }
            p = p.abs();
            let min1 = 3.0 * xm * q - (tol1 * q).abs();
            let min2 = (e * q).abs();
            if 2.0 * p < min1.min(min2) {
                e = d;
                d = p / q;
            } else {
                d = xm;
                e = d;
            }
        } else {
            d = xm;
            e = d;
        }
        a = b;
        fa = fb;
        if d.abs() > tol1 {
            b += d;
        } else {
            b += tol1.copysign(xm);
        }
        fb = f(b);
        if (fb > 0.0) == (fc > 0.0) {
            c = a;
            fc = fa;
            d = b - a;
            e = d;
        }
    }
    // Brent converges superlinearly; hitting the budget means tolerance is
    // effectively met for our purposes, but report it honestly.
    Err(Error::NoConvergence {
        iterations: opt.max_iter,
        residual: fb.abs(),
    })
}

/// Plain bisection (robust fallback used by the polynomial root finder).
fn bisect<F: FnMut(f64) -> f64>(mut f: F, mut lo: f64, mut hi: f64, iters: usize) -> f64 {
    let mut flo = f(lo);
    for _ in 0..iters {
        let mid = 0.5 * (lo + hi);
        let fm = f(mid);
        if fm == 0.0 {
            return mid;
        }
        if (fm > 0.0) == (flo > 0.0) {
            lo = mid;
            flo = fm;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// All real roots of a polynomial known to be real-rooted, restricted to
/// `[lo, hi]`, in ascending order.
///
/// Strategy: recursively find the critical points (roots of `p'`, which
/// interlace the roots of `p`), then look for sign changes between
/// consecutive breakpoints and polish each with Brent/bisection. Intervals
/// without a sign change are skipped (even multiplicities touch zero
/// without crossing; for our quadrature polynomials roots are simple).
pub fn real_roots_in(coeffs: &[f64], lo: f64, hi: f64) -> Vec<f64> {
    let deg = poly::degree(coeffs);
    if deg == 0 {
        return vec![];
    }
    if deg == 1 {
        let root = -coeffs[0] / coeffs[1];
        return if root >= lo && root <= hi {
            vec![root]
        } else {
            vec![]
        };
    }
    if deg == 2 {
        let (c, b, a) = (coeffs[0], coeffs[1], coeffs[2]);
        let disc = b * b - 4.0 * a * c;
        if disc < 0.0 {
            return vec![];
        }
        let sq = disc.sqrt();
        // Numerically stable quadratic roots.
        let q = -0.5 * (b + sq.copysign(b));
        let mut roots = if q == 0.0 {
            vec![0.0]
        } else {
            vec![q / a, c / q]
        };
        roots.retain(|r| r.is_finite() && *r >= lo && *r <= hi);
        roots.sort_by(|a, b| a.partial_cmp(b).unwrap());
        roots.dedup_by(|a, b| (*a - *b).abs() < 1e-12 * (1.0 + a.abs()));
        return roots;
    }
    // Breakpoints: lo, critical points in (lo, hi), hi.
    let deriv = poly::derivative(coeffs);
    let mut breaks = vec![lo];
    for c in real_roots_in(&deriv, lo, hi) {
        if c > lo && c < hi {
            breaks.push(c);
        }
    }
    breaks.push(hi);
    let mut roots = Vec::new();
    for w in breaks.windows(2) {
        let (a, b) = (w[0], w[1]);
        if b - a <= 0.0 {
            continue;
        }
        let fa = poly::eval(coeffs, a);
        let fb = poly::eval(coeffs, b);
        if fa == 0.0 {
            push_root(&mut roots, a);
            continue;
        }
        if fa * fb < 0.0 {
            let r = brent(|x| poly::eval(coeffs, x), a, b, BrentOptions::default())
                .unwrap_or_else(|_| bisect(|x| poly::eval(coeffs, x), a, b, 100));
            push_root(&mut roots, r);
        }
    }
    let fb = poly::eval(coeffs, hi);
    if fb == 0.0 {
        push_root(&mut roots, hi);
    }
    roots
}

fn push_root(roots: &mut Vec<f64>, r: f64) {
    if roots
        .last()
        .is_none_or(|&last| (r - last).abs() > 1e-10 * (1.0 + r.abs()))
    {
        roots.push(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brent_simple() {
        let r = brent(|x| x * x - 2.0, 0.0, 2.0, BrentOptions::default()).unwrap();
        assert!((r - 2.0f64.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn brent_endpoint_root() {
        let r = brent(|x| x, 0.0, 1.0, BrentOptions::default()).unwrap();
        assert_eq!(r, 0.0);
    }

    #[test]
    fn brent_no_bracket() {
        assert!(matches!(
            brent(|x| x * x + 1.0, -1.0, 1.0, BrentOptions::default()),
            Err(Error::NoBracket { .. })
        ));
    }

    #[test]
    fn brent_monotone_cdf_style() {
        // Inverting a smooth CDF, the actual use in quantile estimation.
        let cdf = |x: f64| 0.5 * (1.0 + (x / std::f64::consts::SQRT_2).tanh());
        let r = brent(|x| cdf(x) - 0.75, -10.0, 10.0, BrentOptions::default()).unwrap();
        assert!((cdf(r) - 0.75).abs() < 1e-10);
    }

    #[test]
    fn roots_of_chebyshev_polynomial() {
        // T_5 has 5 known roots cos((2k+1)pi/10).
        let t5 = crate::chebyshev::t_coefficients(5);
        let roots = real_roots_in(&t5, -1.0, 1.0);
        assert_eq!(roots.len(), 5);
        let expected: Vec<f64> = (0..5)
            .map(|k| ((2 * k + 1) as f64 * std::f64::consts::PI / 10.0).cos())
            .rev()
            .collect();
        for (r, e) in roots.iter().zip(&expected) {
            assert!((r - e).abs() < 1e-9, "{r} vs {e}");
        }
    }

    #[test]
    fn roots_with_endpoint() {
        // p(x) = x (x - 1) (x + 1) on [-1, 1]: roots at the endpoints too.
        let p = [0.0, -1.0, 0.0, 1.0];
        let roots = real_roots_in(&p, -1.0, 1.0);
        assert_eq!(roots.len(), 3);
        assert!((roots[0] + 1.0).abs() < 1e-9);
        assert!(roots[1].abs() < 1e-9);
        assert!((roots[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn roots_restricted_window() {
        // (x - 0.5)(x - 2): only 0.5 lies in [0, 1].
        let p = [1.0, -2.5, 1.0];
        let roots = real_roots_in(&p, 0.0, 1.0);
        assert_eq!(roots.len(), 1);
        assert!((roots[0] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn roots_high_degree_product() {
        // Product of distinct linear factors.
        let targets = [-0.8, -0.3, 0.1, 0.45, 0.9];
        let mut p = vec![1.0];
        for &t in &targets {
            p = poly::mul(&p, &[-t, 1.0]);
        }
        let roots = real_roots_in(&p, -1.0, 1.0);
        assert_eq!(roots.len(), targets.len());
        for (r, t) in roots.iter().zip(&targets) {
            assert!((r - t).abs() < 1e-8);
        }
    }
}
