//! Chebyshev polynomials of the first kind and Chebyshev series.
//!
//! The paper's solver re-expresses the moment constraints in the Chebyshev
//! basis to keep the Newton Hessian well conditioned (Section 4.3.1), and
//! evaluates all the integrals it needs in closed form on Chebyshev series.
//! This module provides:
//!
//! * evaluation of `T_n(x)` and of series (Clenshaw's algorithm),
//! * the monomial coefficients of `T_n` (for moment conversion),
//! * series products via the linearization
//!   `T_i T_j = (T_{i+j} + T_{|i-j|}) / 2`,
//! * closed-form definite integrals over `[-1, 1]`, and
//! * interpolation at Chebyshev–Lobatto nodes via the cosine transform.

use crate::fct;

/// Evaluate the Chebyshev polynomial `T_n(x)`.
///
/// Uses the trigonometric definition inside `[-1, 1]` (numerically stable
/// for large `n`) and the hyperbolic extension outside.
pub fn t_eval(n: usize, x: f64) -> f64 {
    if x.abs() <= 1.0 {
        (n as f64 * x.acos()).cos()
    } else if x > 1.0 {
        (n as f64 * x.acosh()).cosh()
    } else {
        let s = if n.is_multiple_of(2) { 1.0 } else { -1.0 };
        s * (n as f64 * (-x).acosh()).cosh()
    }
}

/// Evaluate a Chebyshev series `sum_k c[k] T_k(x)` with Clenshaw's algorithm.
pub fn clenshaw(coeffs: &[f64], x: f64) -> f64 {
    if coeffs.is_empty() {
        return 0.0;
    }
    let mut b1 = 0.0;
    let mut b2 = 0.0;
    for &c in coeffs.iter().skip(1).rev() {
        let b0 = c + 2.0 * x * b1 - b2;
        b2 = b1;
        b1 = b0;
    }
    coeffs[0] + x * b1 - b2
}

/// Evaluate a Chebyshev series at every point of `xs` into `out`, bit for
/// bit as [`clenshaw`] would at each point.
///
/// Clenshaw's recurrence is one latency-bound chain per point; this runs
/// eight independent chains in lock step, so the chains overlap in
/// the pipeline (and may share vector registers). Each point keeps the
/// scalar operation sequence, so no result changes.
pub fn clenshaw_each(coeffs: &[f64], xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len());
    let mut xs_chunks = xs.chunks_exact(LANES);
    let mut out_chunks = out.chunks_exact_mut(LANES);
    match coeffs.split_first() {
        Some((&c0, rest)) => {
            for (x, y) in (&mut xs_chunks).zip(&mut out_chunks) {
                let mut b1 = [0.0; LANES];
                let mut b2 = [0.0; LANES];
                for &c in rest.iter().rev() {
                    for l in 0..LANES {
                        let b0 = c + 2.0 * x[l] * b1[l] - b2[l];
                        b2[l] = b1[l];
                        b1[l] = b0;
                    }
                }
                for l in 0..LANES {
                    y[l] = c0 + x[l] * b1[l] - b2[l];
                }
            }
        }
        None => out_chunks.by_ref().for_each(|y| y.fill(0.0)),
    }
    for (&x, y) in xs_chunks
        .remainder()
        .iter()
        .zip(out_chunks.into_remainder())
    {
        *y = clenshaw(coeffs, x);
    }
}

/// Chains [`clenshaw_each`] runs in lock step.
const LANES: usize = 8;

/// Monomial coefficients (lowest degree first) of `T_n`.
///
/// Built by the recurrence `T_{n+1} = 2x T_n - T_{n-1}`.
pub fn t_coefficients(n: usize) -> Vec<f64> {
    if n == 0 {
        return vec![1.0];
    }
    let mut prev = vec![1.0]; // T_0
    let mut cur = vec![0.0, 1.0]; // T_1
    for _ in 1..n {
        let mut next = vec![0.0; cur.len() + 1];
        for (i, &c) in cur.iter().enumerate() {
            next[i + 1] += 2.0 * c;
        }
        for (i, &c) in prev.iter().enumerate() {
            next[i] -= c;
        }
        prev = cur;
        cur = next;
    }
    cur
}

/// All Chebyshev coefficient rows `T_0 ... T_n` as a lower-triangular table.
pub fn t_coefficient_table(n: usize) -> Vec<Vec<f64>> {
    let mut rows = Vec::with_capacity(n + 1);
    rows.push(vec![1.0]);
    if n == 0 {
        return rows;
    }
    rows.push(vec![0.0, 1.0]);
    for m in 1..n {
        let cur: &Vec<f64> = &rows[m];
        let prev: &Vec<f64> = &rows[m - 1];
        let mut next = vec![0.0; cur.len() + 1];
        for (i, &c) in cur.iter().enumerate() {
            next[i + 1] += 2.0 * c;
        }
        for (i, &c) in prev.iter().enumerate() {
            next[i] -= c;
        }
        rows.push(next);
    }
    rows
}

/// Product of two Chebyshev series using
/// `T_i T_j = (T_{i+j} + T_{|i-j|}) / 2`.
pub fn mul(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return vec![];
    }
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0.0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            let p = 0.5 * ai * bj;
            out[i + j] += p;
            out[i.abs_diff(j)] += p;
        }
    }
    out
}

/// `∫_{-1}^{1} T_n(x) dx`: `0` for odd `n`, `2 / (1 - n^2)` for even `n`.
#[inline]
pub fn t_integral(n: usize) -> f64 {
    if n % 2 == 1 {
        0.0
    } else {
        2.0 / (1.0 - (n as f64) * (n as f64))
    }
}

/// Definite integral of a Chebyshev series over `[-1, 1]`, in closed form.
pub fn integrate(coeffs: &[f64]) -> f64 {
    coeffs
        .iter()
        .step_by(2)
        .enumerate()
        .map(|(half, &c)| c * t_integral(2 * half))
        .sum()
}

/// The `n + 1` Chebyshev–Lobatto nodes `x_j = cos(pi j / n)`, descending
/// from `1` to `-1`.
pub fn lobatto_nodes(n: usize) -> Vec<f64> {
    assert!(n >= 1);
    (0..=n)
        .map(|j| (std::f64::consts::PI * j as f64 / n as f64).cos())
        .collect()
}

/// Interpolate `f` at the Lobatto nodes by a degree-`n` Chebyshev series.
///
/// `values[j]` must be `f(cos(pi j / n))` for `j = 0..=n` (the order
/// produced by [`lobatto_nodes`]). The cosine transform dominates the cost;
/// per the paper this is the bottleneck of the whole quantile estimate.
pub fn interpolate_values(values: &[f64]) -> Vec<f64> {
    let n = values.len() - 1;
    let x = fct::dct1(values);
    let mut out = Vec::with_capacity(n + 1);
    for (k, &xk) in x.iter().enumerate() {
        let w = if k == 0 || k == n {
            1.0 / n as f64
        } else {
            2.0 / n as f64
        };
        out.push(w * xk);
    }
    out
}

/// Interpolate a closure on `[-1, 1]` by a degree-`n` Chebyshev series.
pub fn interpolate<F: FnMut(f64) -> f64>(n: usize, mut f: F) -> Vec<f64> {
    let values: Vec<f64> = lobatto_nodes(n).into_iter().map(&mut f).collect();
    interpolate_values(&values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_eval_matches_coefficients() {
        for n in 0..12 {
            let c = t_coefficients(n);
            for &x in &[-1.0, -0.7, 0.0, 0.3, 1.0] {
                let direct = crate::poly::eval(&c, x);
                assert!(
                    (t_eval(n, x) - direct).abs() < 1e-10,
                    "T_{n}({x}): {} vs {direct}",
                    t_eval(n, x)
                );
            }
        }
    }

    #[test]
    fn t_eval_outside_unit_interval() {
        // T_2(x) = 2x^2 - 1 everywhere.
        for &x in &[-3.0, -1.5, 1.5, 3.0] {
            assert!((t_eval(2, x) - (2.0 * x * x - 1.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn clenshaw_matches_direct_sum() {
        let coeffs = [0.5, -1.0, 0.25, 0.125, -0.3];
        for &x in &[-0.9, -0.2, 0.0, 0.4, 0.99] {
            let direct: f64 = coeffs
                .iter()
                .enumerate()
                .map(|(k, &c)| c * t_eval(k, x))
                .sum();
            assert!((clenshaw(&coeffs, x) - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn clenshaw_each_is_bit_identical_to_clenshaw() {
        let coeffs: Vec<f64> = (0..37)
            .map(|k| ((k * 7 % 11) as f64 - 5.0) / (k + 1) as f64)
            .collect();
        for n in [0usize, 1, 7, 8, 9, 16, 1025] {
            let xs: Vec<f64> = (0..n)
                .map(|i| -1.0 + 2.0 * i as f64 / n.max(1) as f64)
                .collect();
            for len in [0usize, 1, 2, 37] {
                let mut out = vec![f64::NAN; n];
                clenshaw_each(&coeffs[..len], &xs, &mut out);
                for (&x, &y) in xs.iter().zip(&out) {
                    assert_eq!(
                        y.to_bits(),
                        clenshaw(&coeffs[..len], x).to_bits(),
                        "x={x} len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn series_product() {
        // (T_1)^2 = x^2 = (T_0 + T_2)/2.
        let p = mul(&[0.0, 1.0], &[0.0, 1.0]);
        assert!((p[0] - 0.5).abs() < 1e-15);
        assert!(p[1].abs() < 1e-15);
        assert!((p[2] - 0.5).abs() < 1e-15);
        // Check against pointwise evaluation for random-ish series.
        let a = [0.3, -0.7, 0.2, 0.05];
        let b = [1.1, 0.4, -0.6];
        let ab = mul(&a, &b);
        for &x in &[-0.8, -0.1, 0.5, 0.9] {
            let lhs = clenshaw(&ab, x);
            let rhs = clenshaw(&a, x) * clenshaw(&b, x);
            assert!((lhs - rhs).abs() < 1e-12);
        }
    }

    #[test]
    fn integral_closed_form() {
        // ∫_{-1}^{1} x^2 dx = 2/3 via the Chebyshev series of x^2,
        // (T_0 + T_2) / 2.
        assert!((integrate(&[0.5, 0.0, 0.5]) - 2.0 / 3.0).abs() < 1e-14);
        assert_eq!(t_integral(1), 0.0);
        assert!((t_integral(2) + 2.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn interpolation_recovers_polynomials() {
        // Degree-5 polynomial is exactly recovered by a degree-8 interpolant.
        let f = |x: f64| 1.0 + x - 2.0 * x.powi(3) + 0.5 * x.powi(5);
        let series = interpolate(8, f);
        for &x in &[-0.95, -0.3, 0.2, 0.8] {
            assert!((clenshaw(&series, x) - f(x)).abs() < 1e-10);
        }
    }

    #[test]
    fn interpolation_converges_for_smooth_functions() {
        let f = |x: f64| (2.0 * x).exp();
        let series = interpolate(32, f);
        for &x in &[-1.0, -0.4, 0.1, 0.9, 1.0] {
            assert!((clenshaw(&series, x) - f(x)).abs() < 1e-10);
        }
    }
}
