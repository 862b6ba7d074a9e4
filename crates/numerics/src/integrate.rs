//! Numerical quadrature: trapezoid and Clenshaw–Curtis.
//!
//! The optimized solver integrates Chebyshev series in closed form; the
//! moment selector weighs its uniform-density Gram matrix with
//! Clenshaw–Curtis weights, which the paper's footnote 1 compares with the
//! polynomial trick.

/// Composite trapezoid rule with `n` panels.
pub fn trapezoid<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, n: usize) -> f64 {
    assert!(n >= 1);
    let h = (b - a) / n as f64;
    let mut acc = 0.5 * (f(a) + f(b));
    for i in 1..n {
        acc += f(a + i as f64 * h);
    }
    acc * h
}

/// Clenshaw–Curtis quadrature weights for `n + 1` Lobatto nodes on
/// `[-1, 1]` (`n` even recommended).
///
/// `∫ f ≈ Σ w_j f(cos(pi j / n))`.
pub fn clenshaw_curtis_weights(n: usize) -> Vec<f64> {
    assert!(n >= 2);
    let mut w = vec![0.0; n + 1];
    for (j, wj) in w.iter_mut().enumerate() {
        let theta = std::f64::consts::PI * j as f64 / n as f64;
        let mut acc = 1.0;
        for k in 1..=n / 2 {
            let b = if 2 * k == n { 1.0 } else { 2.0 };
            acc -= b * (2.0 * k as f64 * theta).cos() / ((4 * k * k - 1) as f64);
        }
        let c = if j == 0 || j == n { 1.0 } else { 2.0 };
        *wj = c * acc / n as f64;
    }
    w
}

/// Clenshaw–Curtis integration of `f` over `[a, b]` with `n + 1` nodes.
pub fn clenshaw_curtis<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, n: usize) -> f64 {
    let w = clenshaw_curtis_weights(n);
    let half = 0.5 * (b - a);
    let mid = 0.5 * (a + b);
    let mut acc = 0.0;
    for (j, &wj) in w.iter().enumerate() {
        let u = (std::f64::consts::PI * j as f64 / n as f64).cos();
        acc += wj * f(mid + half * u);
    }
    acc * half
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trapezoid_linear_exact() {
        // Trapezoid is exact on affine functions.
        let v = trapezoid(|x| 3.0 * x + 1.0, 0.0, 2.0, 4);
        assert!((v - 8.0).abs() < 1e-12);
    }

    #[test]
    fn clenshaw_curtis_weights_sum_to_two() {
        for n in [4usize, 8, 16, 32] {
            let w = clenshaw_curtis_weights(n);
            let sum: f64 = w.iter().sum();
            assert!((sum - 2.0).abs() < 1e-12, "n={n} sum={sum}");
        }
    }

    #[test]
    fn clenshaw_curtis_smooth() {
        let v = clenshaw_curtis(|x| (1.5 * x).exp(), -1.0, 1.0, 32);
        let exact = ((1.5f64).exp() - (-1.5f64).exp()) / 1.5;
        assert!((v - exact).abs() < 1e-12);
    }

    #[test]
    fn clenshaw_curtis_shifted_interval() {
        let v = clenshaw_curtis(|x| x.sqrt(), 1.0, 4.0, 64);
        let exact = 2.0 / 3.0 * (8.0 - 1.0);
        assert!((v - exact).abs() < 1e-9);
    }
}
