//! Dense polynomial arithmetic in the monomial basis.
//!
//! Coefficients are stored lowest-degree first: `p = c\[0\] + c[1] x + ...`.
//! Used by the Racz–Tari–Telek bound (orthogonal-style polynomials whose
//! roots are quadrature nodes) and by basis-conversion code.

/// Evaluate `p(x)` by Horner's rule.
#[inline]
pub fn eval(coeffs: &[f64], x: f64) -> f64 {
    coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
}

/// Derivative of a polynomial (lowest-degree-first coefficients).
pub fn derivative(coeffs: &[f64]) -> Vec<f64> {
    if coeffs.len() <= 1 {
        return vec![0.0];
    }
    coeffs
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, &c)| c * i as f64)
        .collect()
}

/// Product of two polynomials.
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
            out[i + j] += ai * bj;
        }
    }
    out
}

/// Sum of two polynomials.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    let n = a.len().max(b.len());
    let mut out = vec![0.0; n];
    for (i, &ai) in a.iter().enumerate() {
        out[i] += ai;
    }
    for (i, &bi) in b.iter().enumerate() {
        out[i] += bi;
    }
    out
}

/// Scale a polynomial by a constant.
pub fn scale(a: &[f64], s: f64) -> Vec<f64> {
    a.iter().map(|&c| c * s).collect()
}

/// Drop trailing (highest-degree) coefficients that are exactly zero or
/// negligible relative to the largest coefficient.
pub fn trim(coeffs: &mut Vec<f64>) {
    let max = coeffs.iter().fold(0.0f64, |m, &c| m.max(c.abs()));
    let tol = max * 1e-14;
    while coeffs.len() > 1 && coeffs.last().is_some_and(|&c| c.abs() <= tol) {
        coeffs.pop();
    }
}

/// Degree of the polynomial after ignoring negligible leading coefficients.
pub fn degree(coeffs: &[f64]) -> usize {
    let max = coeffs.iter().fold(0.0f64, |m, &c| m.max(c.abs()));
    let tol = max * 1e-14;
    let mut d = coeffs.len().saturating_sub(1);
    while d > 0 && coeffs[d].abs() <= tol {
        d -= 1;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_horner() {
        // p(x) = 1 + 2x + 3x^2
        let p = [1.0, 2.0, 3.0];
        assert_eq!(eval(&p, 0.0), 1.0);
        assert_eq!(eval(&p, 1.0), 6.0);
        assert_eq!(eval(&p, 2.0), 17.0);
    }

    #[test]
    fn derivative_basic() {
        let p = [1.0, 2.0, 3.0]; // 1 + 2x + 3x^2
        assert_eq!(derivative(&p), vec![2.0, 6.0]);
        assert_eq!(derivative(&[5.0]), vec![0.0]);
    }

    #[test]
    fn mul_add() {
        let a = [1.0, 1.0]; // 1 + x
        let b = [1.0, -1.0]; // 1 - x
        assert_eq!(mul(&a, &b), vec![1.0, 0.0, -1.0]); // 1 - x^2
        assert_eq!(add(&a, &b), vec![2.0, 0.0]);
    }

    #[test]
    fn trim_and_degree() {
        let mut p = vec![1.0, 2.0, 0.0, 0.0];
        trim(&mut p);
        assert_eq!(p, vec![1.0, 2.0]);
        assert_eq!(degree(&[1.0, 0.0, 3.0, 1e-20]), 2);
    }
}
