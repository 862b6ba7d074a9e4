//! The maximum-entropy potential, its gradient, and its Hessian, evaluated
//! with the paper's Chebyshev-approximation trick (Section 4.3.1).
//!
//! The potential of Mead & Papanicolaou (Eq. 5 of the paper) is
//!
//! ```text
//! L(θ) = ∫ exp(Σ_i θ_i m̃_i(u)) du − Σ_i θ_i μ̃_i
//! ```
//!
//! over the primary variable `u ∈ [-1, 1]`, with gradient
//! `∂L/∂θ_i = ∫ m̃_i f − μ̃_i` and Hessian `∫ m̃_i m̃_j f` (Eq. 6). The
//! expensive part is the integrals. We:
//!
//! 1. interpolate `f(·; θ)` at `N + 1` Chebyshev–Lobatto nodes into a
//!    degree-`N` series via one fast cosine transform per iteration;
//! 2. represent each basis function — and, once per solve, each pairwise
//!    product `m̃_i m̃_j` — as a Chebyshev series (`θ`-independent);
//! 3. integrate products of series in closed form through
//!    `T_a T_b = (T_{a+b} + T_{|a−b|})/2` and `∫ T_n = 2/(1−n²)` (even n).
//!
//! Everything `θ`-independent is hoisted into "pairing vectors" `p` such
//! that `∫ m̃_i m̃_j f ≈ pᵀ c_f` where `c_f` is the per-iteration series of
//! `f`, so each Newton step costs one cosine transform plus dense dot
//! products.

use super::basis::{Basis, PrimaryDomain};
use super::tables;
use numerics::chebyshev;
use numerics::linalg::Matrix;
use numerics::optimize::NewtonObjective;
use std::borrow::Cow;

/// Saturation threshold for exponents inside `exp`; beyond this the
/// density has diverged and the line search must reject the step.
const EXP_CAP: f64 = 500.0;

/// A table row: borrowed from the process-wide [`tables`] when the row
/// does not depend on the sketch, computed for this solve otherwise.
type Row = Cow<'static, [f64]>;

/// Precomputed state for evaluating `L`, `∇L`, and `∇²L` at any `θ`.
pub struct MaxEntObjective {
    dim: usize,
    /// Basis values at the Lobatto nodes: `dim x (N + 1)`.
    basis_nodes: Vec<Row>,
    /// Gradient pairing vectors: `dim x (N + 1)`.
    grad_pair: Vec<Row>,
    /// Upper-triangle Hessian pairing vectors: `dim (dim+1) / 2 x (N+1)`.
    hess_pair: Vec<Row>,
    /// `∫ T_m` for `m = 0..=3N + 2`.
    t_int: Row,
    /// Target moments `μ̃`.
    mu: Vec<f64>,
    /// Scratch: density values at nodes.
    node_f: Vec<f64>,
    /// Number of interpolation panels `N` (power of two).
    n_nodes: usize,
    /// Cosine transforms performed (the paper's reported bottleneck).
    pub fct_count: std::cell::Cell<usize>,
}

impl MaxEntObjective {
    /// Build the objective for a basis: node values, basis series,
    /// product series, and pairing vectors.
    ///
    /// Everything that involves only primary-domain functions is borrowed
    /// from the process-wide tables for `n_nodes`; only rows that involve
    /// a secondary-domain function (whose values depend on the sketch's
    /// range) are computed here.
    pub fn new(basis: &Basis, n_nodes: usize) -> Self {
        assert!(n_nodes.is_power_of_two() && n_nodes >= 8);
        let dim = basis.dim();
        let cached = tables::cached(n_nodes);
        let t_int: Row = match cached {
            Some(t) => Cow::Borrowed(&t.t_int),
            None => Cow::Owned(tables::t_integrals(n_nodes)),
        };
        let basis_nodes = node_rows(basis, n_nodes);
        let orders: Vec<Option<usize>> = (0..dim).map(|i| primary_order(basis, i)).collect();
        // Chebyshev series for each basis function. Primary-domain
        // functions are exact unit series; secondary-domain functions are
        // interpolated from their node values (one cosine transform each).
        let series: Vec<Vec<f64>> = (0..dim)
            .map(|i| match orders[i] {
                Some(order) => tables::unit_series(order),
                None => chebyshev::interpolate_values(&basis_nodes[i]),
            })
            .collect();
        let grad_pair: Vec<Row> = (0..dim)
            .map(|i| {
                let tabulated = orders[i].zip(cached).and_then(|(a, t)| t.grad_pair(a));
                match tabulated {
                    Some(row) => Cow::Borrowed(row),
                    None => Cow::Owned(tables::pairing_vector(&series[i], n_nodes, &t_int)),
                }
            })
            .collect();
        let mut hess_pair: Vec<Row> = Vec::with_capacity(dim * (dim + 1) / 2);
        for i in 0..dim {
            for j in i..dim {
                let tabulated = match (orders[i], orders[j], cached) {
                    (Some(a), Some(b), Some(t)) => t.hess_pair(a, b),
                    _ => None,
                };
                hess_pair.push(match tabulated {
                    Some(row) => Cow::Borrowed(row),
                    None => {
                        let prod = chebyshev::mul(&series[i], &series[j]);
                        Cow::Owned(tables::pairing_vector(&prod, n_nodes, &t_int))
                    }
                });
            }
        }
        MaxEntObjective {
            dim,
            basis_nodes,
            grad_pair,
            hess_pair,
            t_int,
            mu: basis.mu.clone(),
            node_f: vec![0.0; n_nodes + 1],
            n_nodes,
            fct_count: std::cell::Cell::new(0),
        }
    }

    /// The number of Lobatto panels `N`.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Density values at the Lobatto nodes for a given `θ` (diagnostics
    /// and final-series construction).
    pub fn density_at_nodes(&self, theta: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_nodes + 1];
        self.fill_node_density(theta, &mut out);
        out
    }

    fn fill_node_density(&self, theta: &[f64], out: &mut [f64]) {
        for (j, slot) in out.iter_mut().enumerate() {
            let mut s = 0.0;
            for (ti, row) in theta.iter().zip(&self.basis_nodes) {
                s += ti * row[j];
            }
            *slot = if s > EXP_CAP { f64::INFINITY } else { s.exp() };
        }
    }

    /// Index into the packed upper-triangle Hessian pairing table.
    #[inline]
    fn tri_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i <= j);
        i * self.dim - i * (i + 1) / 2 + j
    }

    /// Value and gradient only (no Hessian) — used by the first-order
    /// `bfgs` lesion estimator, which must not pay for second-order
    /// information.
    pub fn eval_value_grad(&mut self, theta: &[f64], grad: &mut [f64]) -> f64 {
        let mut node_f = std::mem::take(&mut self.node_f);
        self.fill_node_density(theta, &mut node_f);
        if node_f.iter().any(|f| !f.is_finite()) {
            self.node_f = node_f;
            return f64::INFINITY;
        }
        let c_f = chebyshev::interpolate_values(&node_f);
        self.fct_count.set(self.fct_count.get() + 1);
        self.node_f = node_f;
        let integral: f64 = c_f
            .iter()
            .zip(self.t_int.iter())
            .map(|(&c, &i)| c * i)
            .sum();
        for (g, (pair, mu)) in grad.iter_mut().zip(self.grad_pair.iter().zip(&self.mu)) {
            *g = numerics::dot(pair, &c_f) - mu;
        }
        integral - numerics::dot(theta, &self.mu)
    }
}

/// Chebyshev order of basis function `i` when it is a plain polynomial of
/// the primary variable (constant and primary-domain functions); `None`
/// for secondary-domain functions that require interpolation.
fn primary_order(basis: &Basis, i: usize) -> Option<usize> {
    if i == 0 {
        return Some(0);
    }
    match basis.primary {
        PrimaryDomain::Standard if i <= basis.k1 => Some(i),
        PrimaryDomain::Log if i > basis.k1 => Some(i - basis.k1),
        _ => None,
    }
}

/// Values of every function of `basis` at the `n_nodes + 1` Lobatto
/// nodes, one row per function, bit for bit as [`Basis::eval_row`]
/// computes them: primary-domain rows are borrowed from the tables for
/// `n_nodes` when they hold them, secondary-domain rows go through the
/// row evaluator.
pub(crate) fn node_rows(basis: &Basis, n_nodes: usize) -> Vec<Row> {
    let cached = tables::cached(n_nodes);
    let fresh_nodes;
    let nodes = match cached {
        Some(t) => &t.nodes,
        None => {
            fresh_nodes = chebyshev::lobatto_nodes(n_nodes);
            &fresh_nodes
        }
    };
    let mut secondary = basis.secondary_rows(nodes).into_iter();
    (0..basis.dim())
        .map(|i| match primary_order(basis, i) {
            Some(order) => match cached.and_then(|t| t.values(order)) {
                Some(row) => Cow::Borrowed(row),
                None => Cow::Owned(tables::primary_row(nodes, order)),
            },
            None => Cow::Owned(secondary.next().expect("one row per secondary function")),
        })
        .collect()
}

impl NewtonObjective for MaxEntObjective {
    fn dim(&self) -> usize {
        self.dim
    }

    fn eval(&mut self, theta: &[f64], grad: &mut [f64], hess: &mut Matrix) -> f64 {
        // Density at nodes.
        let mut node_f = std::mem::take(&mut self.node_f);
        self.fill_node_density(theta, &mut node_f);
        if node_f.iter().any(|f| !f.is_finite()) {
            self.node_f = node_f;
            // Diverged: force rejection by the line search.
            return f64::INFINITY;
        }
        // One cosine transform: Chebyshev series of f.
        let c_f = chebyshev::interpolate_values(&node_f);
        self.fct_count.set(self.fct_count.get() + 1);
        self.node_f = node_f;
        // Value.
        let integral: f64 = c_f
            .iter()
            .zip(self.t_int.iter())
            .map(|(&c, &i)| c * i)
            .sum();
        let value = integral - numerics::dot(theta, &self.mu);
        // Gradient.
        for (g, (pair, mu)) in grad.iter_mut().zip(self.grad_pair.iter().zip(&self.mu)) {
            *g = numerics::dot(pair, &c_f) - mu;
        }
        // Hessian (symmetric).
        for i in 0..self.dim {
            for j in i..self.dim {
                let h = numerics::dot(&self.hess_pair[self.tri_index(i, j)], &c_f);
                hess[(i, j)] = h;
                hess[(j, i)] = h;
            }
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::basis::{cheb_moments, Basis};
    use crate::MomentsSketch;
    use numerics::optimize::{newton_minimize, NewtonOptions};

    fn basis_for(data: &[f64], k1: usize, k2: usize) -> Basis {
        let s = MomentsSketch::from_data(12, data);
        Basis::new(cheb_moments(&s, true).unwrap(), k1, k2)
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let data: Vec<f64> = (1..=500).map(|i| (i as f64 / 50.0).exp()).collect();
        let basis = basis_for(&data, 3, 2);
        let mut obj = MaxEntObjective::new(&basis, 64);
        let dim = basis.dim();
        let theta: Vec<f64> = (0..dim).map(|i| -0.3 + 0.1 * i as f64).collect();
        let mut grad = vec![0.0; dim];
        let mut hess = Matrix::zeros(dim, dim);
        let v0 = obj.eval(&theta, &mut grad, &mut hess);
        assert!(v0.is_finite());
        let g0 = grad.clone();
        let h = 1e-6;
        for i in 0..dim {
            let mut tp = theta.clone();
            tp[i] += h;
            let vp = obj.eval(&tp, &mut grad, &mut hess);
            tp[i] -= 2.0 * h;
            let vm = obj.eval(&tp, &mut grad, &mut hess);
            let fd = (vp - vm) / (2.0 * h);
            assert!(
                (fd - g0[i]).abs() < 1e-5 * (1.0 + fd.abs()),
                "i={i}: fd {fd} vs analytic {}",
                g0[i]
            );
        }
    }

    #[test]
    fn hessian_matches_gradient_differences() {
        let data: Vec<f64> = (1..=400).map(|i| 1.0 + (i as f64).sqrt()).collect();
        let basis = basis_for(&data, 4, 0);
        let mut obj = MaxEntObjective::new(&basis, 64);
        let dim = basis.dim();
        let theta = vec![-0.7, 0.2, -0.1, 0.05, 0.01];
        let mut grad = vec![0.0; dim];
        let mut hess = Matrix::zeros(dim, dim);
        obj.eval(&theta, &mut grad, &mut hess);
        let h0 = hess.clone();
        let h = 1e-6;
        for j in 0..dim {
            let mut tp = theta.clone();
            tp[j] += h;
            obj.eval(&tp, &mut grad, &mut hess);
            let gp = grad.clone();
            tp[j] -= 2.0 * h;
            obj.eval(&tp, &mut grad, &mut hess);
            let gm = grad.clone();
            for i in 0..dim {
                let fd = (gp[i] - gm[i]) / (2.0 * h);
                assert!(
                    (fd - h0[(i, j)]).abs() < 1e-4 * (1.0 + fd.abs()),
                    "({i},{j}): fd {fd} vs analytic {}",
                    h0[(i, j)]
                );
            }
        }
    }

    #[test]
    fn solves_uniform_data_to_near_uniform_density() {
        // For uniform data the maximum entropy density is ~uniform, so
        // θ ≈ (ln(1/2), 0, 0, ...).
        let data: Vec<f64> = (0..4000).map(|i| i as f64 / 3999.0).collect();
        let basis = basis_for(&data, 4, 0);
        let mut obj = MaxEntObjective::new(&basis, 64);
        let mut theta0 = vec![0.0; basis.dim()];
        theta0[0] = (0.5f64).ln();
        let res = newton_minimize(&mut obj, &theta0, NewtonOptions::default()).unwrap();
        assert!(res.grad_norm < 1e-8);
        assert!((res.theta[0] - (0.5f64).ln()).abs() < 0.01);
        for &t in &res.theta[1..] {
            assert!(t.abs() < 0.02, "theta {t}");
        }
    }

    #[test]
    fn diverged_theta_yields_infinite_value() {
        let data: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let basis = basis_for(&data, 2, 0);
        let mut obj = MaxEntObjective::new(&basis, 32);
        let mut grad = vec![0.0; 3];
        let mut hess = Matrix::zeros(3, 3);
        let v = obj.eval(&[900.0, 0.0, 0.0], &mut grad, &mut hess);
        assert!(v.is_infinite());
    }
}
