//! The sketch-independent part of a maxent solve, built once per process
//! for each Chebyshev node count and borrowed by every solve after that.
//!
//! For a node count `N` these are the Lobatto nodes, the Clenshaw–Curtis
//! weights, `∫ T_m` for `m = 0..=3N + 2`, and, for every primary-domain
//! basis function `T_a` with `a <= MAX_ORDER`: its values at the nodes,
//! its gradient pairing vector, and the Hessian pairing vector of each
//! product `T_a T_b`. A primary-domain function is a plain Chebyshev
//! polynomial of the integration variable, so none of these depend on the
//! sketch. Each table entry is computed by the same code, in the same
//! order, as a solve that computes it itself, so borrowing it changes no
//! bit of any estimate.

use numerics::chebyshev;
use numerics::integrate::clenshaw_curtis_weights;
use std::sync::OnceLock;

/// Highest Chebyshev order tabulated: `stats::max_stable_k(0)`, the
/// stability cap that no sketch's usable moment count exceeds. A higher
/// order (only reachable through a hand-built [`super::basis::Basis`]) is
/// computed per solve with the same code.
pub(crate) const MAX_ORDER: usize = 17;

/// Node counts `2^3 ..= 2^MAX_CACHED_LOG2` keep their tables; a larger
/// count (a configuration choice, never a default) computes per solve
/// what it needs rather than holding megabytes for the process lifetime.
const MAX_CACHED_LOG2: usize = 10;

/// Tables for one node count `N`.
pub(crate) struct NodeTables {
    /// Highest order tabulated: `MAX_ORDER`, or `N + 1` when that is
    /// lower (past it, a product's pairing vector would read beyond the
    /// `∫ T_m` table, as it would in a solve that computed it itself).
    top: usize,
    /// The `N + 1` Lobatto nodes, descending from 1 to -1.
    pub(crate) nodes: Vec<f64>,
    /// Clenshaw–Curtis weights at those nodes.
    pub(crate) weights: Vec<f64>,
    /// `∫ T_m` for `m = 0..=3N + 2`: product series reach `2N`, and
    /// pairing adds another `N`.
    pub(crate) t_int: Vec<f64>,
    /// `T_a` at the nodes, `a = 0..=top`.
    values: Vec<Vec<f64>>,
    /// Gradient pairing vector of `T_a`, `a = 0..=top`.
    grad_pair: Vec<Vec<f64>>,
    /// Hessian pairing vector of `T_a T_b`, packed over `a <= b`.
    hess_pair: Vec<Vec<f64>>,
}

impl NodeTables {
    fn build(n_nodes: usize) -> NodeTables {
        let top = MAX_ORDER.min(n_nodes + 1);
        let nodes = chebyshev::lobatto_nodes(n_nodes);
        let t_int = t_integrals(n_nodes);
        let values = (0..=top).map(|a| primary_row(&nodes, a)).collect();
        let grad_pair = (0..=top)
            .map(|a| pairing_vector(&unit_series(a), n_nodes, &t_int))
            .collect();
        let mut hess_pair = Vec::with_capacity((top + 1) * (top + 2) / 2);
        for a in 0..=top {
            for b in a..=top {
                hess_pair.push(product_pairing(a, b, n_nodes, &t_int));
            }
        }
        NodeTables {
            top,
            weights: clenshaw_curtis_weights(n_nodes),
            nodes,
            t_int,
            values,
            grad_pair,
            hess_pair,
        }
    }

    /// `T_order` at the nodes, when tabulated.
    pub(crate) fn values(&self, order: usize) -> Option<&[f64]> {
        self.values.get(order).map(Vec::as_slice)
    }

    /// Gradient pairing vector of `T_order`, when tabulated.
    pub(crate) fn grad_pair(&self, order: usize) -> Option<&[f64]> {
        self.grad_pair.get(order).map(Vec::as_slice)
    }

    /// Hessian pairing vector of `T_a T_b`, when both are tabulated.
    pub(crate) fn hess_pair(&self, a: usize, b: usize) -> Option<&[f64]> {
        let (a, b) = (a.min(b), a.max(b));
        (b <= self.top).then(|| self.hess_pair[a * (self.top + 1) - a * (a + 1) / 2 + b].as_slice())
    }
}

/// The tables for `n_nodes` (a power of two), built on first use; `None`
/// past the cached range.
pub(crate) fn cached(n_nodes: usize) -> Option<&'static NodeTables> {
    static TABLES: [OnceLock<NodeTables>; MAX_CACHED_LOG2 + 1] =
        [const { OnceLock::new() }; MAX_CACHED_LOG2 + 1];
    debug_assert!(n_nodes.is_power_of_two());
    let slot = TABLES.get(n_nodes.trailing_zeros() as usize)?;
    Some(slot.get_or_init(|| NodeTables::build(n_nodes)))
}

/// `∫ T_m` for `m = 0..=3N + 2`.
pub(crate) fn t_integrals(n_nodes: usize) -> Vec<f64> {
    (0..=3 * n_nodes + 2).map(chebyshev::t_integral).collect()
}

/// `T_order` at each of `nodes` — the constant 1 for order 0 — bit for
/// bit as [`super::basis::Basis::eval_row`] computes a primary-domain
/// function.
pub(crate) fn primary_row(nodes: &[f64], order: usize) -> Vec<f64> {
    if order == 0 {
        return vec![1.0; nodes.len()];
    }
    nodes
        .iter()
        .map(|&u| (order as f64 * u.clamp(-1.0, 1.0).acos()).cos())
        .collect()
}

/// The Chebyshev series of `T_order` itself.
pub(crate) fn unit_series(order: usize) -> Vec<f64> {
    let mut s = vec![0.0; order + 1];
    s[order] = 1.0;
    s
}

/// Hessian pairing vector of `T_a T_b`.
pub(crate) fn product_pairing(a: usize, b: usize, n_nodes: usize, t_int: &[f64]) -> Vec<f64> {
    let prod = chebyshev::mul(&unit_series(a), &unit_series(b));
    pairing_vector(&prod, n_nodes, t_int)
}

/// Pairing vector `p[m] = ∫ s(u) T_m(u) du` for `m = 0..=N`, computed in
/// closed form from the series coefficients of `s`.
pub(crate) fn pairing_vector(series: &[f64], n_nodes: usize, t_int: &[f64]) -> Vec<f64> {
    let mut p = vec![0.0; n_nodes + 1];
    for (m, slot) in p.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (n, &a) in series.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            acc += a * 0.5 * (t_int[n + m] + t_int[n.abs_diff(m)]);
        }
        *slot = acc;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tabulated_entries_equal_fresh_ones_bit_for_bit() {
        for n_nodes in [8, 64, 128] {
            let t = cached(n_nodes).unwrap();
            assert_eq!(t.nodes, chebyshev::lobatto_nodes(n_nodes));
            assert_eq!(t.t_int, t_integrals(n_nodes));
            assert_eq!(t.top, MAX_ORDER.min(n_nodes + 1));
            for a in 0..=t.top {
                assert_eq!(t.values(a).unwrap(), primary_row(&t.nodes, a));
                let grad = pairing_vector(&unit_series(a), n_nodes, &t.t_int);
                assert_eq!(t.grad_pair(a).unwrap(), grad);
                for b in 0..=t.top {
                    let fresh = product_pairing(a.min(b), a.max(b), n_nodes, &t.t_int);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(t.hess_pair(a, b).unwrap()), bits(&fresh), "({a}, {b})");
                }
            }
            assert!(t.values(t.top + 1).is_none());
            assert!(t.hess_pair(0, t.top + 1).is_none());
        }
        // Shared, not rebuilt.
        assert!(std::ptr::eq(cached(64).unwrap(), cached(64).unwrap()));
        assert!(cached(1 << 11).is_none());
    }

    #[test]
    fn table_order_cap_is_the_stability_cap() {
        assert_eq!(crate::stats::max_stable_k(0.0), MAX_ORDER);
    }
}
