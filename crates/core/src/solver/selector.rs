//! Greedy selection of how many standard and log moments to use
//! (the `k1`, `k2` heuristic of Section 4.3.1).
//!
//! Using every stored moment is not always best: after floating-point
//! clamping, the remaining moments can still produce a Newton Hessian too
//! ill-conditioned to optimize. The paper's heuristic greedily increments
//! `k1` and `k2`, preferring whichever next moment is closer to the value
//! a uniform distribution would have (a proxy for "well-behaved"), and
//! stops when the condition number of the Hessian at the uniform starting
//! point would exceed `κ_max`.

use super::basis::{Basis, ChebMoments, PrimaryDomain};
use super::maxent::node_rows;
use super::tables;
use numerics::eigen::condition_number_sym;
use numerics::linalg::Matrix;

/// Quadrature nodes (panels) of the selector's Gram matrices.
const GRAM_NODES: usize = 64;

/// Outcome of moment selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Selection {
    /// Standard moments to use.
    pub k1: usize,
    /// Log moments to use.
    pub k2: usize,
    /// Condition number of the uniform-point Hessian for the selection.
    pub cond: f64,
}

/// Expected value of `T_n(u)` under the uniform distribution on `[-1, 1]`.
fn uniform_moment(n: usize) -> f64 {
    0.5 * numerics::chebyshev::t_integral(n)
}

/// Gram entry `G_ij = 0.5 ∫ m̃_i m̃_j du` by Clenshaw–Curtis quadrature at
/// the nodes, from the functions' node values `row_i` and `row_j`. The
/// Gram matrix equals the Newton Hessian at the uniform initialization.
///
/// `row_i` must be the function chosen first: `(w·v_i)·v_j` and
/// `(w·v_j)·v_i` round differently, and the chosen `(k1, k2)` depends on
/// those bits.
fn gram_entry(weights: &[f64], row_i: &[f64], row_j: &[f64]) -> f64 {
    let mut acc = 0.0;
    for ((&vi, &vj), &w) in row_i.iter().zip(row_j).zip(weights) {
        acc += w * vi * vj;
    }
    0.5 * acc
}

/// Greedily choose `(k1, k2)` with condition number below `kappa_max`.
///
/// `max_k1` / `max_k2` cap the candidates (post stability clamping);
/// `max_k2 = 0` disables log moments entirely.
pub fn select(moments: &ChebMoments, max_k1: usize, max_k2: usize, kappa_max: f64) -> Selection {
    let avail_s = (moments.std_cheb.len() - 1).min(max_k1);
    let avail_l = moments
        .log_cheb
        .as_ref()
        .map_or(0, |l| (l.len() - 1).min(max_k2));
    // Evaluate the full candidate basis at the nodes once. The primary
    // domain matches what the solver will use if any log moment is
    // selected.
    let primary = if avail_l > 0 {
        PrimaryDomain::Log
    } else {
        PrimaryDomain::Standard
    };
    let full = Basis {
        k1: avail_s,
        k2: avail_l,
        primary,
        std_dom: moments.std_dom,
        log_dom: moments.log_dom,
        mu: vec![0.0; 1 + avail_s + avail_l],
    };
    let values = node_rows(&full, GRAM_NODES);
    let weights = &tables::cached(GRAM_NODES)
        .expect("the Gram node count is in the cached range")
        .weights;

    // The Gram matrix of the chosen functions (row-major, in the order
    // they were chosen), grown by one row and column per candidate: each
    // entry is computed once.
    let mut chosen = vec![0usize]; // constant function always in
    let mut gram = Matrix::from_vec(1, 1, vec![gram_entry(weights, &values[0], &values[0])]);
    let mut k1 = 0usize;
    let mut k2 = 0usize;
    let mut cond = 1.0;
    let mut std_dead = false;
    let mut log_dead = false;
    loop {
        // Candidate next moments with their distance-to-uniform score.
        let mut cands: Vec<(bool, f64)> = Vec::with_capacity(2);
        if !std_dead && k1 < avail_s {
            let next = k1 + 1;
            let d = (moments.std_cheb[next] - uniform_moment(next)).abs();
            cands.push((true, d));
        }
        if !log_dead && k2 < avail_l {
            let next = k2 + 1;
            let d = (moments.log_cheb.as_ref().unwrap()[next] - uniform_moment(next)).abs();
            cands.push((false, d));
        }
        if cands.is_empty() {
            break;
        }
        cands.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let mut accepted = false;
        for &(is_std, _) in &cands {
            let idx = if is_std { 1 + k1 } else { 1 + avail_s + k2 };
            let d = chosen.len();
            let column: Vec<f64> = chosen
                .iter()
                .map(|&i| gram_entry(weights, &values[i], &values[idx]))
                .collect();
            let mut grown = Vec::with_capacity((d + 1) * (d + 1));
            for (row, &c) in gram.data().chunks_exact(d).zip(&column) {
                grown.extend_from_slice(row);
                grown.push(c);
            }
            grown.extend_from_slice(&column);
            grown.push(gram_entry(weights, &values[idx], &values[idx]));
            let g = Matrix::from_vec(d + 1, d + 1, grown);
            let c = condition_number_sym(&g);
            if c <= kappa_max {
                if is_std {
                    k1 += 1;
                } else {
                    k2 += 1;
                }
                chosen.push(idx);
                gram = g;
                cond = c;
                accepted = true;
                break;
            }
            if is_std {
                std_dead = true;
            } else {
                log_dead = true;
            }
        }
        if !accepted {
            break;
        }
    }
    Selection { k1, k2, cond }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::basis::cheb_moments;
    use crate::MomentsSketch;

    #[test]
    fn selects_moments_for_smooth_data() {
        let data: Vec<f64> = (1..=5000).map(|i| 1.0 + (i as f64 / 5000.0)).collect();
        let s = MomentsSketch::from_data(10, &data);
        let m = cheb_moments(&s, true).unwrap();
        let sel = select(&m, 10, 10, 1e4);
        assert!(sel.k1 + sel.k2 >= 6, "selected {:?}", sel);
        assert!(sel.cond <= 1e4);
    }

    #[test]
    fn respects_caps() {
        let data: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let s = MomentsSketch::from_data(10, &data);
        let m = cheb_moments(&s, true).unwrap();
        let sel = select(&m, 3, 2, 1e4);
        assert!(sel.k1 <= 3);
        assert!(sel.k2 <= 2);
    }

    #[test]
    fn no_log_moments_for_signed_data() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 / 500.0) - 1.0).collect();
        let s = MomentsSketch::from_data(8, &data);
        let m = cheb_moments(&s, true).unwrap();
        let sel = select(&m, 8, 8, 1e4);
        assert_eq!(sel.k2, 0);
        assert!(sel.k1 >= 4);
    }

    #[test]
    fn tight_kappa_limits_selection() {
        let data: Vec<f64> = (1..=2000).map(|i| (i as f64).powf(2.5)).collect();
        let s = MomentsSketch::from_data(12, &data);
        let m = cheb_moments(&s, true).unwrap();
        let loose = select(&m, 12, 12, 1e6);
        let tight = select(&m, 12, 12, 10.0);
        assert!(tight.k1 + tight.k2 <= loose.k1 + loose.k2);
        assert!(tight.cond <= 10.0);
    }

    #[test]
    fn uniform_hessian_is_gram_matrix() {
        let data: Vec<f64> = (0..1000).map(|i| i as f64 / 999.0).collect();
        let s = MomentsSketch::from_data(12, &data);
        let m = cheb_moments(&s, true).unwrap();
        let basis = Basis::new(m, 3, 0);
        let weights = &tables::cached(GRAM_NODES).unwrap().weights;
        let values = node_rows(&basis, GRAM_NODES);
        let h = |i: usize, j: usize| gram_entry(weights, &values[i], &values[j]);
        // H_00 = 0.5 * ∫ 1 = 1. H_11 = 0.5 ∫ T_1² = 0.5 * (I_2 + I_0)/2 = 1/3.
        assert!((h(0, 0) - 1.0).abs() < 1e-12);
        assert!((h(1, 1) - 1.0 / 3.0).abs() < 1e-12);
        // Odd-order cross terms vanish.
        assert!(h(0, 1).abs() < 1e-12);
    }

    #[test]
    fn uniform_moment_reference_values() {
        assert_eq!(uniform_moment(1), 0.0);
        assert!((uniform_moment(2) + 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(uniform_moment(3), 0.0);
    }
}
