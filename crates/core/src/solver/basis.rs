//! The Chebyshev constraint basis of the maximum-entropy problem
//! (Section 4.3.1 of the paper).
//!
//! Instead of the raw functions `x^i` and `log^i(x)` — whose Newton
//! Hessians are catastrophically ill-conditioned (the paper measures
//! `κ ≈ 3·10^31` at `k1 = 8`) — the solver uses Chebyshev polynomials of
//! linearly rescaled arguments:
//!
//! ```text
//! m̃_i(x) = T_i(s1(x))           i = 1..k1   (standard moments)
//! m̃_{k1+j}(x) = T_j(s2(ln x))   j = 1..k2   (log moments)
//! ```
//!
//! The optimization runs over a single *primary* variable on `[-1, 1]`:
//! the scaled `x` when only standard moments are used, the scaled `ln x`
//! whenever log moments participate (Appendix A.1 of the technical report
//! formulates the problem for either choice via `h(x) = log x` or
//! `h(x) = e^x`). Using the log domain as primary keeps every basis
//! function entire — `T_i(s1(exp(·)))` has no singularity — whereas
//! `ln(·)` blows up at the lower edge of the standard domain for
//! long-tailed data.

use crate::stats::ScaledDomain;
use crate::MomentsSketch;
use crate::{Error, Result};
use numerics::chebyshev;

/// Which variable the optimization integrates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimaryDomain {
    /// Integrate over `u = s1(x) ∈ [-1, 1]`.
    Standard,
    /// Integrate over `v = s2(ln x) ∈ [-1, 1]`.
    Log,
}

/// The active constraint basis: counts, domains, and target moments.
#[derive(Debug, Clone)]
pub struct Basis {
    /// Number of standard (Chebyshev) moment constraints, excluding the
    /// normalization constraint.
    pub k1: usize,
    /// Number of log (Chebyshev) moment constraints.
    pub k2: usize,
    /// Primary integration variable.
    pub primary: PrimaryDomain,
    /// Map between `[xmin, xmax]` and `[-1, 1]`.
    pub std_dom: ScaledDomain,
    /// Map between `[ln xmin, ln xmax]` and `[-1, 1]` (only when log
    /// moments are usable).
    pub log_dom: Option<ScaledDomain>,
    /// Target Chebyshev moments, ordered `[1, std_1.., log_1..]`;
    /// length `1 + k1 + k2`.
    pub mu: Vec<f64>,
}

impl Basis {
    /// The basis of the first `k1` standard and `k2` log Chebyshev moments
    /// of `moments`, each count clamped to what `moments` holds. The log
    /// domain is primary whenever log moments take part.
    pub fn new(moments: ChebMoments, k1: usize, k2: usize) -> Basis {
        let log_cheb = moments.log_cheb.unwrap_or_default();
        let k1 = k1.min(moments.std_cheb.len() - 1);
        let k2 = k2.min(log_cheb.len().saturating_sub(1));
        let mut mu = Vec::with_capacity(1 + k1 + k2);
        mu.push(1.0);
        mu.extend_from_slice(&moments.std_cheb[1..=k1]);
        if k2 > 0 {
            mu.extend_from_slice(&log_cheb[1..=k2]);
        }
        Basis {
            k1,
            k2,
            primary: if k2 > 0 {
                PrimaryDomain::Log
            } else {
                PrimaryDomain::Standard
            },
            std_dom: moments.std_dom,
            log_dom: moments.log_dom,
            mu,
        }
    }

    /// Total number of basis functions including the constant.
    #[inline]
    pub fn dim(&self) -> usize {
        1 + self.k1 + self.k2
    }

    /// Map a data value to the primary variable.
    pub fn to_primary(&self, x: f64) -> f64 {
        match self.primary {
            PrimaryDomain::Standard => self.std_dom.scale(x),
            PrimaryDomain::Log => {
                let dom = self.log_dom.as_ref().expect("log primary without domain");
                dom.scale(x.max(f64::MIN_POSITIVE).ln())
            }
        }
    }

    /// Map a primary-variable value back to the data domain.
    pub fn from_primary(&self, u: f64) -> f64 {
        match self.primary {
            PrimaryDomain::Standard => self.std_dom.unscale(u),
            PrimaryDomain::Log => {
                let dom = self.log_dom.as_ref().expect("log primary without domain");
                dom.unscale(u).exp()
            }
        }
    }

    /// Evaluate basis function `i` at primary-variable value `u`.
    ///
    /// Index 0 is the constant; `1..=k1` are the standard-moment functions;
    /// `k1+1..=k1+k2` are the log-moment functions.
    pub fn eval(&self, i: usize, u: f64) -> f64 {
        if i == 0 {
            return 1.0;
        }
        let (std_arg, log_arg) = self.secondary_args(u);
        if i <= self.k1 {
            chebyshev::t_eval(i, std_arg)
        } else {
            chebyshev::t_eval(i - self.k1, log_arg)
        }
    }

    /// Compute both scaled arguments (standard and log) for a primary value.
    fn secondary_args(&self, u: f64) -> (f64, f64) {
        match self.primary {
            PrimaryDomain::Standard => {
                let x = self.std_dom.unscale(u);
                let log_arg = match &self.log_dom {
                    Some(dom) => dom.scale(x.max(f64::MIN_POSITIVE).ln()).clamp(-1.0, 1.0),
                    None => 0.0,
                };
                (u.clamp(-1.0, 1.0), log_arg)
            }
            PrimaryDomain::Log => {
                let dom = self.log_dom.as_ref().expect("log primary without domain");
                let x = dom.unscale(u).exp();
                (self.std_dom.scale(x).clamp(-1.0, 1.0), u.clamp(-1.0, 1.0))
            }
        }
    }
}

/// Chebyshev moments extracted from a sketch, after stability clamping.
#[derive(Debug, Clone)]
pub struct ChebMoments {
    /// `E[T_i(s1(x))]` for `i = 0..=k_std` (index 0 is 1).
    pub std_cheb: Vec<f64>,
    /// `E[T_j(s2(ln x))]` when log moments are usable.
    pub log_cheb: Option<Vec<f64>>,
    /// Standard-domain scaling.
    pub std_dom: ScaledDomain,
    /// Log-domain scaling, when usable.
    pub log_dom: Option<ScaledDomain>,
}

/// Compute stability-clamped Chebyshev moments from a sketch.
///
/// Applies the paper's two guards (Section 4.3.2): the closed-form cap on
/// the number of usable moments given the scaled-data offset `c`
/// (Equation 21), and a range check dropping any computed Chebyshev moment
/// outside `[-1, 1]` (impossible for exact moments, so a sure sign of
/// precision loss).
pub fn cheb_moments(sketch: &MomentsSketch, allow_log: bool) -> Result<ChebMoments> {
    if sketch.is_empty() {
        return Err(Error::EmptySketch);
    }
    let std_dom = ScaledDomain::from_range(sketch.min(), sketch.max());
    let std_cheb = clamped_cheb(&sketch.moments(), &std_dom);
    let (log_cheb, log_dom) = if allow_log && sketch.log_usable() {
        let lmin = sketch.min().ln();
        let lmax = sketch.max().ln();
        let dom = ScaledDomain::from_range(lmin, lmax);
        if dom.degenerate() {
            (None, None)
        } else {
            (Some(clamped_cheb(&sketch.log_moments(), &dom)), Some(dom))
        }
    } else {
        (None, None)
    };
    Ok(ChebMoments {
        std_cheb,
        log_cheb,
        std_dom,
        log_dom,
    })
}

/// Shift raw moments into `[-1, 1]`, convert to the Chebyshev basis, and
/// truncate at the first numerically untrustworthy entry.
fn clamped_cheb(raw: &[f64], dom: &ScaledDomain) -> Vec<f64> {
    let k_cap = crate::stats::max_stable_k(dom.offset()).min(raw.len() - 1);
    let mono = crate::stats::shifted_moments(&raw[..=k_cap], dom);
    let mut cheb = crate::stats::cheb_moments_from_mono(&mono);
    // |E[T_n(u)]| <= 1 always; out-of-range values signal precision loss.
    let mut valid = cheb.len();
    for (i, &c) in cheb.iter().enumerate().skip(1) {
        // NaN must also truncate here, so compare via the negation.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(c.abs() <= 1.0 + 1e-7) {
            valid = i;
            break;
        }
    }
    cheb.truncate(valid);
    // Clamp tiny overshoots from roundoff.
    for c in cheb.iter_mut() {
        *c = c.clamp(-1.0, 1.0);
    }
    cheb
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_sketch() -> MomentsSketch {
        let data: Vec<f64> = (0..1000).map(|i| 1.0 + i as f64 / 999.0).collect();
        MomentsSketch::from_data(10, &data)
    }

    #[test]
    fn cheb_moments_of_uniform_data() {
        let m = cheb_moments(&uniform_sketch(), true).unwrap();
        // For uniform data on [-1, 1]: E[T_1] = 0, E[T_2] = -1/3 + O(1/n).
        assert!((m.std_cheb[0] - 1.0).abs() < 1e-12);
        assert!(m.std_cheb[1].abs() < 1e-3);
        assert!((m.std_cheb[2] + 1.0 / 3.0).abs() < 1e-2);
        assert!(m.log_cheb.is_some());
    }

    #[test]
    fn log_moments_absent_for_nonpositive_data() {
        let s = MomentsSketch::from_data(6, &[-1.0, 0.5, 2.0]);
        let m = cheb_moments(&s, true).unwrap();
        assert!(m.log_cheb.is_none());
        let m2 = cheb_moments(&uniform_sketch(), false).unwrap();
        assert!(m2.log_cheb.is_none());
    }

    #[test]
    fn basis_eval_standard_primary() {
        let m = cheb_moments(&uniform_sketch(), true).unwrap();
        let basis = Basis {
            k1: 3,
            k2: 2,
            primary: PrimaryDomain::Standard,
            std_dom: m.std_dom,
            log_dom: m.log_dom,
            mu: vec![1.0; 6],
        };
        assert_eq!(basis.dim(), 6);
        assert_eq!(basis.eval(0, 0.3), 1.0);
        // Standard functions are plain Chebyshev in u.
        assert!((basis.eval(2, 0.3) - chebyshev::t_eval(2, 0.3)).abs() < 1e-12);
        // Log functions stay within [-1, 1] envelope.
        for u in [-1.0, -0.5, 0.0, 0.5, 1.0] {
            assert!(basis.eval(4, u).abs() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn basis_roundtrip_primary_mapping() {
        let m = cheb_moments(&uniform_sketch(), true).unwrap();
        for primary in [PrimaryDomain::Standard, PrimaryDomain::Log] {
            let basis = Basis {
                k1: 2,
                k2: 2,
                primary,
                std_dom: m.std_dom,
                log_dom: m.log_dom,
                mu: vec![1.0; 5],
            };
            for &x in &[1.0, 1.3, 1.77, 2.0] {
                let u = basis.to_primary(x);
                assert!((-1.0001..=1.0001).contains(&u));
                assert!((basis.from_primary(u) - x).abs() < 1e-9 * x);
            }
        }
    }

    #[test]
    fn basis_eval_log_primary_consistency() {
        // In log primary, the log functions are plain Chebyshev in v and
        // the standard ones agree with direct computation through x.
        let m = cheb_moments(&uniform_sketch(), true).unwrap();
        let basis = Basis {
            k1: 2,
            k2: 3,
            primary: PrimaryDomain::Log,
            std_dom: m.std_dom,
            log_dom: m.log_dom,
            mu: vec![1.0; 6],
        };
        for &v in &[-0.9, 0.0, 0.42, 1.0] {
            let x = basis.from_primary(v);
            let u = m.std_dom.scale(x);
            assert!((basis.eval(1, v) - chebyshev::t_eval(1, u)).abs() < 1e-9);
            assert!((basis.eval(3, v) - chebyshev::t_eval(1, v)).abs() < 1e-12);
        }
    }

    #[test]
    fn stability_truncation_on_extreme_offset() {
        // Data far from zero in a narrow band: large offset c, few stable
        // moments survive.
        let data: Vec<f64> = (0..100).map(|i| 1.0e6 + i as f64).collect();
        let s = MomentsSketch::from_data(14, &data);
        let m = cheb_moments(&s, true).unwrap();
        assert!(m.std_cheb.len() <= 14);
        for &c in &m.std_cheb {
            assert!(c.abs() <= 1.0);
        }
    }
}
