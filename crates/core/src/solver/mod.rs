//! Maximum-entropy quantile estimation from a moments sketch
//! (Sections 4.2–4.3 of the paper).
//!
//! Given the moments recorded in a sketch, many distributions match them;
//! the solver picks the *maximum entropy* one — the least-informative
//! density consistent with the constraints — by minimizing the convex
//! potential of Mead & Papanicolaou with a damped Newton method. The
//! numerical pipeline is the paper's optimized design:
//!
//! 1. moments are shifted onto `[-1, 1]` and re-expressed in the Chebyshev
//!    basis ([`basis`]), capping the usable order per the floating-point
//!    stability rule (Section 4.3.2);
//! 2. how many standard/log moments to use is chosen greedily under a
//!    condition-number budget ([`selector`]);
//! 3. each Newton step costs one fast cosine transform plus closed-form
//!    series integrals ([`maxent`]);
//! 4. quantiles come from integrating the solved density into a sampled
//!    CDF and inverting it with Brent's method
//!    ([`MaxEntSolution::from_node_density`]).
//!
//! What a solve costs is split by what it depends on:
//!
//! * **per process**, once per Chebyshev node count: the Lobatto nodes,
//!   Clenshaw–Curtis weights, `∫ T_m`, and every primary-domain
//!   function's node values and gradient/Hessian pairing vectors. These
//!   depend only on the node count, are built on first use and borrowed
//!   by every solve after that;
//! * **per solve**: the sketch's Chebyshev moments, the values of the
//!   secondary-domain functions at the nodes (the basis functions of the
//!   other domain, which depend on the sketch's range) and every pairing
//!   vector that involves one, the selector's Gram matrices and their
//!   condition numbers, the Newton iterations, and the CDF read-out.
//!
//! A log-only basis (common for positive, long-tailed data) has no
//! secondary-domain function, so its objective borrows everything but
//! the target moments. Borrowed entries are computed by the same code as
//! the per-solve ones, so no estimate depends on which path built them.

pub mod basis;
pub mod maxent;
pub mod selector;
mod tables;

use crate::sketch::MomentsSketch;
use crate::{Error, Result};
use basis::{Basis, PrimaryDomain};
use numerics::chebyshev;
use numerics::optimize::{newton_minimize, NewtonOptions};
use numerics::roots::{brent, BrentOptions};

/// Configuration for the maximum-entropy solve.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Force the number of standard moments (clamped to availability);
    /// `None` selects automatically.
    pub k1: Option<usize>,
    /// Force the number of log moments; `None` selects automatically.
    pub k2: Option<usize>,
    /// Condition-number budget for moment selection (`κ_max`; the paper's
    /// evaluation uses `10^4`).
    pub kappa_max: f64,
    /// Newton convergence tolerance on the moment residuals (the paper
    /// runs until moments match within `δ = 10^-9`).
    pub grad_tol: f64,
    /// Maximum Newton iterations before reporting failure.
    pub max_iter: usize,
    /// Chebyshev interpolation panels (power of two); `None` picks 64, or
    /// 128 when standard and log bases mix. [`solve`] refuses a count
    /// below 8, or below the chosen basis's top primary-domain order
    /// minus one, with [`Error::InvalidArgument`].
    pub n_nodes: Option<usize>,
    /// Permit log moments at all (disabled for the Figure 9 ablation).
    pub use_log: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            k1: None,
            k2: None,
            kappa_max: 1e4,
            grad_tol: 1e-9,
            max_iter: 120,
            n_nodes: None,
            use_log: true,
        }
    }
}

/// A solved maximum-entropy density, ready to answer quantile and CDF
/// queries for the sketched dataset.
#[derive(Debug, Clone)]
pub struct MaxEntSolution {
    inner: Inner,
}

#[derive(Debug, Clone)]
enum Inner {
    /// All mass at a single value (e.g. `xmin == xmax`).
    PointMass {
        x: f64,
    },
    Solved(Box<Solved>),
}

#[derive(Debug, Clone)]
struct Solved {
    basis: Basis,
    /// Monotone sampled CDF on a uniform grid over `[-1, 1]`:
    /// `cdf_samples[i] = F(-1 + 2 i / M)`. Built from *clamped*
    /// non-negative density samples so monotonicity holds by construction
    /// even when the Chebyshev interpolant of a spiky density undershoots
    /// zero between nodes.
    cdf_samples: Vec<f64>,
    /// Total mass `F(1)` (≈ 1 after convergence).
    norm: f64,
    xmin: f64,
    xmax: f64,
    iterations: usize,
    fct_count: usize,
    cond: f64,
}

impl MaxEntSolution {
    /// The solution whose density over `basis`'s primary variable takes
    /// the values `node_f` at the Chebyshev–Lobatto nodes of a
    /// [`maxent::MaxEntObjective`]: its series is integrated into a
    /// monotone CDF on a 1 024-step grid, which quantiles invert. [`solve`]
    /// ends here, and so can any other optimizer of that objective; such a
    /// solution reports zero iterations and cosine transforms and a `NaN`
    /// condition number.
    pub fn from_node_density(
        sketch: &MomentsSketch,
        basis: Basis,
        node_f: &[f64],
    ) -> Result<MaxEntSolution> {
        let pdf_series = chebyshev::interpolate_values(node_f);
        let cdf_samples = monotone_cdf_samples(&pdf_series, 1024);
        let norm = *cdf_samples.last().unwrap();
        if !(norm.is_finite() && norm > 0.0) {
            return Err(Error::SolverFailed {
                reason: format!("non-normalizable density (norm = {norm})"),
            });
        }
        let solved = Solved {
            basis,
            cdf_samples,
            norm,
            xmin: sketch.min(),
            xmax: sketch.max(),
            iterations: 0,
            fct_count: 0,
            cond: f64::NAN,
        };
        Ok(MaxEntSolution {
            inner: Inner::Solved(Box::new(solved)),
        })
    }

    /// Estimated `φ`-quantile of the sketched data.
    pub fn quantile(&self, phi: f64) -> Result<f64> {
        if !(phi > 0.0 && phi < 1.0) {
            return Err(Error::InvalidQuantile(phi));
        }
        match &self.inner {
            Inner::PointMass { x } => Ok(*x),
            Inner::Solved(s) => {
                let target = phi * s.norm;
                let u = brent(
                    |u| sample_cdf(&s.cdf_samples, u) - target,
                    -1.0,
                    1.0,
                    BrentOptions::default(),
                )
                .map_err(|e| Error::SolverFailed {
                    reason: format!("CDF inversion: {e}"),
                })?;
                Ok(s.basis.from_primary(u).clamp(s.xmin, s.xmax))
            }
        }
    }

    /// Estimate several quantiles at once.
    pub fn quantiles(&self, phis: &[f64]) -> Result<Vec<f64>> {
        phis.iter().map(|&p| self.quantile(p)).collect()
    }

    /// Estimated `P(X <= x)` under the maximum-entropy density.
    pub fn cdf(&self, x: f64) -> f64 {
        match &self.inner {
            Inner::PointMass { x: px } => {
                if x >= *px {
                    1.0
                } else {
                    0.0
                }
            }
            Inner::Solved(s) => {
                if x <= s.xmin {
                    return 0.0;
                }
                if x >= s.xmax {
                    return 1.0;
                }
                let u = s.basis.to_primary(x).clamp(-1.0, 1.0);
                (sample_cdf(&s.cdf_samples, u) / s.norm).clamp(0.0, 1.0)
            }
        }
    }

    /// Standard moments actually used.
    pub fn k1(&self) -> usize {
        match &self.inner {
            Inner::PointMass { .. } => 0,
            Inner::Solved(s) => s.basis.k1,
        }
    }

    /// Log moments actually used.
    pub fn k2(&self) -> usize {
        match &self.inner {
            Inner::PointMass { .. } => 0,
            Inner::Solved(s) => s.basis.k2,
        }
    }

    /// Newton iterations spent.
    pub fn iterations(&self) -> usize {
        match &self.inner {
            Inner::PointMass { .. } => 0,
            Inner::Solved(s) => s.iterations,
        }
    }

    /// Fast cosine transforms spent (the optimized solver's bottleneck).
    pub fn fct_count(&self) -> usize {
        match &self.inner {
            Inner::PointMass { .. } => 0,
            Inner::Solved(s) => s.fct_count,
        }
    }

    /// Condition number of the Hessian at the uniform initialization for
    /// the selected basis.
    pub fn condition_number(&self) -> f64 {
        match &self.inner {
            Inner::PointMass { .. } => 1.0,
            Inner::Solved(s) => s.cond,
        }
    }
}

/// Cumulative-trapezoid CDF samples of a density series on a uniform grid
/// over `[-1, 1]`, with negative interpolation undershoot clamped to zero
/// so the result is monotone by construction.
///
/// The density is evaluated at all `m + 1` grid points first, with
/// independent Clenshaw chains in lock step ([`chebyshev::clenshaw_each`]);
/// the running sum stays sequential.
fn monotone_cdf_samples(pdf_series: &[f64], m: usize) -> Vec<f64> {
    let du = 2.0 / m as f64;
    // Point 0 is `-1.0 + du * 0.0 == -1.0` exactly.
    let grid: Vec<f64> = (0..=m).map(|i| -1.0 + du * i as f64).collect();
    let mut f = vec![0.0; m + 1];
    chebyshev::clenshaw_each(pdf_series, &grid, &mut f);
    let mut out = Vec::with_capacity(m + 1);
    let mut prev_f = f[0].max(0.0);
    let mut acc = 0.0;
    out.push(0.0);
    for &fi in &f[1..] {
        let fi = fi.max(0.0);
        acc += 0.5 * (prev_f + fi) * du;
        out.push(acc);
        prev_f = fi;
    }
    out
}

/// Linear interpolation into uniform CDF samples at `u ∈ [-1, 1]`.
#[inline]
fn sample_cdf(samples: &[f64], u: f64) -> f64 {
    let m = samples.len() - 1;
    let pos = (u.clamp(-1.0, 1.0) + 1.0) * 0.5 * m as f64;
    let i = (pos.floor() as usize).min(m - 1);
    let frac = pos - i as f64;
    samples[i] + frac * (samples[i + 1] - samples[i])
}

/// Solve the maximum-entropy problem, backing off to fewer moments on
/// non-convergence.
///
/// Hard datasets (extreme tails, near-discrete data) can defeat a solve
/// with a forced moment count; dropping the highest-order constraints
/// yields a feasible, if coarser, estimate. Each retry removes roughly a
/// third of the constraints, preferring to shed whichever basis has more.
pub fn solve_robust(sketch: &MomentsSketch, config: &SolverConfig) -> Result<MaxEntSolution> {
    let mut cfg = *config;
    let mut last_err = None;
    for _ in 0..6 {
        match solve(sketch, &cfg) {
            Ok(sol) => return Ok(sol),
            Err(e @ Error::SolverFailed { .. }) => {
                last_err = Some(e);
                // Shrink the explicit caps (or set them from what the
                // failed solve would have used).
                let k1 = cfg.k1.unwrap_or(sketch.k());
                let k2 = cfg
                    .k2
                    .unwrap_or(if sketch.log_usable() { sketch.k() } else { 0 });
                if k1 + k2 <= 2 {
                    break;
                }
                if k1 >= k2 {
                    cfg.k1 = Some(k1.saturating_sub((k1 / 3).max(1)));
                    cfg.k2 = Some(k2);
                } else {
                    cfg.k1 = Some(k1);
                    cfg.k2 = Some(k2.saturating_sub((k2 / 3).max(1)));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Err(last_err.unwrap_or(Error::SolverFailed {
        reason: "no feasible moment subset".into(),
    }))
}

/// Solve the maximum-entropy problem for a sketch.
pub fn solve(sketch: &MomentsSketch, config: &SolverConfig) -> Result<MaxEntSolution> {
    if sketch.is_empty() {
        return Err(Error::EmptySketch);
    }
    if sketch.min() >= sketch.max() {
        return Ok(MaxEntSolution {
            inner: Inner::PointMass { x: sketch.min() },
        });
    }
    let moments = basis::cheb_moments(sketch, config.use_log)?;
    // Forced counts clamp to availability (in `Basis::new`); otherwise the
    // selector chooses, under any one forced count as a cap.
    let (k1, k2, cond) = match (config.k1, config.k2) {
        (Some(k1), Some(k2)) => (k1, k2, f64::NAN),
        (max1, max2) => {
            let (max1, max2) = (max1.unwrap_or(usize::MAX), max2.unwrap_or(usize::MAX));
            let sel = selector::select(&moments, max1, max2, config.kappa_max);
            (sel.k1, sel.k2, sel.cond)
        }
    };
    let basis = Basis::new(moments, k1, k2);
    let n_nodes = config.n_nodes.unwrap_or(if basis.k1 > 0 && basis.k2 > 0 {
        128
    } else {
        64
    });
    // `∫ T_m` runs to order 3N + 2, so the objective's pairing vectors
    // serve primary-domain orders up to N + 1.
    let top_order = match basis.primary {
        PrimaryDomain::Standard => basis.k1,
        PrimaryDomain::Log => basis.k2,
    };
    if !n_nodes.is_power_of_two() || n_nodes < 8 || top_order > n_nodes + 1 {
        return Err(Error::InvalidArgument(
            "n_nodes must be a power of two >= 8 and >= the basis's top primary order - 1",
        ));
    }
    let mut objective = maxent::MaxEntObjective::new(&basis, n_nodes);
    let mut theta0 = vec![0.0; basis.dim()];
    theta0[0] = (0.5f64).ln(); // uniform density on [-1, 1]
    let newton_opts = NewtonOptions {
        grad_tol: config.grad_tol,
        max_iter: config.max_iter,
        ..Default::default()
    };
    let res =
        newton_minimize(&mut objective, &theta0, newton_opts).map_err(|e| Error::SolverFailed {
            reason: e.to_string(),
        })?;
    let node_f = objective.density_at_nodes(&res.theta);
    let mut solution = MaxEntSolution::from_node_density(sketch, basis, &node_f)?;
    if let Inner::Solved(s) = &mut solution.inner {
        (s.iterations, s.fct_count, s.cond) = (res.iterations, objective.fct_count.get(), cond);
    }
    Ok(solution)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avg_quantile_error(data: &mut [f64], est: &[f64], phis: &[f64]) -> f64 {
        data.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = data.len() as f64;
        let mut total = 0.0;
        for (&q, &phi) in est.iter().zip(phis) {
            let rank = data.partition_point(|&x| x < q) as f64;
            total += (rank - phi * n).abs() / n;
        }
        total / phis.len() as f64
    }

    fn phis() -> Vec<f64> {
        // 21 evenly spaced quantiles in [.01, .99] as in the paper's eval.
        (0..21).map(|i| 0.01 + 0.049 * i as f64).collect()
    }

    #[test]
    fn uniform_data_estimates() {
        let mut data: Vec<f64> = (0..20_000).map(|i| i as f64 / 19_999.0).collect();
        let sketch = MomentsSketch::from_data(10, &data);
        let sol = solve(&sketch, &SolverConfig::default()).unwrap();
        let ps = phis();
        let est = sol.quantiles(&ps).unwrap();
        let err = avg_quantile_error(&mut data, &est, &ps);
        assert!(err < 0.005, "avg error {err}");
    }

    #[test]
    fn exponential_data_estimates() {
        // Deterministic Exp(1) quantile grid.
        let mut data: Vec<f64> = (1..50_000)
            .map(|i| -(1.0 - i as f64 / 50_000.0f64).ln())
            .collect();
        let sketch = MomentsSketch::from_data(10, &data);
        let sol = solve(&sketch, &SolverConfig::default()).unwrap();
        let ps = phis();
        let est = sol.quantiles(&ps).unwrap();
        let err = avg_quantile_error(&mut data, &est, &ps);
        assert!(err < 0.01, "avg error {err}");
    }

    #[test]
    fn lognormal_data_needs_log_moments() {
        // Heavy-tailed deterministic lognormal grid: log moments should
        // dominate the selection and error should stay small.
        let mut data: Vec<f64> = (1..30_000)
            .map(|i| {
                let p = i as f64 / 30_000.0;
                (2.0 * numerics::special::inv_norm_cdf(p)).exp()
            })
            .collect();
        let sketch = MomentsSketch::from_data(10, &data);
        let sol = solve(&sketch, &SolverConfig::default()).unwrap();
        assert!(sol.k2() > 0, "log moments unused");
        let ps = phis();
        let est = sol.quantiles(&ps).unwrap();
        let err = avg_quantile_error(&mut data, &est, &ps);
        assert!(err < 0.01, "avg error {err}");
    }

    #[test]
    fn gaussian_like_data_without_log() {
        // Signed data: log moments are unusable, standard moments only.
        let mut data: Vec<f64> = (1..40_000)
            .map(|i| numerics::special::inv_norm_cdf(i as f64 / 40_000.0))
            .collect();
        let sketch = MomentsSketch::from_data(10, &data);
        let sol = solve(&sketch, &SolverConfig::default()).unwrap();
        assert_eq!(sol.k2(), 0);
        let ps = phis();
        let est = sol.quantiles(&ps).unwrap();
        let err = avg_quantile_error(&mut data, &est, &ps);
        assert!(err < 0.005, "avg error {err}");
    }

    #[test]
    fn point_mass_and_empty() {
        let sketch = MomentsSketch::from_data(6, &[5.0, 5.0, 5.0]);
        let sol = solve(&sketch, &SolverConfig::default()).unwrap();
        assert_eq!(sol.quantile(0.3).unwrap(), 5.0);
        assert_eq!(sol.cdf(4.9), 0.0);
        assert_eq!(sol.cdf(5.0), 1.0);
        let empty = MomentsSketch::new(6);
        assert!(matches!(
            solve(&empty, &SolverConfig::default()),
            Err(Error::EmptySketch)
        ));
    }

    #[test]
    fn invalid_quantile_rejected() {
        let sketch = MomentsSketch::from_data(4, &[1.0, 2.0, 3.0]);
        let sol = solve(&sketch, &SolverConfig::default()).unwrap();
        assert!(matches!(sol.quantile(0.0), Err(Error::InvalidQuantile(_))));
        assert!(matches!(sol.quantile(1.5), Err(Error::InvalidQuantile(_))));
    }

    #[test]
    fn cdf_is_monotone_and_normalized() {
        let data: Vec<f64> = (1..=5000).map(|i| (i as f64).sqrt()).collect();
        let sketch = MomentsSketch::from_data(8, &data);
        let sol = solve(&sketch, &SolverConfig::default()).unwrap();
        let mut prev = -1.0;
        for i in 0..=100 {
            let x = 1.0 + (data.last().unwrap() - 1.0) * i as f64 / 100.0;
            let c = sol.cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c + 1e-9 >= prev, "CDF must be monotone");
            prev = c;
        }
        assert_eq!(sol.cdf(0.0), 0.0);
        assert_eq!(sol.cdf(1e9), 1.0);
    }

    #[test]
    fn quantiles_bracket_cdf() {
        let data: Vec<f64> = (1..=10_000)
            .map(|i| (i as f64 / 100.0).sin().abs() + 0.1)
            .collect();
        let sketch = MomentsSketch::from_data(10, &data);
        let sol = solve(&sketch, &SolverConfig::default()).unwrap();
        for &phi in &[0.1, 0.5, 0.9, 0.99] {
            let q = sol.quantile(phi).unwrap();
            assert!((sol.cdf(q) - phi).abs() < 5e-3, "phi={phi}");
        }
    }

    #[test]
    fn forced_moment_counts_respected() {
        let data: Vec<f64> = (1..=2000).map(|i| i as f64).collect();
        let sketch = MomentsSketch::from_data(10, &data);
        let cfg = SolverConfig {
            k1: Some(4),
            k2: Some(0),
            ..Default::default()
        };
        let sol = solve(&sketch, &cfg).unwrap();
        assert_eq!(sol.k1(), 4);
        assert_eq!(sol.k2(), 0);
    }

    #[test]
    fn solve_robust_backs_off_on_hard_data() {
        // Two-point data defeats a full-order solve; robust solving should
        // either converge with fewer moments or report failure — never
        // panic. Near-discrete data with a slight spread converges after
        // back-off.
        let mut data = vec![1.0; 3000];
        data.extend(vec![100.0; 3000]);
        data.extend((0..60).map(|i| 1.0 + i as f64));
        let sketch = MomentsSketch::from_data(12, &data);
        let cfg = SolverConfig {
            k1: Some(12),
            k2: Some(0),
            use_log: false,
            ..Default::default()
        };
        match solve_robust(&sketch, &cfg) {
            Ok(sol) => {
                let q = sol.quantile(0.5).unwrap();
                assert!((1.0..=100.0).contains(&q));
            }
            Err(Error::SolverFailed { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    /// A 1 000-value positive sketch at k = 10 whose selected basis is ten
    /// log moments: the log domain is primary, its top order 10.
    fn positive_k10() -> MomentsSketch {
        let data: Vec<f64> = (1..=1000).map(|i| (i as f64 / 100.0).exp()).collect();
        MomentsSketch::from_data(10, &data)
    }

    #[test]
    fn too_few_nodes_for_the_basis_is_a_typed_error() {
        // Ten primary-domain orders at N = 8 would read `∫ T_m` past its
        // top order 3N + 2.
        let cfg = SolverConfig {
            n_nodes: Some(8),
            ..Default::default()
        };
        assert!(matches!(
            solve(&positive_k10(), &cfg),
            Err(Error::InvalidArgument(_))
        ));
        assert!(matches!(
            solve_robust(&positive_k10(), &cfg),
            Err(Error::InvalidArgument(_))
        ));
        // Top order N + 1 is the most eight nodes serve: nine log moments
        // pass the check and reach Newton.
        let fits = SolverConfig {
            k1: Some(0),
            k2: Some(9),
            ..cfg
        };
        assert!(matches!(
            solve(&positive_k10(), &fits),
            Err(Error::SolverFailed { .. })
        ));
    }

    #[test]
    fn node_counts_that_are_not_powers_of_two_from_8_are_typed_errors() {
        for n in [0, 4, 100] {
            let cfg = SolverConfig {
                n_nodes: Some(n),
                ..Default::default()
            };
            assert!(
                matches!(solve(&positive_k10(), &cfg), Err(Error::InvalidArgument(_))),
                "n_nodes {n}"
            );
        }
    }

    #[test]
    fn merged_sketches_estimate_like_whole() {
        // Pre-aggregation equivalence at the estimate level.
        let data: Vec<f64> = (1..=30_000).map(|i| ((i % 173) as f64) + 1.0).collect();
        let whole = MomentsSketch::from_data(10, &data);
        let mut merged = MomentsSketch::new(10);
        for chunk in data.chunks(200) {
            merged.merge(&MomentsSketch::from_data(10, chunk));
        }
        let q_whole = solve(&whole, &SolverConfig::default())
            .unwrap()
            .quantile(0.9)
            .unwrap();
        let q_merged = solve(&merged, &SolverConfig::default())
            .unwrap()
            .quantile(0.9)
            .unwrap();
        assert!(
            (q_whole - q_merged).abs() < 1e-6 * q_whole.abs().max(1.0),
            "{q_whole} vs {q_merged}"
        );
    }
}
