//! Threshold-query cascade (Section 5.2, Algorithm 2 of the paper).
//!
//! Threshold queries — "does this subpopulation's `φ`-quantile exceed
//! `t`?" — do not need a full quantile estimate. The cascade tries a
//! sequence of progressively tighter, progressively more expensive checks
//! and stops at the first one that resolves the predicate:
//!
//! 1. **Simple**: compare `t` against `[xmin, xmax]`;
//! 2. **Markov**: shifted Markov-inequality bounds on the CDF;
//! 3. **RTT**: principal-representation bounds;
//! 4. **MaxEnt**: the full maximum-entropy quantile estimate.
//!
//! The bounds hold for *every* distribution matching the sketch's
//! moments, so a stage-1–3 resolution is certified correct. In almost all
//! cases this matches what the maximum-entropy estimate would have said,
//! only faster (the paper measures up to 25× higher throughput). The one
//! exception cuts in the cascade's favor: on sharply discrete data the
//! smoothed max-ent estimate can err past a certified bound, and there
//! the cascade's bounded answer is the more trustworthy one.
//!
//! The predicate decided is `q̂_φ > t`, equivalently `F(t) < φ` for the
//! estimated CDF. (Algorithm 2 as printed in the paper transposes the two
//! early-return branches of its `CheckBound` macro relative to its own
//! rank convention; we implement the semantically consistent version.)

use crate::bounds::{markov_bound, rtt_bound, CdfBounds};
use crate::solver::{self, SolverConfig};
use crate::MomentsSketch;

/// Which cascade stages to run (all on by default). Disabling stages
/// reproduces the `Baseline / +Simple / +Markov / +RTT` rows of
/// Figures 12–13.
#[derive(Debug, Clone, Copy)]
pub struct CascadeConfig {
    /// Stage 1: min/max range check.
    pub use_simple: bool,
    /// Stage 2: Markov bounds.
    pub use_markov: bool,
    /// Stage 3: RTT bounds.
    pub use_rtt: bool,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig {
            use_simple: true,
            use_markov: true,
            use_rtt: true,
        }
    }
}

impl CascadeConfig {
    /// A configuration with every pre-filter disabled (the paper's
    /// "Baseline": always solve for the quantile).
    pub fn baseline() -> Self {
        CascadeConfig {
            use_simple: false,
            use_markov: false,
            use_rtt: false,
        }
    }
}

/// Per-stage resolution counters for a sequence of threshold queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CascadeStats {
    /// Queries answered.
    pub total: u64,
    /// Resolved by the min/max check.
    pub simple_hits: u64,
    /// Resolved by Markov bounds.
    pub markov_hits: u64,
    /// Resolved by RTT bounds.
    pub rtt_hits: u64,
    /// Fell through to the maximum-entropy estimate.
    pub maxent_evals: u64,
    /// Max-entropy solves that failed and fell back to bound midpoints.
    pub maxent_failures: u64,
}

impl CascadeStats {
    /// Fold another run's counters into this one — how a server keeps
    /// cumulative process-lifetime totals across per-query evaluators.
    pub fn accumulate(&mut self, other: &CascadeStats) {
        self.total += other.total;
        self.simple_hits += other.simple_hits;
        self.markov_hits += other.markov_hits;
        self.rtt_hits += other.rtt_hits;
        self.maxent_evals += other.maxent_evals;
        self.maxent_failures += other.maxent_failures;
    }

    /// `(stage, count)` pairs in cascade order — the stable label values
    /// a metrics exposition keys its per-stage series by. `"groups"` is
    /// the total evaluated; the rest are per-stage resolutions.
    pub fn stage_counts(&self) -> [(&'static str, u64); 6] {
        [
            ("groups", self.total),
            ("simple", self.simple_hits),
            ("markov", self.markov_hits),
            ("rtt", self.rtt_hits),
            ("maxent", self.maxent_evals),
            ("maxent_failure", self.maxent_failures),
        ]
    }

    /// Fraction of queries that reached a given stage, as in Figure 13(c).
    pub fn fraction_reaching(&self) -> [f64; 4] {
        let t = self.total.max(1) as f64;
        let after_simple = self.total - self.simple_hits;
        let after_markov = after_simple - self.markov_hits;
        let after_rtt = after_markov - self.rtt_hits;
        [
            1.0,
            after_simple as f64 / t,
            after_markov as f64 / t,
            after_rtt as f64 / t,
        ]
    }
}

/// Stateful threshold evaluator accumulating cascade statistics.
#[derive(Debug, Clone)]
pub struct ThresholdEvaluator {
    config: CascadeConfig,
    stats: CascadeStats,
}

/// Which stage resolved a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedBy {
    /// Min/max range check.
    Simple,
    /// Markov bounds.
    Markov,
    /// RTT bounds.
    Rtt,
    /// Full maximum-entropy estimate.
    MaxEnt,
}

impl ThresholdEvaluator {
    /// Create an evaluator with the given stage configuration.
    pub fn new(config: CascadeConfig) -> Self {
        ThresholdEvaluator {
            config,
            stats: CascadeStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CascadeStats {
        self.stats
    }

    /// Reset statistics.
    pub fn reset_stats(&mut self) {
        self.stats = CascadeStats::default();
    }

    /// Decide whether the sketched population's `phi`-quantile exceeds `t`.
    ///
    /// # Examples
    ///
    /// ```
    /// use moments_sketch::{CascadeConfig, MomentsSketch, ThresholdEvaluator};
    /// let data: Vec<f64> = (1..=1000).map(f64::from).collect();
    /// let sketch = MomentsSketch::from_data(10, &data);
    /// let mut ev = ThresholdEvaluator::new(CascadeConfig::default());
    /// assert!(ev.threshold(&sketch, 100.0, 0.5));   // median > 100
    /// assert!(!ev.threshold(&sketch, 2000.0, 0.99)); // p99 < 2000 (range check)
    /// assert_eq!(ev.stats().total, 2);
    /// ```
    pub fn threshold(&mut self, sketch: &MomentsSketch, t: f64, phi: f64) -> bool {
        self.threshold_traced(sketch, t, phi).0
    }

    /// As [`Self::threshold`], also reporting which stage resolved it.
    pub fn threshold_traced(
        &mut self,
        sketch: &MomentsSketch,
        t: f64,
        phi: f64,
    ) -> (bool, ResolvedBy) {
        self.stats.total += 1;
        if sketch.is_empty() {
            self.stats.simple_hits += 1;
            return (false, ResolvedBy::Simple);
        }
        // Stage 1: range check. q_phi <= xmax, so t >= xmax means no;
        // q_phi >= xmin, so t < xmin means yes.
        if self.config.use_simple {
            if t >= sketch.max() {
                self.stats.simple_hits += 1;
                return (false, ResolvedBy::Simple);
            }
            if t < sketch.min() {
                self.stats.simple_hits += 1;
                return (true, ResolvedBy::Simple);
            }
        }
        // Stages 2-3: certified CDF bounds resolve when phi is outside them.
        if self.config.use_markov {
            if let Some(ans) = decide(markov_bound(sketch, t), phi) {
                self.stats.markov_hits += 1;
                return (ans, ResolvedBy::Markov);
            }
        }
        if self.config.use_rtt {
            if let Some(ans) = decide(rtt_bound(sketch, t), phi) {
                self.stats.rtt_hits += 1;
                return (ans, ResolvedBy::Rtt);
            }
        }
        // Stage 4: full estimate at the default solver settings.
        // q_phi > t  <=>  F(t) < phi.
        self.stats.maxent_evals += 1;
        match solver::solve(sketch, &SolverConfig::default()) {
            Ok(sol) => (sol.cdf(t) < phi, ResolvedBy::MaxEnt),
            Err(_) => {
                // Degenerate population: fall back to the midpoint of the
                // tightest bound we have.
                self.stats.maxent_failures += 1;
                let b = markov_bound(sketch, t).intersect(rtt_bound(sketch, t));
                (0.5 * (b.lower + b.upper) < phi, ResolvedBy::MaxEnt)
            }
        }
    }
}

/// Resolve the predicate `F(t) < phi` from certified bounds if possible.
#[inline]
fn decide(bounds: CdfBounds, phi: f64) -> Option<bool> {
    if bounds.upper < phi {
        Some(true) // F(t) <= upper < phi: quantile is above t
    } else if bounds.lower >= phi {
        Some(false) // F(t) >= lower >= phi: quantile is at or below t
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_uniform() -> (MomentsSketch, Vec<f64>) {
        let data: Vec<f64> = (0..20_000).map(|i| i as f64 / 19_999.0).collect();
        (MomentsSketch::from_data(10, &data), data)
    }

    fn exact_answer(data: &[f64], t: f64, phi: f64) -> bool {
        let mut d = data.to_vec();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = d[((phi * d.len() as f64) as usize).min(d.len() - 1)];
        q > t
    }

    #[test]
    fn cascade_agrees_with_direct_estimates() {
        let (s, data) = sketch_uniform();
        let mut cascade = ThresholdEvaluator::new(CascadeConfig::default());
        let mut baseline = ThresholdEvaluator::new(CascadeConfig::baseline());
        for &t in &[0.05, 0.3, 0.5, 0.7, 0.95] {
            for &phi in &[0.1, 0.5, 0.9] {
                let a = cascade.threshold(&s, t, phi);
                let b = baseline.threshold(&s, t, phi);
                assert_eq!(a, b, "t={t} phi={phi}");
                // Sanity vs ground truth (uniform data: q_phi = phi).
                assert_eq!(a, exact_answer(&data, t, phi), "truth t={t} phi={phi}");
            }
        }
    }

    #[test]
    fn simple_stage_catches_out_of_range() {
        let (s, _) = sketch_uniform();
        let mut ev = ThresholdEvaluator::new(CascadeConfig::default());
        assert!(ev.threshold(&s, -0.5, 0.5));
        assert!(!ev.threshold(&s, 1.5, 0.5));
        assert_eq!(ev.stats().simple_hits, 2);
        assert_eq!(ev.stats().maxent_evals, 0);
    }

    #[test]
    fn easy_thresholds_resolved_by_bounds() {
        let (s, _) = sketch_uniform();
        let mut ev = ThresholdEvaluator::new(CascadeConfig::default());
        // phi = 0.5, t = 0.01: obviously q_0.5 > t; bounds should catch it.
        let (ans, stage) = ev.threshold_traced(&s, 0.01, 0.5);
        assert!(ans);
        assert_ne!(stage, ResolvedBy::MaxEnt);
    }

    #[test]
    fn hard_thresholds_reach_maxent() {
        let (s, _) = sketch_uniform();
        let mut ev = ThresholdEvaluator::new(CascadeConfig::default());
        // t right at the quantile: only the estimate can resolve it.
        let (_, stage) = ev.threshold_traced(&s, 0.5005, 0.5);
        assert_eq!(stage, ResolvedBy::MaxEnt);
        assert_eq!(ev.stats().maxent_evals, 1);
    }

    #[test]
    fn stats_fractions_are_monotone() {
        let (s, _) = sketch_uniform();
        let mut ev = ThresholdEvaluator::new(CascadeConfig::default());
        for i in 0..100 {
            let t = i as f64 / 100.0;
            ev.threshold(&s, t, 0.7);
        }
        let f = ev.stats().fraction_reaching();
        assert_eq!(f[0], 1.0);
        assert!(f[1] >= f[2] && f[2] >= f[3]);
        assert!(f[3] < 0.5, "most queries should resolve early: {:?}", f);
    }

    #[test]
    fn empty_sketch_is_false() {
        let s = MomentsSketch::new(10);
        let mut ev = ThresholdEvaluator::new(CascadeConfig::default());
        assert!(!ev.threshold(&s, 1.0, 0.5));
    }
}
