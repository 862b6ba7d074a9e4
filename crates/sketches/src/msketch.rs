//! Adapter exposing the moments sketch through the shared
//! [`QuantileSummary`] interface, so the benchmark harness can drive it
//! interchangeably with the baselines.

use crate::api::{impl_sketch_object, Reader, SketchError, SketchKind, WireCodec, Writer};
use crate::traits::{QuantileSummary, Sketch};
use moments_sketch::lowprec::LowPrecisionCodec;
use moments_sketch::serialize::{solver_config_from_bytes, solver_config_to_bytes};
use moments_sketch::{MomentsSketch, SolverConfig};

/// Moments sketch behind the common summary interface (`M-Sketch` in the
/// paper's figures).
#[derive(Debug, Clone)]
pub struct MSketchSummary {
    /// Underlying sketch.
    pub sketch: MomentsSketch,
    /// Estimation settings used at query time.
    pub config: SolverConfig,
}

impl MSketchSummary {
    /// Create an order-`k` moments sketch summary.
    pub fn new(k: usize) -> Self {
        MSketchSummary {
            sketch: MomentsSketch::new(k),
            config: SolverConfig::default(),
        }
    }

    /// Create with a custom solver configuration.
    pub fn with_config(k: usize, config: SolverConfig) -> Self {
        MSketchSummary {
            sketch: MomentsSketch::new(k),
            config,
        }
    }

    /// Wrap an already-populated sketch for querying.
    ///
    /// The observability layer aggregates latencies into raw
    /// [`MomentsSketch`]es (merged across threads like panes) and wraps
    /// the merge result here to reuse the amortized one-solve
    /// [`Sketch::quantiles`] path at exposition time.
    pub fn from_sketch(sketch: MomentsSketch, config: SolverConfig) -> Self {
        MSketchSummary { sketch, config }
    }
}

impl Sketch for MSketchSummary {
    impl_sketch_object!(MSketchSummary);

    fn name(&self) -> &'static str {
        "M-Sketch"
    }

    fn accumulate(&mut self, x: f64) {
        self.sketch.accumulate(x);
    }

    fn accumulate_all(&mut self, xs: &[f64]) {
        // Batched power-sum loop: bit-identical to pointwise accumulation
        // (see `MomentsSketch::accumulate_all`), one virtual call per
        // batch instead of one per point when cells are boxed.
        self.sketch.accumulate_all(xs);
    }

    fn quantile(&self, phi: f64) -> f64 {
        match moments_sketch::solve_robust(&self.sketch, &self.config) {
            Ok(sol) => sol.quantile(phi).unwrap_or(f64::NAN),
            Err(_) => f64::NAN,
        }
    }

    fn quantiles(&self, phis: &[f64]) -> Vec<f64> {
        // One max-entropy solve amortized over all requested quantiles,
        // with moment back-off on hard (near-discrete) populations.
        match moments_sketch::solve_robust(&self.sketch, &self.config) {
            Ok(sol) => phis
                .iter()
                .map(|&p| sol.quantile(p).unwrap_or(f64::NAN))
                .collect(),
            Err(_) => vec![f64::NAN; phis.len()],
        }
    }

    fn count(&self) -> u64 {
        self.sketch.count() as u64
    }

    fn size_bytes(&self) -> usize {
        self.sketch.size_bytes()
    }
}

impl QuantileSummary for MSketchSummary {
    fn merge_from(&mut self, other: &Self) {
        self.sketch.merge(&other.sketch);
    }
}

/// Payload: the solver configuration (length-prefixed, see
/// `moments_sketch::serialize::solver_config_to_bytes`), then the sketch
/// state through the low-precision codec of Appendix C at its lossless
/// 64-bit setting — the same bitstream a space-tight deployment would
/// store at 20 bits per value.
impl WireCodec for MSketchSummary {
    const KIND: SketchKind = SketchKind::Moments;

    fn write_payload(&self, w: &mut Writer) {
        w.bytes(&solver_config_to_bytes(&self.config));
        // Seed is irrelevant at 64 bits: randomized rounding never fires.
        w.bytes(&LowPrecisionCodec::new(64).encode(&self.sketch, 0));
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SketchError> {
        let config = solver_config_from_bytes(r.bytes()?)?;
        let sketch = LowPrecisionCodec::decode(r.bytes()?)?;
        Ok(MSketchSummary { sketch, config })
    }
}

/// Access to the raw moments sketch behind a summary, when there is one.
///
/// `/quantile` reads it to answer a request past its deadline from the
/// closed-form moment bounds, which need the raw
/// [`moments_sketch::MomentsSketch`]; the benchmark's layer probes read it
/// to time the typed solver on cube cells. It works uniformly over typed
/// [`MSketchSummary`] cells and runtime-chosen boxed cells.
pub trait MomentsBacked {
    /// The underlying moments sketch, or `None` for other backends.
    fn as_moments(&self) -> Option<&MomentsSketch>;
}

impl MomentsBacked for MSketchSummary {
    fn as_moments(&self) -> Option<&MomentsSketch> {
        Some(&self.sketch)
    }
}

impl MomentsBacked for Box<dyn Sketch> {
    fn as_moments(&self) -> Option<&MomentsSketch> {
        self.as_any()
            .downcast_ref::<MSketchSummary>()
            .map(|ms| &ms.sketch)
    }
}

/// Threshold-test a runtime-chosen summary: moments sketches route
/// through the cascade `evaluator` (Algorithm 2); every other backend
/// compares its direct quantile estimate — the baseline path the paper
/// compares the cascade against. The single policy point for every
/// threshold query in the workspace (`GroupThresholdQuery`, MacroBase
/// search, the HTTP routes over both).
pub fn threshold_dyn(
    evaluator: &mut moments_sketch::ThresholdEvaluator,
    sketch: &dyn Sketch,
    t: f64,
    phi: f64,
) -> bool {
    match sketch.as_any().downcast_ref::<MSketchSummary>() {
        Some(ms) => evaluator.threshold(&ms.sketch, t, phi),
        None => sketch.quantile(phi) > t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{avg_quantile_error, eval_phis};

    #[test]
    fn matches_direct_solver_usage() {
        let data: Vec<f64> = (1..=20_000).map(|i| (i as f64).sqrt()).collect();
        let mut s = MSketchSummary::new(10);
        s.accumulate_all(&data);
        let phis = eval_phis();
        let qs = s.quantiles(&phis);
        let err = avg_quantile_error(&data, &qs, &phis);
        assert!(err < 0.01, "err {err}");
    }

    #[test]
    fn merge_through_adapter() {
        let mut a = MSketchSummary::new(8);
        let mut b = MSketchSummary::new(8);
        a.accumulate_all(&(1..=500).map(f64::from).collect::<Vec<_>>());
        b.accumulate_all(&(501..=1000).map(f64::from).collect::<Vec<_>>());
        a.merge_from(&b);
        assert_eq!(a.count(), 1000);
        let q = a.quantile(0.5);
        assert!((q - 500.0).abs() < 30.0, "median {q}");
    }

    #[test]
    fn size_matches_paper() {
        assert_eq!(MSketchSummary::new(10).size_bytes(), 184);
    }

    #[test]
    fn degenerate_input_yields_nan_not_panic() {
        let s = MSketchSummary::new(10);
        assert!(s.quantile(0.5).is_nan());
    }
}
