//! Adapter exposing the moments sketch through the shared
//! [`QuantileSummary`] interface, so the benchmark harness can drive it
//! interchangeably with the baselines.

use crate::api::{impl_sketch_object, Reader, SketchError, SketchKind, WireCodec, Writer};
use crate::traits::{QuantileSummary, Sketch};
use moments_sketch::lowprec::LowPrecisionCodec;
use moments_sketch::serialize::solver_config_to_bytes;
use moments_sketch::{MomentsSketch, SolverConfig};
use std::sync::OnceLock;

/// Moments sketch behind the common summary interface (`M-Sketch` in the
/// paper's figures). The summary is its sketch alone: every estimate is
/// solved at [`SolverConfig::default`] (`κ_max = 10⁴`, `δ = 10⁻⁹`), the
/// settings of the paper's evaluation.
#[derive(Debug, Clone)]
pub struct MSketchSummary {
    /// Underlying sketch.
    pub sketch: MomentsSketch,
}

impl MSketchSummary {
    /// Create an order-`k` moments sketch summary.
    pub fn new(k: usize) -> Self {
        MSketchSummary {
            sketch: MomentsSketch::new(k),
        }
    }

    /// Wrap an already-populated sketch for querying.
    ///
    /// The observability layer aggregates latencies into raw
    /// [`MomentsSketch`]es (merged across threads like panes) and wraps
    /// the merge result here to reuse the amortized one-solve
    /// [`Sketch::quantiles`] path at exposition time.
    pub fn from_sketch(sketch: MomentsSketch) -> Self {
        MSketchSummary { sketch }
    }

    /// The exact answer at an end of the range: the sketch holds its
    /// minimum and maximum verbatim, so `φ = 0` and `φ = 1` need no solve
    /// (the maxent solution answers only `φ ∈ (0, 1)`).
    fn exact_end(&self, phi: f64) -> Option<f64> {
        if phi == 0.0 {
            Some(self.sketch.min())
        } else if phi == 1.0 {
            Some(self.sketch.max())
        } else {
            None
        }
    }
}

impl Sketch for MSketchSummary {
    impl_sketch_object!(MSketchSummary);

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
        self.quantiles(&[phi])[0]
    }

    fn quantiles(&self, phis: &[f64]) -> Vec<f64> {
        if self.sketch.is_empty() {
            return vec![f64::NAN; phis.len()];
        }
        // One max-entropy solve amortized over all interior quantiles,
        // with moment back-off on hard (near-discrete) populations; none
        // when every fraction is an end of the range.
        let solution = phis
            .iter()
            .any(|&p| self.exact_end(p).is_none())
            .then(|| moments_sketch::solve_robust(&self.sketch, &SolverConfig::default()).ok())
            .flatten();
        phis.iter()
            .map(|&p| match self.exact_end(p) {
                Some(x) => x,
                None => solution
                    .as_ref()
                    .and_then(|sol| sol.quantile(p).ok())
                    .unwrap_or(f64::NAN),
            })
            .collect()
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

/// The default solver configuration's 37-byte record
/// (`moments_sketch::serialize::solver_config_to_bytes`), encoded once.
fn default_config_record() -> &'static [u8] {
    static RECORD: OnceLock<Vec<u8>> = OnceLock::new();
    RECORD.get_or_init(|| solver_config_to_bytes(&SolverConfig::default()))
}

/// Payload: the default solver configuration's record (length-prefixed),
/// then the sketch state through the low-precision codec of Appendix C at
/// its lossless 64-bit setting — the same bitstream a space-tight
/// deployment would store at 20 bits per value. The record is the only
/// one ever written, and any other is refused as corrupt.
impl WireCodec for MSketchSummary {
    const KIND: SketchKind = SketchKind::Moments;

    fn write_payload(&self, w: &mut Writer) {
        w.bytes(default_config_record());
        // Seed is irrelevant at 64 bits: randomized rounding never fires.
        w.bytes(&LowPrecisionCodec::new(64).encode(&self.sketch, 0));
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SketchError> {
        if r.bytes()? != default_config_record() {
            return Err(SketchError::Corrupt(
                "moments payload carries a non-default solver config",
            ));
        }
        let sketch = LowPrecisionCodec::decode(r.bytes()?)?;
        Ok(MSketchSummary { sketch })
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
        assert!(s.quantile(0.0).is_nan() && s.quantile(1.0).is_nan());
    }

    #[test]
    fn range_ends_answer_the_exact_extremes() {
        let mut s = MSketchSummary::new(10);
        s.accumulate_all(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        let qs = s.quantiles(&[0.0, 0.5, 1.0]);
        assert_eq!((qs[0], qs[2]), (1.0, 1000.0));
        assert_eq!(qs[1].to_bits(), s.quantile(0.5).to_bits());
        assert_eq!((s.quantile(0.0), s.quantile(1.0)), (1.0, 1000.0));
    }
}
