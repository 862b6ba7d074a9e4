//! The shared interface all mergeable quantile summaries implement.
//!
//! The interface is split in two layers:
//!
//! * [`Sketch`] — the **object-safe core**: accumulate / merge / query /
//!   serialize through `&dyn Sketch`, so engines can pick a backend at
//!   runtime and store heterogeneous summaries behind one pointer type
//!   (`Box<dyn Sketch>`).
//! * [`QuantileSummary`] — the **typed extension**: adds the statically
//!   dispatched same-type merge ([`QuantileSummary::merge_from`]) that
//!   monomorphized hot loops use, avoiding the downcast check per merge.
//!
//! Every shipped summary implements both; [`crate::api::SketchSpec`]
//! builds boxed sketches from a runtime-chosen [`crate::api::SketchKind`].

use crate::api::{SketchError, SketchKind};
use std::any::Any;

/// A mergeable quantile summary (Agarwal et al.'s mergeability model,
/// Section 3.2 of the paper), usable as a trait object.
///
/// All methods are object-safe: a `Box<dyn Sketch>` supports the full
/// accumulate → merge → query → serialize lifecycle. Same-kind merging
/// through trait objects goes through [`Sketch::merge_dyn`], which
/// downcast-checks the argument and reports [`SketchError::KindMismatch`]
/// instead of panicking when the kinds differ.
pub trait Sketch: Any + Send + Sync {
    /// The registry tag identifying this summary's backend.
    fn kind(&self) -> SketchKind;

    /// Display name matching the paper's figure legends.
    fn name(&self) -> &'static str;

    /// Insert one value.
    fn accumulate(&mut self, x: f64);

    /// Insert a slice of values.
    fn accumulate_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.accumulate(x);
        }
    }

    /// Merge another summary of the *same kind* into this one, checked at
    /// runtime. Returns [`SketchError::KindMismatch`] when `other` is a
    /// different backend.
    fn merge_dyn(&mut self, other: &dyn Sketch) -> Result<(), SketchError>;

    /// Estimate the `phi`-quantile (`phi ∈ (0, 1)`).
    fn quantile(&self, phi: f64) -> f64;

    /// Estimate several quantiles. Implementations override this when a
    /// single query setup can be shared (the moments sketch solves its
    /// optimization once here).
    fn quantiles(&self, phis: &[f64]) -> Vec<f64> {
        phis.iter().map(|&p| self.quantile(p)).collect()
    }

    /// Number of points summarized.
    fn count(&self) -> u64;

    /// Approximate serialized size in bytes (the quantity Table 2 and the
    /// size sweeps of Figures 4, 5, and 7 report).
    fn size_bytes(&self) -> usize;

    /// Serialize to the versioned tagged wire format (see [`crate::api`]).
    /// Restore with [`crate::api::sketch_from_bytes`] (dynamic) or
    /// [`crate::api::from_bytes`] (typed).
    fn to_bytes(&self) -> Vec<u8>;

    /// Clone into a fresh box (object-safe `Clone`).
    fn clone_dyn(&self) -> Box<dyn Sketch>;

    /// Upcast for downcast-checked merges and backend-specific queries.
    fn as_any(&self) -> &dyn Any;
}

/// Typed extension of [`Sketch`]: statically dispatched same-type merge.
///
/// Generic pre-aggregation loops (`DataCube::rollup`, the bench harness)
/// bound on this trait keep today's monomorphized fast path — no per-merge
/// kind check, no virtual dispatch.
pub trait QuantileSummary: Sketch + Clone {
    /// Merge another summary of the same type into this one.
    fn merge_from(&mut self, other: &Self);
}

impl Clone for Box<dyn Sketch> {
    fn clone(&self) -> Self {
        (**self).clone_dyn()
    }
}

impl Sketch for Box<dyn Sketch> {
    fn kind(&self) -> SketchKind {
        (**self).kind()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn accumulate(&mut self, x: f64) {
        (**self).accumulate(x);
    }
    fn accumulate_all(&mut self, xs: &[f64]) {
        (**self).accumulate_all(xs);
    }
    fn merge_dyn(&mut self, other: &dyn Sketch) -> Result<(), SketchError> {
        (**self).merge_dyn(other)
    }
    fn quantile(&self, phi: f64) -> f64 {
        (**self).quantile(phi)
    }
    fn quantiles(&self, phis: &[f64]) -> Vec<f64> {
        (**self).quantiles(phis)
    }
    fn count(&self) -> u64 {
        (**self).count()
    }
    fn size_bytes(&self) -> usize {
        (**self).size_bytes()
    }
    fn to_bytes(&self) -> Vec<u8> {
        (**self).to_bytes()
    }
    fn clone_dyn(&self) -> Box<dyn Sketch> {
        (**self).clone_dyn()
    }
    fn as_any(&self) -> &dyn Any {
        (**self).as_any()
    }
}

/// Boxed sketches merge through the checked dynamic path. Within one
/// engine all cells come from one [`crate::api::SketchSpec`], so the kinds
/// always match; a mismatch here is a caller bug and panics. Use
/// [`Sketch::merge_dyn`] directly to handle mismatches gracefully.
impl QuantileSummary for Box<dyn Sketch> {
    fn merge_from(&mut self, other: &Self) {
        if let Err(e) = (**self).merge_dyn(&**other) {
            panic!("cannot merge summaries of different kinds: {e}");
        }
    }
}

/// Builds fresh summaries of one configuration: a data cube builds one
/// per cell.
pub trait SummaryFactory {
    /// The summary type built.
    type Summary: QuantileSummary;
    /// A fresh, empty summary.
    fn build(&self) -> Self::Summary;

    /// The backend of the summaries built. The default asks a fresh
    /// summary; a factory that knows its kind without building one
    /// overrides it (`DataCube::merge_cube` checks this on every call).
    fn kind(&self) -> SketchKind {
        self.build().kind()
    }
}

/// Blanket factory from a closure.
///
/// Prefer [`crate::api::SketchSpec`] at public boundaries — it is
/// runtime-selectable and serializable; only tests build typed cubes
/// with `FnFactory`.
pub struct FnFactory<S, F: Fn() -> S>(pub F);

impl<S: QuantileSummary, F: Fn() -> S> SummaryFactory for FnFactory<S, F> {
    type Summary = S;
    fn build(&self) -> S {
        (self.0)()
    }
}

impl<S, F: Fn() -> S + Clone> Clone for FnFactory<S, F> {
    fn clone(&self) -> Self {
        FnFactory(self.0.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReservoirSample;

    #[test]
    fn sketch_is_object_safe() {
        // A &dyn Sketch must be constructible — this is the object-safety
        // guarantee the redesign exists for.
        let mut boxed: Box<dyn Sketch> = Box::new(ReservoirSample::new(8, 3));
        boxed.accumulate_all(&[1.0, 2.0, 3.0]);
        let view: &dyn Sketch = &*boxed;
        assert_eq!(view.count(), 3);
    }

    #[test]
    fn merge_dyn_rejects_kind_mismatch() {
        let mut a: Box<dyn Sketch> = Box::new(ReservoirSample::new(8, 3));
        let b: Box<dyn Sketch> = Box::new(crate::SHist::new(8));
        let err = a.merge_dyn(&*b).unwrap_err();
        assert!(matches!(err, SketchError::KindMismatch { .. }));
    }
}
