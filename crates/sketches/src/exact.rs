//! Exact quantiles (sorted data) and the paper's error metric.
//!
//! `ExactQuantiles` doubles as the ground truth for every accuracy
//! experiment and as the naive "sort everything" baseline quoted in
//! Section 6.2.1.

use crate::api::{impl_sketch_object, Reader, SketchError, SketchKind, WireCodec, Writer};
use crate::traits::{QuantileSummary, Sketch};

/// Exact quantiles over fully retained data.
#[derive(Debug, Clone, Default)]
pub struct ExactQuantiles {
    sorted: Vec<f64>,
    dirty: Vec<f64>,
}

impl ExactQuantiles {
    /// Empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a slice.
    pub fn from_data(data: &[f64]) -> Self {
        let mut e = Self::new();
        e.accumulate_all(data);
        e.ensure_sorted();
        e
    }

    fn ensure_sorted(&mut self) {
        if !self.dirty.is_empty() {
            self.sorted.append(&mut self.dirty);
            self.sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        }
    }

    /// Rank of `x`: number of elements strictly below `x`.
    pub fn rank(&self, x: f64) -> usize {
        let mut me = self.clone();
        me.ensure_sorted();
        me.sorted.partition_point(|&v| v < x)
    }

    /// The sorted data.
    pub fn sorted(&mut self) -> &[f64] {
        self.ensure_sorted();
        &self.sorted
    }
}

impl Sketch for ExactQuantiles {
    impl_sketch_object!(ExactQuantiles);

    fn accumulate(&mut self, x: f64) {
        self.dirty.push(x);
    }

    fn accumulate_all(&mut self, xs: &[f64]) {
        // Bulk extend: one memcpy-style append per batch instead of one
        // push (and, for boxed cells, one virtual call) per point.
        self.dirty.extend_from_slice(xs);
    }

    fn quantile(&self, phi: f64) -> f64 {
        let mut me = self.clone();
        me.ensure_sorted();
        if me.sorted.is_empty() {
            return f64::NAN;
        }
        let idx =
            ((phi.clamp(0.0, 1.0) * me.sorted.len() as f64) as usize).min(me.sorted.len() - 1);
        me.sorted[idx]
    }

    fn count(&self) -> u64 {
        (self.sorted.len() + self.dirty.len()) as u64
    }

    fn size_bytes(&self) -> usize {
        (self.sorted.len() + self.dirty.len()) * 8
    }
}

impl QuantileSummary for ExactQuantiles {
    fn merge_from(&mut self, other: &Self) {
        self.dirty.extend_from_slice(&other.sorted);
        self.dirty.extend_from_slice(&other.dirty);
    }
}

/// Payload: the sorted retained data, then the unsorted tail.
impl WireCodec for ExactQuantiles {
    const KIND: SketchKind = SketchKind::Exact;

    fn write_payload(&self, w: &mut Writer) {
        w.f64_slice(&self.sorted);
        w.f64_slice(&self.dirty);
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SketchError> {
        let sorted = r.f64_vec()?;
        if sorted.windows(2).any(|w| w[0] > w[1]) {
            return Err(SketchError::Corrupt("retained data not sorted"));
        }
        let dirty = r.f64_vec()?;
        Ok(ExactQuantiles { sorted, dirty })
    }
}

/// Quantile error of a single estimate (Equation 1 of the paper):
/// `ε = |rank(q̂) - ⌊φ n⌋| / n` against sorted ground-truth data.
///
/// With repeated values an estimate occupies a *rank interval*
/// `[#(x < q̂), #(x <= q̂)]`; the error is the distance from `⌊φ n⌋` to
/// that interval (zero when the target rank falls inside it). This is the
/// convention of Luo et al. \[52\] and what makes the paper's
/// round-to-nearest-integer treatment of the `retail` dataset meaningful.
pub fn quantile_error(sorted: &[f64], q_est: f64, phi: f64) -> f64 {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len() as f64;
    let target = (phi * n).floor();
    let rank_lo = sorted.partition_point(|&x| x < q_est) as f64;
    let rank_hi = sorted.partition_point(|&x| x <= q_est) as f64;
    if target >= rank_lo && target <= rank_hi {
        0.0
    } else {
        (target - rank_lo).abs().min((target - rank_hi).abs()) / n
    }
}

/// Average quantile error over a set of estimates, as used throughout the
/// paper's evaluation (`ε_avg`, 21 equally spaced `φ ∈ [.01, .99]`).
///
/// `data` need not be pre-sorted.
pub fn avg_quantile_error(data: &[f64], estimates: &[f64], phis: &[f64]) -> f64 {
    assert_eq!(estimates.len(), phis.len());
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let total: f64 = estimates
        .iter()
        .zip(phis)
        .map(|(&q, &phi)| quantile_error(&sorted, q, phi))
        .sum();
    total / phis.len() as f64
}

/// The 21 equally spaced quantile fractions of the paper's evaluation
/// (`φ ∈ {0.01, 0.059, ..., 0.99}`).
pub fn eval_phis() -> Vec<f64> {
    (0..21).map(|i| 0.01 + 0.049 * i as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantile_on_known_data() {
        let data: Vec<f64> = (1..=1000).map(f64::from).collect();
        let e = ExactQuantiles::from_data(&data);
        assert_eq!(e.quantile(0.5), 501.0);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 1000.0);
    }

    #[test]
    fn error_metric_matches_paper_example() {
        // Paper Section 3.1: D = {1..1000}, q̂_0.5 = 504 has ε = 0.003.
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        let eps = quantile_error(&sorted, 504.0, 0.5);
        assert!((eps - 0.003).abs() < 1e-9, "eps {eps}");
    }

    #[test]
    fn merge_is_exact() {
        let a = ExactQuantiles::from_data(&[3.0, 1.0, 2.0]);
        let b = ExactQuantiles::from_data(&[6.0, 4.0, 5.0]);
        let mut m = a.clone();
        m.merge_from(&b);
        assert_eq!(m.count(), 6);
        assert_eq!(m.quantile(0.99), 6.0);
    }

    #[test]
    fn avg_error_zero_for_exact_estimates() {
        let data: Vec<f64> = (0..500).map(f64::from).collect();
        let e = ExactQuantiles::from_data(&data);
        let phis = eval_phis();
        let qs = e.quantiles(&phis);
        assert!(avg_quantile_error(&data, &qs, &phis) < 0.002);
    }

    #[test]
    fn eval_phis_span() {
        let p = eval_phis();
        assert_eq!(p.len(), 21);
        assert!((p[0] - 0.01).abs() < 1e-12);
        assert!((p[20] - 0.99).abs() < 1e-9);
    }
}
