//! Mergeable equi-width histogram on power-of-two ranges (the paper's
//! `EW-Hist`, after the JetStream degradation histograms \[65\]).
//!
//! Bins have width `2^m` aligned at multiples of the width, so two
//! histograms always share bin boundaries after coarsening the finer one —
//! that makes merges exact. When the populated range would exceed the bin
//! budget the width doubles and adjacent bins combine.
//!
//! Fast and tiny, but accuracy collapses on long-tailed data (most mass
//! lands in one bin) — exactly the weakness Figures 7 and 19 highlight.

use crate::api::{impl_sketch_object, Reader, SketchError, SketchKind, WireCodec, Writer};
use crate::traits::{QuantileSummary, Sketch};

/// Equi-width histogram with a fixed bin budget.
#[derive(Debug, Clone)]
pub struct EwHist {
    /// Maximum number of bins.
    budget: usize,
    /// log2 of the bin width.
    log_width: i32,
    /// Index (in units of width) of `counts\[0\]`.
    start: i64,
    counts: Vec<u64>,
    n: u64,
    min: f64,
    max: f64,
}

impl EwHist {
    /// Create a histogram with the given bin budget (paper sweeps 15-100).
    pub fn new(budget: usize) -> Self {
        EwHist {
            budget: budget.max(2),
            log_width: -20,
            start: 0,
            counts: Vec::new(),
            n: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    #[inline]
    fn width(&self) -> f64 {
        (self.log_width as f64).exp2()
    }

    fn bin_of(&self, x: f64) -> i64 {
        // Clamp so extreme magnitudes cannot overflow index arithmetic;
        // the coarsening loop still terminates because each step halves
        // the clamped span.
        (x / self.width()).floor().clamp(-4.0e15, 4.0e15) as i64
    }

    /// Largest single-bin mass as a fraction of `n` — the worst-case
    /// rank error of an in-bin interpolation (Figure 23 reporting).
    pub fn max_bin_fraction(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let max = self.counts.iter().copied().max().unwrap_or(0);
        max as f64 / self.n as f64
    }

    /// Double the bin width, combining adjacent bins.
    fn coarsen(&mut self) {
        let old = std::mem::take(&mut self.counts);
        let old_start = self.start;
        self.log_width += 1;
        self.start = old_start.div_euclid(2);
        let new_len = if old.is_empty() {
            0
        } else {
            ((old_start + old.len() as i64 - 1).div_euclid(2) - self.start + 1) as usize
        };
        self.counts = vec![0; new_len];
        for (i, c) in old.into_iter().enumerate() {
            let idx = (old_start + i as i64).div_euclid(2) - self.start;
            self.counts[idx as usize] += c;
        }
    }
}

impl Sketch for EwHist {
    impl_sketch_object!(EwHist);

    fn accumulate(&mut self, x: f64) {
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.n += 1;
        loop {
            let bin = self.bin_of(x);
            if self.counts.is_empty() {
                self.start = bin;
                self.counts.push(1);
                return;
            }
            let end = self.start + self.counts.len() as i64;
            let new_start = self.start.min(bin);
            let new_end = end.max(bin + 1);
            if (new_end - new_start) as usize <= self.budget {
                if bin < self.start {
                    let grow = (self.start - bin) as usize;
                    let mut fresh = vec![0u64; grow];
                    fresh.extend_from_slice(&self.counts);
                    self.counts = fresh;
                    self.start = bin;
                } else if bin >= end {
                    self.counts.resize((bin - self.start + 1) as usize, 0);
                }
                self.counts[(bin - self.start) as usize] += 1;
                return;
            }
            self.coarsen();
        }
    }

    fn accumulate_all(&mut self, xs: &[f64]) {
        // Batched bucket loop. Bin width is a power of two, so division
        // rounds identically whether hoisted or not, and bin counts are
        // integers — the result is identical to pointwise accumulation.
        // Points landing inside the already-populated range (the common
        // case once the histogram warms up) take the three-instruction
        // fast path; range growth and coarsening fall back to
        // `accumulate`.
        for &x in xs {
            let bin = self.bin_of(x);
            let idx = bin - self.start;
            if !self.counts.is_empty() && idx >= 0 && (idx as usize) < self.counts.len() {
                self.min = self.min.min(x);
                self.max = self.max.max(x);
                self.n += 1;
                self.counts[idx as usize] += 1;
            } else {
                self.accumulate(x);
            }
        }
    }

    fn quantile(&self, phi: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let target = phi.clamp(0.0, 1.0) * self.n as f64;
        let w = self.width();
        let mut cum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cum + c as f64;
            if next >= target && c > 0 {
                let frac = ((target - cum) / c as f64).clamp(0.0, 1.0);
                let lo = (self.start + i as i64) as f64 * w;
                return (lo + frac * w).clamp(self.min, self.max);
            }
            cum = next;
        }
        self.max
    }

    fn count(&self) -> u64 {
        self.n
    }

    fn size_bytes(&self) -> usize {
        // counts as u64 plus width/start/min/max/count header.
        self.counts.len() * 8 + 8 + 24
    }
}

impl QuantileSummary for EwHist {
    fn merge_from(&mut self, other: &Self) {
        if other.n == 0 {
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.n += other.n;
        let mut other = other.clone();
        // Align widths: coarsen the finer histogram.
        while other.log_width < self.log_width {
            other.coarsen();
        }
        while self.log_width < other.log_width {
            self.coarsen();
        }
        // Add other's bins, growing/coarsening as needed.
        loop {
            if other.counts.is_empty() {
                return;
            }
            let o_start = other.start;
            let o_end = o_start + other.counts.len() as i64;
            if self.counts.is_empty() {
                self.start = o_start;
                self.counts = other.counts.clone();
                return;
            }
            let new_start = self.start.min(o_start);
            let new_end = (self.start + self.counts.len() as i64).max(o_end);
            if (new_end - new_start) as usize <= self.budget {
                if new_start < self.start {
                    let grow = (self.start - new_start) as usize;
                    let mut fresh = vec![0u64; grow];
                    fresh.extend_from_slice(&self.counts);
                    self.counts = fresh;
                    self.start = new_start;
                }
                let len_needed = (new_end - self.start) as usize;
                if self.counts.len() < len_needed {
                    self.counts.resize(len_needed, 0);
                }
                for (i, &c) in other.counts.iter().enumerate() {
                    self.counts[(o_start + i as i64 - self.start) as usize] += c;
                }
                return;
            }
            self.coarsen();
            other.coarsen();
        }
    }
}

/// Payload: `budget`, `log_width`, `start`, `n`, `min`, `max`, then the
/// bin counts.
impl WireCodec for EwHist {
    const KIND: SketchKind = SketchKind::EwHist;

    fn write_payload(&self, w: &mut Writer) {
        w.u64(self.budget as u64);
        w.i64(self.log_width as i64);
        w.i64(self.start);
        w.u64(self.n);
        w.f64(self.min);
        w.f64(self.max);
        w.len(self.counts.len());
        for &c in &self.counts {
            w.u64(c);
        }
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SketchError> {
        let budget = r.u64()? as usize;
        if budget < 2 {
            return Err(SketchError::Corrupt("histogram budget must be >= 2"));
        }
        let log_width = r.i64()?;
        if !(-1100..=1100).contains(&log_width) {
            return Err(SketchError::Corrupt("bin width exponent out of range"));
        }
        let start = r.i64()?;
        let n = r.u64()?;
        let min = r.f64()?;
        let max = r.f64()?;
        crate::api::check_extrema(n > 0, min, max)?;
        let len = r.len(8)?;
        if len > budget {
            return Err(SketchError::Corrupt("bin list exceeds budget"));
        }
        let counts = (0..len)
            .map(|_| r.u64())
            .collect::<Result<Vec<_>, SketchError>>()?;
        Ok(EwHist {
            budget,
            log_width: log_width as i32,
            start,
            counts,
            n,
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::avg_quantile_error;

    fn phis() -> Vec<f64> {
        (1..20).map(|i| i as f64 / 20.0).collect()
    }

    #[test]
    fn accurate_on_uniform_data() {
        let data: Vec<f64> = (0..50_000).map(|i| i as f64 / 49_999.0).collect();
        let mut h = EwHist::new(100);
        h.accumulate_all(&data);
        let err = avg_quantile_error(&data, &h.quantiles(&phis()), &phis());
        assert!(err < 0.02, "err {err}");
    }

    #[test]
    fn merge_equals_pointwise() {
        let data: Vec<f64> = (0..20_000).map(|i| ((i * 131) % 4096) as f64).collect();
        let mut whole = EwHist::new(64);
        whole.accumulate_all(&data);
        let mut merged = EwHist::new(64);
        for chunk in data.chunks(128) {
            let mut cell = EwHist::new(64);
            cell.accumulate_all(chunk);
            merged.merge_from(&cell);
        }
        assert_eq!(whole.count(), merged.count());
        for &phi in &[0.1, 0.5, 0.9] {
            let a = whole.quantile(phi);
            let b = merged.quantile(phi);
            assert!((a - b).abs() <= whole.width() * 2.0 + 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn bin_budget_respected() {
        let data: Vec<f64> = (0..100_000).map(|i| (i as f64).powf(1.3)).collect();
        let mut h = EwHist::new(50);
        h.accumulate_all(&data);
        assert!(h.counts.len() <= 50);
    }

    #[test]
    fn poor_on_long_tailed_data() {
        // The paper's key negative result for EW-Hist.
        let data: Vec<f64> = (1..50_000).map(|i| (i as f64 / 5_000.0).exp()).collect();
        let mut h = EwHist::new(100);
        h.accumulate_all(&data);
        let err = avg_quantile_error(&data, &h.quantiles(&phis()), &phis());
        assert!(err > 0.02, "expected poor accuracy, err {err}");
    }

    #[test]
    fn negative_values_supported() {
        let data: Vec<f64> = (-5000..5000).map(|i| i as f64 / 100.0).collect();
        let mut h = EwHist::new(64);
        h.accumulate_all(&data);
        let q = h.quantile(0.5);
        assert!(q.abs() < 5.0, "median {q}");
    }

    #[test]
    fn empty_returns_nan() {
        assert!(EwHist::new(10).quantile(0.5).is_nan());
    }
}
