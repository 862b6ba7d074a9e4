//! Ben-Haim & Tom-Tov streaming histogram — Druid's default quantile
//! summary (`S-Hist` in the paper, `ApproximateHistogram` in Druid,
//! cited as \[12\]).
//!
//! Keeps at most `B` centroids `(position, mass)`. Each insert adds a unit
//! centroid; when the budget overflows, the two closest centroids merge
//! into their weighted mean. Histogram merge is the same procedure on the
//! centroid union. Quantile queries use the paper's trapezoid
//! interpolation ("sum" procedure): mass between adjacent centroids is
//! distributed linearly.

use crate::api::{impl_sketch_object, Reader, SketchError, SketchKind, WireCodec, Writer};
use crate::traits::{QuantileSummary, Sketch};

/// Streaming histogram with a centroid budget.
#[derive(Debug, Clone)]
pub struct SHist {
    budget: usize,
    /// Sorted centroids (position, mass).
    bins: Vec<(f64, f64)>,
    n: u64,
    min: f64,
    max: f64,
}

impl SHist {
    /// Create a histogram with `budget` centroids (Druid defaults to 50;
    /// the paper benchmarks 10/100/1000).
    pub fn new(budget: usize) -> Self {
        SHist {
            budget: budget.max(2),
            bins: Vec::with_capacity(budget.max(2) + 1),
            n: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Current number of centroids.
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// Merge the closest pair of adjacent centroids.
    fn shrink_once(&mut self) {
        if self.bins.len() < 2 {
            return;
        }
        let mut best = 0;
        let mut best_gap = f64::INFINITY;
        for i in 0..self.bins.len() - 1 {
            let gap = self.bins[i + 1].0 - self.bins[i].0;
            if gap < best_gap {
                best_gap = gap;
                best = i;
            }
        }
        let (p1, m1) = self.bins[best];
        let (p2, m2) = self.bins[best + 1];
        let m = m1 + m2;
        self.bins[best] = ((p1 * m1 + p2 * m2) / m, m);
        self.bins.remove(best + 1);
    }
}

impl Sketch for SHist {
    impl_sketch_object!(SHist);

    fn accumulate(&mut self, x: f64) {
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.n += 1;
        // Insert as a unit centroid at the sorted position (merging with
        // an exact-position twin if present).
        match self
            .bins
            .binary_search_by(|probe| probe.0.partial_cmp(&x).unwrap())
        {
            Ok(i) => self.bins[i].1 += 1.0,
            Err(i) => {
                self.bins.insert(i, (x, 1.0));
                if self.bins.len() > self.budget {
                    self.shrink_once();
                }
            }
        }
    }

    fn quantile(&self, phi: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        if self.bins.len() == 1 {
            return self.bins[0].0;
        }
        let target = phi.clamp(0.0, 1.0) * self.n as f64;
        // Trapezoid model: half of each centroid's mass lies on each side
        // of its position; between adjacent centroids mass is linear.
        let mut cum = 0.0;
        for (i, &(p, m)) in self.bins.iter().enumerate() {
            let mid = cum + m / 2.0;
            if target <= mid || i == self.bins.len() - 1 {
                if i == 0 {
                    let frac = (target / mid.max(1e-12)).clamp(0.0, 1.0);
                    return self.min + frac * (p - self.min);
                }
                let (p0, m0) = self.bins[i - 1];
                let prev_mid = cum - m0 / 2.0;
                let span = (mid - prev_mid).max(1e-12);
                let frac = ((target - prev_mid) / span).clamp(0.0, 1.0);
                return p0 + frac * (p - p0);
            }
            cum += m;
        }
        self.max
    }

    fn count(&self) -> u64 {
        self.n
    }

    fn size_bytes(&self) -> usize {
        // position f64 + mass f32, plus header.
        self.bins.len() * 12 + 24
    }
}

impl QuantileSummary for SHist {
    fn merge_from(&mut self, other: &Self) {
        if other.n == 0 {
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.n += other.n;
        // Union the sorted centroid lists, then shrink to budget.
        let mut merged = Vec::with_capacity(self.bins.len() + other.bins.len());
        let (a, b) = (&self.bins, &other.bins);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i].0 <= b[j].0 {
                merged.push(a[i]);
                i += 1;
            } else {
                merged.push(b[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.bins = merged;
        while self.bins.len() > self.budget {
            self.shrink_once();
        }
    }
}

/// Payload: `budget`, `n`, `min`, `max`, then the sorted centroid list as
/// `(position, mass)` pairs.
impl WireCodec for SHist {
    const KIND: SketchKind = SketchKind::SHist;

    fn write_payload(&self, w: &mut Writer) {
        w.u64(self.budget as u64);
        w.u64(self.n);
        w.f64(self.min);
        w.f64(self.max);
        w.len(self.bins.len());
        for &(p, m) in &self.bins {
            w.f64(p);
            w.f64(m);
        }
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SketchError> {
        let budget = r.u64()? as usize;
        if budget < 2 {
            return Err(SketchError::Corrupt("histogram budget must be >= 2"));
        }
        let n = r.u64()?;
        let min = r.f64()?;
        let max = r.f64()?;
        crate::api::check_extrema(n > 0, min, max)?;
        let len = r.len(16)?;
        if len > budget + 1 {
            return Err(SketchError::Corrupt("centroid list exceeds budget"));
        }
        let bins = (0..len)
            .map(|_| {
                let (p, m) = (r.f64()?, r.f64()?);
                if p.is_nan() || m.is_nan() {
                    return Err(SketchError::Corrupt("NaN centroid"));
                }
                Ok((p, m))
            })
            .collect::<Result<Vec<_>, SketchError>>()?;
        Ok(SHist {
            budget,
            bins,
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
        let data: Vec<f64> = (0..30_000).map(|i| ((i * 7919) % 30_000) as f64).collect();
        let mut h = SHist::new(100);
        h.accumulate_all(&data);
        let err = avg_quantile_error(&data, &h.quantiles(&phis()), &phis());
        assert!(err < 0.02, "err {err}");
    }

    #[test]
    fn budget_enforced() {
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64).sqrt()).collect();
        let mut h = SHist::new(50);
        h.accumulate_all(&data);
        assert!(h.bin_count() <= 50);
    }

    #[test]
    fn merge_preserves_count_and_accuracy() {
        let data: Vec<f64> = (0..20_000).map(|i| ((i * 613) % 997) as f64).collect();
        let mut merged = SHist::new(100);
        for chunk in data.chunks(200) {
            let mut cell = SHist::new(100);
            cell.accumulate_all(chunk);
            merged.merge_from(&cell);
        }
        assert_eq!(merged.count(), 20_000);
        let err = avg_quantile_error(&data, &merged.quantiles(&phis()), &phis());
        assert!(err < 0.05, "err {err}");
    }

    #[test]
    fn struggles_on_long_tail_with_few_bins() {
        let data: Vec<f64> = (1..30_000).map(|i| (i as f64 / 3_000.0).exp()).collect();
        let mut h = SHist::new(10);
        h.accumulate_all(&data);
        let err = avg_quantile_error(&data, &h.quantiles(&phis()), &phis());
        assert!(err > 0.01, "expected visible error, got {err}");
    }

    #[test]
    fn duplicate_values_collapse() {
        let mut h = SHist::new(10);
        for _ in 0..1000 {
            h.accumulate(5.0);
        }
        assert_eq!(h.bin_count(), 1);
        assert_eq!(h.quantile(0.5), 5.0);
    }
}
