//! The low-discrepancy mergeable quantile sketch of Agarwal et al.
//! (*Mergeable Summaries*, PODS 2012 — `Merge12` in the paper's figures,
//! the "classic" quantiles DoublesSketch of the Yahoo datasketches
//! library).
//!
//! State is a base buffer of up to `2k` weight-1 items plus a bit-pattern
//! of levels, each a sorted array of exactly `k` items with weight
//! `2^{level+1}`. Compaction keeps every other item of a sorted
//! 2k-buffer (random offset — the "low discrepancy" trick keeps rank
//! error `O(1/k · sqrt(log n))` after arbitrary merges).

use crate::api::{impl_sketch_object, Reader, SketchError, SketchKind, WireCodec, Writer};
use crate::rng::Rng;
use crate::traits::{QuantileSummary, Sketch};

/// Low-discrepancy mergeable quantile sketch.
#[derive(Debug, Clone)]
pub struct Merge12 {
    k: usize,
    /// Weight-1 items, unsorted, capacity `2k`.
    base: Vec<f64>,
    /// `levels[l]`: sorted `k`-item array of weight `2^{l+1}`, or empty.
    levels: Vec<Vec<f64>>,
    n: u64,
    min: f64,
    max: f64,
    rng: Rng,
}

impl Merge12 {
    /// Create a sketch with level size `k` (the paper uses `k = 32`).
    pub fn new(k: usize, seed: u64) -> Self {
        Merge12 {
            k: k.max(2),
            base: Vec::with_capacity(2 * k.max(2)),
            levels: Vec::new(),
            n: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            rng: Rng::new(seed),
        }
    }

    /// Level size parameter.
    pub fn level_size(&self) -> usize {
        self.k
    }

    /// Number of occupied levels (analytic error bounds scale with this).
    pub fn occupied_levels(&self) -> usize {
        self.levels.iter().filter(|l| !l.is_empty()).count()
    }

    /// Halve a sorted `2k` buffer into `k` items with a random offset.
    fn compact(&mut self, sorted: Vec<f64>) -> Vec<f64> {
        debug_assert_eq!(sorted.len(), 2 * self.k);
        let offset = usize::from(self.rng.coin());
        sorted.into_iter().skip(offset).step_by(2).collect()
    }

    /// Insert a sorted `k`-array at `level`, zipping collisions upward.
    fn place(&mut self, mut arr: Vec<f64>, mut level: usize) {
        loop {
            if self.levels.len() <= level {
                self.levels.resize(level + 1, Vec::new());
            }
            if self.levels[level].is_empty() {
                self.levels[level] = arr;
                return;
            }
            let existing = std::mem::take(&mut self.levels[level]);
            let mut merged = Vec::with_capacity(2 * self.k);
            let (mut i, mut j) = (0, 0);
            while i < existing.len() && j < arr.len() {
                if existing[i] <= arr[j] {
                    merged.push(existing[i]);
                    i += 1;
                } else {
                    merged.push(arr[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&existing[i..]);
            merged.extend_from_slice(&arr[j..]);
            arr = self.compact(merged);
            level += 1;
        }
    }

    fn flush_base(&mut self) {
        if self.base.len() < 2 * self.k {
            return;
        }
        let mut buf = std::mem::take(&mut self.base);
        buf.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let arr = self.compact(buf);
        self.place(arr, 0);
        self.base = Vec::with_capacity(2 * self.k);
    }

    /// All retained items with their weights.
    fn weighted_samples(&self) -> Vec<(f64, f64)> {
        let mut out: Vec<(f64, f64)> = self.base.iter().map(|&x| (x, 1.0)).collect();
        for (l, arr) in self.levels.iter().enumerate() {
            let w = (1u64 << (l + 1)) as f64;
            out.extend(arr.iter().map(|&x| (x, w)));
        }
        out
    }
}

impl Sketch for Merge12 {
    impl_sketch_object!(Merge12);

    fn accumulate(&mut self, x: f64) {
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.n += 1;
        self.base.push(x);
        self.flush_base();
    }

    fn quantile(&self, phi: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let mut samples = self.weighted_samples();
        if samples.is_empty() {
            return f64::NAN;
        }
        samples.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let total: f64 = samples.iter().map(|(_, w)| w).sum();
        let target = phi.clamp(0.0, 1.0) * total;
        let mut cum = 0.0;
        for &(v, w) in &samples {
            cum += w;
            if cum >= target {
                return v.clamp(self.min, self.max);
            }
        }
        self.max
    }

    fn count(&self) -> u64 {
        self.n
    }

    fn size_bytes(&self) -> usize {
        let held = self.base.len() + self.levels.iter().map(Vec::len).sum::<usize>();
        held * 8 + 32
    }
}

impl QuantileSummary for Merge12 {
    fn merge_from(&mut self, other: &Self) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.n += other.n;
        for &x in &other.base {
            self.base.push(x);
            self.flush_base();
        }
        for (l, arr) in other.levels.iter().enumerate() {
            if !arr.is_empty() {
                self.place(arr.clone(), l);
            }
        }
    }
}

/// Payload: level size `k`, `n`, `min`, `max`, the RNG state, the base
/// buffer, then each level's sorted array (empty = unoccupied).
impl WireCodec for Merge12 {
    const KIND: SketchKind = SketchKind::Merge12;

    fn write_payload(&self, w: &mut Writer) {
        w.u64(self.k as u64);
        w.u64(self.n);
        w.f64(self.min);
        w.f64(self.max);
        w.u64(self.rng.state());
        w.f64_slice(&self.base);
        w.len(self.levels.len());
        for level in &self.levels {
            w.f64_slice(level);
        }
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SketchError> {
        let k = r.u64()? as usize;
        if k < 2 {
            return Err(SketchError::Corrupt("Merge12 level size must be >= 2"));
        }
        let n = r.u64()?;
        let min = r.f64()?;
        let max = r.f64()?;
        crate::api::check_extrema(n > 0, min, max)?;
        let rng = Rng::from_state(r.u64()?);
        let base = r.f64_vec()?;
        if base.len() > 2 * k {
            return Err(SketchError::Corrupt("Merge12 base buffer exceeds 2k"));
        }
        let n_levels = r.len(4)?;
        // Level `l` carries weight `2^(l+1)`; more than 62 levels cannot
        // arise from real data and would overflow the weight shift.
        if n_levels > 62 {
            return Err(SketchError::Corrupt("Merge12 level count out of range"));
        }
        let levels = (0..n_levels)
            .map(|_| {
                let arr = r.f64_vec()?;
                if !arr.is_empty() && arr.len() != k {
                    return Err(SketchError::Corrupt(
                        "Merge12 level array must hold k items",
                    ));
                }
                Ok(arr)
            })
            .collect::<Result<Vec<_>, SketchError>>()?;
        Ok(Merge12 {
            k,
            base,
            levels,
            n,
            min,
            max,
            rng,
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
    fn accurate_on_stream() {
        let data: Vec<f64> = (0..100_000).map(|i| ((i * 37) % 100_000) as f64).collect();
        let mut m = Merge12::new(128, 3);
        m.accumulate_all(&data);
        let err = avg_quantile_error(&data, &m.quantiles(&phis()), &phis());
        assert!(err < 0.02, "err {err}");
    }

    #[test]
    fn accurate_after_merges() {
        let data: Vec<f64> = (0..40_000).map(|i| ((i * 211) % 40_000) as f64).collect();
        let mut merged = Merge12::new(128, 17);
        for (ci, chunk) in data.chunks(200).enumerate() {
            let mut cell = Merge12::new(128, 9000 + ci as u64);
            cell.accumulate_all(chunk);
            merged.merge_from(&cell);
        }
        assert_eq!(merged.count(), 40_000);
        let err = avg_quantile_error(&data, &merged.quantiles(&phis()), &phis());
        assert!(err < 0.03, "err {err}");
    }

    #[test]
    fn level_arrays_have_size_k() {
        let mut m = Merge12::new(32, 8);
        for i in 0..10_000u64 {
            m.accumulate(i as f64);
        }
        for arr in &m.levels {
            assert!(arr.is_empty() || arr.len() == 32);
        }
    }

    #[test]
    fn space_is_logarithmic() {
        let mut m = Merge12::new(32, 8);
        for i in 0..1_000_000u64 {
            m.accumulate((i % 4096) as f64);
        }
        assert!(m.size_bytes() < 32 * 8 * 30, "bytes {}", m.size_bytes());
    }

    #[test]
    fn min_max_tracked() {
        let mut m = Merge12::new(16, 1);
        m.accumulate_all(&[5.0, -3.0, 12.0]);
        assert!(m.quantile(0.01) >= -3.0);
        assert!(m.quantile(0.99) <= 12.0);
    }
}
