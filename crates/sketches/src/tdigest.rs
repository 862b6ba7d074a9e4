//! The t-digest of Dunning & Ertl (merging variant), cited as \[28\] in the
//! paper.
//!
//! Centroids `(mean, weight)` are kept sorted by mean; the `k1` scale
//! function `k(q) = δ/(2π) · asin(2q - 1)` limits each centroid's quantile
//! width so resolution concentrates at the tails. Inserts buffer and are
//! merged in one sorted sweep; merging two digests merges their centroid
//! lists the same way.

use crate::api::{impl_sketch_object, Reader, SketchError, SketchKind, WireCodec, Writer};
use crate::traits::{QuantileSummary, Sketch};
use std::f64::consts::PI;

/// A centroid: mean and weight.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Centroid {
    mean: f64,
    weight: f64,
}

/// Merging t-digest with compression parameter `delta`.
#[derive(Debug, Clone)]
pub struct TDigest {
    delta: f64,
    centroids: Vec<Centroid>,
    buffer: Vec<Centroid>,
    n: f64,
    min: f64,
    max: f64,
}

impl TDigest {
    /// Create a digest with compression `delta` (the paper benchmarks
    /// `δ = 1.5 .. 5.0`; larger keeps more centroids).
    pub fn new(delta: f64) -> Self {
        assert!(delta > 0.0);
        TDigest {
            delta: delta.max(1.0) * 10.0, // scale: δ≈5 ≈ 50 centroids, as in Table 2 sizes
            centroids: Vec::new(),
            buffer: Vec::new(),
            n: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Number of centroids currently held (post-flush).
    pub fn centroid_count(&self) -> usize {
        let mut me = self.clone();
        me.flush();
        me.centroids.len()
    }

    /// Largest centroid mass as a fraction of `n` — a worst-case rank
    /// uncertainty proxy (Figure 23 reporting).
    pub fn max_centroid_fraction(&self) -> f64 {
        if self.n == 0.0 {
            return 0.0;
        }
        let mut me = self.clone();
        me.flush();
        me.centroids.iter().map(|c| c.weight).fold(0.0f64, f64::max) / self.n
    }

    fn k_scale(&self, q: f64) -> f64 {
        self.delta / (2.0 * PI) * (2.0 * q.clamp(0.0, 1.0) - 1.0).asin()
    }

    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let mut all = std::mem::take(&mut self.centroids);
        all.append(&mut self.buffer);
        all.sort_by(|a, b| a.mean.partial_cmp(&b.mean).unwrap());
        let total: f64 = all.iter().map(|c| c.weight).sum();
        let mut out: Vec<Centroid> = Vec::with_capacity(64);
        let mut cur = all[0];
        let mut w_before = 0.0; // weight strictly before `cur`
        for &c in &all[1..] {
            let q_left = w_before / total;
            let q_right = (w_before + cur.weight + c.weight) / total;
            if self.k_scale(q_right) - self.k_scale(q_left) <= 1.0 {
                // Absorb into the current centroid.
                let w = cur.weight + c.weight;
                cur.mean += (c.mean - cur.mean) * c.weight / w;
                cur.weight = w;
            } else {
                w_before += cur.weight;
                out.push(cur);
                cur = c;
            }
        }
        out.push(cur);
        self.centroids = out;
    }
}

impl Sketch for TDigest {
    impl_sketch_object!(TDigest);

    fn accumulate(&mut self, x: f64) {
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.n += 1.0;
        self.buffer.push(Centroid {
            mean: x,
            weight: 1.0,
        });
        if self.buffer.len() >= 256 {
            self.flush();
        }
    }

    fn quantile(&self, phi: f64) -> f64 {
        if self.n == 0.0 {
            return f64::NAN;
        }
        let mut me = self.clone();
        me.flush();
        let cs = &me.centroids;
        if cs.len() == 1 {
            return cs[0].mean;
        }
        let target = phi.clamp(0.0, 1.0) * me.n;
        // Walk cumulative weights; each centroid's mass is centered at its
        // mean, so interpolate between centroid midpoints.
        let mut cum = 0.0;
        for (i, c) in cs.iter().enumerate() {
            let mid = cum + c.weight / 2.0;
            if target <= mid || i == cs.len() - 1 {
                if i == 0 {
                    // Interpolate from the minimum.
                    let frac = (target / mid).clamp(0.0, 1.0);
                    return me.min + frac * (c.mean - me.min);
                }
                let prev = &cs[i - 1];
                let prev_mid = cum - prev.weight / 2.0;
                let span = mid - prev_mid;
                let frac = if span > 0.0 {
                    ((target - prev_mid) / span).clamp(0.0, 1.0)
                } else {
                    0.5
                };
                return prev.mean + frac * (c.mean - prev.mean);
            }
            cum += c.weight;
        }
        me.max
    }

    fn count(&self) -> u64 {
        self.n as u64
    }

    fn size_bytes(&self) -> usize {
        // mean f64 + weight u32, plus min/max/count header.
        self.centroid_count() * 12 + 24
    }
}

impl QuantileSummary for TDigest {
    fn merge_from(&mut self, other: &Self) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.n += other.n;
        self.buffer.extend_from_slice(&other.centroids);
        self.buffer.extend_from_slice(&other.buffer);
        self.flush();
    }
}

/// Payload: `delta` (post-scaling), `n`, `min`, `max`, then the centroid
/// and buffer lists as interleaved `(mean, weight)` pairs.
impl WireCodec for TDigest {
    const KIND: SketchKind = SketchKind::TDigest;

    fn write_payload(&self, w: &mut Writer) {
        w.f64(self.delta);
        w.f64(self.n);
        w.f64(self.min);
        w.f64(self.max);
        for list in [&self.centroids, &self.buffer] {
            w.len(list.len());
            for c in list {
                w.f64(c.mean);
                w.f64(c.weight);
            }
        }
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SketchError> {
        let delta = r.f64()?;
        if !delta.is_finite() || delta <= 0.0 {
            return Err(SketchError::Corrupt("t-digest compression must be > 0"));
        }
        let n = r.f64()?;
        if !n.is_finite() || n < 0.0 {
            return Err(SketchError::Corrupt("negative t-digest count"));
        }
        let min = r.f64()?;
        let max = r.f64()?;
        crate::api::check_extrema(n > 0.0, min, max)?;
        let read_list = |r: &mut Reader<'_>| -> Result<Vec<Centroid>, SketchError> {
            let len = r.len(16)?;
            (0..len)
                .map(|_| {
                    let (mean, weight) = (r.f64()?, r.f64()?);
                    if mean.is_nan() || weight.is_nan() {
                        return Err(SketchError::Corrupt("NaN centroid"));
                    }
                    Ok(Centroid { mean, weight })
                })
                .collect()
        };
        let centroids = read_list(r)?;
        let buffer = read_list(r)?;
        Ok(TDigest {
            delta,
            centroids,
            buffer,
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
    fn accurate_on_uniform_stream() {
        let data: Vec<f64> = (0..50_000).map(|i| i as f64 / 49_999.0).collect();
        let mut td = TDigest::new(5.0);
        td.accumulate_all(&data);
        let err = avg_quantile_error(&data, &td.quantiles(&phis()), &phis());
        assert!(err < 0.01, "err {err}");
    }

    #[test]
    fn accurate_after_merging_cells() {
        let data: Vec<f64> = (0..30_000).map(|i| ((i * 37) % 1000) as f64).collect();
        let mut merged = TDigest::new(5.0);
        for chunk in data.chunks(200) {
            let mut cell = TDigest::new(5.0);
            cell.accumulate_all(chunk);
            merged.merge_from(&cell);
        }
        assert_eq!(merged.count(), 30_000);
        let err = avg_quantile_error(&data, &merged.quantiles(&phis()), &phis());
        assert!(err < 0.02, "err {err}");
    }

    #[test]
    fn tails_are_sharp() {
        let data: Vec<f64> = (1..=100_000).map(|i| i as f64).collect();
        let mut td = TDigest::new(5.0);
        td.accumulate_all(&data);
        let q999 = td.quantile(0.999);
        assert!((q999 - 99_900.0).abs() < 500.0, "q999 {q999}");
    }

    #[test]
    fn centroid_budget_respected() {
        let data: Vec<f64> = (0..200_000).map(|i| (i as f64).sin()).collect();
        let mut td = TDigest::new(5.0);
        td.accumulate_all(&data);
        assert!(
            td.centroid_count() < 120,
            "centroids {}",
            td.centroid_count()
        );
    }

    #[test]
    fn empty_digest_nan() {
        let td = TDigest::new(2.0);
        assert!(td.quantile(0.5).is_nan());
    }
}
