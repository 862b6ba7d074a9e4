//! The `Random` mergeable sketch of Wang/Luo et al. (cited as \[52, 77\];
//! Zhuang \[84\] found it the fastest-merging summary in distributed
//! settings before the moments sketch).
//!
//! A hierarchy of fixed-size buffers: level `L` buffers hold `s` sorted
//! samples each representing `2^L` raw points. Two buffers at the same
//! level collapse into one at the next level by keeping alternate elements
//! of their merged order (random phase), halving the sample count while
//! doubling the weight.

use crate::api::{impl_sketch_object, Reader, SketchError, SketchKind, WireCodec, Writer};
use crate::rng::Rng;
use crate::traits::{QuantileSummary, Sketch};

/// Randomized multi-level buffer sketch.
#[derive(Debug, Clone)]
pub struct RandomW {
    /// Samples per buffer.
    s: usize,
    /// Level-0 fill buffer (unsorted).
    active: Vec<f64>,
    /// `levels[l]`: an optional sorted buffer whose elements each stand
    /// for `2^l` raw points.
    levels: Vec<Option<Vec<f64>>>,
    n: u64,
    rng: Rng,
}

impl RandomW {
    /// Create a sketch with buffer size `s` (the paper's `ε = 1/s`
    /// parameterization: `ε = 1/40` ↔ `s = 40` per buffer... larger `s`,
    /// smaller error).
    pub fn new(s: usize, seed: u64) -> Self {
        RandomW {
            s: s.max(4),
            active: Vec::with_capacity(s.max(4)),
            levels: Vec::new(),
            n: 0,
            rng: Rng::new(seed),
        }
    }

    /// Buffer size parameter.
    pub fn buffer_size(&self) -> usize {
        self.s
    }

    /// Number of occupied levels.
    pub fn occupied_levels(&self) -> usize {
        self.levels.iter().filter(|l| l.is_some()).count()
    }

    /// Insert a full sorted buffer at `level`, cascading collisions upward.
    fn place(&mut self, mut buf: Vec<f64>, mut level: usize) {
        loop {
            if self.levels.len() <= level {
                self.levels.resize(level + 1, None);
            }
            match self.levels[level].take() {
                None => {
                    self.levels[level] = Some(buf);
                    return;
                }
                Some(existing) => {
                    buf = self.downsample_pair(existing, buf);
                    level += 1;
                }
            }
        }
    }

    /// Merge two sorted buffers and keep alternate elements (random phase).
    fn downsample_pair(&mut self, a: Vec<f64>, b: Vec<f64>) -> Vec<f64> {
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i] <= b[j] {
                merged.push(a[i]);
                i += 1;
            } else {
                merged.push(b[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        let phase = usize::from(self.rng.coin());
        merged.into_iter().skip(phase).step_by(2).collect()
    }

    fn flush_active(&mut self) {
        if self.active.len() < self.s {
            return;
        }
        let mut buf = std::mem::take(&mut self.active);
        buf.sort_by(|a, b| a.partial_cmp(b).unwrap());
        self.place(buf, 0);
        self.active = Vec::with_capacity(self.s);
    }

    /// Weighted samples across all buffers (value, weight).
    fn weighted_samples(&self) -> Vec<(f64, f64)> {
        let mut out: Vec<(f64, f64)> = Vec::new();
        for &x in &self.active {
            out.push((x, 1.0));
        }
        for (l, buf) in self.levels.iter().enumerate() {
            if let Some(b) = buf {
                let w = (1u64 << l) as f64;
                out.extend(b.iter().map(|&x| (x, w)));
            }
        }
        out
    }
}

impl Sketch for RandomW {
    impl_sketch_object!(RandomW);

    fn accumulate(&mut self, x: f64) {
        self.n += 1;
        self.active.push(x);
        self.flush_active();
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
                return v;
            }
        }
        samples.last().unwrap().0
    }

    fn count(&self) -> u64 {
        self.n
    }

    fn size_bytes(&self) -> usize {
        let held: usize = self
            .levels
            .iter()
            .map(|b| b.as_ref().map_or(0, |v| v.len()))
            .sum::<usize>()
            + self.active.len();
        held * 8 + 16
    }
}

impl QuantileSummary for RandomW {
    fn merge_from(&mut self, other: &Self) {
        self.n += other.n;
        for x in &other.active {
            self.active.push(*x);
            self.flush_active();
        }
        for (l, buf) in other.levels.iter().enumerate() {
            if let Some(b) = buf {
                self.place(b.clone(), l);
            }
        }
    }
}

/// Payload: buffer size `s`, `n`, the RNG state, the level-0 fill buffer,
/// then each level as a presence byte + sorted buffer.
impl WireCodec for RandomW {
    const KIND: SketchKind = SketchKind::RandomW;

    fn write_payload(&self, w: &mut Writer) {
        w.u64(self.s as u64);
        w.u64(self.n);
        w.u64(self.rng.state());
        w.f64_slice(&self.active);
        w.len(self.levels.len());
        for level in &self.levels {
            match level {
                Some(buf) => {
                    w.u8(1);
                    w.f64_slice(buf);
                }
                None => w.u8(0),
            }
        }
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SketchError> {
        let s = r.u64()? as usize;
        if s < 4 {
            return Err(SketchError::Corrupt("RandomW buffer size must be >= 4"));
        }
        let n = r.u64()?;
        let rng = Rng::from_state(r.u64()?);
        let active = r.f64_vec()?;
        let n_levels = r.len(1)?;
        // Level `l` carries weight `2^l`; more than 63 levels cannot
        // arise from real data and would overflow the weight shift.
        if n_levels > 63 {
            return Err(SketchError::Corrupt("RandomW level count out of range"));
        }
        let levels = (0..n_levels)
            .map(|_| match r.u8()? {
                0 => Ok(None),
                1 => Ok(Some(r.f64_vec()?)),
                _ => Err(SketchError::Corrupt("invalid level presence byte")),
            })
            .collect::<Result<Vec<_>, SketchError>>()?;
        Ok(RandomW {
            s,
            active,
            levels,
            n,
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
        let mut r = RandomW::new(400, 11);
        r.accumulate_all(&data);
        let err = avg_quantile_error(&data, &r.quantiles(&phis()), &phis());
        assert!(err < 0.03, "err {err}");
    }

    #[test]
    fn accurate_after_merges() {
        let data: Vec<f64> = (0..40_000).map(|i| ((i * 101) % 40_000) as f64).collect();
        let mut merged = RandomW::new(400, 1);
        for (ci, chunk) in data.chunks(200).enumerate() {
            let mut cell = RandomW::new(400, 1000 + ci as u64);
            cell.accumulate_all(chunk);
            merged.merge_from(&cell);
        }
        assert_eq!(merged.count(), 40_000);
        let err = avg_quantile_error(&data, &merged.quantiles(&phis()), &phis());
        assert!(err < 0.04, "err {err}");
    }

    #[test]
    fn space_is_logarithmic() {
        let mut r = RandomW::new(64, 5);
        for i in 0..1_000_000u64 {
            r.accumulate(i as f64);
        }
        // ~log2(1M/64) levels of 64 samples each.
        assert!(r.size_bytes() < 64 * 8 * 24, "bytes {}", r.size_bytes());
    }

    #[test]
    fn downsample_halves() {
        let mut r = RandomW::new(8, 2);
        let a: Vec<f64> = (0..8).map(f64::from).collect();
        let b: Vec<f64> = (8..16).map(f64::from).collect();
        let d = r.downsample_pair(a, b);
        assert_eq!(d.len(), 8);
        // Elements remain sorted.
        for w in d.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn empty_returns_nan() {
        assert!(RandomW::new(16, 9).quantile(0.5).is_nan());
    }
}
