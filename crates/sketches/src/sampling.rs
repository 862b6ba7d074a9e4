//! Reservoir sampling (`Sampling` in the paper, after Vitter \[76\]).
//!
//! A size-`s` uniform sample maintained with Algorithm R; merging draws a
//! fresh size-`s` sample from the union by repeatedly picking a source
//! reservoir with probability proportional to its remaining represented
//! population (sampling without replacement within each reservoir).

use crate::api::{impl_sketch_object, Reader, SketchError, SketchKind, WireCodec, Writer};
use crate::rng::Rng;
use crate::traits::{QuantileSummary, Sketch};

/// Fixed-size uniform reservoir sample.
#[derive(Debug, Clone)]
pub struct ReservoirSample {
    capacity: usize,
    items: Vec<f64>,
    n: u64,
    rng: Rng,
}

impl ReservoirSample {
    /// Create a reservoir holding `capacity` samples (the paper uses 1000).
    pub fn new(capacity: usize, seed: u64) -> Self {
        ReservoirSample {
            capacity: capacity.max(1),
            items: Vec::with_capacity(capacity.max(1)),
            n: 0,
            rng: Rng::new(seed),
        }
    }

    /// The current sample.
    pub fn items(&self) -> &[f64] {
        &self.items
    }
}

impl Sketch for ReservoirSample {
    impl_sketch_object!(ReservoirSample);

    fn accumulate(&mut self, x: f64) {
        self.n += 1;
        if self.items.len() < self.capacity {
            self.items.push(x);
        } else {
            let j = self.rng.below(self.n);
            if (j as usize) < self.capacity {
                self.items[j as usize] = x;
            }
        }
    }

    fn accumulate_all(&mut self, xs: &[f64]) {
        // Bulk fill while the reservoir is below capacity (no RNG draws
        // there, so this consumes the exact same random stream as
        // pointwise accumulation), then the usual Algorithm R replacement
        // loop for the remainder.
        let mut rest = xs;
        if self.items.len() < self.capacity {
            let take = (self.capacity - self.items.len()).min(xs.len());
            self.items.extend_from_slice(&xs[..take]);
            self.n += take as u64;
            rest = &xs[take..];
        }
        for &x in rest {
            self.n += 1;
            let j = self.rng.below(self.n);
            if (j as usize) < self.capacity {
                self.items[j as usize] = x;
            }
        }
    }

    fn quantile(&self, phi: f64) -> f64 {
        if self.items.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.items.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((phi.clamp(0.0, 1.0) * sorted.len() as f64) as usize).min(sorted.len() - 1);
        sorted[idx]
    }

    fn count(&self) -> u64 {
        self.n
    }

    fn size_bytes(&self) -> usize {
        self.items.len() * 8 + 10
    }
}

impl QuantileSummary for ReservoirSample {
    fn merge_from(&mut self, other: &Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        // Weighted draw without replacement from the two reservoirs:
        // each element of reservoir R stands for n_R / |R| points.
        let mut a: Vec<f64> = self.items.clone();
        let mut b: Vec<f64> = other.items.clone();
        let mut wa = self.n as f64; // remaining represented weight
        let mut wb = other.n as f64;
        let per_a = wa / a.len() as f64;
        let per_b = wb / b.len() as f64;
        let target = self.capacity.min(a.len() + b.len());
        let mut out = Vec::with_capacity(target);
        while out.len() < target && (!a.is_empty() || !b.is_empty()) {
            let pick_a = if a.is_empty() {
                false
            } else if b.is_empty() {
                true
            } else {
                self.rng.next_f64() * (wa + wb) < wa
            };
            if pick_a {
                let idx = self.rng.below(a.len() as u64) as usize;
                out.push(a.swap_remove(idx));
                wa -= per_a;
            } else {
                let idx = self.rng.below(b.len() as u64) as usize;
                out.push(b.swap_remove(idx));
                wb -= per_b;
            }
        }
        self.items = out;
        self.n += other.n;
    }
}

/// Payload: `capacity`, `n`, the RNG state, then the retained sample.
impl WireCodec for ReservoirSample {
    const KIND: SketchKind = SketchKind::Sampling;

    fn write_payload(&self, w: &mut Writer) {
        w.u64(self.capacity as u64);
        w.u64(self.n);
        w.u64(self.rng.state());
        w.f64_slice(&self.items);
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SketchError> {
        let capacity = r.u64()? as usize;
        if capacity == 0 {
            return Err(SketchError::Corrupt("reservoir capacity must be > 0"));
        }
        let n = r.u64()?;
        let rng = Rng::from_state(r.u64()?);
        let items = r.f64_vec()?;
        if items.len() > capacity || (items.len() as u64) > n {
            return Err(SketchError::Corrupt("reservoir holds more than it saw"));
        }
        Ok(ReservoirSample {
            capacity,
            items,
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
    fn sample_is_uniform_enough() {
        let data: Vec<f64> = (0..100_000).map(|i| i as f64).collect();
        let mut r = ReservoirSample::new(2000, 5);
        r.accumulate_all(&data);
        assert_eq!(r.items().len(), 2000);
        let err = avg_quantile_error(&data, &r.quantiles(&phis()), &phis());
        assert!(err < 0.05, "err {err}");
    }

    #[test]
    fn merge_keeps_capacity_and_balance() {
        // Merge reservoirs over disjoint halves; the sample should stay
        // roughly half/half.
        let mut a = ReservoirSample::new(1000, 1);
        let mut b = ReservoirSample::new(1000, 2);
        for i in 0..50_000 {
            a.accumulate(i as f64);
            b.accumulate((i + 50_000) as f64);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), 100_000);
        assert_eq!(a.items().len(), 1000);
        let below = a.items().iter().filter(|&&x| x < 50_000.0).count();
        assert!(
            (below as f64 - 500.0).abs() < 120.0,
            "balance off: {below}/1000"
        );
    }

    #[test]
    fn unequal_population_merge_is_weighted() {
        let mut a = ReservoirSample::new(500, 3);
        let mut b = ReservoirSample::new(500, 4);
        for i in 0..90_000 {
            a.accumulate(i as f64); // 90k small values
        }
        for i in 0..10_000 {
            b.accumulate(1e9 + i as f64); // 10k large values
        }
        a.merge_from(&b);
        let big = a.items().iter().filter(|&&x| x >= 1e9).count();
        // Expect ~10% from b.
        assert!((big as f64 - 50.0).abs() < 40.0, "big {big}");
    }

    #[test]
    fn empty_reservoir_nan() {
        assert!(ReservoirSample::new(10, 6).quantile(0.5).is_nan());
    }
}
