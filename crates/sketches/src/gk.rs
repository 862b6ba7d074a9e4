//! Greenwald–Khanna quantile summary, 'GKArray' variant.
//!
//! Follows the array-based formulation benchmarked by Luo et al. (cited as
//! \[34, 52\] in the paper): sorted tuples `(v, g, Δ)` where `g` counts the
//! observations the tuple absorbs and `Δ` bounds its rank uncertainty.
//! Inserts are buffered and flushed in sorted batches; a compress pass
//! merges adjacent tuples while `g_i + g_{i+1} + Δ_{i+1} <= 2εn` holds.
//!
//! GK is *not* strictly mergeable: merging interleaves the tuple lists
//! and each tuple's Δ must additionally absorb the other summary's local
//! gap (Greenwald & Khanna 2004), so compression against the combined `n`
//! cannot always shrink the summary back — its footprint grows with merge
//! depth, which is exactly the behavior the paper reports in its
//! production benchmarks (Appendix D.4).

use crate::api::{impl_sketch_object, Reader, SketchError, SketchKind, WireCodec, Writer};
use crate::traits::{QuantileSummary, Sketch};

/// A GK tuple: value, absorbed count, rank uncertainty.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tuple {
    v: f64,
    g: u64,
    delta: u64,
}

/// Greenwald–Khanna summary with error target `epsilon`.
#[derive(Debug, Clone)]
pub struct GkSummary {
    epsilon: f64,
    entries: Vec<Tuple>,
    buffer: Vec<f64>,
    n: u64,
}

impl GkSummary {
    /// Create a summary targeting rank error `epsilon` (e.g. `1/60`).
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 0.5);
        GkSummary {
            epsilon,
            entries: Vec::new(),
            buffer: Vec::with_capacity(buffer_cap(epsilon)),
            n: 0,
        }
    }

    /// Error target.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of stored tuples (post-flush).
    pub fn tuple_count(&self) -> usize {
        self.entries.len() + self.buffer.len()
    }

    /// Worst-case rank uncertainty of any query, as a fraction of `n`:
    /// `max_i (g_i + Δ_i) / (2n)` (used for guaranteed-error reporting,
    /// Figure 23 of the paper).
    pub fn max_rank_uncertainty(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let mut me = self.clone();
        me.flush();
        let worst = me.entries.iter().map(|t| t.g + t.delta).max().unwrap_or(0);
        worst as f64 / (2.0 * self.n as f64)
    }

    fn threshold(&self) -> u64 {
        (2.0 * self.epsilon * self.n as f64).floor() as u64
    }

    /// Sort the buffer and merge it into the tuple array.
    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        self.buffer.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let delta = self.threshold().saturating_sub(1);
        let old = std::mem::take(&mut self.entries);
        let new = std::mem::take(&mut self.buffer);
        let mut merged = Vec::with_capacity(old.len() + new.len());
        let mut it_old = old.into_iter().peekable();
        let mut it_new = new.into_iter().peekable();
        loop {
            match (it_old.peek(), it_new.peek()) {
                (Some(o), Some(&nv)) => {
                    if o.v <= nv {
                        merged.push(it_old.next().unwrap());
                    } else {
                        it_new.next();
                        // First/last-position inserts are exact; interior
                        // inserts inherit the current uncertainty budget.
                        let d = if merged.is_empty() { 0 } else { delta };
                        merged.push(Tuple {
                            v: nv,
                            g: 1,
                            delta: d,
                        });
                    }
                }
                (Some(_), None) => merged.push(it_old.next().unwrap()),
                (None, Some(&nv)) => {
                    it_new.next();
                    let d = if merged.is_empty() || it_new.peek().is_none() {
                        0
                    } else {
                        delta
                    };
                    merged.push(Tuple {
                        v: nv,
                        g: 1,
                        delta: d,
                    });
                }
                (None, None) => break,
            }
        }
        self.entries = merged;
        self.compress();
    }

    /// Merge adjacent tuples within the error budget.
    fn compress(&mut self) {
        if self.entries.len() < 3 {
            return;
        }
        let threshold = self.threshold();
        let mut out: Vec<Tuple> = Vec::with_capacity(self.entries.len());
        out.push(self.entries[0]);
        for &t in &self.entries[1..] {
            // Keep extreme tuples exact so min/max quantiles stay sharp.
            let can_absorb = out.len() > 1 && {
                let last = out.last().unwrap();
                last.g + t.g + t.delta <= threshold
            };
            if can_absorb {
                let last = out.last_mut().unwrap();
                last.v = t.v;
                last.g += t.g;
                last.delta = t.delta;
            } else {
                out.push(t);
            }
        }
        self.entries = out;
    }
}

fn buffer_cap(epsilon: f64) -> usize {
    ((0.5 / epsilon).ceil() as usize).clamp(16, 4096)
}

impl Sketch for GkSummary {
    impl_sketch_object!(GkSummary);

    fn accumulate(&mut self, x: f64) {
        self.n += 1;
        self.buffer.push(x);
        if self.buffer.len() >= buffer_cap(self.epsilon) {
            self.flush();
        }
    }

    fn quantile(&self, phi: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&phi));
        if self.n == 0 {
            return f64::NAN;
        }
        let mut me = self.clone();
        me.flush();
        if me.entries.is_empty() {
            return f64::NAN;
        }
        let target = (phi * me.n as f64).ceil() as u64;
        let mut rank_min = 0u64;
        for t in &me.entries {
            rank_min += t.g;
            if rank_min + t.delta / 2 >= target {
                return t.v;
            }
        }
        me.entries.last().unwrap().v
    }

    fn count(&self) -> u64 {
        self.n
    }

    fn size_bytes(&self) -> usize {
        // v: f64, g and delta as u32 in a serialized layout.
        let mut me = self.clone();
        me.flush();
        me.entries.len() * (8 + 4 + 4) + 16
    }
}

impl QuantileSummary for GkSummary {
    fn merge_from(&mut self, other: &Self) {
        let mut other = other.clone();
        other.flush();
        let mut me = std::mem::take(&mut self.entries);
        if !self.buffer.is_empty() {
            self.entries = me;
            self.flush();
            me = std::mem::take(&mut self.entries);
        }
        self.n += other.n;
        // Merge the two sorted tuple lists. A tuple's rank uncertainty in
        // the merged summary must also cover the *other* summary's local
        // gap: elements of B can hide anywhere before B's next tuple, so
        // (Greenwald & Khanna 2004) the merged Δ for a tuple drawn from A
        // becomes Δ_A + g_B(next) + Δ_B(next) - 1. Keeping Δ unchanged
        // would let later compress passes silently exceed the error
        // budget, compounding across merges.
        let gap = |list: &[Tuple], idx: usize| -> u64 {
            list.get(idx)
                .map_or(0, |t| (t.g + t.delta).saturating_sub(1))
        };
        let mut merged = Vec::with_capacity(me.len() + other.entries.len());
        let (mut i, mut j) = (0, 0);
        while i < me.len() && j < other.entries.len() {
            if me[i].v <= other.entries[j].v {
                let mut t = me[i];
                t.delta += gap(&other.entries, j);
                merged.push(t);
                i += 1;
            } else {
                let mut t = other.entries[j];
                t.delta += gap(&me, i);
                merged.push(t);
                j += 1;
            }
        }
        merged.extend_from_slice(&me[i..]);
        merged.extend_from_slice(&other.entries[j..]);
        self.entries = merged;
        self.compress();
    }
}

/// Payload: `epsilon`, `n`, the tuple list as `(v, g, Δ)` triples, then
/// the unsorted insert buffer.
impl WireCodec for GkSummary {
    const KIND: SketchKind = SketchKind::Gk;

    fn write_payload(&self, w: &mut Writer) {
        w.f64(self.epsilon);
        w.u64(self.n);
        w.len(self.entries.len());
        for t in &self.entries {
            w.f64(t.v);
            w.u64(t.g);
            w.u64(t.delta);
        }
        w.f64_slice(&self.buffer);
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SketchError> {
        let epsilon = r.f64()?;
        if !epsilon.is_finite() || epsilon <= 0.0 || epsilon >= 0.5 {
            return Err(SketchError::Corrupt("GK epsilon outside (0, 0.5)"));
        }
        let n = r.u64()?;
        let len = r.len(24)?;
        let mut absorbed = 0u64;
        let entries = (0..len)
            .map(|_| {
                let t = Tuple {
                    v: r.f64()?,
                    g: r.u64()?,
                    delta: r.u64()?,
                };
                // `g + Δ <= n` per tuple and `Σg <= n` overall are the GK
                // invariants; enforcing them also keeps the rank walk in
                // `quantile` free of integer overflow.
                if t.v.is_nan() || t.g.checked_add(t.delta).is_none_or(|gd| gd > n) {
                    return Err(SketchError::Corrupt("invalid GK tuple"));
                }
                absorbed = absorbed
                    .checked_add(t.g)
                    .ok_or(SketchError::Corrupt("GK tuple counts overflow"))?;
                Ok(t)
            })
            .collect::<Result<Vec<_>, SketchError>>()?;
        let buffer = r.f64_vec()?;
        if absorbed.checked_add(buffer.len() as u64) != Some(n) {
            return Err(SketchError::Corrupt("GK counts do not sum to n"));
        }
        Ok(GkSummary {
            epsilon,
            entries,
            buffer,
            n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::avg_quantile_error;

    fn uniform(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 / (n - 1) as f64).collect()
    }

    #[test]
    fn accuracy_within_epsilon_streaming() {
        let data = uniform(50_000);
        let mut gk = GkSummary::new(1.0 / 60.0);
        gk.accumulate_all(&data);
        let phis: Vec<f64> = (1..20).map(|i| i as f64 / 20.0).collect();
        let err = avg_quantile_error(&data, &gk.quantiles(&phis), &phis);
        assert!(err <= 1.0 / 60.0 + 0.005, "err {err}");
    }

    #[test]
    fn accuracy_after_many_merges() {
        let data = uniform(40_000);
        let mut merged = GkSummary::new(1.0 / 60.0);
        for chunk in data.chunks(200) {
            let mut cell = GkSummary::new(1.0 / 60.0);
            cell.accumulate_all(chunk);
            merged.merge_from(&cell);
        }
        assert_eq!(merged.count(), 40_000);
        let phis: Vec<f64> = (1..20).map(|i| i as f64 / 20.0).collect();
        let err = avg_quantile_error(&data, &merged.quantiles(&phis), &phis);
        assert!(err <= 0.03, "err {err}");
    }

    #[test]
    fn summary_is_sublinear() {
        let data = uniform(100_000);
        let mut gk = GkSummary::new(1.0 / 40.0);
        gk.accumulate_all(&data);
        assert!(gk.tuple_count() < 2_000, "tuples {}", gk.tuple_count());
    }

    #[test]
    fn extreme_quantiles_near_min_max() {
        let data: Vec<f64> = (1..=10_000).map(|i| i as f64).collect();
        let mut gk = GkSummary::new(0.01);
        gk.accumulate_all(&data);
        assert!(gk.quantile(0.001) <= 200.0);
        assert!(gk.quantile(0.999) >= 9_800.0);
    }

    #[test]
    fn merged_size_stays_sublinear() {
        // GK is not strictly mergeable — its size may drift upward under
        // merging (Appendix D.4 of the paper shows dramatic growth on
        // heterogeneous cells) — but it must stay far below the raw data.
        let data = uniform(20_000);
        let mut merged = GkSummary::new(1.0 / 60.0);
        for chunk in data.chunks(100) {
            let mut cell = GkSummary::new(1.0 / 60.0);
            cell.accumulate_all(chunk);
            merged.merge_from(&cell);
        }
        assert!(merged.tuple_count() >= 30, "suspiciously small summary");
        assert!(
            merged.size_bytes() < data.len() * 8 / 4,
            "summary nearly as large as the data"
        );
    }

    #[test]
    fn empty_summary_returns_nan() {
        let gk = GkSummary::new(0.05);
        assert!(gk.quantile(0.5).is_nan());
    }
}
