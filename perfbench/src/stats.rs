//! Order statistics for latency samples and run-to-run spreads.

/// Nearest-rank percentile of an ascending slice, reported only when at
/// least ten samples lie beyond it (a p99 therefore needs 1 000 samples):
/// a tail percentile resting on fewer is one slow request, not a
/// distribution. The median (`p <= 0.5`) is exempt.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let beyond = sorted.len() - rank;
    if p > 0.5 && beyond < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sort a sample in place (latencies are never NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(|a, b| a.total_cmp(b));
}

/// Median of an unsorted sample; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Mean of a sample; 0 for an empty one.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them —
/// the rule the acceptance check applies to ten runs. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// A span as the server's `/trace` ring reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Id within the trace (the root is 1).
    pub id: u64,
    /// Parent id (0 for the root).
    pub parent: u64,
    /// Stage name.
    pub name: String,
    /// Microseconds from trace start.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// The span's `cells` / `groups` / `rows` annotation, when it has one.
    pub size: Option<u64>,
}

/// Self time of `spans[i]`: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_time_us(spans: &[Span], i: usize) -> u64 {
    let me = &spans[i];
    let (lo, hi) = (me.start_us, me.start_us + me.dur_us);
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == me.id && s.id != me.id)
        .map(|s| {
            (
                s.start_us.clamp(lo, hi),
                (s.start_us + s.dur_us).clamp(lo, hi),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut edge = lo;
    for (a, b) in kids {
        let a = a.max(edge);
        if b > a {
            covered += b - a;
            edge = b;
        }
    }
    me.dur_us - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v[..999], 0.99), None, "9 samples beyond p99");
        assert_eq!(percentile(&v[..999], 0.95), Some(950.0));
        assert_eq!(percentile(&v[..3], 0.5), Some(2.0), "the median is exempt");
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let span = |id, parent, start_us, dur_us| Span {
            id,
            parent,
            name: String::new(),
            start_us,
            dur_us,
            size: None,
        };
        let spans = vec![
            span(2, 1, 10, 30), // child a: [10, 40)
            span(3, 1, 30, 30), // child b overlaps a: [30, 60)
            span(4, 2, 12, 5),  // grandchild: not the root's business
            span(5, 1, 90, 50), // child c runs past the root's end
            span(1, 0, 0, 100), // root [0, 100)
        ];
        // Children cover [10, 60) and [90, 100): 60 of 100.
        assert_eq!(self_time_us(&spans, 4), 40);
        assert_eq!(self_time_us(&spans, 0), 25);
        assert_eq!(self_time_us(&spans, 2), 5);
    }
}
