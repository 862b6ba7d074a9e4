//! Range query planning: pick the minimal set of pre-rolled segments
//! covering `[t0, t1)`.
//!
//! The planner walks a cursor from `t0` to `t1`, at each step taking
//! the *coarsest* segment that starts exactly at the cursor and ends
//! inside the range — so covers come out coarse in the middle and fine
//! at the edges. With fanouts `f1 … fL`, a range of `n` base buckets
//! needs at most `2·(f1−1) + 2·(f2−1) + … + n / Π fi` segments once
//! fully compacted: for the default 1m/60/24 hierarchy a 7-day query
//! reads ≤ 7 day segments + 46 hour segments + 118 minute segments
//! instead of 10 080 panes. Buckets that saw no rows simply have no
//! segment; the cursor skips them one base width at a time.

use crate::store::SegmentMeta;
use std::collections::BTreeMap;

/// Plans `[t0, t1)` covers against a segment index.
///
/// Holds only the shape of the hierarchy (base width, level count);
/// the segment index is passed per call so the planner can be reused
/// across maintenance cycles without invalidation.
#[derive(Debug, Clone)]
pub struct RangePlanner {
    bucket_ms: u64,
    max_level: u8,
}

impl RangePlanner {
    /// A planner for a hierarchy with the given base bucket width and
    /// coarsest rollup level.
    pub fn new(bucket_ms: u64, max_level: u8) -> Self {
        RangePlanner {
            bucket_ms: bucket_ms.max(1),
            max_level,
        }
    }

    /// Snap an arbitrary `[t0, t1)` onto base bucket boundaries: `t0`
    /// floors, `t1` ceils, so the snapped range covers every bucket the
    /// raw range touches. Returns `None` when the range is empty or
    /// inverted.
    pub fn snap(&self, t0: u64, t1: u64) -> Option<(u64, u64)> {
        if t1 <= t0 {
            return None;
        }
        let w = self.bucket_ms;
        let lo = t0 - t0 % w;
        let hi = match t1 % w {
            0 => t1,
            rem => t1.saturating_add(w - rem),
        };
        Some((lo, hi))
    }

    /// The minimal segment cover of `[t0, t1)` (after snapping), as
    /// `(level, start_ms)` keys into `index`, in time order.
    ///
    /// Each selected segment lies fully inside the snapped range and
    /// segments never overlap, so merging them in order re-aggregates
    /// every persisted row of the range exactly once.
    pub fn cover(
        &self,
        index: &BTreeMap<(u8, u64), SegmentMeta>,
        t0: u64,
        t1: u64,
    ) -> Vec<(u8, u64)> {
        let Some((lo, hi)) = self.snap(t0, t1) else {
            return Vec::new();
        };
        plan_cover(index, lo, hi, self.bucket_ms, self.max_level)
    }
}

/// Greedy cover selection over an index keyed by `(level, start_ms)`
/// — the core of [`RangePlanner::cover`], exposed for tests that
/// build synthetic indexes. `t0`/`t1` must already be bucket-aligned.
pub fn plan_cover(
    index: &BTreeMap<(u8, u64), SegmentMeta>,
    t0: u64,
    t1: u64,
    bucket_ms: u64,
    max_level: u8,
) -> Vec<(u8, u64)> {
    let bucket_ms = bucket_ms.max(1);
    let mut cover = Vec::new();
    let mut cursor = t0;
    while cursor < t1 {
        let mut picked = None;
        for level in (0..=max_level).rev() {
            if let Some(meta) = index.get(&(level, cursor)) {
                if meta.end_ms <= t1 {
                    picked = Some((level, meta.end_ms));
                    break;
                }
            }
        }
        match picked {
            Some((level, end)) => {
                cover.push((level, cursor));
                cursor = end;
            }
            // No segment starts here (empty or unpersisted bucket):
            // advance one base bucket.
            None => cursor = cursor.saturating_add(bucket_ms),
        }
    }
    cover
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Index stub: segments at the given (level, start, end) triples.
    fn index(entries: &[(u8, u64, u64)]) -> BTreeMap<(u8, u64), SegmentMeta> {
        entries
            .iter()
            .map(|&(level, start_ms, end_ms)| {
                (
                    (level, start_ms),
                    SegmentMeta {
                        level,
                        start_ms,
                        end_ms,
                        rows: 1,
                        cells: 1,
                        bytes: 1,
                        file: format!("seg-L{level}-{start_ms}-{end_ms}.seg"),
                        generation: 0,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn snap_rounds_outward() {
        let planner = RangePlanner::new(100, 2);
        assert_eq!(planner.snap(150, 420), Some((100, 500)));
        assert_eq!(planner.snap(100, 400), Some((100, 400)));
        assert_eq!(planner.snap(400, 400), None);
        assert_eq!(planner.snap(500, 400), None);
    }

    #[test]
    fn cover_prefers_coarse_middles_and_fine_edges() {
        // 10-wide base buckets, fanout 10. All thirty base buckets in
        // [0, 300) exist; [0,100) and [100,200) are also rolled up.
        let mut entries: Vec<(u8, u64, u64)> =
            (0..30u64).map(|b| (0, b * 10, b * 10 + 10)).collect();
        entries.push((1, 0, 100));
        entries.push((1, 100, 200));
        let idx = index(&entries);

        // Query [10, 230): fine buckets up to the first rollup
        // boundary, one coarse segment, then fine again — the first
        // rollup [0,100) starts before the cursor so its children
        // serve the left edge.
        let cover = plan_cover(&idx, 10, 230, 10, 1);
        let mut expect: Vec<(u8, u64)> = (1..10u64).map(|b| (0, b * 10)).collect();
        expect.push((1, 100));
        expect.extend((20..23u64).map(|b| (0, b * 10)));
        assert_eq!(
            cover, expect,
            "left edge fine, middle coarse, right edge fine"
        );

        // A fully aligned query takes both rollups and only the
        // trailing fine buckets.
        let full = plan_cover(&idx, 0, 300, 10, 1);
        assert_eq!(full[0], (1, 0));
        assert_eq!(full[1], (1, 100));
        assert_eq!(full.len(), 2 + 10);
    }

    #[test]
    fn cover_never_reads_outside_the_range() {
        // A coarse segment [0, 100) must not serve query [0, 50).
        let idx = index(&[(1, 0, 100), (0, 0, 10), (0, 10, 20), (0, 40, 50)]);
        let cover = plan_cover(&idx, 0, 50, 10, 1);
        assert_eq!(cover, vec![(0, 0), (0, 10), (0, 40)]);
    }

    #[test]
    fn empty_index_or_range_yields_empty_cover() {
        let idx = index(&[]);
        assert!(plan_cover(&idx, 0, 1000, 10, 2).is_empty());
        let idx = index(&[(0, 0, 10)]);
        assert!(plan_cover(&idx, 500, 500, 10, 2).is_empty());
    }

    #[test]
    fn seven_day_cover_is_logarithmic_not_linear() {
        // A fully compacted nine-day store of 1m base buckets under
        // the default 60/24 hierarchy: minutes, hours, and days all on
        // disk (rollups coexist with their children).
        const MIN: u64 = 60_000;
        const HOUR: u64 = 60 * MIN;
        const DAY: u64 = 24 * HOUR;
        let mut entries = Vec::new();
        for m in 0..(9 * 24 * 60) {
            entries.push((0u8, m * MIN, (m + 1) * MIN));
        }
        for h in 0..(9 * 24) {
            entries.push((1u8, h * HOUR, (h + 1) * HOUR));
        }
        for d in 0..9u64 {
            entries.push((2u8, d * DAY, (d + 1) * DAY));
        }
        let idx = index(&entries);

        // A 7-day query offset by 90 minutes: fine granularity is paid
        // only at the edges — ≤ 59 minutes + 23 hours per edge, days
        // in the middle — versus 10 080 raw panes.
        let t0 = DAY + 90 * MIN;
        let t1 = t0 + 7 * DAY;
        let cover = plan_cover(&idx, t0, t1, MIN, 2);
        let n_buckets = (7 * DAY / MIN) as usize;
        assert_eq!(n_buckets, 10_080);
        assert!(
            cover.len() <= 2 * 59 + 2 * 23 + 7,
            "cover of {} segments exceeds the hierarchy bound",
            cover.len()
        );
        assert!(cover.len() * 50 < n_buckets, "not O(log n)-ish");
        // Covered spans must tile the range exactly: contiguous,
        // non-overlapping, ending at t1 (every bucket exists here).
        let mut cursor = t0;
        for &(level, start) in &cover {
            assert_eq!(start, cursor, "gap or overlap at {start}");
            cursor = idx[&(level, start)].end_ms;
        }
        assert_eq!(cursor, t1);
        // And the middle really is coarse: at least five day segments.
        let days = cover.iter().filter(|&&(level, _)| level == 2).count();
        assert!(days >= 5, "only {days} day segments in a 7-day cover");
    }
}
