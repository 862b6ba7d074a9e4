//! Range query planning: pick the minimal set of pre-rolled segments
//! covering `[t0, t1)`.
//!
//! The planner walks a cursor from `t0` to `t1`, at each step taking
//! the *coarsest* segment — of any physical level of the
//! [`Ladder`](crate::Ladder), sealing or intermediate — that starts
//! exactly at the cursor and ends inside the range, so covers come out
//! coarse in the middle and fine at the edges. With steps `s1 … sL`, a
//! range of `n` base buckets needs at most `2·(s1−1) + 2·(s2−1) + … +
//! n / Π si` segments once fully compacted: for the default
//! 1m/60/24 hierarchy, stored as 1m → 5m → 20m → 1h → 6h → 1d, a 7-day
//! query reads ≤ 7 day segments + 34 finer ones instead of 10 080
//! panes. Buckets that saw no rows simply have no segment; the cursor
//! jumps over them to the next segment start.

use crate::store::SegmentMeta;
use std::collections::BTreeMap;

/// Plans `[t0, t1)` covers against a segment index.
///
/// Holds only the shape of the hierarchy (base width, physical level
/// count);
/// the segment index is passed per call so the planner can be reused
/// across maintenance cycles without invalidation.
#[derive(Debug, Clone)]
pub struct RangePlanner {
    bucket_ms: u64,
    max_level: u8,
}

impl RangePlanner {
    /// A planner for a hierarchy with the given base bucket width and
    /// coarsest physical level ([`Ladder::max_level`](crate::Ladder::max_level)).
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
        plan_cover(index, lo, hi, self.max_level)
    }
}

/// Greedy cover selection over an index keyed by `(level, start_ms)`
/// — the core of [`RangePlanner::cover`], exposed for tests that
/// build synthetic indexes. `t0`/`t1` must already be bucket-aligned.
///
/// Costs one probe per level for every cover segment and every gap, so
/// a sparse range — years of nothing before the first segment — plans
/// as fast as a dense one.
pub fn plan_cover(
    index: &BTreeMap<(u8, u64), SegmentMeta>,
    t0: u64,
    t1: u64,
    max_level: u8,
) -> Vec<(u8, u64)> {
    let mut cover = Vec::new();
    let mut cursor = t0;
    while cursor < t1 {
        let picked = (0..=max_level).rev().find_map(|level| {
            let meta = index.get(&(level, cursor))?;
            (meta.end_ms <= t1).then_some((level, meta.end_ms))
        });
        cursor = match picked {
            Some((level, end)) => {
                cover.push((level, cursor));
                end
            }
            // Nothing that fits starts here (an empty or unpersisted
            // bucket, or only segments that outrun the range): go on
            // from the next segment start of any level.
            None => {
                let next = (0..=max_level).filter_map(|level| {
                    let after = (level, cursor.saturating_add(1))..(level, t1);
                    Some(index.range(after).next()?.1.start_ms)
                });
                match next.min() {
                    Some(start) => start,
                    None => break,
                }
            }
        };
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
        let cover = plan_cover(&idx, 10, 230, 1);
        let mut expect: Vec<(u8, u64)> = (1..10u64).map(|b| (0, b * 10)).collect();
        expect.push((1, 100));
        expect.extend((20..23u64).map(|b| (0, b * 10)));
        assert_eq!(
            cover, expect,
            "left edge fine, middle coarse, right edge fine"
        );

        // A fully aligned query takes both rollups and only the
        // trailing fine buckets.
        let full = plan_cover(&idx, 0, 300, 1);
        assert_eq!(full[0], (1, 0));
        assert_eq!(full[1], (1, 100));
        assert_eq!(full.len(), 2 + 10);
    }

    #[test]
    fn cover_never_reads_outside_the_range() {
        // A coarse segment [0, 100) must not serve query [0, 50).
        let idx = index(&[(1, 0, 100), (0, 0, 10), (0, 10, 20), (0, 40, 50)]);
        let cover = plan_cover(&idx, 0, 50, 1);
        assert_eq!(cover, vec![(0, 0), (0, 10), (0, 40)]);
    }

    #[test]
    fn empty_index_or_range_yields_empty_cover() {
        let idx = index(&[]);
        assert!(plan_cover(&idx, 0, 1000, 2).is_empty());
        let idx = index(&[(0, 0, 10)]);
        assert!(plan_cover(&idx, 500, 500, 2).is_empty());
    }

    /// The planner this one replaced: where no segment starts, try
    /// again one base bucket on.
    fn stepping_cover(
        index: &BTreeMap<(u8, u64), SegmentMeta>,
        t0: u64,
        t1: u64,
        bucket_ms: u64,
        max_level: u8,
    ) -> Vec<(u8, u64)> {
        let mut cover = Vec::new();
        let mut cursor = t0;
        while cursor < t1 {
            let fits = |level: &u8| {
                let meta = index.get(&(*level, cursor))?;
                (meta.end_ms <= t1).then_some((*level, meta.end_ms))
            };
            match (0..=max_level).rev().find_map(|level| fits(&level)) {
                Some((level, end)) => {
                    cover.push((level, cursor));
                    cursor = end;
                }
                None => cursor += bucket_ms,
            }
        }
        cover
    }

    #[test]
    fn jumping_over_gaps_picks_the_cover_stepping_through_them_did() {
        // The cases above, and one with holes at every level: rollups
        // whose children are gone, children with no rollup, a coarse
        // segment that outruns the range with nothing under its start.
        let mut dense: Vec<(u8, u64, u64)> = (0..30u64).map(|b| (0, b * 10, b * 10 + 10)).collect();
        dense.extend([(1, 0, 100), (1, 100, 200)]);
        let holes = [
            (0, 30, 40),
            (0, 40, 50),
            (1, 100, 200),
            (2, 400, 800),
            (0, 410, 420),
            (1, 800, 900),
            (2, 800, 1200),
            (0, 1250, 1260),
        ];
        let outrun = [(1, 0, 100), (0, 0, 10), (0, 10, 20), (0, 40, 50)];
        for entries in [&dense[..], &holes[..], &outrun[..], &[]] {
            let idx = index(entries);
            for t0 in (0..1300).step_by(10) {
                for t1 in (t0..=1300).step_by(70) {
                    assert_eq!(
                        plan_cover(&idx, t0, t1, 2),
                        stepping_cover(&idx, t0, t1, 10, 2),
                        "[{t0}, {t1})"
                    );
                }
            }
        }
    }

    #[test]
    fn intermediate_levels_shorten_the_edges() {
        // The default ladder over minute buckets, fully compacted: 1m,
        // 5m, 20m, 1h, 6h, 1d.
        const MIN: u64 = 60_000;
        let widths = [1, 5, 20, 60, 360, 1_440].map(|w| w * MIN);
        let mut entries = Vec::new();
        for (level, width) in widths.into_iter().enumerate() {
            for start in (0..4 * widths[5]).step_by(width as usize) {
                entries.push((level as u8, start, start + width));
            }
        }
        let idx = index(&entries);
        // Worst alignment on both sides: one bucket past a day boundary
        // to one bucket short of another.
        let (t0, t1) = (widths[5] + MIN, 4 * widths[5] - MIN);
        let cover = plan_cover(&idx, t0, t1, 5);
        assert_eq!(
            cover.len(),
            2 * (4 + 3 + 2 + 5 + 3) + 1,
            "Σ 2·(step−1) + days"
        );
        assert_eq!(cover, stepping_cover(&idx, t0, t1, MIN, 5));
        let mut cursor = t0;
        for &(level, start) in &cover {
            assert_eq!(start, cursor, "gap or overlap at {start}");
            cursor = idx[&(level, start)].end_ms;
        }
        assert_eq!(cursor, t1);
        // Under the sealing levels alone the same range takes 2·59 +
        // 2·23 + 1.
        let sealing_only: Vec<_> = entries
            .iter()
            .filter(|e| [0, 3, 5].contains(&e.0))
            .copied()
            .collect();
        assert_eq!(plan_cover(&index(&sealing_only), t0, t1, 5).len(), 165);
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
        let cover = plan_cover(&idx, t0, t1, 2);
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
