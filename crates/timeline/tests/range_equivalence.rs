//! Range-equivalence properties: answers assembled from the planner's
//! minimal segment cover must be *bit-exact* versus re-folding the raw
//! per-bucket cubes — for any row stream, any `[t0, t1)`, ranges that
//! straddle compacted rollup levels, and rollups whose rare cells were
//! folded into `<other>` by the cell budget — and the same bits again
//! from the decoded-segment cache, after every event that must
//! invalidate it (late-data rewrite, compaction, retention, reopen).
//!
//! Exactness is decidable here because the generated metrics are
//! non-positive integers: every power sum is an exactly-representable
//! integer (log sums stay zero), so folding is associative bit for bit
//! and any regrouping of the merge tree must reproduce identical
//! quantile estimates.

use msketch_cube::{DynCube, QueryEngine};
use msketch_engine::FsyncPolicy;
use msketch_sketches::{Sketch, SketchSpec};
use msketch_timeline::{RangeAnswer, Timeline, TimelineConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

const BUCKET_MS: u64 = 1_000;
/// Two full level-2 windows under fanouts [4, 3] — ranges can straddle
/// base, level-1, and level-2 segments.
const N_BUCKETS: u64 = 24;
const SPAN_MS: u64 = N_BUCKETS * BUCKET_MS;
const PHIS: [f64; 3] = [0.1, 0.5, 0.9];
const DIMS: [&str; 2] = ["app", "region"];

static CASE: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let case = CASE.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("msketch-timeline-prop-{tag}-{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Far past every bucket end: checkpoints close and compaction rolls
/// everything.
const LATER: u64 = SPAN_MS * 1_000;
/// With [`config`]'s horizon, `enforce_retention(RETAIN_FROM + LATER)`
/// expires exactly the first level-2 window and everything under it.
const RETAIN_FROM: u64 = SPAN_MS / 2;

fn config(cell_budget: usize) -> TimelineConfig {
    TimelineConfig::default()
        .bucket_ms(BUCKET_MS)
        .fanouts(&[4, 3])
        .cell_budget(cell_budget)
        .retention_ms(LATER)
        .fsync(FsyncPolicy::Never)
}

/// Quantiles of the cube's global rollup (`None` for an empty cube).
fn global_quantiles(cube: &DynCube) -> Option<Vec<f64>> {
    if cube.row_count() == 0 {
        return None;
    }
    Some(
        QueryEngine::quantiles(cube, &cube.no_filter(), &PHIS)
            .expect("quantiles")
            .values,
    )
}

/// Insert one generated row, mirrored into a raw per-bucket cube map —
/// the ground truth the planner must reproduce.
fn insert_mirrored(
    timeline: &mut Timeline,
    raw: &mut BTreeMap<u64, DynCube>,
    &(app, region, k, ts): &(u8, u8, u8, u64),
) {
    let metric = -f64::from(k);
    let (a, r) = (format!("app-{app}"), format!("r-{region}"));
    assert!(timeline.insert(ts, &[&a, &r], metric).expect("insert"));
    raw.entry(ts - ts % BUCKET_MS)
        .or_insert_with(|| DynCube::from_spec(SketchSpec::moments(8), &DIMS))
        .insert(&[&a, &r], metric)
        .expect("raw insert");
}

/// Every range answered twice — cold (or however the previous stage
/// left the cache) and then warm — each time bit-identical to
/// re-folding the raw buckets, with the second answer's whole cover
/// served by the decoded-segment cache. `solve` also compares the
/// estimated quantiles (the solver is most of this suite's run time).
fn check_ranges(
    timeline: &Timeline,
    raw: &BTreeMap<u64, DynCube>,
    ranges: &[(u64, u64)],
    stage: &str,
    solve: bool,
) {
    for &(t0, len) in ranges {
        let t1 = t0 + len;
        // Snap outward exactly like the planner: the answer covers
        // every bucket the raw range touches.
        let lo = t0 - t0 % BUCKET_MS;
        let hi = t1 + (BUCKET_MS - t1 % BUCKET_MS) % BUCKET_MS;
        let mut expected = DynCube::from_spec(SketchSpec::moments(8), &DIMS);
        let mut buckets_with_rows = 0usize;
        for (_, cube) in raw.range(lo..hi) {
            expected.merge_cube(cube).expect("refold merge");
            buckets_with_rows += 1;
        }

        // Checks one answer; returns its cover size.
        let check = |answer: Option<RangeAnswer>, solve: bool| -> usize {
            let Some(a) = answer else {
                assert_eq!(expected.row_count(), 0, "{stage}: rows went missing");
                return 0;
            };
            assert_eq!((a.t0, a.t1), (lo, hi), "{stage}");
            assert_eq!(a.cube.row_count(), expected.row_count(), "{stage}");
            // Every cover segment holds at least one non-empty
            // bucket, so the cover is never larger than the raw
            // bucket list it replaces.
            assert!(
                a.segments_read <= buckets_with_rows,
                "{stage}: cover {} > {buckets_with_rows} raw buckets",
                a.segments_read
            );
            // The merged global sketch, byte for byte: the same moments
            // in, so the same estimates out.
            let global =
                |cube: &DynCube| cube.rollup(&cube.no_filter()).expect("rollup").to_bytes();
            assert_eq!(global(&a.cube), global(&expected), "{stage}");
            if solve {
                let got = global_quantiles(&a.cube).expect("answer quantiles");
                let want = global_quantiles(&expected).expect("refold quantiles");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "{stage}: {g} != {w}");
                }
            }
            a.segments_read
        };
        check(timeline.range_cube(t0, t1).expect("range_cube"), solve);
        let hits_before = timeline.store().cache_stats().hits;
        let cover = check(timeline.range_cube(t0, t1).expect("warm range_cube"), false);
        let hits = timeline.store().cache_stats().hits - hits_before;
        assert_eq!(hits, cover as u64, "{stage}: warm read missed the cache");

        // The plan itself tiles the snapped range: time-ordered,
        // non-overlapping, inside [lo, hi).
        let plan = timeline.plan(t0, t1).expect("plan");
        let mut cursor = lo;
        for meta in &plan {
            assert!(meta.start_ms >= cursor, "overlap at {}", meta.start_ms);
            assert!(meta.end_ms <= hi, "segment leaks past the range");
            cursor = meta.end_ms;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole equivalence: cover answers == raw re-fold, bit for
    /// bit, across random streams, random ranges, and random budgets —
    /// cold and warm, and again after each event that changes what the
    /// segment files hold.
    #[test]
    fn cover_answers_match_raw_refold(
        rows in prop::collection::vec(
            (0u8..4, 0u8..3, 0u8..17, 0u64..SPAN_MS), 20..150),
        late in 1usize..20,
        ranges in prop::collection::vec(
            (0u64..SPAN_MS + 2 * BUCKET_MS, 1u64..SPAN_MS), 8..=8),
        budget in 0usize..5,
    ) {
        let dir = fresh_dir("refold");
        let spec = SketchSpec::moments(8);
        let (mut timeline, _) =
            Timeline::open(&dir, spec.clone(), &DIMS, config(budget)).expect("open");

        let mut raw: BTreeMap<u64, DynCube> = BTreeMap::new();
        for row in &rows {
            insert_mirrored(&mut timeline, &mut raw, row);
        }
        // Close every bucket: covers are base segments only.
        timeline.checkpoint(LATER).expect("checkpoint");
        check_ranges(&timeline, &raw, &ranges, "checkpointed", false);

        // Late data: rows for buckets already on disk (and, after the
        // pass above, decoded in the cache). The rewrite must not be
        // shadowed by the cube decoded from the replaced file.
        for row in rows.iter().take(late) {
            insert_mirrored(&mut timeline, &mut raw, row);
        }
        timeline.checkpoint(LATER).expect("late checkpoint");
        check_ranges(&timeline, &raw, &ranges, "late rewrite", false);

        // Roll the hierarchy all the way up, so covers mix base
        // segments with (budget-folded) level-1/level-2 rollups.
        timeline.compact(LATER).expect("compact");
        check_ranges(&timeline, &raw, &ranges, "compacted", true);

        // Retention deletes the first half at every level, cached or
        // not; the model forgets the same buckets.
        timeline.enforce_retention(RETAIN_FROM + LATER).expect("retention");
        raw.retain(|&start, _| start >= RETAIN_FROM);
        check_ranges(&timeline, &raw, &ranges, "retention", false);

        // A reopened store starts cold and answers the same.
        drop(timeline);
        let (timeline, _) = Timeline::open(&dir, spec, &DIMS, config(budget)).expect("reopen");
        check_ranges(&timeline, &raw, &ranges, "reopened", false);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Reopening the store changes nothing: a recovered timeline
    /// answers every range with the same bits as the writer did.
    #[test]
    fn recovered_store_answers_identically(
        rows in prop::collection::vec(
            (0u8..4, 0u8..3, 0u8..17, 0u64..SPAN_MS), 20..80),
        ranges in prop::collection::vec(
            (0u64..SPAN_MS, 1u64..SPAN_MS), 4..=4),
    ) {
        let dir = fresh_dir("reopen");
        let spec = SketchSpec::moments(8);
        let (mut timeline, _) =
            Timeline::open(&dir, spec.clone(), &DIMS, config(0)).expect("open");
        for &(app, region, k, ts) in &rows {
            let (a, r) = (format!("app-{app}"), format!("r-{region}"));
            timeline.insert(ts, &[&a, &r], -f64::from(k)).expect("insert");
        }
        timeline.maintain(SPAN_MS * 1_000).expect("maintain");

        let before: Vec<_> = ranges
            .iter()
            .map(|&(t0, len)| {
                timeline
                    .range_cube(t0, t0 + len)
                    .expect("range")
                    .and_then(|a| global_quantiles(&a.cube))
            })
            .collect();
        let segments = timeline.store().index().len();
        drop(timeline);

        let (reopened, recovery) =
            Timeline::open(&dir, spec, &DIMS, config(0)).expect("reopen");
        prop_assert_eq!(recovery.segments_loaded, segments);
        prop_assert_eq!(recovery.corrupt_skipped, 0);
        for (&(t0, len), want) in ranges.iter().zip(&before) {
            let got = reopened
                .range_cube(t0, t0 + len)
                .expect("range")
                .and_then(|a| global_quantiles(&a.cube));
            match (got, want) {
                (None, None) => {}
                (Some(g), Some(w)) => {
                    for (a, b) in g.iter().zip(w) {
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
                (got, want) => prop_assert!(false, "{got:?} != {want:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A scaled-down replica of the acceptance shape (1m/1h/1d becomes
/// 10ms/120ms/960ms): five "days" of per-bucket rows, fully compacted,
/// then a three-"day" query offset into day one must read a
/// logarithmic cover — fine at the edges, whole days in the middle —
/// instead of one segment per base bucket.
#[test]
fn multi_day_cover_is_logarithmic_end_to_end() {
    const B: u64 = 10;
    const DAY: u64 = 96 * B; // 12 × 8 base buckets
    let dir = fresh_dir("cover");
    let config = TimelineConfig::default()
        .bucket_ms(B)
        .fanouts(&[12, 8])
        .fsync(FsyncPolicy::Never);
    let (mut timeline, _) =
        Timeline::open(&dir, SketchSpec::moments(8), &DIMS, config).expect("open");
    for b in 0..480u64 {
        timeline
            .insert(b * B + 1, &["app-0", "r-0"], -((b % 7) as f64))
            .expect("insert");
    }
    timeline.maintain(1_000_000).expect("maintain");

    let t0 = DAY + 17 * B;
    let t1 = t0 + 3 * DAY;
    let answer = timeline
        .range_cube(t0, t1)
        .expect("range")
        .expect("non-empty");
    assert_eq!(answer.cube.row_count(), 288, "one row per covered bucket");
    // ≤ 2·(12−1) + 2·(8−1) + 3 segments versus 288 raw buckets.
    assert!(
        answer.segments_read <= 39,
        "cover of {} segments is not logarithmic",
        answer.segments_read
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- the ladder the server runs: [60, 24] stored as [5, 4, 3, 6, 4] ----

/// perfbench's bucket width: a top-level window is six minutes.
const QUARTER_MS: u64 = 250;
const TOP_BUCKETS: u64 = 60 * 24;

fn default_ladder() -> TimelineConfig {
    TimelineConfig::default()
        .bucket_ms(QUARTER_MS)
        .fsync(FsyncPolicy::Never)
}

/// The two rows of quarter-second bucket `b`, in cells that change
/// from bucket to bucket.
fn bucket_rows(b: u64) -> [(String, String, f64); 2] {
    [0, 1].map(|i| {
        let metric = -(((b * 7 + i) % 17) as f64);
        (
            format!("app-{}", (b + i) % 5),
            format!("r-{}", b % 3),
            metric,
        )
    })
}

/// The raw per-bucket cubes of `buckets`, keyed by bucket start.
fn quarter_second_history(buckets: std::ops::Range<u64>) -> BTreeMap<u64, DynCube> {
    buckets
        .map(|b| {
            let mut cube = DynCube::from_spec(SketchSpec::moments(8), &DIMS);
            for (a, r, metric) in bucket_rows(b) {
                cube.insert(&[&a, &r], metric).expect("raw insert");
            }
            (b * QUARTER_MS, cube)
        })
        .collect()
}

/// The fold of the raw buckets inside `[lo, hi)`, in time order.
fn refold(raw: &BTreeMap<u64, DynCube>, lo: u64, hi: u64) -> DynCube {
    let mut folded = DynCube::from_spec(SketchSpec::moments(8), &DIMS);
    for (_, cube) in raw.range(lo..hi) {
        folded.merge_cube(cube).expect("refold merge");
    }
    folded
}

fn global_bytes(cube: &DynCube) -> Vec<u8> {
    cube.rollup(&cube.no_filter()).expect("rollup").to_bytes()
}

/// `n` unaligned `(t0, t1)` inside `[0, span)`, from a fixed seed.
fn unaligned_ranges(n: usize, span: u64) -> Vec<(u64, u64)> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let t0 = next() % (span - 1);
            (t0, t0 + 1 + next() % (span - t0 - 1))
        })
        .collect()
}

/// Every range, read twice: the cover tiles the snapped range exactly
/// (every bucket has rows, so no gap, no overlap), its rows and its
/// merged sketch are those of the raw re-fold byte for byte, the second
/// read is served from the cache, and the cover is within the bound of
/// a hierarchy with these `steps`: `Σ 2·(step − 1) + range / top
/// width`. Returns the largest cover seen.
fn check_default_ladder_ranges(
    timeline: &Timeline,
    raw: &BTreeMap<u64, DynCube>,
    ranges: &[(u64, u64)],
    steps: &[u32],
) -> usize {
    let edges: usize = steps.iter().map(|&s| 2 * (s as usize - 1)).sum();
    let ladder = timeline.config().ladder();
    let top = ladder.width_ms(ladder.max_level());
    let mut largest = 0;
    for &(t0, t1) in ranges {
        let lo = t0 - t0 % QUARTER_MS;
        let hi = t1 + (QUARTER_MS - t1 % QUARTER_MS) % QUARTER_MS;
        let expected = refold(raw, lo, hi);

        let plan = timeline.plan(t0, t1).expect("plan");
        let mut cursor = lo;
        for meta in &plan {
            assert_eq!(meta.start_ms, cursor, "[{t0}, {t1}): gap or overlap");
            cursor = meta.end_ms;
        }
        assert_eq!(cursor, hi, "[{t0}, {t1}): cover stops short");
        let bound = edges + ((hi - lo) / top) as usize;
        assert!(
            plan.len() <= bound,
            "[{t0}, {t1}): cover of {} segments, bound {bound}",
            plan.len()
        );
        largest = largest.max(plan.len());

        let hits_before = timeline.store().cache_stats().hits;
        for read in ["first", "warm"] {
            let answer = timeline.range_cube(t0, t1).expect("range_cube");
            let answer = answer.expect("every bucket has rows");
            assert_eq!((answer.t0, answer.t1), (lo, hi), "{read}");
            assert_eq!(answer.segments_read, plan.len(), "{read}");
            assert_eq!(answer.cube.row_count(), expected.row_count(), "{read}");
            assert_eq!(
                global_bytes(&answer.cube),
                global_bytes(&expected),
                "{read}"
            );
        }
        let hits = timeline.store().cache_stats().hits - hits_before;
        assert!(hits >= plan.len() as u64, "warm read missed the cache");
    }
    largest
}

#[test]
fn default_ladder_covers_tile_exactly_and_match_raw_refold() {
    let dir = fresh_dir("default-ladder");
    let spec = SketchSpec::moments(8);
    let (mut timeline, _) =
        Timeline::open(&dir, spec.clone(), &DIMS, default_ladder()).expect("open");
    // Two full top-level windows and a hundred buckets of a third.
    let buckets = 2 * TOP_BUCKETS + 100;
    let raw = quarter_second_history(0..buckets);
    for b in 0..buckets {
        for (a, r, metric) in bucket_rows(b) {
            let inserted = timeline.insert(b * QUARTER_MS + 3, &[&a, &r], metric);
            assert!(inserted.expect("insert"));
        }
    }
    let span = buckets * QUARTER_MS;
    let report = timeline.maintain(span * 1_000).expect("maintain");
    assert_eq!(report.checkpointed as u64, buckets);
    assert_eq!(
        timeline.stats().segment_levels,
        vec![
            buckets,
            2 * 288 + 20,
            2 * 72 + 5,
            2 * 24 + 2,
            2 * 4 + 1,
            2 + 1
        ]
    );

    let ranges = unaligned_ranges(48, span);
    // A cold cache, then whatever the ranges before left in it.
    assert_eq!(timeline.store().cache_stats().misses, 0);
    let steps = default_ladder().ladder().steps().to_vec();
    assert_eq!(steps, [5, 4, 3, 6, 4]);
    let largest = check_default_ladder_ranges(&timeline, &raw, &ranges, &steps);
    assert!(largest > 20, "no range exercised the edges: {largest}");

    // Reopened: cold again, the same answers.
    drop(timeline);
    let (reopened, recovery) = Timeline::open(&dir, spec, &DIMS, default_ladder()).expect("reopen");
    let clean = (recovery.corrupt_skipped, recovery.unsealed_removed);
    assert_eq!(clean, (0, 0), "{recovery:?}");
    check_default_ladder_ranges(&reopened, &raw, &ranges, &steps);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory as the commit before the intermediate levels wrote it —
/// base buckets, `L1` = 60 buckets, `L2` = 24 of those, nothing between
/// — opened under the ladder that has them.
#[test]
fn a_directory_of_sealing_levels_alone_reopens_and_answers_unchanged() {
    use msketch_timeline::{encode_segment, SegmentHeader};
    let dir = fresh_dir("old-layout");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let write = |level: u8, start_ms: u64, end_ms: u64, cube: &DynCube| {
        let header = SegmentHeader {
            level,
            start_ms,
            end_ms,
        };
        let name = format!("seg-L{level}-{start_ms}-{end_ms}.seg");
        std::fs::write(dir.join(name), encode_segment(header, cube)).expect("write segment");
    };
    const HOUR_MS: u64 = 60 * QUARTER_MS;
    const DAY_MS: u64 = 24 * HOUR_MS;
    // The first "day" is complete: its buckets, its 24 hours, itself.
    // The second stopped mid-life: 13 hours of buckets, the first 10
    // rolled up, the last 3 not yet.
    let buckets = TOP_BUCKETS + 13 * 60;
    let raw = quarter_second_history(0..buckets);
    for (&start, cube) in &raw {
        write(0, start, start + QUARTER_MS, cube);
    }
    for hour in 0..24 + 10 {
        let (lo, hi) = (hour * HOUR_MS, (hour + 1) * HOUR_MS);
        write(1, lo, hi, &refold(&raw, lo, hi));
    }
    write(2, 0, DAY_MS, &refold(&raw, 0, DAY_MS));

    let spec = SketchSpec::moments(8);
    let (mut timeline, recovery) =
        Timeline::open(&dir, spec, &DIMS, default_ladder()).expect("open");
    assert_eq!(recovery.segments_loaded as u64, buckets + 34 + 1);
    let skipped = (
        recovery.corrupt_skipped,
        recovery.off_ladder_skipped,
        recovery.unsealed_removed,
    );
    assert_eq!(skipped, (0, 0, 0), "{recovery:?}");
    // An hour is level 3 of this ladder and a day level 5, whatever the
    // files say.
    assert_eq!(
        timeline.stats().segment_levels,
        vec![buckets, 0, 0, 34, 0, 1]
    );
    let ranges = unaligned_ranges(24, buckets * QUARTER_MS);
    for &(t0, t1) in &ranges {
        let lo = t0 - t0 % QUARTER_MS;
        let hi = t1 + (QUARTER_MS - t1 % QUARTER_MS) % QUARTER_MS;
        let answer = timeline.range_cube(t0, t1).expect("range").expect("rows");
        assert_eq!(
            global_bytes(&answer.cube),
            global_bytes(&refold(&raw, lo, hi))
        );
    }
    // A late row under an old hour is late here too; one in the hours
    // that had not rolled up is not.
    assert!(!timeline
        .insert(5 * HOUR_MS, &["app-0", "r-0"], -1.0)
        .unwrap());
    let open_hour = DAY_MS + 11 * HOUR_MS;
    assert!(timeline.insert(open_hour, &["app-0", "r-0"], -1.0).unwrap());
    let mut raw = raw;
    raw.get_mut(&open_hour)
        .expect("bucket")
        .insert(&["app-0", "r-0"], -1.0)
        .expect("raw insert");

    // Compaction picks up where the old one stopped: the three open
    // hours get their intermediates and seal, then the second day
    // does, folded from its 13 hours in steps of six. The hours that
    // were already sealed are children of the day, never of anything
    // narrower: levels 1 and 2 hold the three new hours' pieces only.
    let report = timeline.maintain(u64::MAX / 2).expect("maintain");
    assert_eq!(report.compacted, 3 * 16 + 3 + 1);
    assert_eq!(
        timeline.stats().segment_levels,
        vec![buckets, 3 * 12, 3 * 3, 34 + 3, 3, 2]
    );
    let day = timeline.store().get(5, DAY_MS).expect("second day");
    assert_eq!(day.rows, refold(&raw, DAY_MS, 2 * DAY_MS).row_count());
    // Windows sealed under the old layout are not back-filled: their
    // covers are what they were, within the old bound.
    check_default_ladder_ranges(&timeline, &raw, &ranges, &[60, 24]);
    let _ = std::fs::remove_dir_all(&dir);
}
