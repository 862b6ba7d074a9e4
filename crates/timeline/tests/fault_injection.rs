//! Deterministic fault injection for the timeline: torn segment
//! writes and failed compaction passes, driven through the `failpoint`
//! registry at the two sites pinned in `lint/failpoints.golden`
//! (`timeline::segment_write`, `timeline::compact`).
//!
//! Failpoints are process-global, so every test here runs inside a
//! [`failpoint::scope`]; each fault is armed for one fire (`1*return`),
//! so the retry that follows it runs clean.

use msketch_cube::QueryEngine;
use msketch_engine::FsyncPolicy;
use msketch_sketches::SketchSpec;
use msketch_timeline::{Timeline, TimelineConfig, TimelineError};

const BUCKET_MS: u64 = 1_000;
const DIMS: [&str; 2] = ["app", "region"];
/// Far past every bucket end: maintenance closes and rolls everything.
const LATER: u64 = 1_000_000_000;

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("msketch-timeline-fault-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> TimelineConfig {
    TimelineConfig::default()
        .bucket_ms(BUCKET_MS)
        .fanouts(&[4, 3])
        .fsync(FsyncPolicy::Never)
}

fn open(dir: &std::path::Path) -> (Timeline, msketch_timeline::StoreRecovery) {
    Timeline::open(dir, SketchSpec::moments(8), &DIMS, config()).expect("open timeline")
}

/// Fill `buckets` with `per_bucket` rows each, starting at bucket 0.
fn fill(timeline: &mut Timeline, buckets: u64, per_bucket: u64) {
    for b in 0..buckets {
        for i in 0..per_bucket {
            let row = [["app-a", "app-b"][(i % 2) as usize], "eu"];
            timeline
                .insert(b * BUCKET_MS + i * 10, &row, -((i % 5) as f64))
                .expect("insert");
        }
    }
}

/// Median of the global rollup over `[t0, t1)`, as bits.
fn median_bits(timeline: &Timeline, t0: u64, t1: u64) -> u64 {
    let answer = timeline
        .range_cube(t0, t1)
        .expect("range")
        .expect("non-empty range");
    QueryEngine::quantiles(&answer.cube, &answer.cube.no_filter(), &[0.5])
        .expect("quantiles")
        .values[0]
        .to_bits()
}

#[test]
fn torn_segment_write_fails_the_checkpoint_and_recovery_cleans_up() {
    let _failpoints = failpoint::scope();
    let dir = fresh_dir("torn-write");
    let (mut timeline, _) = open(&dir);

    // Two durable buckets first: the pre-crash state to preserve.
    fill(&mut timeline, 2, 8);
    assert_eq!(timeline.checkpoint(LATER).expect("checkpoint"), 2);
    let before = median_bits(&timeline, 0, 2 * BUCKET_MS);

    // The next bucket's segment write tears mid-file (the failpoint
    // fires after the tmp file exists, before the rename): the
    // checkpoint must surface the error, not swallow it.
    for i in 0..4u64 {
        timeline
            .insert(2 * BUCKET_MS + i, &["app-a", "eu"], -1.0)
            .expect("insert");
    }
    failpoint::cfg("timeline::segment_write", "1*return").unwrap();
    let torn = timeline.checkpoint(LATER);
    assert!(
        matches!(torn, Err(TimelineError::Io(_))),
        "torn write must fail the checkpoint"
    );

    // Crash (drop) and recover: the torn tmp file is swept, both
    // durable segments survive, and the pre-crash answer is
    // bit-identical. The unpersisted bucket is gone — the checkpoint
    // is the durability boundary.
    drop(timeline);
    let (recovered, recovery) = open(&dir);
    assert_eq!(recovery.segments_loaded, 2, "{recovery:?}");
    assert!(recovery.tmp_removed >= 1, "{recovery:?}");
    assert_eq!(recovery.corrupt_skipped, 0, "{recovery:?}");
    assert_eq!(median_bits(&recovered, 0, 2 * BUCKET_MS), before);
    assert!(recovered
        .range_cube(2 * BUCKET_MS, 3 * BUCKET_MS)
        .expect("range")
        .is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_compaction_is_idempotently_retried_and_answers_never_change() {
    let _failpoints = failpoint::scope();
    let dir = fresh_dir("compact-retry");
    let (mut timeline, _) = open(&dir);

    // Eight checkpointed base buckets: two full level-1 windows.
    fill(&mut timeline, 8, 6);
    assert_eq!(timeline.checkpoint(LATER).expect("checkpoint"), 8);
    let before = median_bits(&timeline, 0, 8 * BUCKET_MS);

    // First compaction pass dies at the failpoint; answers must still
    // come from the intact base segments.
    failpoint::cfg("timeline::compact", "1*return").unwrap();
    let failed = timeline.compact(LATER);
    assert!(
        matches!(failed, Err(TimelineError::Io(_))),
        "armed compaction must fail"
    );
    assert_eq!(median_bits(&timeline, 0, 8 * BUCKET_MS), before);

    // The retry completes the hierarchy — children retained, parents
    // written once — and the cover now answers from rollups with the
    // same bits.
    let written = timeline.compact(LATER).expect("retry compaction");
    assert!(written >= 3, "expected level-1 and level-2 rollups");
    let levels = timeline.store().level_counts(timeline.config().max_level());
    assert_eq!(levels, vec![8, 2, 1]);
    let answer = timeline
        .range_cube(0, 8 * BUCKET_MS)
        .expect("range")
        .expect("non-empty");
    assert!(
        answer.segments_read < 8,
        "cover still reads {} base segments",
        answer.segments_read
    );
    assert_eq!(median_bits(&timeline, 0, 8 * BUCKET_MS), before);

    // A third pass is a no-op: compaction is write-parent-if-missing.
    assert_eq!(timeline.compact(LATER).expect("idempotent pass"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Median bits of a few ranges that start and end inside rollups of
/// every width the default ladder has over 63 one-second buckets.
fn probe(timeline: &Timeline) -> Vec<u64> {
    [(0, 63), (3, 58), (7, 21), (19, 62), (40, 61), (59, 63)]
        .iter()
        .map(|&(b0, b1)| median_bits(timeline, b0 * BUCKET_MS + 1, b1 * BUCKET_MS - 1))
        .collect()
}

#[test]
fn compaction_dying_between_intermediates_and_parent_leaves_nothing_unsealed() {
    let _failpoints = failpoint::scope();
    let dir = fresh_dir("compact-intermediates");
    // The ladder the server runs: [60, 24] stored as [5, 4, 3, 6, 4].
    let default_ladder = || {
        let config = TimelineConfig::default()
            .bucket_ms(BUCKET_MS)
            .fsync(FsyncPolicy::Never);
        Timeline::open(&dir, SketchSpec::moments(8), &DIMS, config).expect("open timeline")
    };
    let levels = |timeline: &Timeline| timeline.store().level_counts(5);
    let files = || std::fs::read_dir(&dir).expect("read dir").count();
    let (mut timeline, _) = default_ladder();

    // One full 60-bucket window and three buckets of the next.
    fill(&mut timeline, 63, 6);
    assert_eq!(timeline.checkpoint(LATER).expect("checkpoint"), 63);
    let before = probe(&timeline);

    // The fault fires once the first window's twelve 5× and three 20×
    // intermediates are on disk and before its 60× parent is. Nothing
    // seals them, so a late row could still rewrite a bucket under
    // them: they are unpublished with the failure, files and all.
    failpoint::cfg("timeline::compact", "1*return").unwrap();
    let failed = timeline.compact(LATER);
    assert!(matches!(failed, Err(TimelineError::Io(_))), "{failed:?}");
    assert_eq!(levels(&timeline), vec![63, 0, 0, 0, 0, 0]);
    assert_eq!(files(), 63);
    assert_eq!(probe(&timeline), before);
    let late = [7 * BUCKET_MS, 61 * BUCKET_MS];
    for ts in late {
        assert!(timeline.insert(ts, &["app-a", "eu"], -2.0).expect("late"));
    }
    assert_eq!(timeline.checkpoint(LATER).expect("late checkpoint"), 2);
    let before = probe(&timeline);

    // The retry seals both 60× windows and the 360× and 1 440× ones
    // over them.
    assert_eq!(timeline.compact(LATER).expect("retry"), 16 + 3 + 2);
    assert_eq!(levels(&timeline), vec![63, 13, 4, 2, 1, 1]);
    assert_eq!(probe(&timeline), before);
    let covered = timeline.range_cube(0, 60 * BUCKET_MS).expect("range");
    assert_eq!(covered.expect("non-empty").segments_read, 1);

    // A process that dies at the same point leaves the intermediates
    // behind: the directory as it is without the first window's parent
    // (and without the 360× and 1 440× above, which came after it).
    for (level, start) in [(3, 0), (4, 0), (5, 0)] {
        let meta = timeline.store().get(level, start).expect("sealed");
        std::fs::remove_file(dir.join(&meta.file)).expect("unlink parent");
    }
    drop(timeline);
    let (mut recovered, recovery) = default_ladder();
    // Swept: the 12 + 3 under the missing 60×. The second window's
    // two are sealed by its own 60×.
    assert_eq!(recovery.unsealed_removed, 15, "{recovery:?}");
    assert_eq!(recovery.corrupt_skipped, 0, "{recovery:?}");
    assert_eq!(levels(&recovered), vec![63, 1, 1, 1, 0, 0]);
    assert_eq!(probe(&recovered), before);
    for ts in late {
        let accepted = recovered.insert(ts, &["app-a", "eu"], -2.0).expect("late");
        assert_eq!(accepted, ts == late[0], "only the unsealed window reopens");
    }
    assert_eq!(recovered.checkpoint(LATER).expect("late checkpoint"), 1);
    let before = probe(&recovered);

    // Recovery's retry rebuilds exactly what is missing.
    assert_eq!(recovered.compact(LATER).expect("retry"), 16 + 2);
    assert_eq!(levels(&recovered), vec![63, 13, 4, 2, 1, 1]);
    assert_eq!(probe(&recovered), before);
    assert_eq!(recovered.compact(LATER).expect("idempotent pass"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
