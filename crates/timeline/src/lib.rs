//! Time-bucketed continuous aggregation over the moments-sketch engine.
//!
//! The paper's central property — sketches merge in O(k) with no
//! accuracy loss — makes *two-step* aggregation work: raw rows fold
//! once into small per-bucket partials, and queries re-aggregate the
//! partials instead of the rows. The sharded engine keeps one all-time
//! snapshot; this crate keeps the same rows by time as well, so a query
//! can ask for any `[t0, t1)` range:
//!
//! 1. **Bucketing** ([`Timeline::insert`]): each row carries a
//!    millisecond timestamp and lands in a fixed-width base bucket
//!    (e.g. 1 minute), one [`DynCube`] per bucket.
//! 2. **Segments** ([`SegmentStore`]): on checkpoint every open bucket
//!    is serialized with the cube wire codec, framed with the CRC
//!    segment format shared with the durable WAL, and persisted as an
//!    immutable file — crash recovery replays whatever frames survive.
//! 3. **Rollup hierarchy** ([`Timeline::compact`]): when a window of
//!    a *sealing* level closes (1m → 1h → 1d by default) a compactor
//!    merges its segments into one via `DataCube::merge_cube`, folding
//!    rare dimension values into `<other>` to hold each rolled segment
//!    under a cell budget — and, in the same fold, writes the
//!    *intermediate* levels of the [`Ladder`] between the two (1m → 5m
//!    → 20m → 1h → 6h → 1d), each a few pieces of the one below.
//! 4. **Range planning** ([`RangePlanner`]): an arbitrary `[t0, t1)`
//!    query is answered from the minimal cover of pre-rolled segments
//!    — coarse in the middle, fine at the edges — so a week-long query
//!    over minute buckets reads O(step · levels) segments, a few dozen,
//!    instead of re-folding ten thousand panes.
//! 5. **Range execution** ([`Timeline::range_read`], then
//!    [`RangeRead::merge`]): planning borrows the timeline for
//!    microseconds; loading and merging the cover — nearly all of a
//!    range query — borrows nothing from it, so a server plans under its
//!    timeline lock and merges outside it. Closed segments are
//!    immutable, so the store keeps a bounded cache of the cubes it has
//!    decoded and overlapping covers share them.
//!
//! All merge paths follow the workspace determinism convention (cells
//! merge in decoded-value order, covers merge in time order), so two
//! stores holding the same segments answer queries bit-identically —
//! including across a crash and restart.

// Panic perimeter (lint/README.md): a panic here parks a shard's
// channel peers or poisons state that later requests share. Test
// builds may panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod ladder;
mod planner;
mod segment;
mod store;
mod timeline;

pub use ladder::Ladder;
pub use planner::{plan_cover, RangePlanner};
pub use segment::{decode_segment, encode_segment, SegmentHeader, TimelineWire};
pub use store::{SegmentCacheStats, SegmentMeta, SegmentStore, StoreRecovery};
pub use timeline::{MaintenanceReport, RangeAnswer, RangeRead, Timeline, TimelineStats};

pub use msketch_engine::FsyncPolicy;

/// Result alias for timeline operations.
pub type Result<T> = std::result::Result<T, TimelineError>;

/// Errors from the timeline subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineError {
    /// Filesystem I/O failed (message carries the path and OS detail).
    Io(String),
    /// A segment file failed CRC framing or payload decoding.
    Corrupt {
        /// The offending file (relative to the timeline directory).
        path: String,
        /// What failed to parse or validate.
        detail: String,
    },
    /// A segment the index named is no longer on disk: retention
    /// deleted it after a range read planned its cover and before the
    /// read loaded it. Planning again sees the index without it.
    SegmentGone {
        /// The missing file (relative to the timeline directory).
        path: String,
    },
    /// A cube-level operation (merge, rollup, insert) failed.
    Cube(msketch_cube::Error),
    /// The query range is empty or inverted (`t1 <= t0`).
    BadRange {
        /// Inclusive start of the rejected range (ms).
        t0: u64,
        /// Exclusive end of the rejected range (ms).
        t1: u64,
    },
}

impl std::fmt::Display for TimelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimelineError::Io(detail) => write!(f, "timeline I/O failed: {detail}"),
            TimelineError::Corrupt { path, detail } => {
                write!(f, "segment {path} is corrupt: {detail}")
            }
            TimelineError::SegmentGone { path } => {
                write!(f, "segment {path} was deleted while a read was in flight")
            }
            TimelineError::Cube(e) => write!(f, "cube operation failed: {e}"),
            TimelineError::BadRange { t0, t1 } => {
                write!(f, "empty or inverted time range [{t0}, {t1})")
            }
        }
    }
}

impl std::error::Error for TimelineError {}

impl From<msketch_cube::Error> for TimelineError {
    fn from(e: msketch_cube::Error) -> Self {
        TimelineError::Cube(e)
    }
}

/// The dimension value rare cells fold into when a rolled-up segment
/// exceeds its cell budget (see `DataCube::enforce_cell_budget`).
pub const OTHER_LABEL: &str = "<other>";

/// Static configuration for a [`Timeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineConfig {
    /// Width of a base (level-0) bucket in milliseconds.
    pub bucket_ms: u64,
    /// Fanouts of the *sealing* levels: a window of `fanouts[0]` base
    /// buckets, then of `fanouts[1]` such windows, and so on. The
    /// default `[60, 24]` turns 1-minute base buckets into 1-hour and
    /// 1-day rollups. A sealing window rolls up once it is wholly in the
    /// past; from then on its rows are immutable and a late row under it
    /// is dropped, so the first fanout is the late-data horizon. The
    /// levels on disk are these plus the intermediate ones
    /// [`Self::ladder`] derives between them; those are written when
    /// their window seals and change neither the horizon nor these
    /// widths.
    pub fanouts: Vec<u32>,
    /// Maximum cells per *rolled-up* (level ≥ 1) segment; rare
    /// dimension values fold into [`OTHER_LABEL`] to stay under it.
    /// Zero disables the budget.
    pub cell_budget: usize,
    /// Segments whose range ended more than this many milliseconds ago
    /// are deleted during maintenance. Zero keeps everything.
    pub retention_ms: u64,
    /// Fsync cadence for segment writes: [`FsyncPolicy::Never`] skips
    /// device syncs (data survives process crashes but not power
    /// loss); anything else syncs the file and directory on every
    /// segment write.
    pub fsync: FsyncPolicy,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig {
            bucket_ms: 60_000,
            fanouts: vec![60, 24],
            cell_budget: 0,
            retention_ms: 0,
            fsync: FsyncPolicy::Always,
        }
    }
}

impl TimelineConfig {
    /// Set the base bucket width in milliseconds (clamped to ≥ 1).
    pub fn bucket_ms(mut self, ms: u64) -> Self {
        self.bucket_ms = ms.max(1);
        self
    }

    /// Set the rollup fanouts (each clamped to ≥ 2; empty disables
    /// compaction entirely).
    pub fn fanouts(mut self, fanouts: &[u32]) -> Self {
        self.fanouts = fanouts.iter().map(|&f| f.max(2)).collect();
        self
    }

    /// Set the per-segment cell budget for rolled-up segments.
    pub fn cell_budget(mut self, cells: usize) -> Self {
        self.cell_budget = cells;
        self
    }

    /// Set the retention horizon in milliseconds (zero keeps forever).
    pub fn retention_ms(mut self, ms: u64) -> Self {
        self.retention_ms = ms;
        self
    }

    /// Set the fsync policy for segment writes.
    pub fn fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Width in milliseconds of one window at sealing level `level`
    /// (level 0 is one base bucket; each level multiplies by its
    /// fanout). Saturates at `u64::MAX` rather than overflowing.
    pub fn level_width_ms(&self, level: usize) -> u64 {
        let mut width = self.bucket_ms.max(1);
        for &fanout in self.fanouts.iter().take(level) {
            width = width.saturating_mul(fanout.max(2) as u64);
        }
        width
    }

    /// The coarsest sealing level the hierarchy rolls up to.
    pub fn max_level(&self) -> u8 {
        self.fanouts.len().min(u8::MAX as usize) as u8
    }

    /// The physical levels segments are stored at: the sealing levels
    /// with each fanout factored into short steps. Segment levels
    /// everywhere else in this crate ([`SegmentMeta::level`],
    /// [`TimelineStats::segment_levels`]) index this ladder.
    pub fn ladder(&self) -> Ladder {
        Ladder::new(self)
    }

    /// Floor `ts` to the start of its base bucket.
    pub fn bucket_start(&self, ts_ms: u64) -> u64 {
        let w = self.bucket_ms.max(1);
        ts_ms - ts_ms % w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_widths_follow_fanouts() {
        let config = TimelineConfig::default();
        assert_eq!(config.level_width_ms(0), 60_000);
        assert_eq!(config.level_width_ms(1), 3_600_000);
        assert_eq!(config.level_width_ms(2), 86_400_000);
        assert_eq!(config.max_level(), 2);
        assert_eq!(config.bucket_start(61_999), 60_000);
    }

    #[test]
    fn config_clamps_degenerate_values() {
        let config = TimelineConfig::default().bucket_ms(0).fanouts(&[0, 1]);
        assert_eq!(config.bucket_ms, 1);
        assert_eq!(config.fanouts, vec![2, 2]);
        assert_eq!(config.level_width_ms(2), 4);
    }

    #[test]
    fn errors_render() {
        let e = TimelineError::BadRange { t0: 5, t1: 5 };
        assert!(e.to_string().contains("[5, 5)"));
        let e = TimelineError::Corrupt {
            path: "seg-L0-0-60000.seg".into(),
            detail: "bad crc".into(),
        };
        assert!(e.to_string().contains("bad crc"));
    }
}
