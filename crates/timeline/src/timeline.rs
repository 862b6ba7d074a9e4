//! The timeline: open buckets in memory, immutable segments on disk,
//! a rollup compactor, and range-query execution over planner covers.

use crate::planner::RangePlanner;
use crate::segment::SegmentHeader;
use crate::store::{
    Counters, SegmentCacheStats, SegmentMeta, SegmentReader, SegmentStore, StoreRecovery,
};
use crate::{Result, TimelineConfig, TimelineError, OTHER_LABEL};
use msketch_cube::DynCube;
use msketch_sketches::SketchSpec;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cubes one [`Timeline::maintain`] cycle has just written, keyed like
/// the index: what a checkpoint closed and what compaction rolled up
/// since. A rollup folds a child it finds here from memory instead of
/// reading its file back.
type Resident = BTreeMap<(u8, u64), DynCube>;

/// One input of a rollup: the cube itself, or the segment to read it
/// back from when its turn in the fold comes.
enum Child {
    Resident(DynCube),
    Stored(SegmentMeta),
}

/// A point-in-time read of everything the timeline counts: ingest and
/// maintenance counters (monotonic since open), the segment inventory,
/// and the decoded-segment cache ([`Timeline::stats`], or — without
/// holding the timeline — [`Timeline::stats_reader`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimelineStats {
    /// Rows accepted into open buckets.
    pub rows_ingested: u64,
    /// Rows dropped because their bucket was already rolled up (late
    /// data past the compaction horizon).
    pub late_dropped: u64,
    /// Segments written by checkpoints (level 0).
    pub segments_written: u64,
    /// Rollup segments produced by compaction (level ≥ 1), the
    /// intermediate ones included.
    pub rollups_written: u64,
    /// Dimension values folded into `<other>` by cell budgets.
    pub values_folded: u64,
    /// Segments deleted by retention.
    pub retention_removed: u64,
    /// Open (not yet checkpointed) buckets in memory.
    pub open_buckets: u64,
    /// Segments in the store's index, all levels.
    pub segments: u64,
    /// Bytes across all indexed segment files.
    pub segment_bytes: u64,
    /// Segment count per physical level of the configuration's
    /// [`Ladder`](crate::Ladder), `segment_levels[level]`: sealing and
    /// intermediate levels alike.
    pub segment_levels: Vec<u64>,
    /// Occupancy and traffic of the decoded-segment cache.
    pub segment_cache: SegmentCacheStats,
}

/// What one [`Timeline::maintain`] cycle did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MaintenanceReport {
    /// Level-0 segments persisted from open buckets.
    pub checkpointed: usize,
    /// Rollup segments written, intermediate levels included.
    pub compacted: usize,
    /// Segments deleted by retention.
    pub expired: usize,
}

/// A range query's merged partials plus provenance.
pub struct RangeAnswer {
    /// All matching segments merged in time order — run quantile /
    /// group-by / threshold queries against this cube.
    pub cube: DynCube,
    /// Segments the planner read (the cover size).
    pub segments_read: usize,
    /// Snapped inclusive range start (ms).
    pub t0: u64,
    /// Snapped exclusive range end (ms).
    pub t1: u64,
}

/// A planned range read: the segment cover and the snapped bounds,
/// taken from the timeline in one short borrow, plus a handle on the
/// store's read half. [`RangeRead::merge`] — the segment loads and
/// merges that are all but microseconds of a range query — borrows
/// nothing from the [`Timeline`], so whoever guards the timeline with a
/// lock plans under it and merges after releasing it.
///
/// Closed segments are immutable files, so the detached read is still
/// coherent: each cover segment is loaded as one atomically written
/// image. A segment that retention deleted in between fails the merge
/// with [`TimelineError::SegmentGone`]; planning again answers.
pub struct RangeRead {
    cover: Vec<SegmentMeta>,
    reader: Arc<SegmentReader>,
    /// The empty cube (the timeline's spec and dimensions) to merge into.
    merged: DynCube,
    t0: u64,
    t1: u64,
}

impl RangeRead {
    /// Load the cover — decoded-segment cache first, file on a miss —
    /// and merge it in time order. An empty cover is an empty cube with
    /// `segments_read == 0`; the bounds are the snapped ones either way.
    pub fn merge(self) -> Result<RangeAnswer> {
        let mut span = msketch_obs::span("timeline::merge_cover");
        let mut merged = self.merged;
        let mut cache_hits = 0usize;
        let mut cells = 0usize;
        let mut load = Duration::ZERO;
        for meta in &self.cover {
            let started = Instant::now();
            let (cube, hit) = self.reader.load_shared(meta)?;
            if hit {
                cache_hits += 1;
            } else {
                load += started.elapsed();
            }
            cells += cube.cell_count();
            // Cells are shared with the cached cube, never written
            // through: `merge_cube` copies a cell before merging into it.
            merged.merge_cube(&cube)?;
        }
        // The span's time splits into reading and decoding the misses
        // (`load_us`) and merging `cells` cells.
        span.field("segments", self.cover.len());
        span.field("cache_hits", cache_hits);
        span.field("cells", cells);
        span.field("load_us", load.as_micros() as u64);
        Ok(RangeAnswer {
            cube: merged,
            segments_read: self.cover.len(),
            t0: self.t0,
            t1: self.t1,
        })
    }
}

/// A time-bucketed store of pre-aggregated cubes with hierarchical
/// rollups and minimal-cover range queries. See the crate docs for the
/// subsystem overview.
pub struct Timeline {
    config: TimelineConfig,
    spec: SketchSpec,
    dim_names: Vec<String>,
    store: SegmentStore,
    planner: RangePlanner,
    /// Open (mutable, in-memory) buckets keyed by bucket start. An
    /// open bucket holds the *full* image of its bucket — reopening a
    /// persisted bucket for late data loads the segment back first —
    /// so a checkpoint always rewrites the whole segment.
    open: BTreeMap<u64, DynCube>,
    counters: Counters,
}

impl Timeline {
    /// Open (creating if needed) a timeline at `dir`.
    ///
    /// Recovery is the segment store's scan: every valid segment is
    /// re-indexed, torn `.tmp` files from interrupted writes are
    /// discarded, and corrupt or schema-mismatched files are skipped
    /// with a count. Rows that were only in open buckets (not yet
    /// checkpointed) at crash time are gone — the timeline's
    /// durability boundary is the checkpoint, exactly like the
    /// engine's WAL-less snapshot path.
    pub fn open(
        dir: &Path,
        spec: SketchSpec,
        dim_names: &[&str],
        config: TimelineConfig,
    ) -> Result<(Timeline, StoreRecovery)> {
        let names: Vec<String> = dim_names.iter().map(|s| s.to_string()).collect();
        let ladder = config.ladder();
        let planner = RangePlanner::new(config.bucket_ms, ladder.max_level());
        let (store, recovery) = SegmentStore::open(dir, &spec, &names, ladder, config.fsync)?;
        let counters = store.counters().clone();
        Ok((
            Timeline {
                config,
                spec,
                dim_names: names,
                store,
                planner,
                open: BTreeMap::new(),
                counters,
            },
            recovery,
        ))
    }

    /// Publish the series `/metrics` names for a timeline — segment
    /// inventory and decoded-segment cache — as the timeline's own
    /// handles: the exposition reads the atomics the store writes.
    pub fn register_metrics(&self, registry: &msketch_obs::Registry) {
        let c = &self.counters;
        registry.register_gauge("msketch_timeline_segments", &[], &c.segments);
        registry.register_gauge("msketch_timeline_segment_bytes", &[], &c.segment_bytes);
        registry.register_counter(
            "msketch_timeline_segment_cache_hits_total",
            &[],
            &c.cache_hits,
        );
        registry.register_counter(
            "msketch_timeline_segment_cache_misses_total",
            &[],
            &c.cache_misses,
        );
        registry.register_gauge("msketch_timeline_segment_cache_cells", &[], &c.cache_cells);
    }

    /// The timeline's configuration.
    pub fn config(&self) -> &TimelineConfig {
        &self.config
    }

    /// The sketch backend every bucket uses.
    pub fn spec(&self) -> &SketchSpec {
        &self.spec
    }

    /// Dimension names shared by every bucket.
    pub fn dim_names(&self) -> &[String] {
        &self.dim_names
    }

    /// Everything the timeline counts, right now.
    pub fn stats(&self) -> TimelineStats {
        self.counters.read()
    }

    /// [`Self::stats`] for a caller that must not wait for the
    /// timeline: the returned closure reads the same handles without
    /// borrowing (or locking) it, so a serving layer that keeps its
    /// timeline behind a mutex answers `/stats` while maintenance holds
    /// that mutex across segment writes.
    pub fn stats_reader(&self) -> impl Fn() -> TimelineStats + Send + Sync + 'static {
        let counters = self.counters.clone();
        move || counters.read()
    }

    /// The segment store (read access for stats and tests).
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// Ingest one timestamped row. Returns `true` if the row was
    /// accepted, `false` if it was dropped as too late (its bucket lies
    /// under a sealed window: an immutable rollup of a
    /// [`TimelineConfig::fanouts`] level).
    ///
    /// Late rows for a bucket that is persisted but *not yet rolled
    /// up* are accepted: the segment is loaded back into memory,
    /// merged with the new rows, and rewritten wholesale at the next
    /// checkpoint — the read path never sees a partial bucket.
    pub fn insert(&mut self, ts_ms: u64, dim_values: &[&str], metric: f64) -> Result<bool> {
        let bucket = self.config.bucket_start(ts_ms);
        // An open bucket is under no sealed window — compaction leaves
        // a window with open buckets alone — so only the first row of a
        // bucket pays for the late check.
        if !self.open.contains_key(&bucket) {
            if self.store.sealed_above(0, bucket) {
                self.counters.late_dropped.inc_exclusive();
                return Ok(false);
            }
            let cube = match self.store.get(0, bucket).cloned() {
                Some(meta) => self.store.load(&meta)?,
                None => self.empty_cube(),
            };
            self.open.insert(bucket, cube);
            self.counters.open_buckets.set(self.open.len() as u64);
        }
        match self.open.get_mut(&bucket) {
            Some(cube) => cube.insert(dim_values, metric)?,
            // Unreachable (inserted above); spelled as a no-op to keep
            // the ingest path panic-free.
            None => return Ok(false),
        }
        // Per-row counts use the plain-store increment: `&mut self` is
        // the only writer, and this path runs once per ingested row.
        self.counters.rows_ingested.inc_exclusive();
        Ok(true)
    }

    /// Persist every open bucket as a level-0 segment, then drop from
    /// memory the buckets that are closed as of `now_ms` (the bucket
    /// containing `now_ms` stays open for more rows). Returns the
    /// number of segments written.
    ///
    /// Idempotent and crash-safe: each segment is the *full* bucket
    /// image written atomically, so a crash mid-checkpoint leaves
    /// every bucket either at its previous image or its new one.
    pub fn checkpoint(&mut self, now_ms: u64) -> Result<usize> {
        self.checkpoint_keeping(now_ms, &mut Resident::new())
    }

    /// [`Self::checkpoint`], handing the closed buckets it wrote to
    /// `resident` instead of dropping them.
    fn checkpoint_keeping(&mut self, now_ms: u64, resident: &mut Resident) -> Result<usize> {
        let starts: Vec<u64> = self.open.keys().copied().collect();
        let mut written = 0usize;
        for start in starts {
            let end = start.saturating_add(self.config.bucket_ms);
            let Some(cube) = self.open.get(&start) else {
                continue;
            };
            // Never materialize empty segments; a closed bucket is
            // dropped either way.
            if cube.row_count() > 0 {
                let header = SegmentHeader {
                    level: 0,
                    start_ms: start,
                    end_ms: end,
                };
                self.store.write(header, cube)?;
                written += 1;
                self.counters.segments_written.inc();
            }
            if end <= now_ms {
                if let Some(cube) = self.drop_open(start).filter(|c| c.row_count() > 0) {
                    resident.insert((0, start), cube);
                }
            }
        }
        Ok(written)
    }

    /// Roll closed windows up the hierarchy: for each sealing level
    /// `i`, any aligned window of `fanouts[i]` widths that is fully in
    /// the past (and not yet rolled up) merges into one segment of
    /// sealing level `i+1`, budget-folded per
    /// [`TimelineConfig::cell_budget`] — and with it the intermediate
    /// levels the [`Ladder`](crate::Ladder) puts between the two.
    /// Children stay on disk to serve the fine edges of range queries.
    /// Returns the number of rollups written, intermediates included.
    ///
    /// Processing levels bottom-up lets fresh hour rollups cascade
    /// into day rollups within one call. The `timeline::compact`
    /// failpoint aborts a rollup after its intermediates are published
    /// and before the parent is, simulating a crash mid-compaction;
    /// because children are never deleted, the parent write is atomic
    /// and nothing keeps an intermediate that no parent seals, recovery
    /// simply retries the same rollup later.
    pub fn compact(&mut self, now_ms: u64) -> Result<usize> {
        self.compact_from(now_ms, &mut Resident::new())
    }

    /// [`Self::compact`], folding the children it finds in `resident`
    /// from memory.
    fn compact_from(&mut self, now_ms: u64, resident: &mut Resident) -> Result<usize> {
        let mut rollups = 0usize;
        let sealing: Vec<u8> = self.store.ladder().sealing_levels().collect();
        for pair in sealing.windows(2) {
            let (child_level, parent_level) = (pair[0], pair[1]);
            let parent_width = self.store.ladder().width_ms(parent_level);
            // Candidate parent starts: every distinct aligned window
            // holding at least one child segment.
            let mut parents: Vec<u64> = self
                .store
                .index()
                .range((child_level, 0)..=(child_level, u64::MAX))
                .map(|(&(_, start), _)| start - start % parent_width)
                .collect();
            parents.dedup();
            for parent_start in parents {
                let parent_end = parent_start.saturating_add(parent_width);
                if parent_end > now_ms {
                    continue; // window still filling
                }
                if self.store.get(parent_level, parent_start).is_some() {
                    continue; // already rolled up
                }
                if self.open.range(parent_start..parent_end).next().is_some() {
                    continue; // unwritten rows still in memory
                }
                rollups += self.rollup_window(child_level, parent_level, parent_start, resident)?;
            }
        }
        Ok(rollups)
    }

    /// Seal one window: fold its level-`child_level` segments, in time
    /// order, up every physical level to `parent_level`, and persist
    /// each level's segments — intermediates first, the parent last.
    /// Returns the number of segments written.
    ///
    /// Each level is the time-ordered left fold of the one below, so
    /// the result depends only on the child segments: children taken
    /// from `resident` and children decoded from their files (a retry
    /// after a crash, a window whose buckets were checkpointed in
    /// earlier cycles) produce bit-identical segments. The parent stays
    /// in `resident` for the window above.
    ///
    /// A failure part way unpublishes the intermediates already
    /// written: while no parent seals the window, late data may still
    /// rewrite a bucket under them.
    fn rollup_window(
        &mut self,
        child_level: u8,
        parent_level: u8,
        start: u64,
        resident: &mut Resident,
    ) -> Result<usize> {
        let end = start.saturating_add(self.store.ladder().width_ms(parent_level));
        let mut pieces: Vec<(u64, Child)> = self
            .store
            .index()
            .range((child_level, start)..(child_level, end))
            .map(|(&key, meta)| match resident.remove(&key) {
                Some(cube) => (meta.start_ms, Child::Resident(cube)),
                None => (meta.start_ms, Child::Stored(meta.clone())),
            })
            .collect();
        let mut written = 0usize;
        for level in child_level + 1..=parent_level {
            let rolled = if level == parent_level && failpoint::fail_if("timeline::compact") {
                Err(TimelineError::Io(format!(
                    "failpoint timeline::compact injected rolling up [{start}, {end})"
                )))
            } else {
                self.roll_level(level, pieces)
            };
            pieces = match rolled {
                Ok(rolled) => rolled,
                Err(e) => {
                    // Out of the index whatever happens to the files:
                    // one that will not unlink is swept on reopen.
                    let _ = self.store.sweep_unsealed();
                    return Err(e);
                }
            };
            written += pieces.len();
        }
        for (at, parent) in pieces {
            if let Child::Resident(cube) = parent {
                resident.insert((parent_level, at), cube);
            }
        }
        Ok(written)
    }

    /// Fold `pieces` — the time-ordered segments of level `level − 1`
    /// inside one sealing window — into that window's level-`level`
    /// segments, budget-fold and persist each, and return them.
    fn roll_level(&mut self, level: u8, pieces: Vec<(u64, Child)>) -> Result<Vec<(u64, Child)>> {
        let width = self.store.ladder().width_ms(level);
        // Time-ordered left fold: deterministic for a given set of
        // child segments, so pre- and post-crash compactions of the
        // same children produce bit-identical parents.
        let mut rolled: Vec<(u64, DynCube)> = Vec::new();
        for (at, piece) in pieces {
            let cube = match piece {
                Child::Resident(cube) => cube,
                Child::Stored(meta) => self.store.load(&meta)?,
            };
            let window = at - at % width;
            if rolled.last().map(|(w, _)| *w) != Some(window) {
                rolled.push((window, self.empty_cube()));
            }
            if let Some((_, merged)) = rolled.last_mut() {
                merged.merge_cube(&cube)?;
            }
        }
        for (at, merged) in &mut rolled {
            if self.config.cell_budget > 0 {
                let folds = merged.enforce_cell_budget(self.config.cell_budget, OTHER_LABEL);
                self.counters.values_folded.add(folds as u64);
            }
            let header = SegmentHeader {
                level,
                start_ms: *at,
                end_ms: at.saturating_add(width),
            };
            self.store.write(header, merged)?;
            self.counters.rollups_written.inc();
        }
        let resident = |(at, cube)| (at, Child::Resident(cube));
        Ok(rolled.into_iter().map(resident).collect())
    }

    /// Delete segments whose range ended before the retention horizon
    /// (`now_ms - retention_ms`); drops equally old open buckets.
    /// Returns the number of segments removed. A zero horizon keeps
    /// everything.
    pub fn enforce_retention(&mut self, now_ms: u64) -> Result<usize> {
        if self.config.retention_ms == 0 {
            return Ok(0);
        }
        let cutoff = now_ms.saturating_sub(self.config.retention_ms);
        let expired: Vec<(u8, u64)> = self
            .store
            .index()
            .values()
            .filter(|meta| meta.end_ms <= cutoff)
            .map(|meta| (meta.level, meta.start_ms))
            .collect();
        let mut removed = 0usize;
        for (level, start) in expired {
            if self.store.remove(level, start)? {
                removed += 1;
                self.counters.retention_removed.inc();
            }
        }
        let stale: Vec<u64> = self
            .open
            .keys()
            .copied()
            .filter(|&start| start.saturating_add(self.config.bucket_ms) <= cutoff)
            .collect();
        for start in stale {
            self.drop_open(start);
        }
        Ok(removed)
    }

    /// One maintenance cycle: checkpoint open buckets, roll up closed
    /// windows, enforce retention — what the serving layer runs on its
    /// refresh cadence.
    pub fn maintain(&mut self, now_ms: u64) -> Result<MaintenanceReport> {
        let mut span = msketch_obs::span("timeline::maintain");
        // What the checkpoint closes is what compaction is most likely
        // to roll up next, so it stays in memory until then.
        let mut resident = Resident::new();
        let checkpointed = self.checkpoint_keeping(now_ms, &mut resident)?;
        let compacted = self.compact_from(now_ms, &mut resident)?;
        drop(resident);
        let expired = self.enforce_retention(now_ms)?;
        span.field("checkpointed", checkpointed);
        span.field("compacted", compacted);
        span.field("expired", expired);
        Ok(MaintenanceReport {
            checkpointed,
            compacted,
            expired,
        })
    }

    /// The segments a `[t0, t1)` query would read, in time order
    /// (coarse in the middle, fine at the edges).
    pub fn plan(&self, t0: u64, t1: u64) -> Result<Vec<SegmentMeta>> {
        if t1 <= t0 {
            return Err(TimelineError::BadRange { t0, t1 });
        }
        let mut span = msketch_obs::span("timeline::plan");
        let cover: Vec<SegmentMeta> = self
            .planner
            .cover(self.store.index(), t0, t1)
            .into_iter()
            .filter_map(|(level, start)| self.store.get(level, start).cloned())
            .collect();
        span.field("segments", cover.len());
        Ok(cover)
    }

    /// Plan a `[t0, t1)` read: the cover, the snapped bounds and a
    /// handle on the segment files — everything [`RangeRead::merge`]
    /// needs, so the merge runs without the timeline. Costs what
    /// [`Self::plan`] costs.
    pub fn range_read(&self, t0: u64, t1: u64) -> Result<RangeRead> {
        let cover = self.plan(t0, t1)?;
        let Some((lo, hi)) = self.planner.snap(t0, t1) else {
            return Err(TimelineError::BadRange { t0, t1 });
        };
        Ok(RangeRead {
            cover,
            reader: self.store.reader(),
            merged: self.empty_cube(),
            t0: lo,
            t1: hi,
        })
    }

    /// Answer an arbitrary `[t0, t1)` range by merging the minimal
    /// segment cover in time order: [`Self::range_read`] then
    /// [`RangeRead::merge`]. Returns `None` when no persisted segment
    /// overlaps the range (an empty range answer, not an error). Only
    /// checkpointed data is visible — the same snapshot semantics as
    /// the engine's serving path.
    pub fn range_cube(&self, t0: u64, t1: u64) -> Result<Option<RangeAnswer>> {
        let answer = self.range_read(t0, t1)?.merge()?;
        Ok((answer.segments_read > 0).then_some(answer))
    }

    /// A cube of the timeline's spec and dimensions with no rows.
    fn empty_cube(&self) -> DynCube {
        let names: Vec<&str> = self.dim_names.iter().map(|s| s.as_str()).collect();
        DynCube::from_spec(self.spec.clone(), &names)
    }

    /// Forget the open bucket starting at `start`, handing it back.
    fn drop_open(&mut self, start: u64) -> Option<DynCube> {
        let cube = self.open.remove(&start);
        self.counters.open_buckets.set(self.open.len() as u64);
        cube
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const MIN: u64 = 60_000;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("msketch-timeline-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config() -> TimelineConfig {
        TimelineConfig::default()
            .fanouts(&[4, 3])
            .fsync(crate::FsyncPolicy::Never)
    }

    fn open(dir: &Path, config: TimelineConfig) -> Timeline {
        Timeline::open(dir, SketchSpec::moments(6), &["app"], config)
            .unwrap()
            .0
    }

    /// `rows` timestamped rows per bucket across `buckets` buckets.
    fn fill(tl: &mut Timeline, buckets: u64, rows: u64) {
        for b in 0..buckets {
            for i in 0..rows {
                let ts = b * MIN + (i % MIN);
                let app = ["checkout", "search"][(i % 2) as usize];
                // Non-positive integer metrics keep every power sum
                // exactly representable (see the proptest suite).
                let metric = -((i % 17) as f64);
                assert!(tl.insert(ts, &[app], metric).unwrap());
            }
        }
    }

    /// The published inventory is counted where the index changes; it
    /// must equal a recount of the index.
    fn assert_inventory_matches_index(tl: &Timeline) {
        let stats = tl.stats();
        let index = tl.store().index();
        assert_eq!(stats.segments, index.len() as u64);
        assert_eq!(
            stats.segment_bytes,
            index.values().map(|m| m.bytes).sum::<u64>()
        );
        for (level, &count) in stats.segment_levels.iter().enumerate() {
            let recount = index.values().filter(|m| m.level as usize == level);
            assert_eq!(count, recount.count() as u64, "level {level}");
        }
        assert_eq!(stats.open_buckets, tl.open.len() as u64);
    }

    #[test]
    fn ingest_checkpoint_query_round_trip() {
        let dir = scratch("roundtrip");
        let mut tl = open(&dir, config());
        fill(&mut tl, 6, 50);
        assert_eq!(tl.stats().open_buckets, 6);
        // Checkpoint at the end of bucket 5: buckets 0..5 close,
        // bucket 5 stays open (now sits inside it).
        let now = 5 * MIN + 1;
        assert_eq!(tl.checkpoint(now).unwrap(), 6);
        assert_eq!(tl.stats().open_buckets, 1);

        // Range [1m, 4m): three buckets, 150 rows.
        let answer = tl.range_cube(MIN, 4 * MIN).unwrap().unwrap();
        assert_eq!(answer.segments_read, 3);
        assert_eq!(answer.cube.row_count(), 150);
        assert_eq!(answer.t0, MIN);
        assert_eq!(answer.t1, 4 * MIN);

        // Unaligned range snaps outward.
        let answer = tl.range_cube(MIN + 1, 4 * MIN - 1).unwrap().unwrap();
        assert_eq!(answer.t0, MIN);
        assert_eq!(answer.t1, 4 * MIN);
        assert_eq!(answer.cube.row_count(), 150);

        // A range with no data is an empty answer, not an error — with
        // the same snapped bounds a busy window reports.
        assert!(tl.range_cube(100 * MIN, 200 * MIN).unwrap().is_none());
        let quiet = tl.range_read(100 * MIN + 1, 200 * MIN - 1).unwrap();
        let quiet = quiet.merge().unwrap();
        assert_eq!((quiet.t0, quiet.t1), (100 * MIN, 200 * MIN));
        assert_eq!((quiet.segments_read, quiet.cube.row_count()), (0, 0));
        // An inverted range is an error.
        assert!(matches!(
            tl.range_cube(10, 10),
            Err(TimelineError::BadRange { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_rolls_up_and_queries_stay_exact() {
        let dir = scratch("compact");
        let mut tl = open(&dir, config());
        // 13 buckets: three full fanout-4 windows + one extra.
        fill(&mut tl, 13, 40);
        let now = 13 * MIN;
        let report = tl.maintain(now).unwrap();
        assert_eq!(report.checkpointed, 13);
        // Three level-1 rollups ([0,4m), [4m,8m), [8m,12m)); the
        // level-2 window [0,12m) also closes and cascades.
        assert_eq!(report.compacted, 4);
        assert_eq!(tl.store().level_counts(2), vec![13, 3, 1]);

        // Full-range query must prefer the day rollup + fine tail, and
        // count every row exactly once.
        let answer = tl.range_cube(0, 13 * MIN).unwrap().unwrap();
        assert_eq!(answer.cube.row_count(), 13 * 40);
        assert_eq!(answer.segments_read, 2, "level-2 + one fine bucket");

        // Edge-straddling query: fine left edge, coarse middle.
        let answer = tl.range_cube(MIN, 9 * MIN).unwrap().unwrap();
        assert_eq!(answer.cube.row_count(), 8 * 40);
        // Buckets 1,2,3 fine; [4m,8m) rollup; bucket 8 fine.
        assert_eq!(answer.segments_read, 5);

        // Counts agree with re-folding the raw level-0 segments.
        let raw: u64 = tl
            .store()
            .index()
            .values()
            .filter(|m| m.level == 0 && m.start_ms >= MIN && m.end_ms <= 9 * MIN)
            .map(|m| m.rows)
            .sum();
        assert_eq!(raw, 8 * 40);
        assert_inventory_matches_index(&tl);
        assert_eq!(tl.stats().segment_levels, vec![13, 3, 1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn late_data_reopens_until_rolled_up_then_drops() {
        let dir = scratch("late");
        let mut tl = open(&dir, config());
        fill(&mut tl, 5, 10);
        tl.maintain(5 * MIN).unwrap();
        // Bucket 4 is checkpointed but its fanout window [4m,8m) is
        // still open → late row accepted via reopen.
        assert!(tl.insert(4 * MIN + 5, &["checkout"], -1.0).unwrap());
        assert_eq!(tl.stats().open_buckets, 1);
        tl.checkpoint(6 * MIN).unwrap();
        let answer = tl.range_cube(4 * MIN, 5 * MIN).unwrap().unwrap();
        assert_eq!(answer.cube.row_count(), 11, "late row merged in");

        // Bucket 0 sits under the [0,4m) rollup → late row dropped.
        assert!(!tl.insert(1, &["checkout"], -1.0).unwrap());
        assert_eq!(tl.stats().late_dropped, 1);
        let answer = tl.range_cube(0, MIN).unwrap().unwrap();
        assert_eq!(answer.cube.row_count(), 10, "rolled bucket unchanged");
        // Bucket 4 was rewritten in place: counted once, at its new size.
        assert_inventory_matches_index(&tl);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The ladder the server runs: `[60, 24]`, stored as
    /// `[5, 4, 3, 6, 4]`.
    fn default_config() -> TimelineConfig {
        TimelineConfig::default().fsync(crate::FsyncPolicy::Never)
    }

    #[test]
    fn intermediates_do_not_move_the_late_data_horizon() {
        let dir = scratch("late-default");
        let mut tl = open(&dir, default_config());
        // One full hour and five minutes of the next.
        fill(&mut tl, 65, 10);
        let report = tl.maintain(65 * MIN).unwrap();
        // The hour [0, 60m) seals: twelve 5m and three 20m
        // intermediates, then the hour itself.
        assert_eq!((report.checkpointed, report.compacted), (65, 16));
        assert_eq!(tl.stats().segment_levels, vec![65, 12, 3, 1, 0, 0]);
        assert_eq!(tl.stats().rollups_written, 16);

        // Minute 62 is checkpointed, and a whole 5m step of its hour is
        // in the past, but the hour has not sealed: a late row is still
        // accepted, rewritten at the next checkpoint and counted once.
        assert!(tl.insert(62 * MIN + 5, &["checkout"], -1.0).unwrap());
        assert_eq!(tl.stats().open_buckets, 1);
        tl.maintain(66 * MIN).unwrap();
        assert_eq!(tl.stats().segment_levels, vec![65, 12, 3, 1, 0, 0]);
        let answer = tl.range_cube(60 * MIN, 65 * MIN).unwrap().unwrap();
        assert_eq!(answer.cube.row_count(), 51, "late row merged in, once");
        assert_eq!(answer.segments_read, 5, "nothing above the buckets");

        // Minute 7 lies under the sealed hour: dropped, and counted.
        assert!(!tl.insert(7 * MIN, &["checkout"], -1.0).unwrap());
        assert_eq!(tl.stats().late_dropped, 1);
        // [3m, 58m): 2 buckets, 3·5m, 20m, 3·5m, 3 buckets — not 55.
        let answer = tl.range_cube(3 * MIN, 58 * MIN).unwrap().unwrap();
        assert_eq!(answer.cube.row_count(), 550, "sealed buckets unchanged");
        assert_eq!(answer.segments_read, 2 + 3 + 1 + 3 + 3);
        assert_inventory_matches_index(&tl);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every cell of every rolled-up segment: its level and start, its
    /// decoded key, its sketch bytes.
    fn rolled_cells(tl: &Timeline) -> Vec<(u8, u64, Vec<String>, Vec<u8>)> {
        let mut cells = Vec::new();
        for meta in tl.store().index().values().filter(|m| m.level > 0) {
            let cube = tl.store().load(meta).unwrap();
            for (key, sketch) in cube.cells_sorted() {
                let names = key.iter().enumerate().map(|(d, &id)| {
                    let dictionary = cube.dictionary(d).unwrap();
                    dictionary.decode(id).unwrap().to_string()
                });
                cells.push((
                    meta.level,
                    meta.start_ms,
                    names.collect(),
                    sketch.to_bytes(),
                ));
            }
        }
        cells
    }

    #[test]
    fn a_parent_folded_from_memory_equals_one_rebuilt_from_the_files() {
        // Non-integer metrics: a fold in any other order, or over any
        // other grouping, would differ in the low bits.
        let fill = |tl: &mut Timeline| {
            for i in 0..125 * 7u64 {
                let app = ["checkout", "search", "feed"][(i % 3) as usize];
                let metric = 0.1 + (i as f64).sqrt();
                assert!(tl.insert(i * MIN / 7, &[app], metric).unwrap());
            }
        };
        // One maintenance cycle: compaction folds the cubes the
        // checkpoint just wrote, and the hours it just rolled up.
        let warm_dir = scratch("fold-memory");
        let mut warm = open(&warm_dir, default_config().fanouts(&[60, 2]));
        fill(&mut warm);
        warm.maintain(125 * MIN).unwrap();
        // Checkpoint, reopen, compact: every child is read back — the
        // path a retry after a crash takes.
        let cold_dir = scratch("fold-files");
        let mut cold = open(&cold_dir, default_config().fanouts(&[60, 2]));
        fill(&mut cold);
        cold.checkpoint(125 * MIN).unwrap();
        drop(cold);
        let mut cold = open(&cold_dir, default_config().fanouts(&[60, 2]));
        assert_eq!(cold.compact(125 * MIN).unwrap(), 2 * 16 + 1);

        assert_eq!(warm.stats().segment_levels, vec![125, 24, 6, 2, 1]);
        assert_eq!(warm.stats().segment_levels, cold.stats().segment_levels);
        let (warm_cells, cold_cells) = (rolled_cells(&warm), rolled_cells(&cold));
        assert_eq!(warm_cells.len(), (24 + 6 + 2 + 1) * 3);
        assert_eq!(warm_cells, cold_cells);
        let _ = std::fs::remove_dir_all(&warm_dir);
        let _ = std::fs::remove_dir_all(&cold_dir);
    }

    #[test]
    fn a_range_with_years_of_nothing_in_it_plans_at_once() {
        let dir = scratch("sparse-plan");
        let mut tl = open(&dir, default_config().bucket_ms(250));
        // Six quarter-second buckets, fifty-odd years after the epoch.
        let now = 1_790_000_000_000u64;
        for b in 0..6u64 {
            assert!(tl.insert(now + b * 250, &["checkout"], -1.0).unwrap());
        }
        tl.checkpoint(now + 10_000).unwrap();
        // Best of three: the bound is on the work, not on the scheduler.
        let fastest = (0..3)
            .map(|_| {
                let started = Instant::now();
                assert_eq!(tl.plan(0, now + 10_000).unwrap().len(), 6);
                started.elapsed()
            })
            .min();
        assert!(fastest < Some(Duration::from_millis(1)), "{fastest:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_budget_folds_in_rollups_only() {
        let dir = scratch("budget");
        let mut tl = open(&dir, config().cell_budget(3));
        // 4 buckets × 8 distinct apps ≫ 3 cells.
        for b in 0..4u64 {
            for i in 0..32u64 {
                let app = format!("app{}", i % 8);
                tl.insert(b * MIN + i, &[app.as_str()], -((i % 5) as f64))
                    .unwrap();
            }
        }
        tl.maintain(4 * MIN).unwrap();
        let rollup = tl.store().get(1, 0).unwrap();
        assert!(rollup.cells <= 3, "rollup kept {} cells", rollup.cells);
        assert_eq!(rollup.rows, 128, "folding preserves row counts");
        assert!(tl.stats().values_folded > 0);
        // Base segments keep full resolution.
        assert_eq!(tl.store().get(0, 0).unwrap().cells, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_prunes_old_segments_everywhere() {
        let dir = scratch("retention");
        let mut tl = open(&dir, config().retention_ms(4 * MIN));
        fill(&mut tl, 10, 5);
        tl.checkpoint(10 * MIN).unwrap();
        // Horizon at 12m: cutoff 8m → buckets ending ≤ 8m expire.
        let removed = tl.enforce_retention(12 * MIN).unwrap();
        assert!(removed >= 8, "removed {removed}");
        assert!(tl.range_cube(0, 8 * MIN).unwrap().is_none());
        assert!(tl.range_cube(8 * MIN, 10 * MIN).unwrap().is_some());
        assert_eq!(tl.stats().retention_removed as usize, removed);
        assert_inventory_matches_index(&tl);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_answers_bit_identically() {
        let dir = scratch("reopen");
        let mut tl = open(&dir, config());
        fill(&mut tl, 9, 30);
        tl.maintain(9 * MIN).unwrap();
        let before = tl.range_cube(MIN, 8 * MIN).unwrap().unwrap();
        let q_before = before
            .cube
            .rollup(&before.cube.no_filter())
            .unwrap()
            .quantile(0.9);
        drop(tl);

        // Reopen (as after a crash: segments are the durable state).
        let tl = open(&dir, config());
        assert_inventory_matches_index(&tl);
        assert!(tl.stats().segments > 0);
        let after = tl.range_cube(MIN, 8 * MIN).unwrap().unwrap();
        assert_eq!(after.segments_read, before.segments_read);
        assert_eq!(after.cube.row_count(), before.cube.row_count());
        let q_after = after
            .cube
            .rollup(&after.cube.no_filter())
            .unwrap()
            .quantile(0.9);
        assert_eq!(q_before.to_bits(), q_after.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cache_smaller_than_one_cover_still_answers_exactly() {
        let dir = scratch("small-cache");
        let mut tl = open(&dir, config());
        fill(&mut tl, 9, 30);
        // Checkpoint only: the cover of [0, 9m) is nine two-cell buckets.
        tl.checkpoint(9 * MIN).unwrap();
        let global = |tl: &Timeline| {
            let answer = tl.range_cube(0, 9 * MIN).unwrap().unwrap();
            assert_eq!(answer.segments_read, 9);
            answer.cube.rollup(&answer.cube.no_filter()).unwrap()
        };
        let reference = global(&tl).to_bytes();
        // Budgets: one segment at a time, then none at all.
        for (budget, resident) in [(3, 2), (1, 0)] {
            tl.store.reset_cache(budget);
            for _ in 0..2 {
                assert_eq!(global(&tl).to_bytes(), reference, "budget {budget}");
                assert_eq!(tl.store().cache_stats().cells, resident, "budget {budget}");
            }
            assert_eq!(tl.store().cache_stats().hits, 0, "budget {budget}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_timeline_reports_cleanly() {
        let dir = scratch("empty");
        let mut tl = open(&dir, config());
        assert_eq!(tl.maintain(MIN).unwrap(), MaintenanceReport::default());
        assert!(tl.range_cube(0, MIN).unwrap().is_none());
        assert_eq!(
            tl.stats(),
            TimelineStats {
                segment_levels: vec![0; 3],
                segment_cache: tl.store().cache_stats(),
                ..TimelineStats::default()
            }
        );
        assert_eq!(tl.store().cache_stats().cells, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
