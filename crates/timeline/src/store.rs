//! The on-disk segment store: one immutable CRC-framed file per
//! closed bucket or rollup, written atomically and re-indexed on open.
//!
//! Durability follows the WAL's discipline: a segment is written to a
//! `.tmp` sibling, fsynced (per policy), renamed into place, and the
//! directory fsynced — so a crash leaves either the old file, the new
//! file, or an ignorable `.tmp`, never a half-visible segment. File
//! names (`seg-L<level>-<start>-<end>.seg`) are advisory; the framed
//! header inside the file is authoritative for the range it covers and
//! is revalidated on open. A segment's *level* is what its width says
//! on the store's [`Ladder`]: the level byte in the header is what the
//! writer's ladder called that width, so a directory written under the
//! sealing levels alone (`L1` an hour, `L2` a day) reopens under the
//! ladder with intermediates with every segment at the right level.

use crate::segment::{decode_segment, encode_segment, SegmentHeader};
use crate::{Ladder, Result, TimelineError, TimelineStats};
use msketch_cube::DynCube;
use msketch_engine::FsyncPolicy;
use msketch_obs::{Counter, Gauge};
use msketch_sketches::SketchSpec;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Budget of the decoded-segment cache, in cube cells: what a range
/// read trades resident memory for. A decoded `moments:10` cell
/// measures ~512 B resident (sketch, key, map slot and their
/// allocations), so a full cache is about 32 MB.
const SEGMENT_CACHE_CELLS: usize = 64 * 1024;

/// Index entry for one persisted segment.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentMeta {
    /// Physical level on the store's [`Ladder`] (0 = base bucket).
    pub level: u8,
    /// Inclusive start of the covered range (ms).
    pub start_ms: u64,
    /// Exclusive end of the covered range (ms).
    pub end_ms: u64,
    /// Rows aggregated inside the segment's cube.
    pub rows: u64,
    /// Materialized cells inside the segment's cube.
    pub cells: usize,
    /// Size of the segment file in bytes.
    pub bytes: u64,
    /// File name inside the store directory.
    pub file: String,
    /// Which write of this `(level, start_ms)` the entry describes,
    /// counted per open store. A rewrite (late data) gets a new one, so
    /// a cube decoded from the replaced file is never looked up again.
    pub generation: u64,
}

/// Occupancy and traffic of the decoded-segment cache: a read of the
/// cache's own counters ([`SegmentStore::cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentCacheStats {
    /// Cells of the cubes resident now.
    pub cells: usize,
    /// The budget, in cells.
    pub capacity_cells: usize,
    /// Range-read loads answered from the cache.
    pub hits: u64,
    /// Range-read loads that read and decoded the file.
    pub misses: u64,
}

/// `(level, start_ms, generation)`: one written image of one segment.
type CacheKey = (u8, u64, u64);

impl SegmentMeta {
    fn cache_key(&self) -> CacheKey {
        (self.level, self.start_ms, self.generation)
    }
}

struct CacheEntry {
    cube: Arc<DynCube>,
    /// Budget charged: the cube's cells, at least one.
    cost: usize,
    /// Position in `SegmentCache::order`.
    used: u64,
}

/// Everything a timeline and its store count, each an obs handle
/// written where the value changes — the store's index and cache here,
/// ingest and maintenance in [`crate::Timeline`] — so that
/// [`TimelineStats`], and through it `/stats` and `/metrics`, is read
/// without borrowing (or locking) either. Clones share the handles.
#[derive(Clone, Default)]
pub(crate) struct Counters {
    pub(crate) rows_ingested: Counter,
    pub(crate) late_dropped: Counter,
    pub(crate) segments_written: Counter,
    pub(crate) rollups_written: Counter,
    pub(crate) values_folded: Counter,
    pub(crate) retention_removed: Counter,
    pub(crate) open_buckets: Gauge,
    pub(crate) segments: Gauge,
    pub(crate) segment_bytes: Gauge,
    /// Segment count per physical level, `levels[level]`.
    pub(crate) levels: Vec<Gauge>,
    pub(crate) cache_cells: Gauge,
    pub(crate) cache_hits: Counter,
    pub(crate) cache_misses: Counter,
    pub(crate) cache_capacity_cells: usize,
}

impl Counters {
    pub(crate) fn read(&self) -> TimelineStats {
        TimelineStats {
            rows_ingested: self.rows_ingested.get(),
            late_dropped: self.late_dropped.get(),
            segments_written: self.segments_written.get(),
            rollups_written: self.rollups_written.get(),
            values_folded: self.values_folded.get(),
            retention_removed: self.retention_removed.get(),
            open_buckets: self.open_buckets.get(),
            segments: self.segments.get(),
            segment_bytes: self.segment_bytes.get(),
            segment_levels: self.levels.iter().map(Gauge::get).collect(),
            segment_cache: SegmentCacheStats {
                cells: self.cache_cells.get() as usize,
                capacity_cells: self.cache_capacity_cells,
                hits: self.cache_hits.get(),
                misses: self.cache_misses.get(),
            },
        }
    }

    /// `meta` entered the index.
    fn indexed(&self, meta: &SegmentMeta) {
        self.segments.add(1);
        self.segment_bytes.add(meta.bytes);
        if let Some(level) = self.levels.get(meta.level as usize) {
            level.add(1);
        }
    }

    /// `meta` left the index (deleted, or replaced by a rewrite).
    fn unindexed(&self, meta: &SegmentMeta) {
        self.segments.sub(1);
        self.segment_bytes.sub(meta.bytes);
        if let Some(level) = self.levels.get(meta.level as usize) {
            level.sub(1);
        }
    }
}

/// Decoded closed segments, least recently used out first, bounded by
/// the cells they hold.
struct SegmentCache {
    entries: HashMap<CacheKey, CacheEntry>,
    /// Recency order: use tick → key, oldest first.
    order: BTreeMap<u64, CacheKey>,
    tick: u64,
    /// The budget, and where cells resident, hits and misses count.
    counters: Counters,
}

impl SegmentCache {
    fn new(counters: &Counters) -> SegmentCache {
        SegmentCache {
            entries: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            counters: counters.clone(),
        }
    }

    fn get(&mut self, key: CacheKey) -> Option<Arc<DynCube>> {
        let Some(entry) = self.entries.get_mut(&key) else {
            self.counters.cache_misses.inc();
            return None;
        };
        self.counters.cache_hits.inc();
        self.tick += 1;
        self.order.remove(&entry.used);
        entry.used = self.tick;
        self.order.insert(entry.used, key);
        Some(Arc::clone(&entry.cube))
    }

    /// Admit `cube`, evicting from the cold end to stay in budget. A
    /// cube larger than the whole budget is not admitted.
    fn insert(&mut self, key: CacheKey, cube: Arc<DynCube>) {
        let cost = cube.cell_count().max(1);
        let capacity = self.counters.cache_capacity_cells;
        if cost > capacity {
            return;
        }
        self.remove(key);
        let cells = &self.counters.cache_cells;
        while cells.get() as usize + cost > capacity {
            let Some((_, coldest)) = self.order.pop_first() else {
                break;
            };
            if let Some(evicted) = self.entries.remove(&coldest) {
                cells.sub(evicted.cost as u64);
            }
        }
        self.tick += 1;
        let used = self.tick;
        self.order.insert(used, key);
        cells.add(cost as u64);
        self.entries.insert(key, CacheEntry { cube, cost, used });
    }

    fn remove(&mut self, key: CacheKey) {
        if let Some(entry) = self.entries.remove(&key) {
            self.order.remove(&entry.used);
            self.counters.cache_cells.sub(entry.cost as u64);
        }
    }
}

/// The store's read half — the directory and the decoded-segment cache
/// — behind an `Arc`, so a planned range read keeps loading its cover
/// after it has let go of the store (and of the lock around it).
pub(crate) struct SegmentReader {
    dir: PathBuf,
    cache: Mutex<SegmentCache>,
}

impl SegmentReader {
    fn cache(&self) -> MutexGuard<'_, SegmentCache> {
        // Every cache update leaves it consistent, so a poisoned lock
        // (a panic elsewhere on the holder's thread) is still usable.
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cold load: read the file, check the frame CRC, decode and
    /// validate the cube, and check the header against the index entry.
    fn load(&self, meta: &SegmentMeta) -> Result<DynCube> {
        let path = self.dir.join(&meta.file);
        let bytes = std::fs::read(&path).map_err(|e| match e.kind() {
            std::io::ErrorKind::NotFound => TimelineError::SegmentGone {
                path: meta.file.clone(),
            },
            _ => io_err("read segment", &path, &e),
        })?;
        let (header, cube) = decode_segment(&meta.file, &bytes)?;
        // The range is what places a segment; its level byte is advisory.
        if (header.start_ms, header.end_ms) != (meta.start_ms, meta.end_ms) {
            return Err(TimelineError::Corrupt {
                path: meta.file.clone(),
                detail: format!(
                    "header [{}, {}) disagrees with index [{}, {})",
                    header.start_ms, header.end_ms, meta.start_ms, meta.end_ms
                ),
            });
        }
        Ok(cube)
    }

    /// The range path's load: the decoded cube from the cache, or a
    /// cold [`Self::load`] that then fills it. Returns whether it hit.
    /// The cache lock is never held across the file read and decode.
    pub(crate) fn load_shared(&self, meta: &SegmentMeta) -> Result<(Arc<DynCube>, bool)> {
        let key = meta.cache_key();
        if let Some(cube) = self.cache().get(key) {
            return Ok((cube, true));
        }
        failpoint::sleep_if("timeline::segment_load");
        let cube = Arc::new(self.load(meta)?);
        self.cache().insert(key, Arc::clone(&cube));
        Ok((cube, false))
    }
}

/// What [`SegmentStore::open`] found (and cleaned up) on disk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreRecovery {
    /// Valid segments indexed.
    pub segments_loaded: usize,
    /// Files that failed CRC or decode validation and were skipped
    /// (left on disk for inspection).
    pub corrupt_skipped: usize,
    /// Abandoned `.tmp` files removed (torn segment writes).
    pub tmp_removed: usize,
    /// Valid segments whose range is no window of the store's ladder —
    /// a width no level has, or a start off that level's grid; a
    /// directory written under another bucket width or other fanouts —
    /// skipped and left on disk. Not counted in `corrupt_skipped`.
    pub off_ladder_skipped: usize,
    /// Intermediate rollups under no sealed window, deleted: a
    /// compaction died after publishing them and before their parent,
    /// so late data may still change the buckets they summarise. The
    /// retry writes them again.
    pub unsealed_removed: usize,
}

/// A directory of immutable segment files plus an in-memory index.
pub struct SegmentStore {
    reader: Arc<SegmentReader>,
    fsync: FsyncPolicy,
    ladder: Ladder,
    /// Keyed by `(level, start_ms)`; at most one segment per key.
    index: BTreeMap<(u8, u64), SegmentMeta>,
    /// Writes so far: the next [`SegmentMeta::generation`].
    writes: u64,
    counters: Counters,
}

impl SegmentStore {
    /// Open (creating if needed) the store at `dir`, validating every
    /// segment file against `spec`/`dim_names`. Invalid files are
    /// skipped (and counted), torn `.tmp` orphans are deleted. Rolled-up
    /// parents and their children are *both* expected on disk — the
    /// planner prefers parents for covered middles and children for
    /// range edges — so coexistence is the normal state, not a crash
    /// artifact. `ladder` is the owning timeline's: a segment is indexed
    /// at the level its range has there, and one that has none is
    /// skipped. The exception to coexistence is an intermediate rollup
    /// with no sealed window above it, which is deleted (see
    /// [`StoreRecovery::unsealed_removed`]).
    pub fn open(
        dir: &Path,
        spec: &SketchSpec,
        dim_names: &[String],
        ladder: Ladder,
        fsync: FsyncPolicy,
    ) -> Result<(SegmentStore, StoreRecovery)> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create timeline dir", dir, &e))?;
        let counters = Counters {
            levels: (0..=ladder.max_level()).map(|_| Gauge::default()).collect(),
            cache_capacity_cells: SEGMENT_CACHE_CELLS,
            ..Counters::default()
        };
        let mut store = SegmentStore {
            reader: Arc::new(SegmentReader {
                dir: dir.to_path_buf(),
                cache: Mutex::new(SegmentCache::new(&counters)),
            }),
            fsync,
            ladder,
            index: BTreeMap::new(),
            writes: 0,
            counters,
        };
        let mut report = StoreRecovery::default();
        let entries = std::fs::read_dir(dir).map_err(|e| io_err("read timeline dir", dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read timeline dir", dir, &e))?;
            let name = entry.file_name().to_string_lossy().to_string();
            let path = entry.path();
            if name.ends_with(".tmp") {
                // A torn write from a previous process: never visible
                // to the index, safe to discard.
                let _ = std::fs::remove_file(&path);
                report.tmp_removed += 1;
                continue;
            }
            if !name.ends_with(".seg") {
                continue;
            }
            let bytes = match std::fs::read(&path) {
                Ok(bytes) => bytes,
                Err(_) => {
                    report.corrupt_skipped += 1;
                    continue;
                }
            };
            let (header, cube) = match decode_segment(&name, &bytes) {
                Ok(decoded) => decoded,
                Err(_) => {
                    report.corrupt_skipped += 1;
                    continue;
                }
            };
            if cube.spec() != spec || cube.dim_names() != dim_names {
                report.corrupt_skipped += 1;
                continue;
            }
            let Some(level) = store.ladder.level_of(header.start_ms, header.end_ms) else {
                report.off_ladder_skipped += 1;
                continue;
            };
            let meta = SegmentMeta {
                level,
                start_ms: header.start_ms,
                end_ms: header.end_ms,
                rows: cube.row_count(),
                cells: cube.cell_count(),
                bytes: bytes.len() as u64,
                file: name,
                generation: 0,
            };
            // Duplicate (level, start): keep the first indexed, skip
            // the rest (cannot happen through this store's writer, but
            // a copied-in stray should not shadow real data silently).
            if store.index.contains_key(&(meta.level, meta.start_ms)) {
                report.corrupt_skipped += 1;
                continue;
            }
            store.counters.indexed(&meta);
            store.index.insert((meta.level, meta.start_ms), meta);
        }
        report.unsealed_removed = store.sweep_unsealed()?;
        report.segments_loaded = store.index.len();
        Ok((store, report))
    }

    /// The ladder this store's levels index.
    pub fn ladder(&self) -> &Ladder {
        &self.ladder
    }

    /// Whether a sealing-level segment above `level` covers `ts`. From
    /// level 0 this is the late-data check: a row whose bucket lies
    /// under a sealed window can no longer be accepted. Windows are
    /// aligned, so it is one exact probe per sealing level — cheap
    /// enough for the ingest path, however many intermediate levels lie
    /// between.
    pub(crate) fn sealed_above(&self, level: u8, ts: u64) -> bool {
        let mut above = self.ladder.sealing_levels().filter(|&l| l > level);
        above.any(|sealing| {
            let start = ts - ts % self.ladder.width_ms(sealing);
            self.index.contains_key(&(sealing, start))
        })
    }

    /// Delete every intermediate rollup that no sealed window covers:
    /// what a rollup that died before publishing its parent leaves
    /// behind, and must not, because late data may still rewrite the
    /// buckets such a segment summarises. Every one leaves the index;
    /// the error, if any, is that of a file that would not unlink.
    /// Returns how many there were.
    pub(crate) fn sweep_unsealed(&mut self) -> Result<usize> {
        let unsealed = self.index.keys().copied().filter(|&(level, start)| {
            !self.ladder.is_sealing(level) && !self.sealed_above(level, start)
        });
        let unsealed: Vec<(u8, u64)> = unsealed.collect();
        let mut swept = Ok(unsealed.len());
        for (level, start) in unsealed {
            if let Err(e) = self.remove(level, start) {
                swept = Err(e);
            }
        }
        swept
    }

    /// The read half, for a range read to keep after planning.
    pub(crate) fn reader(&self) -> Arc<SegmentReader> {
        Arc::clone(&self.reader)
    }

    /// The counters this store writes its share of, for the owning
    /// [`crate::Timeline`] to share, read and register.
    pub(crate) fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Occupancy and hit/miss counts of the decoded-segment cache.
    pub fn cache_stats(&self) -> SegmentCacheStats {
        self.counters.read().segment_cache
    }

    /// Empty the cache and give it another budget. Tests only (a budget
    /// smaller than one cover); the product runs the constant.
    #[cfg(test)]
    pub(crate) fn reset_cache(&mut self, capacity_cells: usize) {
        self.counters.cache_cells.set(0);
        self.counters.cache_capacity_cells = capacity_cells;
        *self.reader.cache() = SegmentCache::new(&self.counters);
    }

    /// The index, keyed by `(level, start_ms)`.
    pub fn index(&self) -> &BTreeMap<(u8, u64), SegmentMeta> {
        &self.index
    }

    /// Segment count per physical level, `counts[level]`, for levels up
    /// to `max_level` (zero past the top of the store's ladder).
    pub fn level_counts(&self, max_level: u8) -> Vec<usize> {
        let levels = &self.counters.levels;
        (0..=max_level as usize)
            .map(|level| levels.get(level).map_or(0, |count| count.get() as usize))
            .collect()
    }

    /// The segment at exactly `(level, start_ms)`, if any.
    pub fn get(&self, level: u8, start_ms: u64) -> Option<&SegmentMeta> {
        self.index.get(&(level, start_ms))
    }

    /// Atomically persist `cube` as the segment for `header`,
    /// replacing any previous segment at the same `(level, start)`.
    ///
    /// Write protocol: encode → `.tmp` file → fsync (per policy) →
    /// rename into place → directory fsync. The `timeline::segment_write`
    /// failpoint aborts after the `.tmp` write, simulating a crash
    /// mid-checkpoint; recovery discards the orphan. A failed directory
    /// fsync returns [`TimelineError::Io`] after the segment is renamed
    /// and indexed — the index matches the directory, and the caller
    /// learns the rename may not survive power loss.
    pub fn write(&mut self, header: SegmentHeader, cube: &DynCube) -> Result<&SegmentMeta> {
        let bytes = encode_segment(header, cube);
        let name = format!(
            "seg-L{}-{}-{}.seg",
            header.level, header.start_ms, header.end_ms
        );
        let dir = &self.reader.dir;
        let tmp = dir.join(format!("{name}.tmp"));
        let path = dir.join(&name);
        write_file(&tmp, &bytes, self.fsync)?;
        if failpoint::fail_if("timeline::segment_write") {
            return Err(TimelineError::Io(format!(
                "failpoint timeline::segment_write injected before publishing {name}"
            )));
        }
        std::fs::rename(&tmp, &path).map_err(|e| io_err("publish segment", &path, &e))?;
        let synced = match self.fsync {
            FsyncPolicy::Never => Ok(()),
            _ => msketch_engine::sync_dir(dir).map_err(|e| TimelineError::Io(e.to_string())),
        };
        // Replacing a bucket at a different end (cannot happen: the
        // name encodes the range) is impossible, but replacing the
        // same range rewrites the same file name in place.
        self.writes += 1;
        let meta = SegmentMeta {
            level: header.level,
            start_ms: header.start_ms,
            end_ms: header.end_ms,
            rows: cube.row_count(),
            cells: cube.cell_count(),
            bytes: bytes.len() as u64,
            file: name,
            generation: self.writes,
        };
        let key = (meta.level, meta.start_ms);
        self.counters.indexed(&meta);
        if let Some(replaced) = self.index.insert(key, meta) {
            self.counters.unindexed(&replaced);
            self.reader.cache().remove(replaced.cache_key());
        }
        synced?;
        // The entry was just inserted under `key`; spelled as a checked
        // lookup to keep the store panic-free.
        self.index
            .get(&key)
            .ok_or_else(|| TimelineError::Io("segment index lost a fresh entry".to_string()))
    }

    /// Load the cube stored for `meta`, revalidating the frame. Always
    /// the cold, fully validating load — late-data reopen and rollups
    /// want an owned cube once per bucket; only range reads go through
    /// the decoded-segment cache.
    pub fn load(&self, meta: &SegmentMeta) -> Result<DynCube> {
        self.reader.load(meta)
    }

    /// Delete the segment at `(level, start_ms)`, if present. Returns
    /// whether a segment was removed.
    pub fn remove(&mut self, level: u8, start_ms: u64) -> Result<bool> {
        match self.index.remove(&(level, start_ms)) {
            Some(meta) => {
                self.counters.unindexed(&meta);
                self.reader.cache().remove(meta.cache_key());
                let path = self.reader.dir.join(&meta.file);
                std::fs::remove_file(&path).map_err(|e| io_err("delete segment", &path, &e))?;
                Ok(true)
            }
            None => Ok(false),
        }
    }
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> TimelineError {
    TimelineError::Io(format!("{what} {}: {e}", path.display()))
}

fn write_file(path: &Path, bytes: &[u8], fsync: FsyncPolicy) -> Result<()> {
    let mut file = std::fs::File::create(path).map_err(|e| io_err("create segment", path, &e))?;
    file.write_all(bytes)
        .map_err(|e| io_err("write segment", path, &e))?;
    if !matches!(fsync, FsyncPolicy::Never) {
        file.sync_all()
            .map_err(|e| io_err("sync segment", path, &e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use msketch_sketches::SketchSpec;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("msketch-timeline-store-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> SketchSpec {
        SketchSpec::moments(8)
    }

    fn dims() -> Vec<String> {
        vec!["app".to_string()]
    }

    /// Minute buckets, two to a level-1 window, two of those to a
    /// level-2 one.
    fn ladder() -> Ladder {
        crate::TimelineConfig::default().fanouts(&[2, 2]).ladder()
    }

    fn bucket(rows: u64, base: u64) -> DynCube {
        let mut cube = DynCube::from_spec(spec(), &["app"]);
        for i in 0..rows {
            cube.insert(&["checkout"], (base + i) as f64).unwrap();
        }
        cube
    }

    #[test]
    fn write_load_reopen_round_trip() {
        let dir = scratch("roundtrip");
        let (mut store, report) =
            SegmentStore::open(&dir, &spec(), &dims(), ladder(), FsyncPolicy::Never).unwrap();
        assert_eq!(report, StoreRecovery::default());
        for b in 0..3u64 {
            let header = SegmentHeader {
                level: 0,
                start_ms: b * 60_000,
                end_ms: (b + 1) * 60_000,
            };
            store.write(header, &bucket(100, b * 100)).unwrap();
        }
        assert_eq!(store.index().len(), 3);
        let meta = store.get(0, 60_000).unwrap().clone();
        assert_eq!(meta.rows, 100);
        let cube = store.load(&meta).unwrap();
        assert_eq!(cube.row_count(), 100);

        // Reopen re-indexes the same segments.
        let (reopened, report) =
            SegmentStore::open(&dir, &spec(), &dims(), ladder(), FsyncPolicy::Never).unwrap();
        assert_eq!(report.segments_loaded, 3);
        assert_eq!(reopened.index().len(), 3);
        assert_eq!(reopened.level_counts(2), vec![3, 0, 0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_cleans_tmp_and_corrupt_but_keeps_all_levels() {
        let dir = scratch("recovery");
        let (mut store, _) =
            SegmentStore::open(&dir, &spec(), &dims(), ladder(), FsyncPolicy::Never).unwrap();
        // Two children plus their rolled-up parent — the normal
        // post-compaction state — plus one uncompacted bucket.
        for b in 0..3u64 {
            let header = SegmentHeader {
                level: 0,
                start_ms: b * 60_000,
                end_ms: (b + 1) * 60_000,
            };
            store.write(header, &bucket(10, b)).unwrap();
        }
        let mut parent = bucket(10, 0);
        parent.merge_cube(&bucket(10, 1)).unwrap();
        store
            .write(
                SegmentHeader {
                    level: 1,
                    start_ms: 0,
                    end_ms: 120_000,
                },
                &parent,
            )
            .unwrap();
        // A torn tmp and a corrupt segment.
        std::fs::write(dir.join("seg-L0-9-10.seg.tmp"), b"half").unwrap();
        std::fs::write(dir.join("seg-L0-999-1000.seg"), b"garbage").unwrap();

        let (reopened, report) =
            SegmentStore::open(&dir, &spec(), &dims(), ladder(), FsyncPolicy::Never).unwrap();
        assert_eq!(report.tmp_removed, 1);
        assert_eq!(report.corrupt_skipped, 1);
        // Parent and children coexist: fine segments keep serving
        // range edges after their middle is rolled up.
        assert_eq!(report.segments_loaded, 4);
        assert_eq!(reopened.level_counts(1), vec![3, 1]);
        assert!(!dir.join("seg-L0-9-10.seg.tmp").exists());
        // The rollup seals its two buckets; the third is still open
        // to late data.
        assert!(reopened.sealed_above(0, 61_000));
        assert!(!reopened.sealed_above(0, 130_000));
        assert!(!reopened.sealed_above(1, 61_000));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_level_is_what_the_width_says_and_no_width_is_guessed() {
        let dir = scratch("widths");
        let segment = |level: u8, start_ms: u64, end_ms: u64| {
            let header = SegmentHeader {
                level,
                start_ms,
                end_ms,
            };
            let name = format!("seg-L{level}-{start_ms}-{end_ms}.seg");
            (name, encode_segment(header, &bucket(10, start_ms)))
        };
        std::fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in [
            // Written when eight minutes were level 1: level 2 here.
            segment(1, 0, 480_000),
            segment(0, 0, 60_000),
            segment(1, 0, 240_000),
            // Three minutes wide, and four minutes wide but starting on
            // an odd minute: no window of this ladder.
            segment(1, 480_000, 660_000),
            segment(1, 540_000, 780_000),
            // An intermediate whose eight minutes nothing seals.
            segment(1, 480_000, 720_000),
        ] {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        // Minute buckets, eight to a sealing window, in steps of 4 and 2.
        let ladder = crate::TimelineConfig::default().fanouts(&[8]).ladder();
        assert_eq!(ladder.steps(), &[4, 2]);
        let (store, report) =
            SegmentStore::open(&dir, &spec(), &dims(), ladder, FsyncPolicy::Never).unwrap();
        assert_eq!(
            report,
            StoreRecovery {
                segments_loaded: 3,
                off_ladder_skipped: 2,
                unsealed_removed: 1,
                ..StoreRecovery::default()
            }
        );
        assert_eq!(store.level_counts(2), vec![1, 1, 1]);
        let sealed = store.get(2, 0).unwrap().clone();
        assert_eq!(sealed.file, "seg-L1-0-480000.seg");
        assert_eq!(store.load(&sealed).unwrap().row_count(), 10);
        // Skipped files stay for inspection; the unsealed one is gone.
        assert!(dir.join("seg-L1-480000-660000.seg").exists());
        assert!(!dir.join("seg-L1-480000-720000.seg").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_mismatch_is_quarantined() {
        let dir = scratch("schema");
        let (mut store, _) =
            SegmentStore::open(&dir, &spec(), &dims(), ladder(), FsyncPolicy::Never).unwrap();
        store
            .write(
                SegmentHeader {
                    level: 0,
                    start_ms: 0,
                    end_ms: 60_000,
                },
                &bucket(5, 0),
            )
            .unwrap();
        // Reopen under a different schema: the segment is skipped, not
        // loaded into a store it cannot merge with.
        let other_dims = vec!["host".to_string()];
        let (reopened, report) =
            SegmentStore::open(&dir, &spec(), &other_dims, ladder(), FsyncPolicy::Never).unwrap();
        assert_eq!(report.corrupt_skipped, 1);
        assert_eq!(reopened.index().len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cube of `cells` one-row cells.
    fn wide(cells: usize) -> Arc<DynCube> {
        let mut cube = DynCube::from_spec(spec(), &["app"]);
        for i in 0..cells {
            cube.insert(&[format!("app-{i}").as_str()], 1.0).unwrap();
        }
        Arc::new(cube)
    }

    #[test]
    fn cache_holds_its_cell_budget_and_evicts_the_coldest() {
        let mut cache = SegmentCache::new(&Counters {
            cache_capacity_cells: 10,
            ..Counters::default()
        });
        cache.insert((0, 1, 0), wide(4));
        cache.insert((0, 2, 0), wide(4));
        assert!(cache.get((0, 1, 0)).is_some(), "touch 1: now 2 is coldest");
        cache.insert((0, 3, 0), wide(4));
        assert!(cache.get((0, 2, 0)).is_none(), "coldest evicted");
        assert!(cache.get((0, 1, 0)).is_some());
        assert!(cache.get((0, 3, 0)).is_some());
        assert_eq!(cache.counters.cache_cells.get(), 8);
        // Larger than the whole budget: not admitted, nothing evicted.
        cache.insert((1, 0, 0), wide(11));
        assert!(cache.get((1, 0, 0)).is_none());
        assert_eq!(cache.counters.cache_cells.get(), 8);
        // Re-inserting a key replaces it instead of charging twice.
        cache.insert((0, 3, 0), wide(2));
        assert_eq!(cache.counters.cache_cells.get(), 6);
        cache.remove((0, 1, 0));
        cache.remove((0, 3, 0));
        assert_eq!(cache.counters.cache_cells.get(), 0);
        assert!(cache.order.is_empty() && cache.entries.is_empty());
        let traffic = cache.counters.read().segment_cache;
        assert_eq!((traffic.hits, traffic.misses), (3, 2));
    }

    #[test]
    fn a_rewrite_is_never_answered_from_the_replaced_image() {
        let dir = scratch("rewrite");
        let (mut store, _) =
            SegmentStore::open(&dir, &spec(), &dims(), ladder(), FsyncPolicy::Never).unwrap();
        let header = SegmentHeader {
            level: 0,
            start_ms: 0,
            end_ms: 60_000,
        };
        let old = store.write(header, &bucket(5, 0)).unwrap().clone();
        let reader = store.reader();
        assert!(!reader.load_shared(&old).unwrap().1, "cold");
        assert!(reader.load_shared(&old).unwrap().1, "warm");

        // The rewrite drops the cached image...
        let new = store.write(header, &bucket(9, 0)).unwrap().clone();
        assert_eq!(store.cache_stats().cells, 0);
        // ...and a reader that planned before it, decoded the old file
        // and fills the cache only now does so under the old generation,
        // which no plan made from the new index asks for.
        reader
            .cache()
            .insert((0, 0, old.generation), Arc::new(bucket(5, 0)));
        let (cube, hit) = reader.load_shared(&new).unwrap();
        assert!(!hit);
        assert_eq!(cube.row_count(), 9);

        // Retention drops the cached cube with the file; a read that
        // planned before it gets the typed error a re-plan recovers from.
        assert!(store.remove(0, 0).unwrap());
        assert!(matches!(
            reader.load_shared(&new),
            Err(TimelineError::SegmentGone { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_deletes_file_and_entry() {
        let dir = scratch("remove");
        let (mut store, _) =
            SegmentStore::open(&dir, &spec(), &dims(), ladder(), FsyncPolicy::Never).unwrap();
        store
            .write(
                SegmentHeader {
                    level: 0,
                    start_ms: 0,
                    end_ms: 60_000,
                },
                &bucket(5, 0),
            )
            .unwrap();
        assert!(store.remove(0, 0).unwrap());
        assert!(!store.remove(0, 0).unwrap());
        assert!(store.index().is_empty());
        assert!(!dir.join("seg-L0-0-60000.seg").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
