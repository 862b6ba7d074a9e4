//! The on-disk segment store: one immutable CRC-framed file per
//! closed bucket or rollup, written atomically and re-indexed on open.
//!
//! Durability follows the WAL's discipline: a segment is written to a
//! `.tmp` sibling, fsynced (per policy), renamed into place, and the
//! directory fsynced — so a crash leaves either the old file, the new
//! file, or an ignorable `.tmp`, never a half-visible segment. File
//! names (`seg-L<level>-<start>-<end>.seg`) are advisory; the framed
//! header inside the file is authoritative and is revalidated on open.

use crate::segment::{decode_segment, encode_segment, SegmentHeader};
use crate::{Result, TimelineError, TimelineStats};
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
    /// Rollup level (0 = base bucket).
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
    /// Segment count per level, `levels[level]`, up to the `max_level`
    /// the store was opened with.
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
        if header.level != meta.level || header.start_ms != meta.start_ms {
            return Err(TimelineError::Corrupt {
                path: meta.file.clone(),
                detail: format!(
                    "header (L{} @{}) disagrees with index (L{} @{})",
                    header.level, header.start_ms, meta.level, meta.start_ms
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
}

/// A directory of immutable segment files plus an in-memory index.
pub struct SegmentStore {
    reader: Arc<SegmentReader>,
    fsync: FsyncPolicy,
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
    /// artifact. `max_level` is the coarsest rollup level the owning
    /// timeline writes: the store counts its segments per level up to it.
    pub fn open(
        dir: &Path,
        spec: &SketchSpec,
        dim_names: &[String],
        max_level: u8,
        fsync: FsyncPolicy,
    ) -> Result<(SegmentStore, StoreRecovery)> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create timeline dir", dir, &e))?;
        let counters = Counters {
            levels: (0..=max_level).map(|_| Gauge::default()).collect(),
            cache_capacity_cells: SEGMENT_CACHE_CELLS,
            ..Counters::default()
        };
        let mut store = SegmentStore {
            reader: Arc::new(SegmentReader {
                dir: dir.to_path_buf(),
                cache: Mutex::new(SegmentCache::new(&counters)),
            }),
            fsync,
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
            let meta = SegmentMeta {
                level: header.level,
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
        report.segments_loaded = store.index.len();
        Ok((store, report))
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

    /// Segment count per level, `counts[level]`, for levels up to
    /// `max_level` (zero past the level the store was opened with).
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

    /// The segment at level ≥ `min_level` whose range contains `ts`,
    /// preferring the highest level (the late-data check: a row whose
    /// bucket a rollup already covers can no longer be accepted). One
    /// B-tree probe per level, so it is cheap enough for the per-row
    /// ingest path.
    pub fn covering(&self, ts: u64, min_level: u8) -> Option<&SegmentMeta> {
        let max_level = self.index.keys().next_back().map(|&(level, _)| level)?;
        for level in (min_level..=max_level).rev() {
            let candidate = self
                .index
                .range((level, 0)..=(level, ts))
                .next_back()
                .map(|(_, meta)| meta);
            if let Some(meta) = candidate {
                if meta.start_ms <= ts && ts < meta.end_ms {
                    return Some(meta);
                }
            }
        }
        None
    }

    /// Atomically persist `cube` as the segment for `header`,
    /// replacing any previous segment at the same `(level, start)`.
    ///
    /// Write protocol: encode → `.tmp` file → fsync (per policy) →
    /// rename into place → directory fsync. The `timeline::segment_write`
    /// failpoint aborts after the `.tmp` write, simulating a crash
    /// mid-checkpoint; recovery discards the orphan.
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
        if !matches!(self.fsync, FsyncPolicy::Never) {
            sync_dir(dir);
        }
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

/// Fsync the directory so a freshly renamed segment survives power
/// loss (no-op where directories cannot be opened for sync).
#[cfg(unix)]
fn sync_dir(dir: &Path) {
    if let Ok(handle) = std::fs::File::open(dir) {
        let _ = handle.sync_all();
    }
}

#[cfg(not(unix))]
fn sync_dir(_dir: &Path) {}

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
            SegmentStore::open(&dir, &spec(), &dims(), 2, FsyncPolicy::Never).unwrap();
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
            SegmentStore::open(&dir, &spec(), &dims(), 2, FsyncPolicy::Never).unwrap();
        assert_eq!(report.segments_loaded, 3);
        assert_eq!(reopened.index().len(), 3);
        assert_eq!(reopened.level_counts(2), vec![3, 0, 0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_cleans_tmp_and_corrupt_but_keeps_all_levels() {
        let dir = scratch("recovery");
        let (mut store, _) =
            SegmentStore::open(&dir, &spec(), &dims(), 2, FsyncPolicy::Never).unwrap();
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
            SegmentStore::open(&dir, &spec(), &dims(), 2, FsyncPolicy::Never).unwrap();
        assert_eq!(report.tmp_removed, 1);
        assert_eq!(report.corrupt_skipped, 1);
        // Parent and children coexist: fine segments keep serving
        // range edges after their middle is rolled up.
        assert_eq!(report.segments_loaded, 4);
        assert_eq!(reopened.level_counts(1), vec![3, 1]);
        assert!(!dir.join("seg-L0-9-10.seg.tmp").exists());
        // The covering probe prefers the rollup.
        assert_eq!(reopened.covering(61_000, 0).unwrap().level, 1);
        assert_eq!(reopened.covering(130_000, 0).unwrap().level, 0);
        assert!(reopened.covering(130_000, 1).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_mismatch_is_quarantined() {
        let dir = scratch("schema");
        let (mut store, _) =
            SegmentStore::open(&dir, &spec(), &dims(), 2, FsyncPolicy::Never).unwrap();
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
            SegmentStore::open(&dir, &spec(), &other_dims, 2, FsyncPolicy::Never).unwrap();
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
            SegmentStore::open(&dir, &spec(), &dims(), 2, FsyncPolicy::Never).unwrap();
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
            SegmentStore::open(&dir, &spec(), &dims(), 2, FsyncPolicy::Never).unwrap();
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
