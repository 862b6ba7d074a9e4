//! Incremental snapshot deltas and writer-side interning.
//!
//! Two wire-adjacent families live here, both serving the engine's
//! incremental refresh path:
//!
//! * **Snapshot deltas** ([`CubeDelta`] / [`AppliedDelta`]): a shard
//!   worker answers an epoch refresh with only the cells it touched
//!   since the last one — each cell's *full current summary* (not a
//!   diff), keyed against a small per-delta value pool so the receiver
//!   never needs the sender's dictionaries. Replacement semantics make
//!   application idempotent: applying the same delta twice yields the
//!   same cube, which is what lets a worker that rolled back after a
//!   panic simply re-ship the same keys next epoch. The engine applies
//!   deltas with [`DataCube::apply_delta`] and replays the *resolved*
//!   result ([`AppliedDelta`]) onto its second snapshot buffer with
//!   [`DataCube::replay_applied`].
//!
//! * **Interned ingest batches** ([`InternedBatch`] / [`WriterTable`]):
//!   `ShardWriter` interns dimension values once per writer and ships
//!   integer id columns plus first-sighting string deltas ("news");
//!   the worker keeps one [`WriterTable`] per (writer, dimension)
//!   mapping those dense writer-pool ids to its own dictionary ids, so
//!   steady-state ingestion re-interns nothing.
//!
//! This module is in the lint `panic`/`channel` scope: no `unwrap`,
//! no `expect`, no panicking indexing on wire-derived values —
//! malformed input surfaces as [`Error::BadInternedBatch`].

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

use crate::cube::{canonical_cmp, DataCube};
use crate::hash::{FxHashMap, FxHashSet};
use crate::{Error, Result};
use msketch_sketches::traits::{QuantileSummary, SummaryFactory};
use std::sync::Arc;

/// The cells one shard touched since the last epoch, self-describing.
///
/// Keys index the per-dimension `pools` (batch-local id spaces, in
/// first-encounter order of the deterministic decoded-tuple walk), so a
/// delta can be applied to any cube with the same dimension names.
/// Summaries are `Arc`-shared with the worker's live cube — building a
/// delta clones pointers, not sketches.
#[derive(Clone)]
pub struct CubeDelta<S> {
    /// Per-dimension value pools; `cells` keys index into these.
    pub pools: Vec<Vec<String>>,
    /// Touched cells: pool-id key plus the cell's full current summary.
    pub cells: Vec<(Vec<u32>, Arc<S>)>,
    /// The sending shard's *absolute* live row count. Absolute (not an
    /// increment) so re-shipping after a worker rollback self-heals
    /// rather than double-counts.
    pub pane_rows: u64,
}

impl<S> CubeDelta<S> {
    /// Number of cells carried.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }
}

/// The resolved result of applying one refresh's deltas: merged-space
/// keys, final cell values, and the dictionary entries the application
/// appended. Replaying this onto a second cube that last saw the
/// previous epoch brings it to an identical state (same dictionaries,
/// same cells, bit-identical summaries) without re-doing any merges —
/// the double-buffered engine's catch-up currency.
#[derive(Clone)]
pub struct AppliedDelta<S> {
    /// `(merged-space key, final cell value)` pairs, `Arc`-shared with
    /// the cube the delta was applied to.
    pub cells: Vec<(Vec<u32>, Arc<S>)>,
    /// Per-dimension dictionary names appended during application, in
    /// append order — replayed with `encode` they reproduce identical
    /// id assignments on the twin cube.
    pub dict_news: Vec<Vec<String>>,
    /// Absolute row count of the cube after this refresh (set by the
    /// engine once all shards' deltas are in).
    pub rows: u64,
}

impl<S> AppliedDelta<S> {
    /// An empty applied delta for a cube of `dims` dimensions.
    pub fn empty(dims: usize) -> Self {
        AppliedDelta {
            cells: Vec::new(),
            dict_news: vec![Vec::new(); dims],
            rows: 0,
        }
    }

    /// Fold another applied delta (from a disjoint shard of the same
    /// refresh) into this one. Keys never collide across shards (each
    /// cell is owned by exactly one shard), so concatenation suffices;
    /// dictionary news concatenate in application order.
    pub fn absorb(&mut self, other: AppliedDelta<S>) {
        self.cells.extend(other.cells);
        for (mine, theirs) in self.dict_news.iter_mut().zip(other.dict_news) {
            mine.extend(theirs);
        }
    }
}

/// One dimension column of an [`InternedBatch`]: per-row writer-pool
/// ids, plus the pool values first sighted in this batch ("news"), in
/// id order. The receiving worker appends `news` to its
/// [`WriterTable`] before decoding `ids`.
#[derive(Debug, Clone)]
pub struct InternedColumn {
    /// Per-row ids into the writer's per-shard pool for this dimension.
    pub ids: Vec<u32>,
    /// Pool values whose ids were assigned in this batch, in id order:
    /// the first entry has id `table_len_before`, and so on.
    pub news: Vec<String>,
}

/// A pre-interned ingest batch: one column per dimension plus metrics.
///
/// Ids are dense per `(writer, shard, dimension)` — each writer handle
/// grows an independent pool per shard, so a worker indexes its tables
/// by writer id and never sees holes.
#[derive(Debug, Clone)]
pub struct InternedBatch {
    /// The sending writer handle's id (dense, engine-assigned).
    pub writer: u32,
    /// One column per dimension.
    pub columns: Vec<InternedColumn>,
    /// One metric per row.
    pub metrics: Vec<f64>,
}

impl InternedBatch {
    /// Rows carried.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// No rows?
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }
}

/// Worker-side decode table for one `(writer, dimension)` pair: the
/// writer-pool values seen so far and their ids in the worker cube's
/// dictionary.
///
/// `strings` is the durable half — it survives worker rollback (the
/// writer's memo is ahead of us and will never re-send these values) —
/// while `dict_ids` is derived state, rebuilt by
/// [`DataCube::rebind_tables`] whenever the cube's dictionaries regress
/// (a worker's rollback to its checkpoint).
#[derive(Debug, Clone, Default)]
pub struct WriterTable {
    /// Writer-pool values, indexed by pool id.
    pub strings: Vec<String>,
    /// `dict_ids[pool_id]` = the cube-dictionary id for that value.
    /// May lag `strings` (the undecoded tail is encoded on next use).
    pub dict_ids: Vec<u32>,
}

impl WriterTable {
    /// Append newly sighted pool values. Must be called (in batch
    /// order) even when the batch's row payload is later abandoned —
    /// the writer's memo has already assigned these ids.
    pub fn extend_strings(&mut self, news: &[String]) {
        self.strings.extend(news.iter().cloned());
    }
}

impl<F: SummaryFactory> DataCube<F> {
    /// Build a delta carrying the given touched cells (keys in this
    /// cube's id space). Keys absent from the cell store are skipped —
    /// a key this cube never materialized was never shipped either.
    pub fn build_delta(&self, touched: &FxHashSet<Vec<u32>>) -> CubeDelta<F::Summary> {
        let mut cells: Vec<(&[u32], &Arc<F::Summary>)> = touched
            .iter()
            .filter_map(|key| Some((key.as_slice(), self.cells.get(key)?)))
            .collect();
        cells.sort_unstable_by(|a, b| canonical_cmp(&self.dims, a.0, b.0));
        self.delta_of(cells)
    }

    /// Build a delta carrying *every* cell.
    pub fn full_delta(&self) -> CubeDelta<F::Summary> {
        let all = self.no_filter();
        self.delta_of(self.ordered(&all))
    }

    /// Bring a checkpoint clone of `live` back up to date after the
    /// touched cells have shipped, in O(touched + dictionary growth)
    /// instead of the O(cells) a fresh `live.clone()` would cost.
    ///
    /// Sound because `self` was equal to `live` at the previous
    /// barrier, and everything an insert can change since then is
    /// covered here: cells only in `touched`, dictionaries only by
    /// appending (prefix property, so [`Dictionary::extend_from`]
    /// keeps ids aligned), and the row count. Cell values are shared
    /// (`Arc`), so the live cube's copy-on-write inserts can never
    /// mutate what the checkpoint now holds.
    pub fn sync_checkpoint(&mut self, live: &DataCube<F>, touched: &FxHashSet<Vec<u32>>) {
        for (mine, grown) in self.dims.iter_mut().zip(&live.dims) {
            mine.extend_from(grown);
        }
        for key in touched {
            match live.cells.get(key) {
                Some(summary) => self.cells.put(key.to_owned(), Arc::clone(summary)),
                // A touched key missing from the live cube can only
                // mean the cell never materialized; mirror that.
                None => self.cells.remove(key),
            }
        }
        self.rows = live.rows;
    }

    /// Encode `cells`, given in canonical order (the repo-wide
    /// convention: the same logical delta is byte-identical no matter
    /// how the touched set iterated), against fresh per-delta pools.
    fn delta_of<'a>(
        &'a self,
        ordered: impl IntoIterator<Item = (&'a [u32], &'a Arc<F::Summary>)>,
    ) -> CubeDelta<F::Summary> {
        let mut pools: Vec<Vec<String>> = self.dims.iter().map(|_| Vec::new()).collect();
        let mut memos: Vec<FxHashMap<u32, u32>> =
            self.dims.iter().map(|_| FxHashMap::default()).collect();
        let mut cells = Vec::new();
        for (key, summary) in ordered {
            let mut pool_key = Vec::with_capacity(key.len());
            for (((&id, dict), memo), pool) in
                key.iter().zip(&self.dims).zip(&mut memos).zip(&mut pools)
            {
                let pid = match memo.get(&id) {
                    Some(&p) => p,
                    None => {
                        let p = pool.len() as u32;
                        memo.insert(id, p);
                        pool.push(dict.decode(id).unwrap_or("").to_string());
                        p
                    }
                };
                pool_key.push(pid);
            }
            cells.push((pool_key, Arc::clone(summary)));
        }
        CubeDelta {
            pools,
            cells,
            pane_rows: self.rows,
        }
    }

    /// Apply one shard's delta: intern its pools, then for every
    /// carried cell store `base ⊕ delta` (or the delta summary alone
    /// when the cell has no retained base), *replacing* any previous
    /// value — the idempotent replacement semantics that make worker
    /// re-ships after rollback safe.
    ///
    /// `base` holds the cells the engine recovered from its WAL (the
    /// part of the merged cube no live shard re-ships), keyed in this
    /// cube's id space. Returns the resolved [`AppliedDelta`] for replay onto the
    /// twin buffer; its `rows` field is left 0 for the caller to set.
    pub fn apply_delta(
        &mut self,
        delta: &CubeDelta<F::Summary>,
        base: &FxHashMap<Vec<u32>, Arc<F::Summary>>,
    ) -> Result<AppliedDelta<F::Summary>> {
        if delta.pools.len() != self.dims.len() {
            return Err(Error::DimensionMismatch {
                expected: self.dims.len(),
                got: delta.pools.len(),
            });
        }
        let mut dict_news: Vec<Vec<String>> = Vec::with_capacity(self.dims.len());
        let mut remaps: Vec<Vec<u32>> = Vec::with_capacity(self.dims.len());
        for (dict, pool) in self.dims.iter_mut().zip(&delta.pools) {
            let before = dict.cardinality();
            let remap: Vec<u32> = pool.iter().map(|v| dict.encode(v)).collect();
            let news: Vec<String> = (before..dict.cardinality())
                .map(|id| dict.decode(id as u32).unwrap_or("").to_string())
                .collect();
            remaps.push(remap);
            dict_news.push(news);
        }
        let mut cells = Vec::with_capacity(delta.cells.len());
        for (pool_key, summary) in &delta.cells {
            let mut key = Vec::with_capacity(pool_key.len());
            for (&pid, remap) in pool_key.iter().zip(&remaps) {
                let id = remap.get(pid as usize).ok_or(Error::BadInternedBatch)?;
                key.push(*id);
            }
            let resolved = match base.get(&key) {
                Some(b) => {
                    let mut merged = (**b).clone();
                    merged.merge_from(summary);
                    Arc::new(merged)
                }
                None => Arc::clone(summary),
            };
            self.cells.put(key.clone(), Arc::clone(&resolved));
            cells.push((key, resolved));
        }
        Ok(AppliedDelta {
            cells,
            dict_news,
            rows: 0,
        })
    }

    /// Replay a resolved delta onto this cube. Under the engine's
    /// identical-dictionary invariant (both snapshot buffers apply
    /// every delta exactly once, in the same order), re-encoding
    /// `dict_news` assigns the same ids the original application did,
    /// so the carried keys are valid here verbatim.
    pub fn replay_applied(&mut self, applied: &AppliedDelta<F::Summary>) {
        for (dict, news) in self.dims.iter_mut().zip(&applied.dict_news) {
            for name in news {
                dict.encode(name);
            }
        }
        for (key, summary) in &applied.cells {
            self.cells.put(key.clone(), Arc::clone(summary));
        }
        self.rows = applied.rows;
    }

    /// Ingest a pre-interned batch (the multi-writer fast path).
    ///
    /// `tables` maps the sending writer's pool ids to this cube's
    /// dictionary ids, one table per dimension; the caller has already
    /// appended the batch's news to `strings`, and this method encodes
    /// any undecoded tail into `dict_ids` — one dictionary intern per
    /// new value *ever*, not per batch. Every cell key accumulated into
    /// is recorded in `touched`.
    ///
    /// Out-of-range pool ids (a writer/worker desync) surface as
    /// [`Error::BadInternedBatch`]; nothing panics on wire input.
    pub fn insert_interned(
        &mut self,
        batch: &InternedBatch,
        tables: &mut [WriterTable],
        touched: &mut FxHashSet<Vec<u32>>,
    ) -> Result<()> {
        if batch.columns.len() != self.dims.len() || tables.len() != self.dims.len() {
            return Err(Error::DimensionMismatch {
                expected: self.dims.len(),
                got: batch.columns.len(),
            });
        }
        if let Some(short) = batch
            .columns
            .iter()
            .map(|c| c.ids.len())
            .find(|&n| n != batch.metrics.len())
        {
            return Err(Error::RaggedColumns {
                metrics: batch.metrics.len(),
                shortest: short,
            });
        }
        // Encode the undecoded tail of every table first (news may
        // arrive on batches whose rows reference them).
        for (dict, table) in self.dims.iter_mut().zip(tables.iter_mut()) {
            let WriterTable { strings, dict_ids } = table;
            for s in strings.iter().skip(dict_ids.len()) {
                dict_ids.push(dict.encode(s));
            }
        }
        if batch.metrics.is_empty() {
            return Ok(());
        }
        // Compact writer-pool ids to batch-local slots so the dense
        // grouping core sees batch-local cardinalities, not the
        // writer's lifetime pool size.
        let mut local_cols: Vec<Vec<u32>> = Vec::with_capacity(batch.columns.len());
        let mut remaps: Vec<Vec<u32>> = Vec::with_capacity(batch.columns.len());
        for (col, table) in batch.columns.iter().zip(tables.iter()) {
            let mut local_of: FxHashMap<u32, u32> = FxHashMap::default();
            let mut remap: Vec<u32> = Vec::new();
            let mut ids = Vec::with_capacity(col.ids.len());
            for &pid in &col.ids {
                let lid = match local_of.get(&pid) {
                    Some(&l) => l,
                    None => {
                        let dict_id = *table
                            .dict_ids
                            .get(pid as usize)
                            .ok_or(Error::BadInternedBatch)?;
                        let l = remap.len() as u32;
                        local_of.insert(pid, l);
                        remap.push(dict_id);
                        l
                    }
                };
                ids.push(lid);
            }
            local_cols.push(ids);
            remaps.push(remap);
        }
        let cols: Vec<(&[u32], usize)> = local_cols
            .iter()
            .zip(&remaps)
            .map(|(ids, remap)| (ids.as_slice(), remap.len()))
            .collect();
        self.insert_grouped(&cols, &remaps, &batch.metrics, Some(touched));
        self.rows += batch.metrics.len() as u64;
        Ok(())
    }

    /// Rebuild every table's `dict_ids` by re-encoding its `strings`
    /// against this cube's dictionaries — required after a shard worker
    /// rolled its cube back to a checkpoint, when previously handed-out
    /// dictionary ids are stale. Nothing else replaces a shard's cube.
    pub fn rebind_tables(&mut self, tables: &mut [WriterTable]) {
        for (dict, table) in self.dims.iter_mut().zip(tables.iter_mut()) {
            let WriterTable { strings, dict_ids } = table;
            dict_ids.clear();
            for s in strings.iter() {
                dict_ids.push(dict.encode(s));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msketch_sketches::traits::FnFactory;
    use msketch_sketches::{MSketchSummary, Sketch};

    type Cube = DataCube<FnFactory<MSketchSummary, fn() -> MSketchSummary>>;

    fn empty() -> Cube {
        let factory: FnFactory<MSketchSummary, fn() -> MSketchSummary> =
            FnFactory(|| MSketchSummary::new(8));
        DataCube::new(factory, &["country", "version"])
    }

    fn touched_all(cube: &Cube) -> FxHashSet<Vec<u32>> {
        cube.cells_shared().map(|(k, _)| k.clone()).collect()
    }

    #[test]
    fn delta_apply_matches_merge_cube() {
        let mut shard = empty();
        for i in 0..500 {
            let c = if i % 2 == 0 { "US" } else { "CA" };
            let v = if i % 3 == 0 { "v1" } else { "v2" };
            shard.insert(&[c, v], i as f64).unwrap();
        }
        let delta = shard.build_delta(&touched_all(&shard));
        assert_eq!(delta.cell_count(), shard.cell_count());
        assert_eq!(delta.pane_rows, 500);

        let mut via_delta = empty();
        let applied = via_delta
            .apply_delta(&delta, &FxHashMap::default())
            .unwrap();
        via_delta.set_row_count(delta.pane_rows);

        let mut via_merge = empty();
        via_merge.merge_cube(&shard).unwrap();

        assert_eq!(via_delta.cell_count(), via_merge.cell_count());
        let a = via_delta.rollup(&via_delta.no_filter()).unwrap();
        let b = via_merge.rollup(&via_merge.no_filter()).unwrap();
        assert_eq!(a.to_bytes(), b.to_bytes());

        // Replay onto a twin reproduces identical dictionaries + cells.
        let mut twin = empty();
        let mut resolved = applied;
        resolved.rows = 500;
        twin.replay_applied(&resolved);
        assert_eq!(twin.row_count(), 500);
        let t = twin.rollup(&twin.no_filter()).unwrap();
        assert_eq!(t.to_bytes(), a.to_bytes());
        for d in 0..2 {
            let x: Vec<&str> = via_delta
                .dictionary(d)
                .unwrap()
                .iter()
                .map(|(_, n)| n)
                .collect();
            let y: Vec<&str> = twin.dictionary(d).unwrap().iter().map(|(_, n)| n).collect();
            assert_eq!(x, y);
        }
    }

    #[test]
    fn apply_delta_is_idempotent() {
        let mut shard = empty();
        for i in 0..100 {
            shard.insert(&["US", "v1"], i as f64).unwrap();
        }
        let delta = shard.full_delta();
        let mut cube = empty();
        let base = FxHashMap::default();
        cube.apply_delta(&delta, &base).unwrap();
        let once = cube.rollup(&cube.no_filter()).unwrap().to_bytes();
        cube.apply_delta(&delta, &base).unwrap();
        let twice = cube.rollup(&cube.no_filter()).unwrap().to_bytes();
        assert_eq!(once, twice);
    }

    #[test]
    fn apply_delta_merges_over_base() {
        // base holds 100 rows for (US, v1); delta carries 50 more.
        let mut base_cube = empty();
        for i in 0..100 {
            base_cube.insert(&["US", "v1"], i as f64).unwrap();
        }
        let mut shard = empty();
        for i in 100..150 {
            shard.insert(&["US", "v1"], i as f64).unwrap();
        }

        let mut merged = empty();
        merged.merge_cube(&base_cube).unwrap();
        let base: FxHashMap<Vec<u32>, Arc<MSketchSummary>> = merged
            .cells_shared()
            .map(|(k, s)| (k.clone(), Arc::clone(s)))
            .collect();
        merged.apply_delta(&shard.full_delta(), &base).unwrap();
        merged.set_row_count(150);

        // The reference semantics are the refold path's: base ⊕ pane is
        // one summary merge per coinciding cell, exactly what
        // `merge_cube` does.
        let mut refold = empty();
        refold.merge_cube(&base_cube).unwrap();
        refold.merge_cube(&shard).unwrap();
        assert_eq!(merged.row_count(), refold.row_count());
        let a = merged.rollup(&merged.no_filter()).unwrap().to_bytes();
        let b = refold.rollup(&refold.no_filter()).unwrap().to_bytes();
        assert_eq!(a, b);
    }

    #[test]
    fn interned_ingest_matches_batch_ingest() {
        // Hand-roll a writer pool: two dims, values arriving over two
        // batches with news split across them.
        let mut cube = empty();
        let mut touched = FxHashSet::default();
        let mut tables = vec![WriterTable::default(), WriterTable::default()];

        let b1 = InternedBatch {
            writer: 1,
            columns: vec![
                InternedColumn {
                    ids: vec![0, 1, 0],
                    news: vec!["US".into(), "CA".into()],
                },
                InternedColumn {
                    ids: vec![0, 0, 1],
                    news: vec!["v1".into(), "v2".into()],
                },
            ],
            metrics: vec![1.0, 2.0, 3.0],
        };
        let b2 = InternedBatch {
            writer: 1,
            columns: vec![
                InternedColumn {
                    ids: vec![1, 2],
                    news: vec!["MX".into()],
                },
                InternedColumn {
                    ids: vec![1, 0],
                    news: vec![],
                },
            ],
            metrics: vec![4.0, 5.0],
        };
        for b in [&b1, &b2] {
            for (t, c) in tables.iter_mut().zip(&b.columns) {
                t.extend_strings(&c.news);
            }
            cube.insert_interned(b, &mut tables, &mut touched).unwrap();
        }
        assert_eq!(cube.row_count(), 5);
        assert_eq!(touched.len(), cube.cell_count());

        let mut seq = empty();
        for (c, v, m) in [
            ("US", "v1", 1.0),
            ("CA", "v1", 2.0),
            ("US", "v2", 3.0),
            ("CA", "v2", 4.0),
            ("MX", "v1", 5.0),
        ] {
            seq.insert(&[c, v], m).unwrap();
        }
        let a = cube.rollup(&cube.no_filter()).unwrap().to_bytes();
        let b = seq.rollup(&seq.no_filter()).unwrap().to_bytes();
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_range_pool_id_is_an_error_not_a_panic() {
        let mut cube = empty();
        let mut touched = FxHashSet::default();
        let mut tables = vec![WriterTable::default(), WriterTable::default()];
        let bad = InternedBatch {
            writer: 0,
            columns: vec![
                InternedColumn {
                    ids: vec![7],
                    news: vec![],
                },
                InternedColumn {
                    ids: vec![0],
                    news: vec!["v1".into()],
                },
            ],
            metrics: vec![1.0],
        };
        for (t, c) in tables.iter_mut().zip(&bad.columns) {
            t.extend_strings(&c.news);
        }
        let err = cube.insert_interned(&bad, &mut tables, &mut touched);
        assert!(matches!(err, Err(Error::BadInternedBatch)));
        assert_eq!(cube.row_count(), 0);
    }

    #[test]
    fn rebind_tables_survives_dictionary_reset() {
        let mut cube = empty();
        let mut touched = FxHashSet::default();
        let mut tables = vec![WriterTable::default(), WriterTable::default()];
        let b = InternedBatch {
            writer: 0,
            columns: vec![
                InternedColumn {
                    ids: vec![0, 1],
                    news: vec!["US".into(), "CA".into()],
                },
                InternedColumn {
                    ids: vec![0, 0],
                    news: vec!["v1".into()],
                },
            ],
            metrics: vec![1.0, 2.0],
        };
        for (t, c) in tables.iter_mut().zip(&b.columns) {
            t.extend_strings(&c.news);
        }
        cube.insert_interned(&b, &mut tables, &mut touched).unwrap();

        // A cube with fresh dictionaries, stale dict_ids. Rebind, then
        // a news-free batch referencing old pool ids must still land.
        let mut fresh = empty();
        fresh.rebind_tables(&mut tables);
        let again = InternedBatch {
            writer: 0,
            columns: vec![
                InternedColumn {
                    ids: vec![1],
                    news: vec![],
                },
                InternedColumn {
                    ids: vec![0],
                    news: vec![],
                },
            ],
            metrics: vec![9.0],
        };
        let mut touched2 = FxHashSet::default();
        fresh
            .insert_interned(&again, &mut tables, &mut touched2)
            .unwrap();
        assert_eq!(fresh.row_count(), 1);
        let id = fresh.dictionary(0).unwrap().lookup("CA");
        assert!(id.is_some());
    }
}
