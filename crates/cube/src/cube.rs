//! The cell store: one pre-aggregated summary per dimension-value tuple.
//!
//! A cube over `d` dimensions keeps a summary for every observed `d`-tuple
//! of dimension values (up to `Π cardinality_i` cells — the paper's
//! Microsoft deployment holds up to 10^6 per time interval). Roll-ups
//! merge the summaries of every cell matching a filter; with cheap merges
//! this is the whole query cost model of Section 3.3:
//! `t_query = t_merge · n_merge + t_est`.
//!
//! Merges happen in one canonical order (decoded value tuples, see
//! [`DataCube::matching_sorted`]). The store establishes that order
//! once per cube state, at its second ordered read (or first unfiltered
//! one), and every later read filters it; a write that only replaces
//! summaries keeps it, and a write that adds, removes or rekeys cells
//! discards it.

use crate::batch::ColumnarBatch;
use crate::dictionary::Dictionary;
use crate::hash::{FxHashMap, FxHashSet};
use crate::{Error, Result};
use msketch_sketches::traits::{QuantileSummary, Sketch, SummaryFactory};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A borrowed cube cell: encoded key plus pre-aggregated summary.
pub type CellRef<'a, S> = (&'a [u32], &'a S);

/// The canonical cell order: keys compare by their decoded value
/// tuples, dimension by dimension. It depends only on the data, never on
/// how dictionaries assigned ids, so every read, delta and fold that
/// follows it is reproducible across differently built cubes. Equal ids
/// are equal names, so only differing ids are decoded.
pub(crate) fn canonical_cmp(dims: &[Dictionary], a: &[u32], b: &[u32]) -> Ordering {
    for ((&x, &y), dict) in a.iter().zip(b).zip(dims) {
        if x != y {
            let by_name = dict
                .decode(x)
                .unwrap_or("")
                .cmp(dict.decode(y).unwrap_or(""));
            if by_name != Ordering::Equal {
                return by_name;
            }
        }
    }
    Ordering::Equal
}

/// Does a cell key match a filter (`None` = wildcard per dimension)?
#[inline]
fn key_matches(key: &[u32], filter: &[Option<u32>]) -> bool {
    key.iter()
        .zip(filter)
        .all(|(k, f)| f.is_none_or(|v| v == *k))
}

/// The first index in `lo..hi` where `below` turns false, for a
/// `below` that is true on a prefix of the range.
fn partition_point(mut lo: usize, mut hi: usize, below: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Every row of a [`CellStore`] in canonical order, with the rows' keys
/// copied alongside as one flat id column, so a filtered read is a
/// linear scan of contiguous ids.
struct Order {
    /// Rows (indices into the store's summaries), in canonical order.
    rows: Vec<u32>,
    /// The keys of `rows`, in the same order, `arity` ids per row.
    keys: Vec<u32>,
}

impl Order {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn key(&self, i: usize, arity: usize) -> &[u32] {
        &self.keys[i * arity..(i + 1) * arity]
    }
}

/// The cells of a [`DataCube`]: a key → row index, summaries by row,
/// and the canonical order of the rows.
///
/// The store owns the only path to its cells, so the order cannot go
/// stale: replacing or mutating the summary of an existing cell leaves
/// it as it is, and adding or removing a cell drops it for a later
/// ordered read to rebuild. Cloning shares the order (`Arc`), so a
/// cube cloned for a snapshot or checkpoint inherits it.
#[derive(Clone)]
pub(crate) struct CellStore<S> {
    /// Ids per key — the cube's dimension count.
    arity: usize,
    /// Key → row.
    index: HashMap<Vec<u32>, u32>,
    /// Summaries by row; rows are appended, and removal swaps the last
    /// row into the hole.
    summaries: Vec<Arc<S>>,
    /// The canonical order of every row, built by the first unfiltered
    /// or second ordered read of the state.
    order: OnceLock<Arc<Order>>,
    /// Set by the first filtered read of a state with no order, which
    /// scans instead of building one.
    scanned: OnceLock<()>,
}

impl<S> CellStore<S> {
    pub(crate) fn new(arity: usize) -> Self {
        Self::with_capacity(arity, 0)
    }

    pub(crate) fn with_capacity(arity: usize, cells: usize) -> Self {
        CellStore {
            arity,
            index: HashMap::with_capacity(cells),
            summaries: Vec::with_capacity(cells),
            order: OnceLock::new(),
            scanned: OnceLock::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.summaries.len()
    }

    /// Room for `cells` more cells without regrowing.
    pub(crate) fn reserve(&mut self, cells: usize) {
        self.index.reserve(cells);
        self.summaries.reserve(cells);
    }

    pub(crate) fn get(&self, key: &[u32]) -> Option<&Arc<S>> {
        let &row = self.index.get(key)?;
        Some(&self.summaries[row as usize])
    }

    /// The summary of an existing cell, for an in-place update.
    pub(crate) fn get_mut(&mut self, key: &[u32]) -> Option<&mut Arc<S>> {
        let &row = self.index.get(key)?;
        Some(&mut self.summaries[row as usize])
    }

    /// The summary under `key`, adding a cell made by `make` when the
    /// key is new (one hash lookup either way).
    pub(crate) fn get_or_insert_with(
        &mut self,
        key: Vec<u32>,
        make: impl FnOnce() -> Arc<S>,
    ) -> &mut Arc<S> {
        let row = match self.index.entry(key) {
            Entry::Occupied(e) => *e.get() as usize,
            Entry::Vacant(e) => {
                // Made before the index names the row, so a panicking
                // `make` leaves the store as it was.
                let summary = make();
                e.insert(self.summaries.len() as u32);
                self.push(summary)
            }
        };
        &mut self.summaries[row]
    }

    /// Store `summary` under `key`, replacing any previous one.
    pub(crate) fn put(&mut self, key: Vec<u32>, summary: Arc<S>) {
        match self.index.entry(key) {
            Entry::Occupied(e) => self.summaries[*e.get() as usize] = summary,
            Entry::Vacant(e) => {
                e.insert(self.summaries.len() as u32);
                self.push(summary);
            }
        }
    }

    /// Append the summary of the row the index just named, dropping the
    /// built order; returns the row.
    fn push(&mut self, summary: Arc<S>) -> usize {
        self.summaries.push(summary);
        self.new_state();
        self.summaries.len() - 1
    }

    /// The set of cells changed: forget the order and the reads of it.
    fn new_state(&mut self) {
        self.order.take();
        self.scanned.take();
    }

    /// Drop the cell under `key`, if any.
    pub(crate) fn remove(&mut self, key: &[u32]) {
        let Some(row) = self.index.remove(key) else {
            return;
        };
        let last = self.summaries.len() as u32 - 1;
        self.summaries.swap_remove(row as usize);
        if row != last {
            if let Some(moved) = self.index.values_mut().find(|r| **r == last) {
                *moved = row;
            }
        }
        self.new_state();
    }

    /// Every cell, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Vec<u32>, &Arc<S>)> {
        self.index
            .iter()
            .map(|(key, &row)| (key, &self.summaries[row as usize]))
    }

    /// Cells matching `filter`, in canonical order.
    ///
    /// The first filtered read of a state without an order filters
    /// every cell and sorts only the matches: a cube read once (a range
    /// read's answer) never sorts the cells it skips. Any later read, or
    /// an unfiltered first one, sorts every cell once into the order.
    /// When the filter fixes the leading dimension(s), their cells are
    /// one contiguous run of the order, found by binary search; the run
    /// is then filtered linearly on the flat key column.
    pub(crate) fn ordered<'s, 'f>(
        &'s self,
        dims: &[Dictionary],
        filter: &'f [Option<u32>],
    ) -> impl Iterator<Item = (&'s [u32], &'s Arc<S>)> + use<'s, 'f, S> {
        let scan = (self.order.get().is_none()
            && filter.iter().any(Option::is_some)
            && self.scanned.set(()).is_ok())
        .then(|| {
            let mut cells: Vec<(&[u32], &Arc<S>)> = self
                .iter()
                .filter(|(key, _)| key_matches(key, filter))
                .map(|(key, summary)| (key.as_slice(), summary))
                .collect();
            cells.sort_unstable_by(|a, b| canonical_cmp(dims, a.0, b.0));
            cells
        });
        let run = scan.is_none().then(|| self.run(dims, filter));
        scan.into_iter().flatten().chain(run.into_iter().flatten())
    }

    /// Cells matching `filter`, read from the order (built if need be).
    fn run<'s, 'f>(
        &'s self,
        dims: &[Dictionary],
        filter: &'f [Option<u32>],
    ) -> impl Iterator<Item = (&'s [u32], &'s Arc<S>)> + use<'s, 'f, S> {
        let order = self.order.get_or_init(|| Arc::new(self.build_order(dims)));
        let arity = self.arity;
        // Only ids the dictionaries know can narrow: an unknown id
        // matches no cell, which the linear filter decides exactly.
        let fixed = filter
            .iter()
            .zip(dims)
            .take_while(|(f, dict)| f.is_some_and(|id| dict.decode(id).is_some()))
            .count();
        let (mut lo, mut hi) = (0, order.len());
        if fixed > 0 {
            let target: Vec<u32> = filter[..fixed].iter().flatten().copied().collect();
            let cmp = |i: usize| canonical_cmp(dims, &order.key(i, arity)[..fixed], &target);
            lo = partition_point(lo, hi, |i| cmp(i) == Ordering::Less);
            hi = partition_point(lo, hi, |i| cmp(i) == Ordering::Equal);
        }
        (lo..hi).filter_map(move |i| {
            let key = order.key(i, arity);
            key_matches(key, filter).then(|| (key, &self.summaries[order.rows[i] as usize]))
        })
    }

    /// The canonical order of every row.
    fn build_order(&self, dims: &[Dictionary]) -> Order {
        let mut sorted: Vec<(&[u32], u32)> = self
            .index
            .iter()
            .map(|(key, &row)| (key.as_slice(), row))
            .collect();
        sorted.sort_unstable_by(|a, b| canonical_cmp(dims, a.0, b.0));
        let mut order = Order {
            rows: Vec::with_capacity(sorted.len()),
            keys: Vec::with_capacity(sorted.len() * self.arity),
        };
        for (key, row) in sorted {
            order.rows.push(row);
            order.keys.extend_from_slice(key);
        }
        order
    }
}

/// An in-memory data cube of pre-aggregated summaries.
///
/// Cells are held behind `Arc` handles with copy-on-write mutation
/// (`Arc::make_mut`), so cloning a cube — the engine's snapshot and
/// checkpoint currency — shares every summary instead of deep-copying
/// it: a clone costs one pointer bump per cell, and a later write to
/// either copy splits only the cell it touches. `Clone` requires
/// `F: Clone` (summaries are always cloneable).
#[derive(Clone)]
pub struct DataCube<F: SummaryFactory> {
    pub(crate) factory: F,
    pub(crate) dims: Vec<Dictionary>,
    pub(crate) dim_names: Vec<String>,
    pub(crate) cells: CellStore<F::Summary>,
    pub(crate) rows: u64,
}

impl<F: SummaryFactory> DataCube<F> {
    /// Create a cube with the given dimension names.
    pub fn new(factory: F, dim_names: &[&str]) -> Self {
        DataCube {
            factory,
            dims: dim_names.iter().map(|_| Dictionary::new()).collect(),
            dim_names: dim_names.iter().map(|s| s.to_string()).collect(),
            cells: CellStore::new(dim_names.len()),
            rows: 0,
        }
    }

    /// Number of dimensions.
    pub fn dim_count(&self) -> usize {
        self.dims.len()
    }

    /// Dimension names.
    pub fn dim_names(&self) -> &[String] {
        &self.dim_names
    }

    /// Dictionary for dimension `d`.
    pub fn dictionary(&self, d: usize) -> Result<&Dictionary> {
        self.dims.get(d).ok_or(Error::NoSuchDimension(d))
    }

    /// Number of materialized cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Total ingested rows.
    pub fn row_count(&self) -> u64 {
        self.rows
    }

    /// Ingest one row: dimension values plus the metric.
    pub fn insert(&mut self, dim_values: &[&str], metric: f64) -> Result<()> {
        if dim_values.len() != self.dims.len() {
            return Err(Error::DimensionMismatch {
                expected: self.dims.len(),
                got: dim_values.len(),
            });
        }
        let key: Vec<u32> = dim_values
            .iter()
            .zip(self.dims.iter_mut())
            .map(|(v, dict)| dict.encode(v))
            .collect();
        Arc::make_mut(
            self.cells
                .get_or_insert_with(key, || Arc::new(self.factory.build())),
        )
        .accumulate(metric);
        self.rows += 1;
        Ok(())
    }

    /// Ingest a columnar batch of rows — the batched counterpart of
    /// [`Self::insert`].
    ///
    /// The batch arrives already encoded against batch-local value pools
    /// (see [`ColumnarBatch`]), so ingestion touches each *distinct*
    /// dimension value once per batch — one dictionary intern per pool
    /// entry — and every per-row step is integer work: pool-id → dict-id
    /// remap, then cell grouping. Each cell's metrics are then fed
    /// through the summary's batched `accumulate_all`, preserving row
    /// order within a cell, so the resulting cells are bit-identical to
    /// row-at-a-time insertion of the same rows.
    pub fn insert_batch(&mut self, batch: &ColumnarBatch) -> Result<()> {
        if batch.dim_count() != self.dims.len() {
            return Err(Error::DimensionMismatch {
                expected: self.dims.len(),
                got: batch.dim_count(),
            });
        }
        if batch.is_empty() {
            return Ok(());
        }
        // Encode once: batch pool id → dictionary id, per dimension.
        let remaps: Vec<Vec<u32>> = batch
            .columns
            .iter()
            .zip(self.dims.iter_mut())
            .map(|(col, dict)| col.pool.iter().map(|v| dict.encode(v)).collect())
            .collect();
        let cols: Vec<(&[u32], usize)> = batch
            .columns
            .iter()
            .map(|col| (col.ids.as_slice(), col.pool.len()))
            .collect();
        self.insert_grouped(&cols, &remaps, &batch.metrics, None);
        self.rows += batch.len() as u64;
        Ok(())
    }

    /// The shared grouping core behind [`Self::insert_batch`] and the
    /// interned multi-writer path: rows arrive as batch-local id columns
    /// (`cols[d]` = per-row local ids plus the local cardinality) with a
    /// local-id → dictionary-id remap per dimension.
    ///
    /// The product of the *local* cardinalities is usually tiny
    /// (distinct values per batch, not per stream), so the common case
    /// is a dense counting sort over composite local-id slots: no
    /// hashing and no allocation per row, one contiguous metric slice
    /// per touched cell. Batches with a huge combination space fall
    /// back to hash grouping. Either way row order is preserved within
    /// each cell, so cell contents stay bit-identical to row-at-a-time
    /// ingestion.
    ///
    /// When `touched` is given, every cell key this call accumulates
    /// into is recorded — the shard workers' delta-snapshot tracking.
    pub(crate) fn insert_grouped(
        &mut self,
        cols: &[(&[u32], usize)],
        remaps: &[Vec<u32>],
        metrics: &[f64],
        touched: Option<&mut FxHashSet<Vec<u32>>>,
    ) {
        const DENSE_SLOT_CAP: usize = 1 << 16;
        let slot_space = cols.iter().try_fold(1usize, |acc, (_, card)| {
            acc.checked_mul(card.max(&1).to_owned())
                .filter(|&p| p <= DENSE_SLOT_CAP)
        });
        match slot_space {
            Some(slot_space) => {
                self.insert_grouped_dense(cols, remaps, metrics, slot_space, touched)
            }
            None => self.insert_grouped_sparse(cols, remaps, metrics, touched),
        }
    }

    /// Dense grouping: counting sort of rows by composite local slot,
    /// then one batched accumulate per touched cell.
    fn insert_grouped_dense(
        &mut self,
        cols: &[(&[u32], usize)],
        remaps: &[Vec<u32>],
        metrics: &[f64],
        slot_space: usize,
        mut touched: Option<&mut FxHashSet<Vec<u32>>>,
    ) {
        let n = metrics.len();
        let mut strides: Vec<usize> = Vec::with_capacity(cols.len());
        let mut stride = 1usize;
        for (_, card) in cols {
            strides.push(stride);
            stride *= card.max(&1);
        }
        let mut slots: Vec<u32> = Vec::with_capacity(n);
        let mut counts = vec![0u32; slot_space];
        for row in 0..n {
            let mut slot = 0usize;
            for ((ids, _), stride) in cols.iter().zip(&strides) {
                slot += ids[row] as usize * stride;
            }
            counts[slot] += 1;
            slots.push(slot as u32);
        }
        let mut starts = vec![0u32; slot_space];
        let mut acc = 0u32;
        for (start, &count) in starts.iter_mut().zip(&counts) {
            *start = acc;
            acc += count;
        }
        let mut cursor = starts.clone();
        let mut scattered = vec![0f64; n];
        for (row, &slot) in slots.iter().enumerate() {
            let at = &mut cursor[slot as usize];
            scattered[*at as usize] = metrics[row];
            *at += 1;
        }
        for (slot, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let mut rest = slot;
            let key: Vec<u32> = cols
                .iter()
                .zip(remaps)
                .map(|((_, card), remap)| {
                    let card = card.max(&1).to_owned();
                    let id = rest % card;
                    rest /= card;
                    remap[id]
                })
                .collect();
            if let Some(touched) = touched.as_deref_mut() {
                touched.insert(key.clone());
            }
            let start = starts[slot] as usize;
            Arc::make_mut(
                self.cells
                    .get_or_insert_with(key, || Arc::new(self.factory.build())),
            )
            .accumulate_all(&scattered[start..start + count as usize]);
        }
    }

    /// Hash-grouping fallback for batches whose combination space is too
    /// large for the dense path.
    fn insert_grouped_sparse(
        &mut self,
        cols: &[(&[u32], usize)],
        remaps: &[Vec<u32>],
        metrics: &[f64],
        mut touched: Option<&mut FxHashSet<Vec<u32>>>,
    ) {
        let mut groups: FxHashMap<Vec<u32>, Vec<f64>> = FxHashMap::default();
        for (row, &metric) in metrics.iter().enumerate() {
            let key: Vec<u32> = cols
                .iter()
                .zip(remaps)
                .map(|((ids, _), remap)| remap[ids[row] as usize])
                .collect();
            groups.entry(key).or_default().push(metric);
        }
        for (key, metrics) in groups {
            if let Some(touched) = touched.as_deref_mut() {
                touched.insert(key.clone());
            }
            Arc::make_mut(
                self.cells
                    .get_or_insert_with(key, || Arc::new(self.factory.build())),
            )
            .accumulate_all(&metrics);
        }
    }

    /// Union another cube into this one — the shard-fold of the
    /// concurrent ingestion engine.
    ///
    /// The cubes must share the same dimension names in the same order
    /// ([`Error::SchemaMismatch`] otherwise), but their dictionaries may
    /// have grown independently: each of `other`'s dictionaries is
    /// remapped into this cube's id space
    /// ([`Dictionary::merge_remap`]), cell keys are translated, and
    /// summaries for coinciding cells merge. Moments-sketch cells merge
    /// bit-exactly (power-sum addition), so a cube assembled from
    /// disjoint shard cubes is indistinguishable from one built
    /// sequentially. Each destination cell receives at most one merge
    /// per call (the id remap is injective), so equal inputs always
    /// produce bit-identical results regardless of hash-map layout.
    pub fn merge_cube(&mut self, other: &DataCube<F>) -> Result<()> {
        let remaps = self.remap_from(other)?;
        // Into an empty cube (a range read's first segment) every cell
        // is new: size the store once instead of regrowing it.
        if self.cells.len() == 0 {
            self.cells.reserve(other.cells.len());
        }
        // Plain map iteration: `merge_remap` is injective, so every
        // remapped key targets a distinct destination cell — each cell
        // receives at most one `merge_from` per call, making visit order
        // irrelevant to the result (reads follow the canonical order).
        // One key buffer serves every lookup; only a cell new to this
        // cube allocates its key.
        let mut new_key: Vec<u32> = Vec::with_capacity(remaps.len());
        for (key, summary) in other.cells.iter() {
            new_key.clear();
            new_key.extend(
                key.iter()
                    .zip(&remaps)
                    .map(|(&id, remap)| remap[id as usize]),
            );
            match self.cells.get_mut(&new_key) {
                Some(cell) => Arc::make_mut(cell).merge_from(summary),
                None => self.cells.put(new_key.clone(), Arc::clone(summary)),
            }
        }
        self.rows += other.rows;
        Ok(())
    }

    /// [`Self::merge_cube`], except that each of `other`'s cells
    /// *replaces* the cell under the same names, and `other`'s row
    /// count becomes this cube's: how WAL replay applies a record of
    /// the current value of every cell it carries.
    pub fn replace_cells(&mut self, other: &DataCube<F>) -> Result<()> {
        let remaps = self.remap_from(other)?;
        for (key, summary) in other.cells.iter() {
            let key = key
                .iter()
                .zip(&remaps)
                .map(|(&id, remap)| remap[id as usize]);
            self.cells.put(key.collect(), Arc::clone(summary));
        }
        self.rows = other.rows;
        Ok(())
    }

    /// Check that `other` shares this cube's schema and backend, then
    /// remap its dictionaries into this cube's id space, one id table
    /// per dimension.
    fn remap_from(&mut self, other: &DataCube<F>) -> Result<Vec<Vec<u32>>> {
        if self.dim_names != other.dim_names {
            return Err(Error::SchemaMismatch {
                expected: self.dim_names.clone(),
                got: other.dim_names.clone(),
            });
        }
        // Boxed cells (`DynCube`) can disagree on backend: merging, say,
        // t-digest cells into a moments cube would panic in `merge_from`
        // or leave cells that contradict the cube's own spec. Reject
        // cross-kind unions up front.
        let (expected, got) = (self.factory.kind(), other.factory.kind());
        if expected != got {
            return Err(Error::BackendMismatch {
                expected: expected.label(),
                got: got.label(),
            });
        }
        Ok(self
            .dims
            .iter_mut()
            .zip(&other.dims)
            .map(|(mine, theirs)| mine.merge_remap(theirs))
            .collect())
    }

    /// Iterate all `(key, summary)` cells.
    pub fn cells(&self) -> impl Iterator<Item = (&Vec<u32>, &F::Summary)> {
        self.cells.iter().map(|(k, s)| (k, &**s))
    }

    /// Iterate cells as `(key, shared summary)` pairs, so a caller can
    /// clone the `Arc`s to share structure instead of deep-copying
    /// summaries.
    pub fn cells_shared(&self) -> impl Iterator<Item = (&Vec<u32>, &Arc<F::Summary>)> {
        self.cells.iter()
    }

    /// Overwrite the row count — the delta-application path accounts
    /// rows out of band (per-shard absolute counts) rather than per
    /// insert.
    pub fn set_row_count(&mut self, rows: u64) {
        self.rows = rows;
    }

    /// Does a cell key match a filter (`None` = wildcard per dimension)?
    #[inline]
    pub fn matches(key: &[u32], filter: &[Option<u32>]) -> bool {
        key_matches(key, filter)
    }

    /// Matching cells in sorted dimension-*name* order.
    ///
    /// Float merges are not associative, so hash-map iteration order
    /// would make two cubes holding bit-identical cells answer queries
    /// with different low-order bits — and cell *ids* are no better an
    /// order, because dictionaries grown on different ingest paths
    /// (sequential vs sharded, different shard counts) assign ids in
    /// different orders. Every aggregation path therefore merges in the
    /// order of the cells' decoded value tuples, which depends only on
    /// the data: two cubes holding the same logical cells produce
    /// bit-identical aggregates no matter how they were built — the
    /// property the concurrent engine's snapshot-equivalence guarantee
    /// (and test suite) rests on.
    ///
    /// The order is not sorted per call. The first filtered read of a
    /// cube state filters every cell and sorts just the matches, so a
    /// cube read once (a range read's answer) sorts no more than it
    /// merges. The next ordered read, or an unfiltered first one, sorts
    /// every cell once (a cube clone — an engine snapshot — shares the
    /// result); later reads binary-search the run of a filter's fixed
    /// leading dimensions and filter it linearly. Writes keep the order
    /// as long as they only replace summaries; a write that adds or
    /// removes a cell, or a fold into `other`, drops it.
    ///
    /// Public so callers that walk cells themselves (the cascade
    /// benchmarks) see the exact merge order of [`Self::rollup`].
    pub fn matching_sorted(&self, filter: &[Option<u32>]) -> Vec<CellRef<'_, F::Summary>> {
        self.ordered(filter).map(|(k, s)| (k, &**s)).collect()
    }

    /// [`Self::matching_sorted`] as an iterator over shared summaries.
    pub(crate) fn ordered<'s, 'f>(
        &'s self,
        filter: &'f [Option<u32>],
    ) -> impl Iterator<Item = (&'s [u32], &'s Arc<F::Summary>)> + use<'s, 'f, F> {
        self.cells.ordered(&self.dims, filter)
    }

    /// All cells in deterministic (decoded value tuple) order — the
    /// order every aggregation path merges in. Use this instead of
    /// [`Self::cells`] when float reproducibility across differently
    /// built cubes matters.
    pub fn cells_sorted(&self) -> Vec<CellRef<'_, F::Summary>> {
        self.matching_sorted(&self.no_filter())
    }

    /// Merge every cell matching `filter` into one summary — the fold
    /// of [`crate::query::fold_cells`], with an empty selection as
    /// [`Error::EmptyResult`].
    pub fn rollup(&self, filter: &[Option<u32>]) -> Result<F::Summary> {
        debug_assert_eq!(filter.len(), self.dims.len());
        crate::query::fold_cells(self, filter)
            .map(|(merged, _)| merged)
            .ok_or(Error::EmptyResult)
    }

    /// Group matching cells by the given dimensions, merging within each
    /// group (the GROUP BY of Section 3.3's threshold queries).
    pub fn group_by(
        &self,
        group_dims: &[usize],
        filter: &[Option<u32>],
    ) -> Result<HashMap<Vec<u32>, F::Summary>> {
        crate::query::sorted_groups(self, group_dims, filter)
            .map(|(groups, _)| groups.into_iter().collect())
    }

    /// A wildcard filter for this cube's arity.
    pub fn no_filter(&self) -> Vec<Option<u32>> {
        vec![None; self.dims.len()]
    }

    /// Shrink the cube to at most `budget` cells by folding rare
    /// dimension values into `other_label` — the cell-count guardrail
    /// the timeline compactor applies before sealing a rolled-up
    /// segment (high-cardinality dimensions would otherwise make
    /// coarse segments grow toward the full cell product).
    ///
    /// One value folds per round: the (dimension, value) pair covering
    /// the fewest rows, ties broken by dimension position then value
    /// name, so the choice depends only on the cube's logical content —
    /// two cubes holding the same cells fold identically no matter how
    /// their dictionaries assigned ids. Folding rewrites every cell
    /// holding the victim value to hold `other_label` instead and
    /// merges colliding cells in decoded-tuple order (the same
    /// determinism convention as [`Self::rollup`]). Total row count,
    /// and therefore any whole-cube roll-up, is preserved; only
    /// filters and group-bys that would have named a folded value lose
    /// resolution, answering for `other_label` in aggregate instead.
    ///
    /// A `budget` of zero is treated as one (a non-empty cube cannot
    /// hold fewer than one cell). Returns the number of values folded.
    pub fn enforce_cell_budget(&mut self, budget: usize, other_label: &str) -> usize {
        let budget = budget.max(1);
        let mut folds = 0usize;
        while self.cells.len() > budget {
            match self.rarest_value(other_label) {
                Some((dim, victim)) => {
                    self.fold_value(dim, victim, other_label);
                    folds += 1;
                }
                // Every live value is already `other_label`: at most one
                // cell per dimension tuple remains, which fits any budget.
                None => break,
            }
        }
        folds
    }

    /// The (dimension, value id) pair covering the fewest rows, the
    /// next victim for [`Self::enforce_cell_budget`]. Values already
    /// named `other_label` are never candidates. Ties break by
    /// dimension position, then decoded value name, so the pick is
    /// independent of dictionary id assignment.
    fn rarest_value(&self, other_label: &str) -> Option<(usize, u32)> {
        let mut weights: Vec<FxHashMap<u32, u64>> =
            self.dims.iter().map(|_| FxHashMap::default()).collect();
        for (key, summary) in self.cells.iter() {
            let rows = summary.count();
            for (d, &id) in key.iter().enumerate() {
                *weights[d].entry(id).or_insert(0) += rows;
            }
        }
        let mut best: Option<(u64, usize, &str, u32)> = None;
        for (d, per_value) in weights.iter().enumerate() {
            for (&id, &rows) in per_value.iter() {
                let name = self.dims[d].decode(id).unwrap_or("");
                if name == other_label {
                    continue;
                }
                let candidate = (rows, d, name, id);
                let better = match &best {
                    None => true,
                    Some(b) => (candidate.0, candidate.1, candidate.2) < (b.0, b.1, b.2),
                };
                if better {
                    best = Some(candidate);
                }
            }
        }
        best.map(|(_, d, _, id)| (d, id))
    }

    /// Rewrite every cell whose `dim` component is `victim` to carry
    /// `other_label`'s id instead, merging collisions in decoded-tuple
    /// order of the pre-fold cells.
    fn fold_value(&mut self, dim: usize, victim: u32, other_label: &str) {
        let other = self.dims[dim].encode(other_label);
        if other == victim {
            return;
        }
        let all = self.no_filter();
        let folded: Vec<(Vec<u32>, Arc<F::Summary>)> = self
            .ordered(&all)
            .map(|(key, summary)| {
                let mut key = key.to_vec();
                if key[dim] == victim {
                    key[dim] = other;
                }
                (key, Arc::clone(summary))
            })
            .collect();
        self.cells = CellStore::new(self.dims.len());
        for (key, summary) in folded {
            match self.cells.get_mut(&key) {
                Some(cell) => Arc::make_mut(cell).merge_from(&summary),
                None => self.cells.put(key, summary),
            }
        }
    }

    /// Materialize a roll-up cube over a subset of dimensions (a
    /// pre-computed view, as engines like Druid/Kodiak maintain for hot
    /// dimension combinations). Queries against the projected cube merge
    /// far fewer cells.
    pub fn project(&self, keep_dims: &[usize]) -> Result<DataCube<F>>
    where
        F: Clone,
    {
        for &d in keep_dims {
            if d >= self.dims.len() {
                return Err(Error::NoSuchDimension(d));
            }
        }
        let mut out = DataCube {
            factory: self.factory.clone(),
            dims: keep_dims.iter().map(|&d| self.dims[d].clone()).collect(),
            dim_names: keep_dims
                .iter()
                .map(|&d| self.dim_names[d].clone())
                .collect(),
            cells: CellStore::new(keep_dims.len()),
            rows: self.rows,
        };
        let all = self.no_filter();
        let mut new_key: Vec<u32> = Vec::with_capacity(keep_dims.len());
        for (key, summary) in self.ordered(&all) {
            new_key.clear();
            new_key.extend(keep_dims.iter().map(|&d| key[d]));
            match out.cells.get_mut(&new_key) {
                Some(cell) => Arc::make_mut(cell).merge_from(summary),
                None => out.cells.put(new_key.clone(), Arc::clone(summary)),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msketch_sketches::SketchSpec;

    fn small_cube() -> DataCube<SketchSpec> {
        let factory = SketchSpec::moments(8);
        let mut cube = DataCube::new(factory, &["country", "version"]);
        for i in 0..4000 {
            let country = if i % 2 == 0 { "US" } else { "CA" };
            let version = match i % 3 {
                0 => "v1",
                1 => "v2",
                _ => "v3",
            };
            // Metric depends on version so groups differ.
            let metric = (i % 100) as f64 + if version == "v3" { 500.0 } else { 0.0 };
            cube.insert(&[country, version], metric).unwrap();
        }
        cube
    }

    #[test]
    fn cells_materialize_per_tuple() {
        let cube = small_cube();
        assert_eq!(cube.cell_count(), 6); // 2 countries x 3 versions
        assert_eq!(cube.row_count(), 4000);
    }

    #[test]
    fn rollup_all_matches_row_count() {
        let cube = small_cube();
        let all = cube.rollup(&cube.no_filter()).unwrap();
        assert_eq!(all.count(), 4000);
    }

    #[test]
    fn filtered_rollup() {
        let cube = small_cube();
        let v3 = cube.dictionary(1).unwrap().lookup("v3").unwrap();
        let s = cube.rollup(&[None, Some(v3)]).unwrap();
        // v3 rows are i % 3 == 2.
        assert_eq!(s.count(), 4000 / 3_u64);
        // v3 metrics are shifted by +500.
        assert!(s.quantile(0.5) > 400.0);
    }

    #[test]
    fn group_by_splits_versions() {
        let cube = small_cube();
        let groups = cube.group_by(&[1], &cube.no_filter()).unwrap();
        assert_eq!(groups.len(), 3);
        for (key, summary) in &groups {
            let name = cube.dictionary(1).unwrap().decode(key[0]).unwrap();
            let median = summary.quantile(0.5);
            if name == "v3" {
                assert!(median > 400.0, "{name} median {median}");
            } else {
                assert!(median < 200.0, "{name} median {median}");
            }
        }
    }

    #[test]
    fn projected_cube_answers_like_group_by() {
        let cube = small_cube();
        let view = cube.project(&[1]).unwrap();
        assert_eq!(view.dim_count(), 1);
        assert_eq!(view.cell_count(), 3);
        assert_eq!(view.row_count(), cube.row_count());
        // Projected roll-up equals the group-by answer on the base cube.
        let groups = cube.group_by(&[1], &cube.no_filter()).unwrap();
        for (key, summary) in groups {
            let mut filter = view.no_filter();
            filter[0] = Some(key[0]);
            let rolled = view.rollup(&filter).unwrap();
            assert_eq!(rolled.count(), summary.count());
            let (a, b) = (rolled.quantile(0.9), summary.quantile(0.9));
            assert!((a - b).abs() < 1e-9 * a.abs().max(1.0));
        }
        assert!(matches!(cube.project(&[9]), Err(Error::NoSuchDimension(9))));
    }

    #[test]
    fn insert_batch_matches_row_at_a_time_bit_exactly() {
        let factory = SketchSpec::moments(8);
        let mut rows = DataCube::new(factory.clone(), &["country", "version"]);
        let mut batched = DataCube::new(factory, &["country", "version"]);
        let mut batch = ColumnarBatch::new(2);
        for i in 0..5000 {
            let country = ["US", "CA", "MX"][i % 3];
            let version = ["v1", "v2"][i % 2];
            let metric = (i % 997) as f64 * 1.5;
            rows.insert(&[country, version], metric).unwrap();
            batch.push_row(&[country, version], metric);
            if batch.len() == 640 {
                batched.insert_batch(&batch).unwrap();
                batch = ColumnarBatch::new(2);
            }
        }
        batched.insert_batch(&batch).unwrap();
        assert_eq!(batched.row_count(), rows.row_count());
        assert_eq!(batched.cell_count(), rows.cell_count());
        let a = rows.rollup(&rows.no_filter()).unwrap();
        let b = batched.rollup(&batched.no_filter()).unwrap();
        for phi in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(phi).to_bits(), b.quantile(phi).to_bits());
        }
    }

    #[test]
    fn insert_columns_convenience() {
        let factory = SketchSpec::moments(8);
        let mut cube = DataCube::new(factory, &["host"]);
        let columns =
            |columns: &[&[&str]], metrics: &[f64]| ColumnarBatch::from_columns(columns, metrics);
        let batch = columns(&[&["a", "b", "a"]], &[1.0, 2.0, 3.0]).unwrap();
        cube.insert_batch(&batch).unwrap();
        assert_eq!(cube.row_count(), 3);
        assert_eq!(cube.cell_count(), 2);
        // Ragged input never becomes a batch.
        assert!(columns(&[&["a"]], &[1.0, 2.0]).is_none());
        // Wrong arity is rejected.
        assert!(matches!(
            cube.insert_batch(&columns(&[&["a"], &["b"]], &[1.0]).unwrap()),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn merge_cube_remaps_independent_dictionaries() {
        let factory = SketchSpec::moments(8);
        // Two cubes over the same schema, values interned in different
        // orders — ids disagree between the dictionaries.
        let mut a = DataCube::new(factory.clone(), &["country", "version"]);
        let mut b = DataCube::new(factory.clone(), &["country", "version"]);
        let mut reference = DataCube::new(factory, &["country", "version"]);
        for i in 0..3000 {
            let country = ["US", "CA", "MX"][i % 3];
            let version = ["v1", "v2"][i % 2];
            let metric = (i % 100) as f64;
            if i % 2 == 0 {
                a.insert(&[country, version], metric).unwrap();
            } else {
                b.insert(&[country, version], metric).unwrap();
            }
            reference.insert(&[country, version], metric).unwrap();
        }
        assert_ne!(
            a.dictionary(1).unwrap().lookup("v1"),
            b.dictionary(1).unwrap().lookup("v1"),
            "test needs genuinely divergent dictionaries"
        );
        a.merge_cube(&b).unwrap();
        assert_eq!(a.row_count(), 3000);
        assert_eq!(a.cell_count(), reference.cell_count());
        // Every (country, version) group answers identically by *name*.
        let groups = a.group_by(&[0, 1], &a.no_filter()).unwrap();
        for (key, summary) in &groups {
            let country = a.dictionary(0).unwrap().decode(key[0]).unwrap();
            let version = a.dictionary(1).unwrap().decode(key[1]).unwrap();
            let rkey = vec![
                reference.dictionary(0).unwrap().lookup(country).unwrap(),
                reference.dictionary(1).unwrap().lookup(version).unwrap(),
            ];
            let rgroups = reference.group_by(&[0, 1], &reference.no_filter()).unwrap();
            let rsum = &rgroups[&rkey];
            assert_eq!(summary.count(), rsum.count());
            assert_eq!(
                summary.quantile(0.9).to_bits(),
                rsum.quantile(0.9).to_bits(),
                "{country}/{version}"
            );
        }
    }

    #[test]
    fn merge_cube_rejects_mismatched_schemas() {
        let factory = SketchSpec::moments(8);
        let mut a = DataCube::new(factory.clone(), &["country", "version"]);
        let b = DataCube::new(factory.clone(), &["country", "hw"]);
        assert!(matches!(
            a.merge_cube(&b),
            Err(Error::SchemaMismatch { .. })
        ));
        // Same names, different order: also a schema mismatch.
        let c = DataCube::new(factory, &["version", "country"]);
        assert!(matches!(
            a.merge_cube(&c),
            Err(Error::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn merge_cube_rejects_mismatched_backends() {
        // Boxed cells can disagree on backend at runtime; unioning them
        // must fail cleanly instead of panicking in merge_from (same key)
        // or planting foreign cells under the wrong spec (disjoint keys).
        let mut a = crate::DynCube::from_spec(SketchSpec::moments(8), &["app"]);
        let mut b = crate::DynCube::from_spec(SketchSpec::tdigest(5.0), &["app"]);
        a.insert(&["x"], 1.0).unwrap();
        b.insert(&["x"], 2.0).unwrap();
        match a.merge_cube(&b) {
            Err(Error::BackendMismatch { expected, got }) => {
                assert_ne!(expected, got);
            }
            other => panic!("expected BackendMismatch, got {other:?}"),
        }
        assert_eq!(a.row_count(), 1, "failed merge must not mutate the cube");
    }

    #[test]
    fn replace_cells_overwrites_by_name_and_takes_the_row_count() {
        let mut base = crate::DynCube::from_spec(SketchSpec::moments(8), &["app"]);
        for (app, x) in [("a", 1.0), ("b", 2.0), ("b", 3.0)] {
            base.insert(&[app], x).unwrap();
        }
        // The record interned "c" before "b", so its ids differ.
        let mut record = crate::DynCube::from_spec(SketchSpec::moments(8), &["app"]);
        for (app, x) in [("c", 9.0), ("b", 4.0)] {
            record.insert(&[app], x).unwrap();
        }
        record.set_row_count(5);
        base.replace_cells(&record).unwrap();
        assert_eq!((base.row_count(), base.cell_count()), (5, 3));
        let count = |cube: &crate::DynCube, app: &str| {
            let id = cube.dictionary(0).unwrap().lookup(app).unwrap();
            cube.cells().find(|(k, _)| k[0] == id).unwrap().1.count()
        };
        assert_eq!(count(&base, "a"), 1);
        assert_eq!(count(&base, "b"), 1, "replaced, not merged");
        assert_eq!(count(&base, "c"), 1);
        let tdigest = crate::DynCube::from_spec(SketchSpec::tdigest(5.0), &["app"]);
        assert!(matches!(
            base.replace_cells(&tdigest),
            Err(Error::BackendMismatch { .. })
        ));
    }

    #[test]
    fn cell_budget_folds_rare_values_into_other() {
        let mut cube = crate::DynCube::from_spec(SketchSpec::moments(6), &["app", "host"]);
        // "checkout" dominates; hosts h0..h9 are rare singletons.
        for i in 0..1000 {
            cube.insert(&["checkout", "h-hot"], i as f64).unwrap();
        }
        for i in 0..10 {
            let host = format!("h{i}");
            cube.insert(&["search", host.as_str()], i as f64).unwrap();
        }
        assert_eq!(cube.cell_count(), 11);
        let before = cube.rollup(&cube.no_filter()).unwrap();
        let folds = cube.enforce_cell_budget(2, "<other>");
        assert!(folds > 0);
        assert!(cube.cell_count() <= 2, "cells {}", cube.cell_count());
        // Whole-cube aggregates survive the fold bit-exactly: folding
        // only regroups cells, and the full roll-up merges them all in
        // decoded order either way... but grouping changes the merge
        // tree, so only the integer count is guaranteed exact.
        let after = cube.rollup(&cube.no_filter()).unwrap();
        assert_eq!(before.count(), after.count());
        assert_eq!(cube.row_count(), 1010);
        // The dominant cell survives untouched; rare hosts answer as
        // `<other>` in aggregate.
        let hot = cube.dictionary(1).unwrap().lookup("h-hot").unwrap();
        assert_eq!(cube.rollup(&[None, Some(hot)]).unwrap().count(), 1000);
        let other = cube.dictionary(1).unwrap().lookup("<other>").unwrap();
        assert_eq!(cube.rollup(&[None, Some(other)]).unwrap().count(), 10);
    }

    #[test]
    fn cell_budget_is_deterministic_across_build_orders() {
        // Same logical rows, interned in different orders → different
        // dictionary ids. The fold must pick the same victims by name.
        let rows: Vec<(String, String, f64)> = (0..500)
            .map(|i| {
                (
                    format!("app{}", i % 7),
                    format!("host{}", i % 13),
                    (i % 97) as f64,
                )
            })
            .collect();
        let mut fwd = crate::DynCube::from_spec(SketchSpec::moments(6), &["app", "host"]);
        let mut rev = crate::DynCube::from_spec(SketchSpec::moments(6), &["app", "host"]);
        // Pre-intern values in opposite orders so dictionary ids
        // disagree, then insert rows identically (per-cell accumulate
        // order must match for bit comparison — only id assignment may
        // differ).
        let values: Vec<(String, String)> = rows
            .iter()
            .map(|(a, h, _)| (a.clone(), h.clone()))
            .collect();
        for (a, h) in &values {
            fwd.dims[0].encode(a);
            fwd.dims[1].encode(h);
        }
        for (a, h) in values.iter().rev() {
            rev.dims[0].encode(a);
            rev.dims[1].encode(h);
        }
        for (a, h, m) in &rows {
            fwd.insert(&[a, h], *m).unwrap();
            rev.insert(&[a, h], *m).unwrap();
        }
        fwd.enforce_cell_budget(20, "<other>");
        rev.enforce_cell_budget(20, "<other>");
        assert_eq!(fwd.cell_count(), rev.cell_count());
        // Every surviving cell matches by decoded name and answers with
        // identical bits.
        let fcells = fwd.cells_sorted();
        let rcells = rev.cells_sorted();
        for ((fk, fs), (rk, rs)) in fcells.iter().zip(&rcells) {
            let fname: Vec<&str> = fk
                .iter()
                .zip(0..)
                .map(|(&id, d)| fwd.dictionary(d).unwrap().decode(id).unwrap())
                .collect();
            let rname: Vec<&str> = rk
                .iter()
                .zip(0..)
                .map(|(&id, d)| rev.dictionary(d).unwrap().decode(id).unwrap())
                .collect();
            assert_eq!(fname, rname);
            assert_eq!(fs.count(), rs.count());
            assert_eq!(fs.quantile(0.9).to_bits(), rs.quantile(0.9).to_bits());
        }
    }

    #[test]
    fn cell_budget_zero_and_generous_budgets() {
        let mut cube = crate::DynCube::from_spec(SketchSpec::moments(6), &["app"]);
        for app in ["a", "b", "c"] {
            cube.insert(&[app], 1.0).unwrap();
        }
        // Generous budget: nothing to do.
        assert_eq!(cube.enforce_cell_budget(10, "<other>"), 0);
        assert_eq!(cube.cell_count(), 3);
        // Budget zero clamps to one cell; all rows fold into `<other>`.
        cube.enforce_cell_budget(0, "<other>");
        assert_eq!(cube.cell_count(), 1);
        assert_eq!(cube.row_count(), 3);
        let all = cube.rollup(&cube.no_filter()).unwrap();
        assert_eq!(all.count(), 3);
    }

    /// The built order's allocation, if a read has built one.
    fn order_of<F: SummaryFactory>(cube: &DataCube<F>) -> Option<*const Order> {
        cube.cells.order.get().map(Arc::as_ptr)
    }

    /// The decoded keys of `cells_sorted`, and of every cell decoded
    /// and sorted from scratch: equal when the store's order is right.
    fn read_and_reference<F: SummaryFactory>(cube: &DataCube<F>) -> [Vec<Vec<&str>>; 2] {
        let decode = |key: &[u32]| -> Vec<&str> {
            key.iter()
                .zip(&cube.dims)
                .map(|(&id, dict)| dict.decode(id).unwrap())
                .collect()
        };
        let read = cube
            .cells_sorted()
            .iter()
            .map(|(key, _)| decode(key))
            .collect();
        let mut reference: Vec<Vec<&str>> = cube.cells().map(|(key, _)| decode(key)).collect();
        reference.sort_unstable();
        [read, reference]
    }

    #[test]
    fn summary_only_delta_keeps_the_order_allocation() {
        let mut shard = small_cube();
        let mut cube = DataCube::new(SketchSpec::moments(8), &["country", "version"]);
        cube.apply_delta(&shard.full_delta(), &FxHashMap::default())
            .unwrap();
        let before = cube.cells_sorted().len();
        let order = order_of(&cube).expect("a read builds the order");
        // New rows for existing cells only: every summary is replaced.
        for i in 0..50 {
            shard
                .insert(&[["US", "CA"][i % 2], ["v1", "v2", "v3"][i % 3]], i as f64)
                .unwrap();
        }
        cube.apply_delta(&shard.full_delta(), &FxHashMap::default())
            .unwrap();
        assert_eq!(order_of(&cube), Some(order));
        assert_eq!(cube.cells_sorted().len(), before);
        assert_eq!(order_of(&cube), Some(order));
        // The read sees the replaced summaries through the kept order.
        assert_eq!(cube.rollup(&cube.no_filter()).unwrap().count(), 4050);
    }

    #[test]
    fn order_after_a_delta_that_adds_cells_equals_a_fresh_build() {
        let mut shard = small_cube();
        let mut cube = DataCube::new(SketchSpec::moments(8), &["country", "version"]);
        cube.apply_delta(&shard.full_delta(), &FxHashMap::default())
            .unwrap();
        cube.cells_sorted();
        assert!(order_of(&cube).is_some(), "a read builds the order");
        // Values that sort before, between and after the existing ones.
        for (country, version) in [("AA", "v0"), ("DE", "v2"), ("ZZ", "v9"), ("US", "v4")] {
            shard.insert(&[country, version], 1.0).unwrap();
        }
        cube.apply_delta(&shard.full_delta(), &FxHashMap::default())
            .unwrap();
        assert_eq!(order_of(&cube), None, "adding cells drops the order");
        let [read, reference] = read_and_reference(&cube);
        assert_eq!(read.len(), 10);
        assert_eq!(read, reference);
    }

    #[test]
    fn a_first_filtered_read_scans_and_the_next_read_builds_the_order() {
        let mut cube = small_cube();
        let us = cube.dictionary(0).unwrap().lookup("US").unwrap();
        let filter = [Some(us), None];
        let scanned: Vec<Vec<u32>> = cube
            .matching_sorted(&filter)
            .iter()
            .map(|c| c.0.to_vec())
            .collect();
        assert_eq!(scanned.len(), 3);
        assert_eq!(order_of(&cube), None, "one filtered read sorts no order");
        let ordered: Vec<Vec<u32>> = cube
            .matching_sorted(&filter)
            .iter()
            .map(|c| c.0.to_vec())
            .collect();
        assert!(order_of(&cube).is_some(), "the second read builds it");
        assert_eq!(scanned, ordered);
        // A new cell starts a new state; an unfiltered read builds at once.
        cube.insert(&["MX", "v1"], 1.0).unwrap();
        assert_eq!(order_of(&cube), None);
        let [read, reference] = read_and_reference(&cube);
        assert!(order_of(&cube).is_some());
        assert_eq!(read, reference);
    }

    #[test]
    fn prefix_filters_read_the_same_cells_as_a_scan() {
        let cube = small_cube();
        let card = |d: usize| cube.dictionary(d).unwrap().cardinality() as u32;
        // Every fixed prefix, plus ids no dictionary holds.
        let mut filters = vec![cube.no_filter(), vec![Some(u32::MAX), None]];
        for c in 0..=card(0) {
            filters.push(vec![Some(c), None]);
            for v in 0..=card(1) {
                filters.push(vec![Some(c), Some(v)]);
                filters.push(vec![None, Some(v)]);
            }
        }
        let all = cube.cells_sorted();
        for filter in filters {
            let got: Vec<&[u32]> = cube.matching_sorted(&filter).iter().map(|c| c.0).collect();
            let want: Vec<&[u32]> = all
                .iter()
                .map(|c| c.0)
                .filter(|key| key_matches(key, &filter))
                .collect();
            assert_eq!(got, want, "filter {filter:?}");
        }
    }

    #[test]
    fn removal_and_folds_rebuild_the_order() {
        let mut live = small_cube();
        let mut checkpoint = live.clone();
        // A touched key the live cube lacks is removed from the checkpoint.
        let gone = checkpoint.cells_sorted()[0].0.to_vec();
        let mut touched = FxHashSet::default();
        touched.insert(gone.clone());
        live.cells.remove(&gone);
        checkpoint.sync_checkpoint(&live, &touched);
        assert_eq!(order_of(&checkpoint), None);
        assert!(checkpoint.cells.get(&gone).is_none());
        let [read, reference] = read_and_reference(&checkpoint);
        assert_eq!(read.len(), 5);
        assert_eq!(read, reference);
        checkpoint.enforce_cell_budget(2, "<other>");
        assert_eq!(order_of(&checkpoint), None);
        let [read, reference] = read_and_reference(&checkpoint);
        assert_eq!(read.len(), checkpoint.cell_count());
        assert_eq!(read, reference);
    }

    #[test]
    fn errors_are_reported() {
        let mut cube = small_cube();
        assert!(matches!(
            cube.insert(&["US"], 1.0),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(matches!(
            cube.group_by(&[7], &cube.no_filter()),
            Err(Error::NoSuchDimension(7))
        ));
        let unknown = cube.rollup(&[Some(999), None]);
        assert!(matches!(unknown, Err(Error::EmptyResult)));
    }
}
