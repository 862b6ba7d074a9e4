//! The engine's persistent merged cube, refreshed by shard deltas.
//!
//! Before delta snapshots, every `snapshot()` cloned `base` and folded a
//! full clone of each shard's live cube into it — O(total cells) per
//! refresh regardless of how little changed. [`MergedState`] replaces
//! that: it holds *one* merged cube behind an `Arc` and, each refresh,
//! applies only the cells each shard touched since its last delta, then
//! publishes the same `Arc`. Readers keep the previously published
//! snapshot for as long as they need it; the engine never blocks on
//! them. A refresh that finds a reader still holding the last snapshot
//! copies the cube first (`Arc::make_mut`): its key index, dictionaries
//! and one pointer per cell, never a sketch. So a refresh costs one
//! pointer copy per *resident* cell while the previous snapshot is
//! served, plus one apply per *touched* cell.
//!
//! Correctness hangs on shard ownership: `route_hash(dims) % shards`
//! assigns every cell to exactly one shard, so a delta's cell value (the
//! shard's complete live summary for that cell) merged over `base_cells`
//! *replaces* the published value with exactly what a full refold would
//! compute: one `base ⊕ shard` merge, so re-applying a delta is
//! idempotent. The merged cube's dictionaries only grow, so
//! `base_cells` keys stay valid in its id space.
//!
//! The same refresh feeds the durable log: every key a refresh applies
//! joins the `unlogged` set, and a checkpoint turns that set into one
//! record of the cells' current values.

use crate::snapshot::EngineSnapshot;
use crate::Result;
use msketch_cube::hash::{FxHashMap, FxHashSet};
use msketch_cube::{CubeDelta, DataCube};
use msketch_sketches::traits::SummaryFactory;
use std::sync::{Arc, Mutex, PoisonError};

/// Merged-space keys refreshed since the last staged log record,
/// shared with the staged records that have not landed yet: a record
/// whose append fails (or that is dropped uncommitted) hands its keys
/// back here, so the next record logs them again.
pub(crate) type Unlogged = Arc<Mutex<FxHashSet<Vec<u32>>>>;

/// The merged cube plus the recovered base layer.
pub(crate) struct MergedState<F: SummaryFactory> {
    /// The merged cube readers see, shared with every snapshot handed
    /// out since the last refresh.
    cube: Arc<DataCube<F>>,
    /// Cells replayed from the log at recovery, keyed in the merged
    /// cube's id space: the part of the merged cube no live shard
    /// re-ships in its deltas. Empty unless the engine recovered.
    base_cells: FxHashMap<Vec<u32>, Arc<F::Summary>>,
    base_rows: u64,
    /// Per-shard absolute live row counts, refreshed from each delta.
    shard_rows: Vec<u64>,
    /// Every key a refresh applied since the last staged log record.
    unlogged: Unlogged,
}

impl<F> MergedState<F>
where
    F: SummaryFactory + Clone,
{
    pub(crate) fn new(factory: F, dim_names: &[&str], shards: usize) -> Self {
        MergedState::from_base(DataCube::new(factory, dim_names), shards)
    }

    /// Seed the merged state from a recovered base cube (WAL replay):
    /// every recovered cell becomes a base cell, and the recovered cube
    /// is the first merged cube. The log already holds every recovered
    /// cell, so nothing starts unlogged.
    pub(crate) fn from_base(base: DataCube<F>, shards: usize) -> Self {
        let base_cells = base
            .cells_shared()
            .map(|(k, s)| (k.clone(), Arc::clone(s)))
            .collect();
        MergedState {
            base_rows: base.row_count(),
            cube: Arc::new(base),
            base_cells,
            shard_rows: vec![0; shards],
            unlogged: Unlogged::default(),
        }
    }

    /// The currently published snapshot, restamped with `epoch`.
    pub(crate) fn published(&self, epoch: u64) -> EngineSnapshot<F> {
        EngineSnapshot::new_shared(epoch, Arc::clone(&self.cube))
    }

    /// Apply one delta per shard to the merged cube (copying it first
    /// if a reader still holds the last snapshot) and publish it.
    /// Returns the new snapshot and the number of delta cells applied.
    pub(crate) fn refresh(
        &mut self,
        deltas: &[CubeDelta<F::Summary>],
        epoch: u64,
    ) -> Result<(EngineSnapshot<F>, u64)> {
        let cube = Arc::make_mut(&mut self.cube);
        let mut cells_applied = 0u64;
        for (delta, shard_rows) in deltas.iter().zip(self.shard_rows.iter_mut()) {
            cells_applied += delta.cells.len() as u64;
            let applied = cube.apply_delta(delta, &self.base_cells)?;
            *shard_rows = delta.pane_rows;
            self.unlogged
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend(applied.cells.into_iter().map(|(key, _)| key));
        }
        cube.set_row_count(self.base_rows + self.shard_rows.iter().sum::<u64>());
        Ok((self.published(epoch), cells_applied))
    }

    /// Take the keys refreshed since the last call, plus the shared set
    /// a record that fails to land returns them to.
    pub(crate) fn take_unlogged(&self) -> (FxHashSet<Vec<u32>>, Unlogged) {
        let keys =
            std::mem::take(&mut *self.unlogged.lock().unwrap_or_else(PoisonError::into_inner));
        (keys, Arc::clone(&self.unlogged))
    }

    /// A fresh cube holding only the base layer, sharing the merged
    /// cube's dictionaries (and therefore its id space).
    pub(crate) fn base_only_cube(&self) -> DataCube<F> {
        let mut cube = self.cube.schema_clone();
        for (key, summary) in &self.base_cells {
            cube.insert_cell_shared(key.clone(), Arc::clone(summary));
        }
        cube.set_row_count(self.base_rows);
        cube
    }
}
