//! The engine's persistent merged cube, refreshed by shard deltas.
//!
//! Before delta snapshots, every `snapshot()` folded a full clone of
//! each shard's live cube into an empty one — O(total cells) per
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
//! assigns every cell to exactly one shard — a cell recovered from the
//! WAL included, which recovery hands back to the shard that owns it —
//! so a delta's cell value (the shard's complete live summary for that
//! cell) *replaces* the published value with exactly what a full refold
//! would compute, and re-applying a delta is idempotent.
//!
//! The same refresh feeds the durable log: every key a refresh applies
//! joins the `unlogged` set, and a checkpoint turns that set into one
//! record of the cells' current values.

use crate::snapshot::EngineSnapshot;
use crate::Result;
use msketch_cube::hash::{FxHashMap, FxHashSet};
use msketch_cube::{CubeDelta, DataCube};
use msketch_sketches::traits::SummaryFactory;
use std::sync::Arc;

/// The merged cube readers see, plus what the log still lacks.
pub(crate) struct MergedState<F: SummaryFactory> {
    /// The merged cube readers see, shared with every snapshot handed
    /// out since the last refresh.
    cube: Arc<DataCube<F>>,
    /// Per-shard absolute live row counts, refreshed from each delta.
    shard_rows: Vec<u64>,
    /// Every key a refresh applied since the last log record.
    unlogged: FxHashSet<Vec<u32>>,
}

impl<F> MergedState<F>
where
    F: SummaryFactory + Clone,
{
    /// Start from `cube`, which holds every cell the shards start with
    /// (none, or the cells recovery handed them), and each shard's
    /// starting row count. Those cells are already in the log, so
    /// nothing starts unlogged.
    pub(crate) fn new(mut cube: DataCube<F>, shard_rows: Vec<u64>) -> Self {
        cube.set_row_count(shard_rows.iter().sum());
        MergedState {
            cube: Arc::new(cube),
            shard_rows,
            unlogged: FxHashSet::default(),
        }
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
            let applied = cube.apply_delta(delta, &FxHashMap::default())?;
            *shard_rows = delta.pane_rows;
            self.unlogged
                .extend(applied.cells.into_iter().map(|(key, _)| key));
        }
        cube.set_row_count(self.shard_rows.iter().sum());
        let snapshot = EngineSnapshot::new_shared(epoch, Arc::clone(&self.cube));
        Ok((snapshot, cells_applied))
    }

    /// Take the keys refreshed since the last call.
    pub(crate) fn take_unlogged(&mut self) -> FxHashSet<Vec<u32>> {
        std::mem::take(&mut self.unlogged)
    }

    /// Hand back keys whose record did not land, so the next record
    /// logs them again.
    pub(crate) fn return_unlogged(&mut self, keys: FxHashSet<Vec<u32>>) {
        self.unlogged.extend(keys);
    }
}
