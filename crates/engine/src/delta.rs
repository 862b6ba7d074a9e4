//! The engine's persistent merged cube, refreshed by shard deltas.
//!
//! Before delta snapshots, every `snapshot()` cloned `base` and folded a
//! full clone of each shard's live cube into it — O(total cells) per
//! refresh regardless of how little changed. [`MergedState`] replaces
//! that: it keeps *two* merged cubes (double buffer) and, each refresh,
//! brings the non-published buffer up to date by applying only the
//! cells each shard touched since its last delta, then publishes it.
//! Readers keep the previously published `Arc` for as long as they
//! need it; the engine never blocks on them.
//!
//! Correctness hangs on two invariants:
//!
//! * **Shard ownership** — `route_hash(dims) % shards` assigns every
//!   cell to exactly one shard, so a delta's cell value (the shard's
//!   complete live summary for that cell) merged over `base_cells`
//!   *replaces* the published value with exactly what a full refold
//!   would compute: one `base ⊕ shard` merge. Replays are idempotent.
//! * **Identical dictionaries** — both buffers apply every refresh
//!   exactly once in the same order (the trailing buffer catches up by
//!   replaying the resolved [`AppliedDelta`] before taking new work),
//!   so their dictionaries assign identical ids forever and
//!   `base_cells` keys are valid in either buffer's id space.
//!
//! The same refresh feeds the durable log: every key a refresh applies
//! joins the `unlogged` set, and a checkpoint turns that set into one
//! record of the cells' current values.

use crate::snapshot::EngineSnapshot;
use crate::Result;
use msketch_cube::hash::{FxHashMap, FxHashSet};
use msketch_cube::{AppliedDelta, CubeDelta, DataCube};
use msketch_sketches::traits::SummaryFactory;
use std::sync::{Arc, Mutex, PoisonError};

/// Merged-space keys refreshed since the last staged log record,
/// shared with the staged records that have not landed yet: a record
/// whose append fails (or that is dropped uncommitted) hands its keys
/// back here, so the next record logs them again.
pub(crate) type Unlogged = Arc<Mutex<FxHashSet<Vec<u32>>>>;

/// Double-buffered merged cube plus the recovered base layer.
pub(crate) struct MergedState<F: SummaryFactory> {
    /// The two merged cubes. `buffers[publish]` is what readers see;
    /// the other trails by exactly `lag`.
    buffers: [Arc<DataCube<F>>; 2],
    publish: usize,
    /// What the non-published buffer is missing: the resolved result of
    /// the last refresh, replayed (cheap inserts, no merges) before the
    /// buffer takes new deltas.
    lag: Option<AppliedDelta<F::Summary>>,
    /// Cells replayed from the log at recovery, keyed in the merged
    /// cubes' (shared) id space: the part of the merged cube no live
    /// shard re-ships in its deltas. Empty unless the engine recovered.
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
        MergedState::from_base(&DataCube::new(factory, dim_names), shards)
    }

    /// Seed the merged state from a recovered base cube (WAL replay):
    /// every recovered cell becomes a base cell, and both buffers start
    /// as shallow clones of the recovered cube. The log already holds
    /// every recovered cell, so nothing starts unlogged.
    pub(crate) fn from_base(base: &DataCube<F>, shards: usize) -> Self {
        let base_cells = base
            .cells_shared()
            .map(|(k, s)| (k.clone(), Arc::clone(s)))
            .collect();
        MergedState {
            buffers: [Arc::new(base.clone()), Arc::new(base.clone())],
            publish: 0,
            lag: None,
            base_cells,
            base_rows: base.row_count(),
            shard_rows: vec![0; shards],
            unlogged: Unlogged::default(),
        }
    }

    /// The currently published snapshot, restamped with `epoch`.
    pub(crate) fn published(&self, epoch: u64) -> EngineSnapshot<F> {
        EngineSnapshot::new_shared(epoch, Arc::clone(&self.buffers[self.publish]))
    }

    /// Apply one delta per shard to the trailing buffer and publish it.
    /// Returns the new snapshot and the number of delta cells applied.
    pub(crate) fn refresh(
        &mut self,
        deltas: &[CubeDelta<F::Summary>],
        epoch: u64,
    ) -> Result<(EngineSnapshot<F>, u64)> {
        let back = 1 - self.publish;
        let cube = Arc::make_mut(&mut self.buffers[back]);
        if let Some(lag) = self.lag.take() {
            cube.replay_applied(&lag);
        }
        let mut new_lag = AppliedDelta::empty(cube.dim_count());
        let mut cells_applied = 0u64;
        for (delta, shard_rows) in deltas.iter().zip(self.shard_rows.iter_mut()) {
            cells_applied += delta.cells.len() as u64;
            let applied = cube.apply_delta(delta, &self.base_cells)?;
            *shard_rows = delta.pane_rows;
            new_lag.absorb(applied);
        }
        let rows = self.base_rows + self.shard_rows.iter().sum::<u64>();
        cube.set_row_count(rows);
        new_lag.rows = rows;
        self.unlogged
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(new_lag.cells.iter().map(|(key, _)| key.clone()));
        self.lag = Some(new_lag);
        self.publish = back;
        Ok((self.published(epoch), cells_applied))
    }

    /// Take the keys refreshed since the last call, plus the shared set
    /// a record that fails to land returns them to.
    pub(crate) fn take_unlogged(&self) -> (FxHashSet<Vec<u32>>, Unlogged) {
        let keys =
            std::mem::take(&mut *self.unlogged.lock().unwrap_or_else(PoisonError::into_inner));
        (keys, Arc::clone(&self.unlogged))
    }

    /// A fresh cube holding only the base layer, sharing the published
    /// buffer's dictionaries (and therefore its id space).
    pub(crate) fn base_only_cube(&self) -> DataCube<F> {
        let mut cube = self.buffers[self.publish].schema_clone();
        for (key, summary) in &self.base_cells {
            cube.insert_cell_shared(key.clone(), Arc::clone(summary));
        }
        cube.set_row_count(self.base_rows);
        cube
    }
}
