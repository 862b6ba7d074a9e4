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

use crate::snapshot::EngineSnapshot;
use crate::Result;
use msketch_cube::hash::FxHashMap;
use msketch_cube::{AppliedDelta, CubeDelta, DataCube};
use msketch_sketches::traits::SummaryFactory;
use std::sync::Arc;

/// Double-buffered merged cube plus the retained-pane base layer.
pub(crate) struct MergedState<F: SummaryFactory> {
    /// The two merged cubes. `buffers[publish]` is what readers see;
    /// the other trails by exactly `lag`.
    buffers: [Arc<DataCube<F>>; 2],
    publish: usize,
    /// What the non-published buffer is missing: the resolved result of
    /// the last refresh, replayed (cheap inserts, no merges) before the
    /// buffer takes new deltas.
    lag: Option<AppliedDelta<F::Summary>>,
    /// Cells rotated out of the live shards by past checkpoints, keyed
    /// in the merged cubes' (shared) id space. The part of the merged
    /// cube no live shard re-ships in its deltas.
    base_cells: FxHashMap<Vec<u32>, Arc<F::Summary>>,
    base_rows: u64,
    /// Per-shard absolute live row counts, refreshed from each delta.
    pane_rows: Vec<u64>,
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
    /// as shallow clones of the recovered cube.
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
            pane_rows: vec![0; shards],
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
        for (delta, pane_rows) in deltas.iter().zip(self.pane_rows.iter_mut()) {
            cells_applied += delta.cells.len() as u64;
            let applied = cube.apply_delta(delta, &self.base_cells)?;
            *pane_rows = delta.pane_rows;
            new_lag.absorb(applied);
        }
        let rows = self.base_rows + self.pane_rows.iter().sum::<u64>();
        cube.set_row_count(rows);
        new_lag.rows = rows;
        self.lag = Some(new_lag);
        self.publish = back;
        Ok((self.published(epoch), cells_applied))
    }

    /// Fold a rotated pane into the base layer (the checkpoint path).
    ///
    /// The pane carries each retiring cell's *complete* live summary,
    /// so applying its full delta over the old base replaces any value
    /// a past refresh left in the buffer with the exact `base ⊕ pane`
    /// merge a refold would compute.
    pub(crate) fn rotate_into_base(
        &mut self,
        pane: &DataCube<F>,
        epoch: u64,
    ) -> Result<EngineSnapshot<F>> {
        let back = 1 - self.publish;
        let cube = Arc::make_mut(&mut self.buffers[back]);
        if let Some(lag) = self.lag.take() {
            cube.replay_applied(&lag);
        }
        let mut applied = cube.apply_delta(&pane.full_delta(), &self.base_cells)?;
        for (key, summary) in &applied.cells {
            self.base_cells.insert(key.clone(), Arc::clone(summary));
        }
        self.base_rows += pane.row_count();
        for rows in &mut self.pane_rows {
            *rows = 0;
        }
        cube.set_row_count(self.base_rows);
        applied.rows = self.base_rows;
        self.lag = Some(applied);
        self.publish = back;
        Ok(self.published(epoch))
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
