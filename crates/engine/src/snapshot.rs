//! Epoch-stamped immutable snapshots served to readers.

use msketch_cube::DataCube;
use msketch_sketches::traits::SummaryFactory;
use std::sync::Arc;

/// An immutable merged cube produced by
/// [`ShardedCube::snapshot`](crate::ShardedCube::snapshot) (or
/// [`checkpoint`](crate::DynShardedCube::checkpoint)), stamped with the
/// epoch at which it was taken.
///
/// Snapshots deref to [`DataCube`], so every read-side API — roll-ups,
/// group-bys, [`GroupThresholdQuery::run_cube_decoded`], MacroBase's
/// `search_cube` — works on a snapshot unchanged. No mutating cube
/// method is reachable (they all need `&mut`), so a snapshot handed to
/// readers is frozen: writers keep ingesting into the live shards
/// without ever touching it.
///
/// The cube lives behind an `Arc`: cloning a snapshot (or handing it to
/// reader threads) is a pointer bump. The engine's merged cube *is*
/// that `Arc`: the next refresh writes through `Arc::make_mut`, which
/// leaves a held snapshot untouched by copying the cube's key index and
/// cell pointers (never a sketch) before it applies the delta.
///
/// The canonical cell order every read merges in is per snapshot, not
/// per request: an early read sorts the cells once and every later
/// reader of the snapshot reuses it. The next refresh keeps that order
/// (the copy shares it) when the delta only replaces summaries; a
/// delta that adds cells drops it, to be sorted again.
///
/// [`GroupThresholdQuery::run_cube_decoded`]:
///     msketch_cube::GroupThresholdQuery::run_cube_decoded
#[derive(Clone)]
pub struct EngineSnapshot<F: SummaryFactory> {
    epoch: u64,
    cube: Arc<DataCube<F>>,
}

impl<F: SummaryFactory> EngineSnapshot<F> {
    pub(crate) fn new(epoch: u64, cube: DataCube<F>) -> Self {
        EngineSnapshot {
            epoch,
            cube: Arc::new(cube),
        }
    }

    pub(crate) fn new_shared(epoch: u64, cube: Arc<DataCube<F>>) -> Self {
        EngineSnapshot { epoch, cube }
    }

    /// The engine epoch at which this snapshot was taken; later
    /// snapshots of the same engine carry strictly larger epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The merged cube.
    pub fn cube(&self) -> &DataCube<F> {
        &self.cube
    }
}

impl<F: SummaryFactory> std::ops::Deref for EngineSnapshot<F> {
    type Target = DataCube<F>;
    fn deref(&self) -> &DataCube<F> {
        &self.cube
    }
}
