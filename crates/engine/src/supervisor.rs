//! Shard-worker supervision: panic containment, checkpoint rollback,
//! and restart accounting.
//!
//! Each shard worker wraps its batch ingestion in `catch_unwind`. A
//! panic mid-batch (a poisoned batch, a sketch-backend bug, or an armed
//! `engine::worker_panic` failpoint) cannot be allowed to leave the
//! shard cube half-mutated — a torn insert would silently skew every
//! later snapshot. Instead the worker keeps a *checkpoint*: a clone of
//! its cube taken at each epoch boundary (snapshot or delta reply). On
//! panic it rolls the cube back to the checkpoint, counts the rows
//! discarded (everything applied since the boundary plus the poisoned
//! batch), bumps the restart counter, and keeps draining its channel —
//! the thread itself never dies, so per-sender FIFO ordering and the
//! shutdown barrier survive any number of restarts.
//!
//! The trade: a restart rewinds the shard to its last epoch boundary,
//! trading bounded, *accounted* data loss ([`EngineStats::rows_lost`])
//! for a guaranteed-consistent cube. Engines that snapshot or
//! checkpoint regularly keep the exposure window to one epoch.
//!
//! Workers also own the decode side of writer-side interning: one
//! [`WriterTable`] per `(writer, dimension)` maps each writer's dense
//! pool ids to this shard cube's dictionary ids. A batch's `news` are
//! appended to the table's string log *outside* the unwind boundary
//! (the id assignments are writer-side facts, valid regardless of what
//! happens to this batch). The derived `dict_ids` cache never goes
//! stale: a rollback restores only the cube's cells and row count
//! ([`DataCube::roll_back_to`]) and keeps its dictionaries, of which
//! the checkpoint's are a prefix. A shard keeps its cube for the
//! engine's lifetime: checkpoints read it through the same delta as
//! snapshots and never replace it. A recovered engine starts each
//! worker on the cells WAL replay handed its shard, so that cube is the
//! worker's first rollback target and later rows accumulate into the
//! recovered cells in place.

use crate::sharded::ShardMsg;
use msketch_cube::hash::{FxHashMap, FxHashSet};
use msketch_cube::{DataCube, WriterTable};
use msketch_obs::{Counter, Gauge, Level, TraceSink};
use msketch_sketches::traits::SummaryFactory;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

/// The engine's health numbers, each an obs handle written where the
/// value changes — by a shard worker, the WAL or the engine handle —
/// and shared by all three behind one `Arc`. [`EngineStats`] is a read
/// of these; [`ShardedCube::set_obs`](crate::ShardedCube::set_obs)
/// publishes the ones `/metrics` names. Nothing else holds a copy.
#[derive(Default)]
pub(crate) struct SharedStats {
    pub(crate) worker_restarts: Counter,
    pub(crate) rows_lost: Counter,
    pub(crate) rows_applied: Gauge,
    pub(crate) wal_segments: Gauge,
    pub(crate) wal_bytes: Gauge,
    pub(crate) wal_append_errors: Counter,
    pub(crate) delta_cells_applied: Counter,
    pub(crate) last_refresh_micros: Gauge,
    pub(crate) epoch: Gauge,
    /// 0 while the workers run, 1 once
    /// [`ShardedCube::shutdown`](crate::ShardedCube::shutdown) has
    /// joined them.
    pub(crate) shut_down: Gauge,
    /// Warn-event sink, attached after construction via
    /// [`ShardedCube::set_obs`](crate::ShardedCube::set_obs). Counters
    /// say how many rollbacks happened; events say *when* — each
    /// restart / abandonment emits one at the moment it increments.
    /// Only exceptional paths lock this, never batch ingest.
    pub(crate) events: Mutex<Option<TraceSink>>,
}

/// A point-in-time read of the engine's health numbers
/// ([`ShardedCube::stats`](crate::ShardedCube::stats), or — without
/// holding the engine —
/// [`ShardedCube::stats_reader`](crate::ShardedCube::stats_reader));
/// the serving layer renders it as `/health` and `/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Epochs advanced so far (one per snapshot or checkpoint; resumes
    /// from the last replayed segment after recovery). A served
    /// snapshot's staleness is this minus its own epoch.
    pub epoch: u64,
    /// Times a shard worker panicked mid-batch and was rolled back to
    /// its checkpoint. Zero in a healthy engine.
    pub worker_restarts: u64,
    /// Rows discarded by rollbacks (rows applied since the last epoch
    /// boundary plus the poisoned batch itself) and by dying workers
    /// (the in-flight batch plus everything queued behind the dead
    /// receiver at exit time). `rows_applied + rows_lost` never
    /// exceeds the rows accepted by the engine.
    pub rows_lost: u64,
    /// Rows currently applied across all shard workers, net of
    /// rollbacks — rows discarded by a rollback move from here to
    /// [`rows_lost`](Self::rows_lost), they are never counted in both.
    /// Rows a recovered engine's shards started with are not counted.
    pub rows_applied: u64,
    /// Segments appended to the WAL this process lifetime (0 when no
    /// WAL is attached).
    pub wal_segments: u64,
    /// Bytes appended to the WAL this process lifetime.
    pub wal_bytes: u64,
    /// WAL appends that failed (durability degraded, memory intact).
    pub wal_append_errors: u64,
    /// Delta cells applied by incremental refreshes (`snapshot`,
    /// `checkpoint`) this process lifetime; tracks cells *touched*
    /// between epochs, not cube size.
    pub delta_cells_applied: u64,
    /// Wall-clock duration of the most recent refresh (snapshot or
    /// checkpoint), in microseconds.
    pub last_refresh_micros: u64,
    /// Has the engine been shut down?
    pub shut_down: bool,
}

impl SharedStats {
    /// Read every handle once. Lock-free, so it never waits behind a
    /// refresh, an append or a shard.
    pub(crate) fn read(&self) -> EngineStats {
        EngineStats {
            epoch: self.epoch.get(),
            worker_restarts: self.worker_restarts.get(),
            rows_lost: self.rows_lost.get(),
            rows_applied: self.rows_applied.get(),
            wal_segments: self.wal_segments.get(),
            wal_bytes: self.wal_bytes.get(),
            wal_append_errors: self.wal_append_errors.get(),
            delta_cells_applied: self.delta_cells_applied.get(),
            last_refresh_micros: self.last_refresh_micros.get(),
            shut_down: self.shut_down.get() != 0,
        }
    }

    /// Emit a warn event if a sink is attached (no-op otherwise).
    pub(crate) fn warn(&self, name: &'static str, fields: &[(&'static str, String)]) {
        let guard = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(sink) = guard.as_ref() {
            sink.event(Level::Warn, name, fields);
        }
    }
}

/// The supervised shard-worker loop. Runs on a dedicated thread owned
/// by [`ShardedCube`](crate::ShardedCube); exits when a shutdown marker
/// arrives or every sender is dropped.
pub(crate) fn worker_loop<F>(
    shard: usize,
    rx: crossbeam::channel::Receiver<ShardMsg<F>>,
    mut cube: DataCube<F>,
    stats: Arc<SharedStats>,
) where
    F: SummaryFactory + Clone,
{
    // The rollback target: the cube as of the last epoch boundary.
    // Cloning a cube is shallow (`Arc` per cell), so checkpoints stay
    // cheap at any cube size.
    let mut checkpoint = cube.clone();
    // Cells mutated since the last delta reply — what the next delta
    // ships. Not cleared on rollback: a cell touched before a newer
    // `Snapshot` checkpoint may hold a value the merged cube hasn't
    // seen, and re-shipping an unchanged cell is idempotent anyway.
    let mut touched: FxHashSet<Vec<u32>> = FxHashSet::default();
    // Per-writer pool decode tables, one `WriterTable` per dimension.
    let mut tables: FxHashMap<u32, Vec<WriterTable>> = FxHashMap::default();
    let dims = cube.dim_count();
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Interned(batch) => {
                // Fault injection: a worker that vanishes without
                // unwinding (models a killed thread / broken peer).
                // Dropping the receiver surfaces as `Disconnected` at
                // the next engine call.
                if failpoint::fail_if("engine::worker_exit") {
                    abandon(shard, &rx, batch.metrics.len() as u64, &stats);
                    return;
                }
                let rows = batch.metrics.len() as u64;
                let writer_tables = tables
                    .entry(batch.writer)
                    .or_insert_with(|| vec![WriterTable::default(); dims]);
                // Record the batch's pool-id assignments before the
                // unwind boundary: they are facts about the writer's
                // pools and must survive even if this batch's insert
                // panics and rolls back.
                for (table, column) in writer_tables.iter_mut().zip(&batch.columns) {
                    table.extend_strings(&column.news);
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    // `sleep_if` panics when the site is armed with
                    // `panic` — the supervision tests' injection point —
                    // and injects latency when armed with `sleep`.
                    failpoint::sleep_if("engine::worker_panic");
                    cube.insert_interned(&batch, writer_tables, &mut touched)
                }));
                match outcome {
                    Ok(Ok(())) => stats.rows_applied.add(rows),
                    // Arity was checked at the writer, so a typed error
                    // here is a pipeline bug. Exit the loop instead of
                    // panicking: dropping the receiver surfaces as
                    // `Disconnected` at the next engine call, without
                    // parking channel peers behind a dead worker.
                    Ok(Err(_)) => {
                        abandon(shard, &rx, rows, &stats);
                        return;
                    }
                    Err(_) => {
                        // Panic mid-batch: the cube may hold a torn
                        // insert. Roll back to the checkpoint and
                        // account for everything discarded — rows that
                        // had landed since the boundary plus the batch
                        // that blew up. The rolled-back rows move from
                        // rows_applied to rows_lost; counting them in
                        // both would let applied + lost exceed the
                        // rows the engine ever accepted.
                        let rolled_back = cube.row_count().saturating_sub(checkpoint.row_count());
                        cube.roll_back_to(&checkpoint);
                        let lost = rolled_back.saturating_add(rows);
                        stats.rows_lost.add(lost);
                        stats.rows_applied.sub(rolled_back);
                        stats.worker_restarts.inc();
                        stats.warn(
                            "engine::worker_restart",
                            &[
                                ("shard", shard.to_string()),
                                ("rows_lost", lost.to_string()),
                                ("restarts_total", stats.worker_restarts.get().to_string()),
                            ],
                        );
                    }
                }
            }
            ShardMsg::Snapshot(reply) => {
                // Epoch boundary: refresh the rollback target, then
                // answer. The engine may already have given up on this
                // snapshot (send error elsewhere); dropping the reply
                // is fine. `touched` is deliberately kept: this reply
                // does not update the merged cube's delta state.
                checkpoint = cube.clone();
                let _ = reply.send(checkpoint.clone());
            }
            ShardMsg::Delta(reply) => {
                // Epoch boundary for the incremental path: ship only
                // the cells mutated since the last delta, then clear
                // the touched set — the merged cube now has them. The
                // rollback target catches up incrementally as well
                // (O(touched), not O(cells)), keeping the worker side
                // of the refresh barrier proportional to the delta.
                let delta = cube.build_delta(&touched);
                checkpoint.sync_checkpoint(&cube, &touched);
                touched.clear();
                let _ = reply.send(delta);
            }
            ShardMsg::Shutdown => return,
        }
    }
}

/// A worker is abandoning its channel (hard exit, no restart): count
/// the in-flight batch plus every batch already queued behind the
/// dying receiver into `rows_lost`, so the loss shows up in `/health`
/// and `/stats` immediately instead of staying invisible until a later
/// engine call surfaces `Disconnected`. Rows sent *after* this drain
/// are rejected at the engine's send, which has its own error path.
fn abandon<F>(
    shard: usize,
    rx: &crossbeam::channel::Receiver<ShardMsg<F>>,
    in_flight_rows: u64,
    stats: &SharedStats,
) where
    F: SummaryFactory + Clone,
{
    let mut lost = in_flight_rows;
    while let Ok(msg) = rx.try_recv() {
        if let ShardMsg::Interned(batch) = msg {
            lost = lost.saturating_add(batch.metrics.len() as u64);
        }
        // Snapshot/Delta replies drop here; their senders see
        // the disconnect, same as when the receiver itself drops.
    }
    stats.rows_lost.add(lost);
    stats.warn(
        "engine::worker_abandoned",
        &[
            ("shard", shard.to_string()),
            ("rows_lost", lost.to_string()),
        ],
    );
}
