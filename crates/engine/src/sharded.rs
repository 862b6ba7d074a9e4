//! The sharded write path: routing, per-shard channels, worker threads.

use crate::delta::MergedState;
use crate::snapshot::EngineSnapshot;
use crate::supervisor::{worker_loop, EngineStats, SharedStats};
use crate::wal::{encode_record, RecoveryReport, Wal, WalConfig};
use crate::{EngineError, Result};
use crossbeam::channel::{self, Receiver, Sender};
use msketch_cube::hash::{route_hash, FxHashMap, FxHashSet};
use msketch_cube::query::decode_group_key;
use msketch_cube::{CubeDelta, DataCube, DynCube, InternedBatch, InternedColumn};
use msketch_sketches::traits::SummaryFactory;
use msketch_sketches::SketchSpec;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Tuning knobs for [`ShardedCube`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of shard workers (and shard-local cubes).
    pub shards: usize,
    /// Rows buffered per shard before a batch is shipped. Larger batches
    /// amortize channel and dictionary-intern costs; smaller batches
    /// shorten the ingest-to-snapshot visibility lag.
    pub batch_rows: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: std::thread::available_parallelism().map_or(4, |n| n.get()),
            // 16k-row batches amortize channel and pool-intern costs
            // well past the crossover where sharded ingest beats
            // row-at-a-time insertion.
            batch_rows: 16384,
        }
    }
}

impl EngineConfig {
    /// Config with `shards` workers and default batching.
    pub fn with_shards(shards: usize) -> Self {
        EngineConfig {
            shards: shards.max(1),
            ..Default::default()
        }
    }

    /// Override the rows-per-batch threshold.
    pub fn batch_rows(mut self, rows: usize) -> Self {
        self.batch_rows = rows.max(1);
        self
    }
}

/// Control and data messages flowing to one shard worker. Channels are
/// FIFO per sender, so a control message acts as a barrier: the reply
/// reflects every batch the same sender shipped before it.
pub(crate) enum ShardMsg<F: SummaryFactory> {
    /// Ingest a pre-interned columnar batch.
    Interned(InternedBatch),
    /// Reply with a clone of the shard-local cube; keep ingesting.
    Snapshot(Sender<DataCube<F>>),
    /// Reply with a delta of the cells touched since the last delta
    /// reply; keep ingesting.
    Delta(Sender<CubeDelta<F::Summary>>),
    /// Stop the worker thread, even while other writers still hold
    /// senders. Batches already queued ahead of this marker are ingested
    /// first (per-sender FIFO); anything arriving after it is dropped.
    Shutdown,
}

/// One shard's buffered, pre-interned rows in a [`ShardWriter`].
struct PendingBatch {
    columns: Vec<InternedColumn>,
    metrics: Vec<f64>,
}

impl PendingBatch {
    fn new(dims: usize) -> Self {
        PendingBatch {
            columns: (0..dims)
                .map(|_| InternedColumn {
                    ids: Vec::new(),
                    news: Vec::new(),
                })
                .collect(),
            metrics: Vec::new(),
        }
    }
}

/// An ingest handle: routes rows to shards, interns dimension values
/// into per-shard writer pools, and buffers pre-interned batches.
///
/// Obtain extra handles with [`ShardedCube::writer`] to ingest from
/// several threads; each handle buffers and interns independently —
/// ingest threads never share a lock or a dictionary. A value's pool id
/// is assigned once per `(writer, shard, dimension)` and shipped as a
/// "new" exactly once; after that the writer ships bare `u32` ids and
/// the shard worker decodes them through its per-writer table, so the
/// per-row string hashing that used to run on the worker happens on the
/// writer's thread, once per distinct value.
///
/// Rows become visible to snapshots once flushed (explicitly via
/// [`Self::flush`], or implicitly when a shard buffer reaches
/// `batch_rows`).
pub struct ShardWriter<F: SummaryFactory> {
    senders: Vec<Sender<ShardMsg<F>>>,
    pending: Vec<PendingBatch>,
    /// Per-shard, per-dimension value→pool-id memos. Never reset: pool
    /// id spaces only grow, so cached ids stay valid across flushes and
    /// worker rollbacks.
    memos: Vec<Vec<FxHashMap<String, u32>>>,
    /// Engine-assigned writer id; workers index their decode tables by
    /// it.
    id: u32,
    dims: usize,
    batch_rows: usize,
}

impl<F: SummaryFactory> ShardWriter<F> {
    fn new(senders: Vec<Sender<ShardMsg<F>>>, id: u32, dims: usize, batch_rows: usize) -> Self {
        let pending = senders.iter().map(|_| PendingBatch::new(dims)).collect();
        let memos = senders
            .iter()
            .map(|_| vec![FxHashMap::default(); dims])
            .collect();
        ShardWriter {
            senders,
            pending,
            memos,
            id,
            dims,
            batch_rows,
        }
    }

    /// Buffer one row, shipping the destination shard's batch if it
    /// reached the configured size.
    ///
    /// Routing hashes only the dimension values ([`route_hash`]), so
    /// every occurrence of a tuple — from any writer, in any run — lands
    /// on the same shard, which is what keeps each cube cell owned by
    /// exactly one shard.
    pub fn insert(&mut self, dim_values: &[&str], metric: f64) -> Result<()> {
        if dim_values.len() != self.dims {
            return Err(EngineError::Cube(msketch_cube::Error::DimensionMismatch {
                expected: self.dims,
                got: dim_values.len(),
            }));
        }
        let shard = (route_hash(dim_values) % self.senders.len() as u64) as usize;
        let pending = &mut self.pending[shard];
        let memos = &mut self.memos[shard];
        for ((memo, column), v) in memos.iter_mut().zip(&mut pending.columns).zip(dim_values) {
            let id = match memo.get(*v) {
                Some(&id) => id,
                None => {
                    // First sighting for this (writer, shard, dim):
                    // assign the next dense pool id and ship the value
                    // itself once, in this batch's news.
                    let id = memo.len() as u32;
                    memo.insert((*v).to_string(), id);
                    column.news.push((*v).to_string());
                    id
                }
            };
            column.ids.push(id);
        }
        pending.metrics.push(metric);
        if pending.metrics.len() >= self.batch_rows {
            self.flush_shard(shard)?;
        }
        Ok(())
    }

    /// Ship every non-empty buffered batch to its shard.
    pub fn flush(&mut self) -> Result<()> {
        for shard in 0..self.senders.len() {
            self.flush_shard(shard)?;
        }
        Ok(())
    }

    /// Rows buffered but not yet shipped (thus invisible to snapshots).
    pub fn pending(&self) -> usize {
        self.pending.iter().map(|p| p.metrics.len()).sum()
    }

    fn flush_shard(&mut self, shard: usize) -> Result<()> {
        if self.pending[shard].metrics.is_empty() {
            return Ok(());
        }
        let batch = std::mem::replace(&mut self.pending[shard], PendingBatch::new(self.dims));
        self.senders[shard]
            .send(ShardMsg::Interned(InternedBatch {
                writer: self.id,
                columns: batch.columns,
                metrics: batch.metrics,
            }))
            .map_err(|_| EngineError::Disconnected)
    }
}

impl<F: SummaryFactory> Drop for ShardWriter<F> {
    fn drop(&mut self) {
        // Best-effort: don't silently lose buffered rows.
        let _ = self.flush();
    }
}

/// The sharded concurrent ingestion engine.
///
/// `N` worker threads each own a shard-local [`DataCube`] (its own
/// dictionaries, its own cells) and drain pre-interned batches from a
/// bounded channel. The engine itself is an ingest handle (it embeds a
/// [`ShardWriter`]); additional concurrent writers come from
/// [`Self::writer`]. Readers never touch the live shards: they query
/// [`EngineSnapshot`]s — immutable merged cubes the engine maintains
/// persistently and refreshes *incrementally*: each [`Self::snapshot`]
/// asks every shard only for the cells it touched since its last reply
/// and applies those deltas to one merged cube, copied on write while a
/// reader holds the previous snapshot, so the applied cells track the
/// change rate, not the cube size.
///
/// Worker threads exit when the engine and every extra writer have been
/// dropped (the channels disconnect).
pub struct ShardedCube<F>
where
    F: SummaryFactory + Clone + Send + 'static,
    F::Summary: Send + Sync,
{
    factory: F,
    dim_names: Vec<String>,
    config: EngineConfig,
    writer: ShardWriter<F>,
    workers: Vec<JoinHandle<()>>,
    /// The persistently maintained merged cube.
    merged: MergedState<F>,
    /// Durable log, when attached via [`DynShardedCube::recover`].
    wal: Option<Wal>,
    /// Dense writer-id allocator for [`Self::writer`] handles.
    writer_seq: Arc<AtomicU32>,
    /// Every health number the engine has — epoch, supervision, WAL and
    /// refresh counters — shared with the shard workers and the WAL,
    /// which write their own.
    stats: Arc<SharedStats>,
    /// Refresh-latency recorder, attached via [`Self::set_obs`]; every
    /// snapshot / refold / checkpoint observes its wall-clock cost.
    refresh_seconds: Option<msketch_obs::Recorder>,
}

/// A sharded engine over runtime-chosen (boxed) sketch cells; snapshots
/// are [`msketch_cube::DynCube`]s.
pub type DynShardedCube = ShardedCube<SketchSpec>;

impl<F> ShardedCube<F>
where
    F: SummaryFactory + Clone + Send + 'static,
    F::Summary: Send + Sync,
{
    /// Spawn `config.shards` workers, each owning an empty cube with the
    /// given dimension names.
    pub fn new(factory: F, dim_names: &[&str], config: EngineConfig) -> Self {
        let shards = (0..config.shards.max(1))
            .map(|_| DataCube::new(factory.clone(), dim_names))
            .collect();
        let merged = DataCube::new(factory.clone(), dim_names);
        Self::start(factory, dim_names, config, merged, shards)
    }

    /// Spawn one worker per shard cube. `merged` holds every shard's
    /// cells, each under the shard `route_hash` assigns it.
    fn start(
        factory: F,
        dim_names: &[&str],
        config: EngineConfig,
        merged: DataCube<F>,
        shard_cubes: Vec<DataCube<F>>,
    ) -> Self {
        let stats = Arc::new(SharedStats::default());
        let shard_rows = shard_cubes.iter().map(DataCube::row_count).collect();
        let mut senders = Vec::with_capacity(shard_cubes.len());
        let mut workers = Vec::with_capacity(shard_cubes.len());
        // Bounded channel depth per shard, in batches. Backpressure: a
        // writer flushing into a full shard blocks until the worker
        // drains.
        const CHANNEL_BATCHES: usize = 8;
        for (shard, cube) in shard_cubes.into_iter().enumerate() {
            let (tx, rx) = channel::bounded::<ShardMsg<F>>(CHANNEL_BATCHES);
            let stats = Arc::clone(&stats);
            #[expect(
                clippy::expect_used,
                reason = "thread spawn fails only on OS resource exhaustion during engine \
                          construction: no channel peer exists yet to park, and no caller \
                          has a meaningful recovery short of aborting"
            )]
            workers.push(
                std::thread::Builder::new()
                    .name(format!("msketch-shard-{shard}"))
                    .spawn(move || worker_loop(shard, rx, cube, stats))
                    .expect("spawn shard worker"),
            );
            senders.push(tx);
        }
        let writer = ShardWriter::new(senders, 0, dim_names.len(), config.batch_rows.max(1));
        ShardedCube {
            factory,
            dim_names: dim_names.iter().map(|s| s.to_string()).collect(),
            config,
            writer,
            workers,
            merged: MergedState::new(merged, shard_rows),
            wal: None,
            writer_seq: Arc::new(AtomicU32::new(1)),
            stats,
            refresh_seconds: None,
        }
    }

    /// Attach observability: the engine's own epoch, supervision and
    /// WAL handles are published under their `/metrics` names (the
    /// series *are* the engine's counters, not copies), refresh
    /// latencies land in the `msketch_engine_refresh_seconds` recorder,
    /// shard-worker restarts / abandonments and WAL append failures
    /// emit warn events the moment their counters increment, and WAL
    /// fsyncs record into `msketch_wal_fsync_seconds`. Call after
    /// construction (or after [`DynShardedCube::recover`], so the WAL
    /// handle picks up its hooks too); child spans need no attachment
    /// at all — they follow the calling thread's active trace.
    pub fn set_obs(&mut self, obs: &msketch_obs::Obs) {
        let (registry, stats) = (&obs.registry, &self.stats);
        registry.register_counter("msketch_worker_restarts_total", &[], &stats.worker_restarts);
        registry.register_counter("msketch_rows_lost_total", &[], &stats.rows_lost);
        registry.register_counter(
            "msketch_wal_append_errors_total",
            &[],
            &stats.wal_append_errors,
        );
        registry.register_gauge("msketch_engine_epoch", &[], &stats.epoch);
        registry.register_gauge("msketch_wal_segments", &[], &stats.wal_segments);
        registry.register_gauge("msketch_wal_bytes", &[], &stats.wal_bytes);
        self.refresh_seconds = Some(registry.recorder("msketch_engine_refresh_seconds", &[]));
        *self
            .stats
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some((*obs.trace).clone());
        if let Some(wal) = &mut self.wal {
            wal.set_obs(
                obs.registry.recorder("msketch_wal_fsync_seconds", &[]),
                (*obs.trace).clone(),
            );
        }
    }

    /// Record one refresh's wall-clock cost (the recorder is a no-op
    /// before `set_obs`).
    fn observe_refresh(&self, started: Instant) {
        let elapsed = started.elapsed();
        self.stats
            .last_refresh_micros
            .set(elapsed.as_micros() as u64);
        if let Some(rec) = &self.refresh_seconds {
            rec.observe(elapsed.as_secs_f64());
        }
    }

    /// Advance to the next epoch and return it.
    fn next_epoch(&self) -> u64 {
        let epoch = self.stats.epoch.get() + 1;
        self.stats.epoch.set(epoch);
        epoch
    }

    /// Number of shard workers.
    pub fn shard_count(&self) -> usize {
        self.config.shards.max(1)
    }

    /// Dimension names of the schema.
    pub fn dim_names(&self) -> &[String] {
        &self.dim_names
    }

    /// Has [`Self::shutdown`] already run (or the engine been torn
    /// down)?
    pub fn is_shut_down(&self) -> bool {
        self.stats.shut_down.get() != 0
    }

    /// Typed guard: every mutating entry point refuses with
    /// [`EngineError::ShutDown`] once the workers are gone, instead of
    /// surfacing the accidental-looking `Disconnected` a dead channel
    /// would produce.
    fn ensure_running(&self) -> Result<()> {
        if self.is_shut_down() {
            return Err(EngineError::ShutDown);
        }
        Ok(())
    }

    /// The engine's health numbers right now: epoch, worker restarts,
    /// rows lost to rollbacks, rows applied, WAL append totals, refresh
    /// costs, shut-down flag.
    pub fn stats(&self) -> EngineStats {
        self.stats.read()
    }

    /// [`Self::stats`] for a caller that must not wait for the engine:
    /// the returned closure reads the same handles without borrowing
    /// (or locking) the engine, so a serving layer that keeps its
    /// engine behind a mutex answers `/health`, `/stats` and `/metrics`
    /// while a refresh holds that mutex.
    pub fn stats_reader(&self) -> impl Fn() -> EngineStats + Send + Sync + 'static {
        let stats = Arc::clone(&self.stats);
        move || stats.read()
    }

    /// Is a durable log attached (engine built via [`Self::recover`])?
    pub fn wal_attached(&self) -> bool {
        self.wal.is_some()
    }

    /// Ingest one row through the engine's own writer.
    pub fn insert(&mut self, dim_values: &[&str], metric: f64) -> Result<()> {
        self.ensure_running()?;
        self.writer.insert(dim_values, metric)
    }

    /// Ship this handle's buffered rows to their shards.
    pub fn flush(&mut self) -> Result<()> {
        self.ensure_running()?;
        self.writer.flush()
    }

    /// An additional ingest handle for another writer thread. Each
    /// handle gets a fresh writer id and its own per-shard intern
    /// pools; handles never contend with each other or with the engine.
    pub fn writer(&self) -> ShardWriter<F> {
        ShardWriter::new(
            self.writer.senders.clone(),
            self.writer_seq.fetch_add(1, Ordering::Relaxed),
            self.dim_names.len(),
            self.config.batch_rows.max(1),
        )
    }

    /// Take an epoch-stamped snapshot by *delta refresh*: flush this
    /// handle, have every worker ship only the cells it touched since
    /// its last delta reply, and apply those deltas to the engine's
    /// persistent merged cube.
    ///
    /// Isolation: per-sender channel FIFO makes the delta request a
    /// barrier, so the snapshot contains *every* row this handle (and
    /// any writer that flushed before the barrier reached the shard)
    /// shipped, and *no* row shipped after. Workers resume ingesting
    /// the moment they have replied; delta application runs on the
    /// calling thread. It applies the cells *changed* since the
    /// previous refresh, after copying the merged cube's key index and
    /// cell pointers (no sketch) if a reader still holds the previous
    /// snapshot. Bit-exact with
    /// [`Self::snapshot_refold`]: each delta cell is the owning shard's
    /// complete live summary, the value a refold copies too.
    pub fn snapshot(&mut self) -> Result<EngineSnapshot<F>> {
        self.refresh("engine::snapshot")
    }

    /// The one refresh path, behind [`Self::snapshot`] and
    /// [`DynShardedCube::checkpoint`].
    fn refresh(&mut self, span_name: &'static str) -> Result<EngineSnapshot<F>> {
        self.ensure_running()?;
        let mut span = msketch_obs::span(span_name);
        let started = Instant::now();
        self.writer.flush()?;
        // Ask every shard first, then await the replies: workers build
        // their deltas concurrently with each other.
        let mut replies: Vec<Receiver<CubeDelta<F::Summary>>> =
            Vec::with_capacity(self.workers.len());
        for sender in &self.writer.senders {
            let (tx, rx) = channel::bounded(1);
            sender
                .send(ShardMsg::Delta(tx))
                .map_err(|_| EngineError::Disconnected)?;
            replies.push(rx);
        }
        let mut deltas = Vec::with_capacity(replies.len());
        for rx in replies {
            deltas.push(rx.recv().map_err(|_| EngineError::Disconnected)?);
        }
        let epoch = self.next_epoch();
        let (snap, cells_applied) = self.merged.refresh(&deltas, epoch)?;
        self.stats.delta_cells_applied.add(cells_applied);
        self.observe_refresh(started);
        span.field("epoch", epoch);
        span.field("delta_cells", cells_applied);
        Ok(snap)
    }

    /// Not a product path: the reference the equivalence suites
    /// (`delta_equivalence`, `shard_equivalence`) hold [`Self::snapshot`]
    /// to, bit for bit. It takes an epoch-stamped snapshot the pre-delta
    /// way — clone every shard's full live cube and fold the clones into
    /// an empty cube, O(total cells) on the calling thread regardless of
    /// what changed — and nothing outside the tests calls it.
    #[doc(hidden)]
    pub fn snapshot_refold(&mut self) -> Result<EngineSnapshot<F>> {
        self.ensure_running()?;
        let _span = msketch_obs::span("engine::snapshot_refold");
        let started = Instant::now();
        self.writer.flush()?;
        // Ask every shard first, then await the replies: workers clone
        // their cubes concurrently with each other.
        let mut replies = Vec::with_capacity(self.workers.len());
        for sender in &self.writer.senders {
            let (tx, rx) = channel::bounded(1);
            sender
                .send(ShardMsg::Snapshot(tx))
                .map_err(|_| EngineError::Disconnected)?;
            replies.push(rx);
        }
        let mut merged = self.empty_cube();
        for rx in replies {
            let shard_cube = rx.recv().map_err(|_| EngineError::Disconnected)?;
            merged.merge_cube(&shard_cube)?;
        }
        let epoch = self.next_epoch();
        self.observe_refresh(started);
        Ok(EngineSnapshot::new(epoch, merged))
    }

    fn empty_cube(&self) -> DataCube<F> {
        let names: Vec<&str> = self.dim_names.iter().map(String::as_str).collect();
        DataCube::new(self.factory.clone(), &names)
    }

    /// Stop every shard worker and join its thread.
    ///
    /// Flushes this handle's buffered rows first, then sends each shard
    /// a shutdown marker; per-sender FIFO guarantees every batch this
    /// handle shipped is ingested before the worker exits. Unlike
    /// relying on channel disconnection, the marker stops workers even
    /// while extra [`ShardWriter`]s still hold senders — those writers'
    /// subsequent sends fail with [`EngineError::Disconnected`] rather
    /// than leaving a parked worker behind on exit (the server Ctrl-C
    /// path). Also runs on drop.
    ///
    /// Calling again after a shutdown returns
    /// [`EngineError::ShutDown`] — as do `insert`, `flush`, `snapshot`
    /// and `checkpoint` — so a caller holding a stale handle sees a
    /// typed "engine is gone" instead of a misleading channel error.
    pub fn shutdown(&mut self) -> Result<()> {
        self.ensure_running()?;
        // Keep going even if a shard already died: the remaining workers
        // still need their marker and join.
        let flush_result = self.writer.flush();
        for sender in &self.writer.senders {
            let _ = sender.send(ShardMsg::Shutdown);
        }
        let mut panicked = false;
        for worker in self.workers.drain(..) {
            panicked |= worker.join().is_err();
        }
        self.stats.shut_down.set(1);
        if panicked {
            return Err(EngineError::Disconnected);
        }
        flush_result
    }
}

impl<F> Drop for ShardedCube<F>
where
    F: SummaryFactory + Clone + Send + 'static,
    F::Summary: Send + Sync,
{
    fn drop(&mut self) {
        // Join rather than detach: a dropped engine (or a server torn
        // down by Ctrl-C) must not leak parked worker threads. The
        // embedded writer's own Drop then finds empty buffers.
        let _ = self.shutdown();
    }
}

impl DynShardedCube {
    /// Open (or create) the durable WAL under `dir`, replay its valid
    /// segment prefix, hand every recovered cell to the shard that owns
    /// it, and return the recovered engine plus a [`RecoveryReport`].
    ///
    /// This is "new with durability": on a fresh directory it returns
    /// an empty engine with the WAL attached; after a crash it returns
    /// an engine whose snapshots are *bit-exact* with the last
    /// committed [`Self::checkpoint`] before the crash (each record
    /// replaces the cells it carries with the values that checkpoint
    /// published). Each recovered cell goes back to the shard
    /// `route_hash` assigns its names — at this engine's shard count,
    /// which may differ from the crashed one's — so later rows
    /// accumulate into it in place, exactly as if the engine had never
    /// stopped. A shard starts with the sum of its cells' counts as its
    /// rows; they do not count toward `rows_applied`. Torn tails are
    /// truncated, mid-log corruption shortens the prefix and is
    /// surfaced in [`RecoveryReport::tail`] — replay never panics and
    /// corruption never fails the open.
    ///
    /// The engine's epoch resumes from the last replayed segment's, so
    /// segment epochs stay strictly increasing across restarts.
    pub fn recover(
        spec: SketchSpec,
        dim_names: &[&str],
        config: EngineConfig,
        dir: impl AsRef<Path>,
        wal_config: WalConfig,
    ) -> Result<(Self, RecoveryReport)> {
        let (mut wal, recovered, report) =
            Wal::open(dir.as_ref(), wal_config).map_err(EngineError::Wal)?;
        let empty = || DynCube::from_spec(spec.clone(), dim_names);
        let mut merged = empty();
        let mut shards: Vec<DynCube> = (0..config.shards.max(1)).map(|_| empty()).collect();
        if let Some(recovered) = &recovered {
            // `merge_cube` into an empty cube checks schema and backend:
            // a WAL from a different engine fails loudly now, not at the
            // first snapshot.
            merged.merge_cube(recovered)?;
            let dims: Vec<usize> = (0..dim_names.len()).collect();
            let mut owned = vec![FxHashSet::default(); shards.len()];
            for (key, _) in merged.cells() {
                let names = decode_group_key(&merged, &dims, key);
                let names: Vec<&str> = names.iter().map(String::as_str).collect();
                let shard = route_hash(&names) % owned.len() as u64;
                owned[shard as usize].insert(key.clone());
            }
            for (shard, keys) in shards.iter_mut().zip(&owned) {
                let share = merged.build_delta(keys);
                shard.apply_delta(&share, &FxHashMap::default())?;
                shard.set_row_count(share.cells.iter().map(|(_, s)| s.count()).sum());
            }
        }
        let mut engine = Self::start(spec, dim_names, config, merged, shards);
        engine.stats.epoch.set(report.last_epoch);
        let stats = &engine.stats;
        wal.count_into(
            &stats.wal_segments,
            &stats.wal_bytes,
            &stats.wal_append_errors,
        );
        engine.wal = Some(wal);
        Ok((engine, report))
    }

    /// Refresh exactly as [`Self::snapshot`] does, and append the
    /// record of every cell refreshed since the last record — the
    /// cells' current values and the engine's row total — to the WAL
    /// (when attached), fsynced per its policy. Returns the refreshed
    /// snapshot.
    ///
    /// A record carries one summary per changed cell, so WAL traffic
    /// tracks the cells touched between checkpoints, not the cube size
    /// or the row count. A record that does not land hands its cells
    /// back, so the next checkpoint logs them again and the log never
    /// gets a hole that a later record papers over. Such a failure
    /// degrades durability until the next successful checkpoint;
    /// memory is unaffected, so queries stay consistent, and the WAL
    /// handle rewinds to the last good frame boundary (or poisons
    /// itself), so a damaged tail never swallows later records.
    pub fn checkpoint(&mut self) -> Result<EngineSnapshot<SketchSpec>> {
        let snapshot = self.refresh("engine::checkpoint")?;
        let keys = self.merged.take_unlogged();
        if self.wal.is_none() || keys.is_empty() {
            return Ok(snapshot);
        }
        if let Err(e) = self.append_record(&snapshot, &keys) {
            self.merged.return_unlogged(keys);
            return Err(e);
        }
        Ok(snapshot)
    }

    /// Append the record of `keys`' values in `snapshot` to the WAL.
    fn append_record(
        &mut self,
        snapshot: &EngineSnapshot<SketchSpec>,
        keys: &FxHashSet<Vec<u32>>,
    ) -> Result<()> {
        let mut record = self.empty_cube();
        record.apply_delta(&snapshot.build_delta(keys), &FxHashMap::default())?;
        record.set_row_count(snapshot.row_count());
        if let Some(wal) = &mut self.wal {
            wal.append(snapshot.epoch(), &encode_record(&record))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msketch_sketches::{QuantileSummary, Sketch, SketchKind};

    fn row(i: u64) -> ([&'static str; 2], f64) {
        let country = ["US", "CA", "MX", "BR", "JP"][(i % 5) as usize];
        let version = ["v1", "v2", "v3"][(i % 3) as usize];
        (
            [country, version],
            (i % 911) as f64 + if version == "v3" { 400.0 } else { 0.0 },
        )
    }

    fn sequential_reference(n: u64) -> DataCube<SketchSpec> {
        let mut cube = DataCube::new(SketchSpec::moments(8), &["country", "version"]);
        for i in 0..n {
            let (dims, metric) = row(i);
            cube.insert(&dims, metric).unwrap();
        }
        cube
    }

    /// Every cell's serialized summary, keyed by its decoded names.
    fn cell_bytes_by_name(
        cube: &DataCube<SketchSpec>,
    ) -> std::collections::HashMap<Vec<String>, Vec<u8>> {
        cube.cells()
            .map(|(k, s)| {
                let names: Vec<String> = k
                    .iter()
                    .enumerate()
                    .map(|(d, &id)| {
                        cube.dictionary(d)
                            .ok()
                            .and_then(|dict| dict.decode(id))
                            .unwrap_or("")
                            .to_string()
                    })
                    .collect();
                (names, s.to_bytes())
            })
            .collect()
    }

    #[test]
    fn snapshot_is_bit_exact_vs_sequential_at_8_shards() {
        let reference = sequential_reference(50_000);
        let mut engine = ShardedCube::new(
            SketchSpec::moments(8),
            &["country", "version"],
            EngineConfig::with_shards(8).batch_rows(1024),
        );
        for i in 0..50_000 {
            let (dims, metric) = row(i);
            engine.insert(&dims, metric).unwrap();
        }
        let snap = engine.snapshot().unwrap();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.row_count(), reference.row_count());
        assert_eq!(snap.cell_count(), reference.cell_count());
        let a = reference.rollup(&reference.no_filter()).unwrap();
        let b = snap.rollup(&snap.no_filter()).unwrap();
        assert_eq!(a.count(), b.count());
        for phi in [0.01, 0.25, 0.5, 0.9, 0.99] {
            assert_eq!(
                a.quantile(phi).to_bits(),
                b.quantile(phi).to_bits(),
                "phi {phi}"
            );
        }
    }

    #[test]
    fn delta_snapshot_is_bit_exact_vs_full_refold() {
        // The tentpole invariant, at unit granularity: interleave
        // ingest with delta refreshes, then compare the persistent
        // merged cube against a from-scratch refold of the same shards.
        let mut engine = ShardedCube::new(
            SketchSpec::moments(8),
            &["country", "version"],
            EngineConfig::with_shards(4).batch_rows(256),
        );
        let mut at = 0u64;
        for round in 1..=5u64 {
            for _ in 0..(round * 700) {
                let (dims, metric) = row(at);
                engine.insert(&dims, metric).unwrap();
                at += 1;
            }
            let delta_snap = engine.snapshot().unwrap();
            let refold_snap = engine.snapshot_refold().unwrap();
            assert_eq!(delta_snap.row_count(), refold_snap.row_count());
            assert_eq!(delta_snap.cell_count(), refold_snap.cell_count());
            // The two snapshots' dictionaries may assign different ids;
            // compare cells by decoded name tuple.
            let refold_cells = cell_bytes_by_name(refold_snap.cube());
            for (names, bytes) in cell_bytes_by_name(delta_snap.cube()) {
                assert_eq!(
                    refold_cells.get(&names),
                    Some(&bytes),
                    "cell {names:?} diverged from the refold"
                );
            }
        }
        assert!(engine.stats().delta_cells_applied > 0);
    }

    #[test]
    fn idle_delta_refreshes_apply_no_cells() {
        let mut engine = ShardedCube::new(
            SketchSpec::moments(8),
            &["country", "version"],
            EngineConfig::with_shards(2).batch_rows(64),
        );
        for i in 0..2000 {
            let (dims, metric) = row(i);
            engine.insert(&dims, metric).unwrap();
        }
        let first = engine.snapshot().unwrap();
        let applied_after_first = engine.stats().delta_cells_applied;
        assert!(applied_after_first > 0);
        // No new rows: the next refreshes ship empty deltas.
        let second = engine.snapshot().unwrap();
        let third = engine.snapshot().unwrap();
        assert_eq!(engine.stats().delta_cells_applied, applied_after_first);
        assert_eq!(second.row_count(), first.row_count());
        assert_eq!(third.epoch(), 3);
    }

    #[test]
    fn refresh_cost_follows_touched_cells() {
        // The delta path's contract without a stopwatch: a refresh
        // applies the cells touched since the last one, however many
        // are resident.
        let mut engine = DynShardedCube::new(
            SketchSpec::moments(4),
            &["host"],
            EngineConfig::with_shards(4).batch_rows(1024),
        );
        let hosts: Vec<String> = (0..20_000).map(|i| format!("host-{i}")).collect();
        for (i, host) in hosts.iter().enumerate() {
            engine.insert(&[host.as_str()], i as f64).unwrap();
        }
        assert_eq!(engine.snapshot().unwrap().cell_count(), 20_000);
        let resident = engine.stats();
        assert_eq!(resident.delta_cells_applied, 20_000);
        for host in hosts.iter().step_by(300).take(64) {
            engine.insert(&[host.as_str()], 1.0).unwrap();
            engine.insert(&[host.as_str()], 2.0).unwrap();
        }
        let snap = engine.snapshot().unwrap();
        assert_eq!((snap.cell_count(), snap.row_count()), (20_000, 20_128));
        let touched = engine.stats();
        assert_eq!(
            touched.delta_cells_applied - resident.delta_cells_applied,
            64
        );
    }

    #[test]
    fn snapshots_see_flushed_rows_and_writers_continue() {
        let mut engine = ShardedCube::new(
            SketchSpec::moments(8),
            &["country", "version"],
            EngineConfig::with_shards(3).batch_rows(64),
        );
        for i in 0..1000 {
            let (dims, metric) = row(i);
            engine.insert(&dims, metric).unwrap();
        }
        let first = engine.snapshot().unwrap();
        assert_eq!(first.row_count(), 1000);
        let fingerprint = cell_bytes_by_name(first.cube());
        // Keep ingesting after the snapshot; the old snapshot is
        // unaffected, a new one sees everything.
        for i in 1000..3000 {
            let (dims, metric) = row(i);
            engine.insert(&dims, metric).unwrap();
        }
        let second = engine.snapshot().unwrap();
        assert_eq!(first.row_count(), 1000);
        assert_eq!(second.row_count(), 3000);
        assert_eq!(second.epoch(), 2);
        // Held through a third refresh too, `first` still reads bit for
        // bit as published: each refresh that found it held copied the
        // merged cube before writing.
        for i in 3000..3500 {
            let (dims, metric) = row(i);
            engine.insert(&dims, metric).unwrap();
        }
        assert_eq!(engine.snapshot().unwrap().row_count(), 3500);
        assert_eq!(first.row_count(), 1000);
        assert_eq!(cell_bytes_by_name(first.cube()), fingerprint);
        assert_eq!(second.row_count(), 3000);
    }

    #[test]
    fn concurrent_writers_land_all_rows() {
        let mut engine = ShardedCube::new(
            SketchSpec::moments(8),
            &["country", "version"],
            EngineConfig::with_shards(4).batch_rows(128),
        );
        let mut writers: Vec<ShardWriter<_>> = (0..3).map(|_| engine.writer()).collect();
        std::thread::scope(|scope| {
            for (w, writer) in writers.iter_mut().enumerate() {
                scope.spawn(move || {
                    for i in 0..5000u64 {
                        let (dims, metric) = row(i * 3 + w as u64);
                        writer.insert(&dims, metric).unwrap();
                    }
                    writer.flush().unwrap();
                });
            }
        });
        let snap = engine.snapshot().unwrap();
        assert_eq!(snap.row_count(), 15_000);
        let all = snap.rollup(&snap.no_filter()).unwrap();
        assert_eq!(all.count(), 15_000);
    }

    #[test]
    fn snapshots_stay_exact_across_checkpoints() {
        // A checkpoint is the delta refresh plus a log record; the
        // shards keep their cubes, so later delta refreshes must still
        // be exact.
        let mut engine = DynShardedCube::new(
            SketchSpec::moments(8),
            &["country", "version"],
            EngineConfig::with_shards(3).batch_rows(64),
        );
        for i in 0..1500 {
            let (dims, metric) = row(i);
            engine.insert(&dims, metric).unwrap();
        }
        engine.snapshot().unwrap();
        assert_eq!(engine.checkpoint().unwrap().row_count(), 1500);
        assert_eq!(engine.snapshot().unwrap().row_count(), 1500);
        for i in 1500..2100 {
            let (dims, metric) = row(i);
            engine.insert(&dims, metric).unwrap();
        }
        let after = engine.snapshot().unwrap();
        let refold = engine.snapshot_refold().unwrap();
        assert_eq!(after.row_count(), 2100);
        assert_eq!(refold.row_count(), 2100);
        assert_eq!(after.cell_count(), refold.cell_count());
    }

    #[test]
    fn dyn_engine_serves_runtime_backends() {
        let mut engine = DynShardedCube::new(
            SketchSpec::moments(10),
            &["region"],
            EngineConfig::with_shards(2).batch_rows(100),
        );
        for i in 0..4000u64 {
            engine
                .insert(&[["eu", "us", "ap"][(i % 3) as usize]], (i % 500) as f64)
                .unwrap();
        }
        let snap = engine.snapshot().unwrap();
        assert_eq!(snap.spec().kind(), SketchKind::Moments);
        assert_eq!(snap.row_count(), 4000);
        // The snapshot is a full DynCube: it serializes like any other.
        let restored = msketch_cube::DynCube::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(restored.row_count(), 4000);
        let q = snap.rollup(&snap.no_filter()).unwrap().quantile(0.5);
        let r = restored
            .rollup(&restored.no_filter())
            .unwrap()
            .quantile(0.5);
        assert_eq!(q.to_bits(), r.to_bits());
    }

    #[test]
    fn unflushed_rows_are_invisible_until_flush() {
        let mut engine = ShardedCube::new(
            SketchSpec::moments(8),
            &["country", "version"],
            EngineConfig::with_shards(2).batch_rows(1_000_000),
        );
        let mut side = engine.writer();
        let (dims, metric) = row(7);
        side.insert(&dims, metric).unwrap();
        assert_eq!(side.pending(), 1);
        // The engine's own snapshot flushes only its own buffer.
        let snap = engine.snapshot().unwrap();
        assert!(matches!(
            snap.rollup(&snap.no_filter()),
            Err(msketch_cube::Error::EmptyResult)
        ));
        side.flush().unwrap();
        assert_eq!(side.pending(), 0);
        let snap = engine.snapshot().unwrap();
        assert_eq!(snap.row_count(), 1);
    }

    #[test]
    fn shutdown_joins_workers_and_later_calls_error() {
        let mut engine = ShardedCube::new(
            SketchSpec::moments(8),
            &["country", "version"],
            EngineConfig::with_shards(3).batch_rows(8),
        );
        let mut side = engine.writer();
        for i in 0..100 {
            let (dims, metric) = row(i);
            engine.insert(&dims, metric).unwrap();
        }
        assert!(!engine.is_shut_down());
        // Shutdown stops workers even while `side` still holds senders —
        // the leak the Drop-ordering fix exists to prevent.
        engine.shutdown().unwrap();
        assert!(engine.is_shut_down());
        // Every later engine call reports the typed ShutDown error —
        // including a second shutdown (regression: it used to succeed
        // silently) and ingest (it used to buffer, then fail at flush
        // with a misleading Disconnected).
        assert!(matches!(engine.shutdown(), Err(EngineError::ShutDown)));
        assert!(matches!(engine.snapshot(), Err(EngineError::ShutDown)));
        assert!(matches!(engine.flush(), Err(EngineError::ShutDown)));
        let (dims, metric) = row(0);
        assert!(matches!(
            engine.insert(&dims, metric),
            Err(EngineError::ShutDown)
        ));
        assert!(engine.stats().shut_down);
        // A detached writer has no engine handle to consult; its sends
        // land on dead channels and surface as Disconnected.
        side.insert(&dims, metric).unwrap(); // buffered locally
        assert!(matches!(side.flush(), Err(EngineError::Disconnected)));
    }

    #[test]
    fn checkpoint_accumulates_panes_into_full_snapshots() {
        // No WAL attached: checkpoint is a delta refresh and returns
        // cumulative snapshots.
        let mut engine = DynShardedCube::new(
            SketchSpec::moments(8),
            &["region"],
            EngineConfig::with_shards(2).batch_rows(16),
        );
        assert!(!engine.wal_attached());
        for i in 0..300u64 {
            engine
                .insert(&[["eu", "us"][(i % 2) as usize]], i as f64)
                .unwrap();
        }
        let first = engine.checkpoint().unwrap();
        assert_eq!(first.row_count(), 300);
        for i in 300..500u64 {
            engine
                .insert(&[["eu", "us"][(i % 2) as usize]], i as f64)
                .unwrap();
        }
        let second = engine.checkpoint().unwrap();
        assert_eq!(second.row_count(), 500, "both batches are served");
        assert_eq!(second.epoch(), 2);
        // A plain snapshot sees the same rows.
        assert_eq!(engine.snapshot().unwrap().row_count(), 500);
        // An idle checkpoint keeps every row.
        let third = engine.checkpoint().unwrap();
        assert_eq!(third.row_count(), 500);
        // Like every other mutating call, it is typed once the engine
        // is gone.
        engine.shutdown().unwrap();
        assert!(matches!(engine.checkpoint(), Err(EngineError::ShutDown)));
    }

    #[test]
    fn stats_start_clean() {
        let engine = ShardedCube::new(
            SketchSpec::moments(8),
            &["country", "version"],
            EngineConfig::with_shards(2),
        );
        let stats = engine.stats();
        assert_eq!(stats, EngineStats::default());
    }

    #[test]
    fn shutdown_ingests_rows_queued_ahead_of_the_marker() {
        // The shutdown marker is a FIFO barrier: rows flushed before it
        // are never dropped. Observable via snapshot-before-shutdown.
        let mut engine = ShardedCube::new(
            SketchSpec::moments(8),
            &["country", "version"],
            EngineConfig::with_shards(2).batch_rows(4),
        );
        for i in 0..50 {
            let (dims, metric) = row(i);
            engine.insert(&dims, metric).unwrap();
        }
        let snap = engine.snapshot().unwrap();
        assert_eq!(snap.row_count(), 50);
        engine.shutdown().unwrap();
    }

    #[test]
    fn writer_arity_is_checked() {
        let mut engine = ShardedCube::new(
            SketchSpec::moments(8),
            &["country", "version"],
            EngineConfig::with_shards(1),
        );
        assert!(matches!(
            engine.insert(&["US"], 1.0),
            Err(EngineError::Cube(
                msketch_cube::Error::DimensionMismatch { .. }
            ))
        ));
    }

    #[test]
    fn merge_from_boxed_cells_still_works_after_snapshot() {
        // Regression guard: snapshots of dyn engines hold Box<dyn Sketch>
        // cells; merging two snapshot rollups must use the checked path.
        let mut engine = DynShardedCube::new(
            SketchSpec::moments(8),
            &["k"],
            EngineConfig::with_shards(2).batch_rows(10),
        );
        for i in 0..100u64 {
            engine.insert(&["a"], i as f64).unwrap();
        }
        let snap = engine.snapshot().unwrap();
        let mut a = snap.rollup(&snap.no_filter()).unwrap();
        let b = snap.rollup(&snap.no_filter()).unwrap();
        a.merge_from(&b);
        assert_eq!(a.count(), 200);
    }
}
