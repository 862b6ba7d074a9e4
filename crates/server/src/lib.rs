//! HTTP/JSON serving layer over the sharded ingestion engine.
//!
//! The paper's use case is *interactive* quantile analytics over
//! high-cardinality sub-populations; this crate is the serving surface
//! that makes the engine reachable from anything that speaks HTTP —
//! dashboards, curl, load generators. It is dependency-free: the HTTP
//! listener is the hand-rolled thread-pool server in the `tiny_http`
//! compat crate (no tokio in the build image), JSON is the `serde_json`
//! compat module, and the snapshot slot is an `arc_swap`-style atomic
//! `Arc` cell.
//!
//! ```text
//!            POST /ingest ──▶ pooled ShardWriter handles (lock-free
//!                                   │  multi-writer: one per HTTP
//!                                   │  thread, no engine mutex)
//!                                   ▼ shard channels
//!                             DynShardedCube ── checkpoint()
//!                                   │  every refresh_interval
//!                                   │  (refresher; WAL fsync under the
//!                                   ▼  engine lock, which ingest skips)
//!            ArcSwap<EngineSnapshot> slot  ◀── POST /refresh (manual)
//!                                   │ load() — never blocks writers
//!                                   ▼
//!   GET /quantile /groupby /threshold /search /stats   (reader pool)
//! ```
//!
//! Ingest is **multi-writer end to end**: each `/ingest` request checks
//! a [`ShardWriter`] out of a pool that start-up fills with one handle
//! per HTTP thread, streams its rows through that handle's own
//! per-shard intern pools and buffers, flushes, and checks the handle
//! back in. Concurrent ingest requests share nothing but the bounded
//! shard channels; the engine mutex is taken to refresh/checkpoint, to
//! shut down, and to replace a handle a failed request dropped — never
//! to report:
//! `/stats`, `/health` and `/metrics` read the obs handles the engine,
//! the WAL and the timeline write their own numbers into, so they take
//! no lock and cannot be stalled by a slow shard or a slow disk.
//!
//! Reads are **snapshot-isolated**: every query runs against the epoch
//! snapshot current when it arrived, never against live shards, so a
//! burst of queries costs ingestion nothing and every response carries
//! the `epoch` it answered from. Numbers render with shortest-round-trip
//! float formatting, so a JSON response reproduces the in-process
//! answer **bit-exactly** (see `examples/http_serve.rs`).
//!
//! The server degrades before it collapses (README, "Fault tolerance &
//! recovery"):
//!
//! * a bounded **admission queue** ([`ServerConfig::queue_cap`]) sheds
//!   excess connections with `429` + `Retry-After` instead of letting
//!   them pile up behind a saturated worker pool;
//! * while no snapshot has been taken yet
//!   ([`ServerConfig::defer_initial_snapshot`]), read endpoints answer
//!   `503` + `Retry-After` rather than fabricating an empty answer;
//! * `/quantile` honors a per-request **deadline**
//!   ([`ServerConfig::quantile_deadline`]): a request that has spent
//!   its budget by the time its cells are merged answers from the
//!   paper's closed-form moment *bounds* (midpoint of the Markov/RTT
//!   interval) instead of a max-entropy solve and marks the response
//!   `"degraded": true`;
//! * with [`ServerConfig::wal_dir`] set, refreshes run through the
//!   engine's durable WAL ([`msketch_engine::Wal`]) and a restart
//!   replays every checkpointed row bit-exactly.
//!
//! Endpoints (details in the README's "Serving layer" section):
//!
//! | Route             | Meaning                                          |
//! |-------------------|--------------------------------------------------|
//! | `POST /ingest`    | columnar rows `{columns: [[..]..], metrics: [..]}` |
//! | `POST /refresh`   | rotate a fresh snapshot now, return its epoch    |
//! | `GET /quantile`   | `?q=0.5,0.99&dim=value…` roll-up quantiles       |
//! | `GET /groupby`    | `?by=dim,dim&q=…` per-group quantiles            |
//! | `GET /threshold`  | `?by=dim&q=0.9&t=500` HAVING via the cascade     |
//! | `GET /search`     | `?by=dim` MacroBase search, whole snapshot only  |
//! | `GET /stats`      | epochs, lag, rows, cells, shard/thread info      |
//! | `GET /health`     | liveness + readiness (200 ready / 503 not yet)   |
//! | `GET /metrics`    | Prometheus text exposition (see below)           |
//! | `GET /trace`      | `?last=N` recent request traces + warn events    |
//!
//! This file holds state, start-up, the route table, ingest and
//! exposition; the four query routes share one read path in `read.rs`.
//!
//! The server **observes itself with the paper's own sketch**
//! (README, "Observability"): per-route latency recorders are striped
//! [`moments_sketch::MomentsSketch`]es merged at scrape time, so the
//! `p50/p95/p99` series on `/metrics` are computed by the max-entropy
//! solver being served. Each instrumented request also opens a root
//! span; the engine's snapshot/WAL spans and the handlers' parse/merge/
//! estimate spans attach to it through a thread local, land in the ring
//! `GET /trace` drains, and are mirrored to stderr as JSON once they
//! cross [`ServerConfig::slow_query`].

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

use arc_swap::ArcSwap;
use moments_sketch::CascadeStats;
use msketch_engine::{
    DynShardedCube, EngineConfig, EngineError, EngineSnapshot, EngineStats, FsyncPolicy,
    RecoveryReport, ShardWriter, WalConfig,
};
use msketch_obs::trace::DEFAULT_TRACE_CAP;
use msketch_obs::{Counter, EventRecord, Gauge, Level, Obs, Recorder, Registry, TraceRecord};
use msketch_sketches::SketchSpec;
use msketch_timeline::{StoreRecovery, Timeline, TimelineConfig, TimelineError, TimelineStats};
use serde_json::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tiny_http::{Request, Response};

mod read;

// Re-exported so examples, tests, and load generators can speak to the
// server without naming the compat crates directly.
pub use serde_json as json;
pub use tiny_http::client;

/// A served snapshot: the engine's merged-cube snapshot type.
pub type ServedSnapshot = EngineSnapshot<SketchSpec>;

/// Tuning knobs for [`MsketchServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// HTTP worker threads answering requests.
    pub threads: usize,
    /// Background snapshot-refresh cadence. `Duration::ZERO` disables
    /// the refresher; snapshots then rotate only via `POST /refresh` or
    /// [`MsketchServer::refresh`].
    pub refresh_interval: Duration,
    /// Configuration of the wrapped ingestion engine.
    pub engine: EngineConfig,
    /// Admission-queue capacity: connections accepted but not yet
    /// claimed by a worker. Once full, new connections are shed with
    /// `429` + `Retry-After` instead of queueing unboundedly. `0`
    /// keeps the queue unbounded (no shedding).
    pub queue_cap: usize,
    /// The `Retry-After` advice (seconds) attached to `429` and `503`
    /// responses.
    pub retry_after_secs: u64,
    /// Per-request time budget for `/quantile`. A request that has
    /// spent it by the time its cells are merged falls back from the
    /// max-entropy solve to the closed-form moment-bound midpoint and
    /// the response is marked `"degraded": true`. `Duration::ZERO`
    /// disables the deadline.
    pub quantile_deadline: Duration,
    /// Skip the initial empty snapshot: read endpoints answer `503` +
    /// `Retry-After` until the first refresh lands. This is how a
    /// recovering replica avoids serving an empty cube as truth.
    pub defer_initial_snapshot: bool,
    /// Directory for the engine's durable WAL. `Some(dir)` opens (or
    /// recovers) the log there, and every refresh's checkpoint appends
    /// to it; `None` keeps the engine purely in-memory.
    pub wal_dir: Option<PathBuf>,
    /// Fsync cadence for the WAL (ignored without `wal_dir`).
    pub fsync: FsyncPolicy,
    /// Directory for the time-bucketed rollup timeline
    /// ([`msketch_timeline::Timeline`]). `Some(dir)` stamps every
    /// ingested row into a time bucket, persists closed buckets as
    /// immutable segments, rolls them up 1m → 1h → 1d (and the
    /// intermediate 5m, 20m and 6h levels) in the background, and
    /// answers `t0`/`t1` range queries on `/quantile`, `/groupby`, and
    /// `/threshold` from the minimal segment cover.
    /// `None` rejects range queries with `400`.
    pub timeline_dir: Option<PathBuf>,
    /// Base bucket width for the timeline, in milliseconds (ignored
    /// without `timeline_dir`).
    pub bucket_ms: u64,
    /// Timeline retention horizon in milliseconds; segments older than
    /// this are deleted during maintenance. Zero keeps everything.
    pub retention_ms: u64,
    /// Cell budget per rolled-up timeline segment (rare dimension
    /// values fold into `<other>`). Zero disables the budget.
    pub cell_budget: usize,
    /// Requests slower than this are mirrored to stderr as JSON trace
    /// lines (they always enter the `/trace` ring regardless).
    /// `Duration::ZERO` disables the slow log.
    pub slow_query: Duration,
    /// Capacity of the in-memory trace ring served by `GET /trace`.
    pub trace_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            refresh_interval: Duration::from_millis(500),
            engine: EngineConfig::default(),
            queue_cap: 0,
            retry_after_secs: 1,
            quantile_deadline: Duration::ZERO,
            defer_initial_snapshot: false,
            wal_dir: None,
            fsync: FsyncPolicy::Always,
            timeline_dir: None,
            bucket_ms: 60_000,
            retention_ms: 0,
            cell_budget: 0,
            slow_query: Duration::ZERO,
            trace_cap: DEFAULT_TRACE_CAP,
        }
    }
}

/// Errors from starting or refreshing the server.
#[derive(Debug)]
pub enum ServeError {
    /// Binding or socket setup failed.
    Io(std::io::Error),
    /// The wrapped engine failed.
    Engine(EngineError),
    /// The rollup timeline failed to open or recover.
    Timeline(TimelineError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "server I/O failed: {e}"),
            ServeError::Engine(e) => write!(f, "engine failed: {e}"),
            ServeError::Timeline(e) => write!(f, "timeline failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<TimelineError> for ServeError {
    fn from(e: TimelineError) -> Self {
        ServeError::Timeline(e)
    }
}

/// Milliseconds since the Unix epoch — the ingest clock for rows that
/// arrive without an explicit timestamp, and the maintenance clock for
/// timeline checkpoints/compaction.
fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// A route's handler.
type Handler = fn(&ServerState, &Request) -> Response;

/// One served route: `(method, path, root span, handler)`.
///
/// `Some(span)` marks an *instrumented* route — one that does real work
/// and therefore gets a latency recorder
/// (`msketch_request_seconds{route=…}`), per-status-class counters, and
/// a per-request root span of that name. `/metrics` and `/trace` carry
/// `None`: the exposition endpoints observe, they are not observed, so
/// a scrape never moves the series it is reporting.
type Route = (&'static str, &'static str, Option<&'static str>, Handler);

/// Every route served — the one list routing, `405` detection (path
/// present under another method) and [`Metrics::routes`] registration
/// all read.
const ROUTES: &[Route] = &[
    ("POST", "/ingest", Some("http::ingest"), handle_ingest),
    ("POST", "/refresh", Some("http::refresh"), handle_refresh),
    ("GET", "/quantile", Some("http::quantile"), |s, r| {
        settle(read::quantile(s, r))
    }),
    ("GET", "/groupby", Some("http::groupby"), |s, r| {
        settle(read::groupby(s, r))
    }),
    ("GET", "/threshold", Some("http::threshold"), |s, r| {
        settle(read::threshold(s, r))
    }),
    ("GET", "/search", Some("http::search"), |s, r| {
        settle(read::search(s, r))
    }),
    ("GET", "/stats", Some("http::stats"), handle_stats),
    ("GET", "/health", Some("http::health"), handle_health),
    ("GET", "/metrics", None, handle_metrics),
    ("GET", "/trace", None, handle_trace),
];

/// A read handler bails out with its error response as `Err`; either
/// way there is a response to send.
fn settle(outcome: read::Outcome<Response>) -> Response {
    outcome.unwrap_or_else(|resp| resp)
}

/// Status-class label values for `msketch_http_requests_total`. Classes
/// keep the cardinality fixed at registration time; this server never
/// emits 1xx/3xx from a handler, so three classes cover everything.
const STATUS_CLASSES: [&str; 3] = ["2xx", "4xx", "5xx"];

fn status_class(status: u16) -> usize {
    match status / 100 {
        2 => 0,
        4 => 1,
        _ => 2,
    }
}

/// Pre-registered handles for one route's hot path: a moment-sketch
/// latency recorder plus one counter per status class.
struct RouteMetrics {
    seconds: Recorder,
    by_class: [Counter; 3],
}

/// Cumulative cascade-stage counters, labelled
/// `{stage=…, backend=…}` — the fix for per-query [`CascadeStats`]
/// being computed, serialized into one response, and dropped. Every
/// `/threshold` and `/search` report folds in here, so `/metrics` and
/// `/stats` show process-lifetime stage hit rates.
struct CascadeCounters {
    /// One counter per [`CascadeStats::stage_counts`] entry, same order.
    stages: Vec<(&'static str, Counter)>,
}

impl CascadeCounters {
    fn register(registry: &Registry, backend: &str) -> CascadeCounters {
        let stages = CascadeStats::default()
            .stage_counts()
            .iter()
            .map(|&(stage, _)| {
                let counter = registry.counter(
                    "msketch_cascade_stage_hits_total",
                    &[("stage", stage), ("backend", backend)],
                );
                (stage, counter)
            })
            .collect();
        CascadeCounters { stages }
    }

    /// Fold one query's evaluator statistics into the running totals.
    fn accumulate(&self, stats: &CascadeStats) {
        for ((_, counter), (_, count)) in self.stages.iter().zip(stats.stage_counts()) {
            counter.add(count);
        }
    }

    /// The cumulative totals, read back out of the registry — the
    /// counters are the single source of truth, `/stats` just reshapes
    /// them.
    fn totals(&self) -> CascadeStats {
        let get = |i: usize| self.stages[i].1.get();
        CascadeStats {
            total: get(0),
            simple_hits: get(1),
            markov_hits: get(2),
            rtt_hits: get(3),
            maxent_evals: get(4),
            maxent_failures: get(5),
        }
    }
}

/// Every metric handle the server touches, registered once at startup
/// so request handlers only ever touch relaxed atomics and their
/// route's striped recorder — never the registry's name-map lock.
struct Metrics {
    /// Aligned with [`ROUTES`]; `None` for the uninstrumented entries.
    routes: Vec<Option<RouteMetrics>>,
    rows_ingested: Counter,
    degraded_served: Counter,
    refresh_errors: Counter,
    timeline_errors: Counter,
    cascade: CascadeCounters,
    // The served snapshot's vitals, set where the slot is stored. Every
    // other series on `/metrics` — engine, WAL, timeline — is the
    // owner's own handle, published by `ShardedCube::set_obs` and
    // `Timeline::register_metrics`; nothing is copied at scrape time.
    snapshot_epoch: Gauge,
    snapshot_rows: Gauge,
    snapshot_cells: Gauge,
}

impl Metrics {
    fn register(registry: &Registry, backend: &str) -> Metrics {
        let routes = ROUTES
            .iter()
            .map(|&(_, path, span, _)| {
                span.map(|_| RouteMetrics {
                    seconds: registry.recorder("msketch_request_seconds", &[("route", path)]),
                    by_class: STATUS_CLASSES.map(|class| {
                        registry.counter(
                            "msketch_http_requests_total",
                            &[("route", path), ("status", class)],
                        )
                    }),
                })
            })
            .collect();
        Metrics {
            routes,
            rows_ingested: registry.counter("msketch_rows_ingested_total", &[]),
            degraded_served: registry.counter("msketch_degraded_responses_total", &[]),
            refresh_errors: registry.counter("msketch_refresh_errors_total", &[]),
            timeline_errors: registry.counter("msketch_timeline_errors_total", &[]),
            cascade: CascadeCounters::register(registry, backend),
            snapshot_epoch: registry.gauge("msketch_snapshot_epoch", &[]),
            snapshot_rows: registry.gauge("msketch_snapshot_rows", &[]),
            snapshot_cells: registry.gauge("msketch_snapshot_cells", &[]),
        }
    }
}

/// A lock-free read of an owner's counters, taken from the owner once
/// at start-up (`stats_reader`).
type StatsReader<T> = Box<dyn Fn() -> T + Send + Sync>;

/// Shared state behind every request handler.
struct ServerState {
    engine: Mutex<DynShardedCube>,
    /// The engine's health numbers, read from its own obs handles
    /// without the mutex above — which a refresh holds while it waits
    /// for every shard. `/stats`, `/health` and `/metrics` use this and
    /// never `lock_engine`.
    engine_stats: StatsReader<EngineStats>,
    /// Engine facts fixed at start-up, copied out for the same reason.
    shards: usize,
    wal_attached: bool,
    /// Pooled ingest handles, one per HTTP worker thread from start-up
    /// on. Each `/ingest` request pops one, streams its rows through the
    /// handle's own intern memos and per-shard buffers, flushes, and
    /// pushes it back. Concurrent ingest requests therefore never
    /// contend on the engine mutex — only on this pop/push and the
    /// bounded shard channels — and a refresh that holds the engine
    /// across a slow fsync stalls no ingest.
    writers: Mutex<Vec<ShardWriter<SketchSpec>>>,
    /// The currently served snapshot. Readers `load()` (an `Arc`
    /// clone); the refresher `store()`s — queries in flight keep the
    /// snapshot they started with alive until they finish. `None`
    /// until the first refresh when the initial snapshot is deferred;
    /// read endpoints answer `503` rather than inventing an answer.
    snapshot: ArcSwap<Option<Arc<ServedSnapshot>>>,
    dims: Vec<String>,
    backend: String,
    threads: usize,
    /// `rows_ingested` (the counter) as of the last snapshot, so the
    /// refresher can skip epochs in which nothing arrived.
    rows_at_refresh: AtomicU64,
    /// The time-bucketed rollup timeline, when configured. Writers
    /// (ingest) and maintenance (refresher) lock it for their inserts
    /// and segment writes; a range query locks it only to plan its
    /// cover (`Timeline::range_read`) and loads and merges the segments
    /// after releasing it.
    timeline: Option<Mutex<Timeline>>,
    /// The timeline's bucket width and a read of its counters that does
    /// not take the mutex above — which maintenance holds across its
    /// segment writes. `None` without a timeline.
    timeline_stats: Option<(u64, StatsReader<TimelineStats>)>,
    /// Per-request `/quantile` time budget (`ZERO` = disabled).
    quantile_deadline: Duration,
    /// Advice attached to `429`/`503` responses.
    retry_after_secs: u64,
    /// The observability bundle: the registry `/metrics` renders and
    /// the trace sink `/trace` drains, shared with the engine via
    /// `set_obs`.
    obs: Obs,
    /// Pre-registered metric handles (see [`Metrics`]). The serving
    /// counters that used to live here as bare `AtomicU64`s —
    /// `rows_accepted`, `degraded_served`, `refresh_errors`,
    /// `timeline_errors` — are now registry counters, so `/stats` and
    /// `/metrics` read the same cells.
    metrics: Metrics,
    started: Instant,
}

impl ServerState {
    /// Lock the engine, shrugging off mutex poisoning. Handlers are
    /// panic-free by construction (enforced by the crate's clippy panic
    /// lints), so poisoning can only come from a panic injected outside
    /// this crate — and even then, one wrecked request must not cascade
    /// a panic through every subsequent one.
    fn lock_engine(&self) -> MutexGuard<'_, DynShardedCube> {
        self.engine.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lock the timeline (same poisoning stance as [`Self::lock_engine`]).
    /// `None` when the server runs without one.
    fn lock_timeline(&self) -> Option<MutexGuard<'_, Timeline>> {
        self.timeline
            .as_ref()
            .map(|t| t.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The snapshot reads answer from right now, if one exists yet.
    fn load_snapshot(&self) -> Option<Arc<ServedSnapshot>> {
        self.snapshot.load().as_ref().clone()
    }

    /// Pop a pooled ingest handle. The pool starts full, so the engine
    /// lock is taken only to mint a replacement for a handle a failed
    /// request dropped (allocating a writer id and cloning the shard
    /// senders — no I/O), never for row work. `Err` carries the
    /// ready-made `503` when the engine is already shut down.
    fn take_writer(&self) -> Result<ShardWriter<SketchSpec>, Response> {
        let pooled = {
            let mut pool = self.writers.lock().unwrap_or_else(PoisonError::into_inner);
            pool.pop()
        };
        if let Some(writer) = pooled {
            return Ok(writer);
        }
        let engine = self.lock_engine();
        if engine.is_shut_down() {
            return Err(error(503, "engine is shut down"));
        }
        Ok(engine.writer())
    }

    /// Return a handle after a successful request. The pool is capped
    /// at the worker-thread count (more handles than threads can never
    /// be in flight at once); handles whose sends failed are dropped by
    /// the caller instead, so a dead channel never circulates.
    fn return_writer(&self, writer: ShardWriter<SketchSpec>) {
        let mut pool = self.writers.lock().unwrap_or_else(PoisonError::into_inner);
        if pool.len() < self.threads {
            pool.push(writer);
        }
    }

    /// Put a fresh snapshot into the slot, then run timeline
    /// maintenance; returns the snapshot's epoch. Every refresh is a
    /// checkpoint: with a WAL attached, the record of the cells it
    /// changed hits disk before the snapshot is published; without
    /// one, it is a delta refresh.
    ///
    /// The engine lock is held across the whole checkpoint, fsync
    /// included, and the snapshot is stored before the lock drops, so
    /// records reach the log in epoch order and the served epoch never
    /// goes backwards. A slow sync stalls this refresh, not `/ingest`,
    /// whose pooled writers need no engine lock.
    fn refresh(&self) -> Result<u64, EngineError> {
        let epoch = self.refresh_engine()?;
        self.maintain_timeline();
        Ok(epoch)
    }

    /// The engine half of [`Self::refresh`].
    fn refresh_engine(&self) -> Result<u64, EngineError> {
        // Root the refresh trace here: on the refresher thread this
        // *is* the root; under `POST /refresh` it degrades to a child
        // of the request's root span. The engine's own
        // snapshot/checkpoint/WAL spans attach underneath through the
        // thread local.
        let _root = self.obs.trace.root_span("server::refresh");
        let mut engine = self.lock_engine();
        let accepted = self.metrics.rows_ingested.get();
        let snapshot = engine.checkpoint()?;
        let epoch = snapshot.epoch();
        self.rows_at_refresh.store(accepted, Ordering::SeqCst);
        self.metrics.snapshot_epoch.set(epoch);
        self.metrics.snapshot_rows.set(snapshot.row_count());
        self.metrics
            .snapshot_cells
            .set(snapshot.cell_count() as u64);
        self.snapshot.store(Arc::new(Some(Arc::new(snapshot))));
        Ok(epoch)
    }

    /// Count and warn-trace a failed refresh, which the next one
    /// retries.
    fn refresh_failed(&self, e: &EngineError) {
        self.metrics.refresh_errors.inc();
        self.obs.trace.event(
            Level::Warn,
            "server::refresh_error",
            &[
                ("detail", format!("{e}")),
                (
                    "refresh_errors_total",
                    self.metrics.refresh_errors.get().to_string(),
                ),
            ],
        );
    }

    /// Count `failures` timeline failures (a maintenance cycle, or
    /// rows an ingest could not stamp) and warn-trace the first, `e`.
    fn timeline_failed(&self, e: &TimelineError, failures: u64) {
        self.metrics.timeline_errors.add(failures);
        self.obs.trace.event(
            Level::Warn,
            "server::timeline_error",
            &[
                ("detail", format!("{e}")),
                ("failures", failures.to_string()),
                (
                    "timeline_errors_total",
                    self.metrics.timeline_errors.get().to_string(),
                ),
            ],
        );
    }

    /// Timeline maintenance: checkpoint open buckets, roll up closed
    /// windows, enforce retention. It runs on every refresher tick,
    /// idle or not, so windows seal and retention holds after ingest
    /// stops. A failed cycle (e.g. a full disk) is non-fatal — counted
    /// and warn-traced at the moment it happens, retried next tick.
    fn maintain_timeline(&self) {
        let Some(mut timeline) = self.lock_timeline() else {
            return;
        };
        let _span = msketch_obs::span("server::timeline_maintain");
        if let Err(e) = timeline.maintain(now_ms()) {
            self.timeline_failed(&e, 1);
        }
    }
}

/// The refresher's stop flag: shutdown sets it and wakes the refresher
/// out of its wait at once.
#[derive(Default)]
struct StopSignal {
    stopped: Mutex<bool>,
    wake: Condvar,
}

impl StopSignal {
    /// Set the flag and wake the waiting refresher.
    fn stop(&self) {
        *self.stopped.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.wake.notify_all();
    }

    /// Wait until `interval` has elapsed or [`StopSignal::stop`] was
    /// called; true when stopped.
    fn wait(&self, interval: Duration) -> bool {
        let stopped = self.stopped.lock().unwrap_or_else(PoisonError::into_inner);
        let waited = self
            .wake
            .wait_timeout_while(stopped, interval, |stopped| !*stopped);
        let (stopped, _) = waited.unwrap_or_else(PoisonError::into_inner);
        *stopped
    }
}

/// The serving layer: a [`DynShardedCube`] plus an HTTP pool and a
/// background snapshot refresher. See the crate docs for the endpoint
/// table; construction is [`MsketchServer::start`].
pub struct MsketchServer {
    state: Arc<ServerState>,
    http: Option<tiny_http::Server>,
    /// Captured at bind time so it stays answerable after `shutdown()`
    /// has torn the listener down.
    addr: std::net::SocketAddr,
    refresher: Option<JoinHandle<()>>,
    refresher_stop: Arc<StopSignal>,
    /// What WAL replay recovered at startup (`None` without a WAL).
    recovery: Option<RecoveryReport>,
    /// What the timeline's segment scan recovered at startup (`None`
    /// without a timeline).
    timeline_recovery: Option<StoreRecovery>,
}

impl MsketchServer {
    /// Build the engine (replaying the WAL when one is configured),
    /// take the initial snapshot unless deferred, bind the listener,
    /// and spawn the worker pool and refresher.
    pub fn start(
        spec: SketchSpec,
        dims: &[&str],
        config: ServerConfig,
    ) -> Result<MsketchServer, ServeError> {
        let ServerConfig {
            addr,
            threads,
            refresh_interval,
            engine: engine_config,
            queue_cap,
            retry_after_secs,
            quantile_deadline,
            defer_initial_snapshot,
            wal_dir,
            fsync,
            timeline_dir,
            bucket_ms,
            retention_ms,
            cell_budget,
            slow_query,
            trace_cap,
        } = config;
        let backend = format!("{}:{}", spec.kind(), spec.param());
        let obs = Obs {
            registry: Arc::new(Registry::new()),
            trace: Arc::new(msketch_obs::TraceSink::new(trace_cap)),
        };
        obs.trace.set_slow_threshold(slow_query);
        let metrics = Metrics::register(&obs.registry, &backend);
        let (timeline, timeline_stats, timeline_recovery) = match &timeline_dir {
            Some(dir) => {
                let timeline_config = TimelineConfig::default()
                    .bucket_ms(bucket_ms)
                    .retention_ms(retention_ms)
                    .cell_budget(cell_budget)
                    .fsync(fsync);
                let (timeline, report) = Timeline::open(dir, spec.clone(), dims, timeline_config)?;
                timeline.register_metrics(&obs.registry);
                let stats: StatsReader<TimelineStats> = Box::new(timeline.stats_reader());
                let stats = (timeline.config().bucket_ms, stats);
                (Some(Mutex::new(timeline)), Some(stats), Some(report))
            }
            None => {
                // A scrape has the same series with or without a
                // timeline; without one they stay at zero.
                let registry = &obs.registry;
                registry.gauge("msketch_timeline_segments", &[]);
                registry.gauge("msketch_timeline_segment_bytes", &[]);
                registry.counter("msketch_timeline_segment_cache_hits_total", &[]);
                registry.counter("msketch_timeline_segment_cache_misses_total", &[]);
                registry.gauge("msketch_timeline_segment_cache_cells", &[]);
                (None, None, None)
            }
        };
        let (mut engine, recovery) = match &wal_dir {
            Some(dir) => {
                let (engine, report) =
                    DynShardedCube::recover(spec, dims, engine_config, dir, WalConfig { fsync })?;
                (engine, Some(report))
            }
            None => (DynShardedCube::new(spec, dims, engine_config), None),
        };
        // Hook the engine into the bundle *after* recovery so the WAL
        // handle (re)opened by replay gets its fsync recorder too.
        engine.set_obs(&obs);
        let threads = threads.max(1);
        let writers = (0..threads).map(|_| engine.writer()).collect();
        let state = Arc::new(ServerState {
            engine_stats: Box::new(engine.stats_reader()),
            shards: engine.shard_count(),
            wal_attached: engine.wal_attached(),
            engine: Mutex::new(engine),
            writers: Mutex::new(writers),
            timeline,
            timeline_stats,
            snapshot: ArcSwap::new(Arc::new(None)),
            dims: dims.iter().map(|s| s.to_string()).collect(),
            backend,
            threads,
            rows_at_refresh: AtomicU64::new(0),
            quantile_deadline,
            retry_after_secs,
            obs,
            metrics,
            started: Instant::now(),
        });
        // An initial snapshot means the slot is never empty: every read
        // endpoint works from the first request on. Deferring it makes
        // readiness explicit instead (503 + /health until refreshed).
        if !defer_initial_snapshot {
            state.refresh()?;
        }
        let handler_state = Arc::clone(&state);
        let http = tiny_http::Server::bind_with_queue(
            &addr,
            threads,
            queue_cap,
            retry_after_secs,
            move |req: &Request| route(&handler_state, req),
        )?;
        let addr = http.local_addr();
        let refresher_stop = Arc::new(StopSignal::default());
        let refresher = if refresh_interval > Duration::ZERO {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&refresher_stop);
            let interval = refresh_interval;
            // A failed spawn is a startup error like a failed bind, not
            // a panic: callers see it as `ServeError::Io`.
            let handle = std::thread::Builder::new()
                .name("msketch-refresher".to_string())
                .spawn(move || {
                    // Shutdown wakes the wait at once, whatever the cadence.
                    while !stop.wait(interval) {
                        // Skip the engine refresh when nothing arrived —
                        // unless the slot is still empty (deferred
                        // initial snapshot): then refreshing is how the
                        // server becomes ready. Timeline maintenance
                        // runs either way.
                        let accepted = state.metrics.rows_ingested.get();
                        if accepted == state.rows_at_refresh.load(Ordering::SeqCst)
                            && state.load_snapshot().is_some()
                        {
                            state.maintain_timeline();
                            continue;
                        }
                        match state.refresh() {
                            Ok(_) => {}
                            // The engine is gone for good (shutdown
                            // race): stop quietly. Anything else —
                            // e.g. a WAL append failure — is transient:
                            // count it, trace it, and keep refreshing.
                            Err(EngineError::ShutDown) | Err(EngineError::Disconnected) => return,
                            Err(e) => state.refresh_failed(&e),
                        }
                    }
                })?;
            Some(handle)
        } else {
            None
        };
        Ok(MsketchServer {
            state,
            http: Some(http),
            addr,
            refresher,
            refresher_stop,
            recovery,
            timeline_recovery,
        })
    }

    /// The bound address (with the real port when configured with 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The snapshot queries are currently answered from — the same
    /// handle a concurrent HTTP request would use, and the in-process
    /// ground truth for bit-exactness checks. `None` while the server
    /// has not refreshed yet (deferred initial snapshot).
    pub fn current_snapshot(&self) -> Option<Arc<ServedSnapshot>> {
        self.state.load_snapshot()
    }

    /// The server's observability bundle — the registry `GET /metrics`
    /// renders and the trace sink `GET /trace` drains. Tests and
    /// benches read the same handles the handlers write.
    pub fn obs(&self) -> &Obs {
        &self.state.obs
    }

    /// What WAL replay recovered at startup; `None` when the server
    /// runs without a WAL.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// What the timeline's segment scan recovered at startup; `None`
    /// when the server runs without a timeline.
    pub fn timeline_recovery(&self) -> Option<&StoreRecovery> {
        self.timeline_recovery.as_ref()
    }

    /// Rotate a fresh snapshot now (what `POST /refresh` calls).
    pub fn refresh(&self) -> Result<u64, EngineError> {
        self.state.refresh()
    }

    /// Stop the refresher, drain and join the HTTP pool, checkpoint the
    /// timeline and the engine, and shut the engine's shard workers down
    /// (joining their threads). Idempotent; also runs on drop —
    /// dropping a server leaks nothing.
    pub fn shutdown(&mut self) {
        self.refresher_stop.stop();
        if let Some(refresher) = self.refresher.take() {
            let _ = refresher.join();
        }
        if let Some(mut http) = self.http.take() {
            http.shutdown();
        }
        // Flush open timeline buckets so a graceful shutdown loses no
        // timestamped rows (a hard kill loses only the unflushed tail,
        // which the CI crash smoke bounds).
        if let Some(mut timeline) = self.state.lock_timeline() {
            let _ = timeline.checkpoint(now_ms());
        }
        // The same for the engine: with a WAL, every row `/ingest`
        // acknowledged since the last refresh reaches the log, so a
        // restart agrees with the timeline. A failure is counted and
        // traced as the refresher's are.
        match self.state.refresh_engine() {
            Ok(_) | Err(EngineError::ShutDown) => {}
            Err(e) => self.state.refresh_failed(&e),
        }
        let _ = self.state.lock_engine().shutdown();
    }
}

impl Drop for MsketchServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Look the request up in [`ROUTES`], instrument, and run its handler:
/// an instrumented route runs under a latency timer, a status-class
/// counter, and a root span the handler's child spans attach to.
/// Method-mismatch `405`s and unknown-path `404`s skip instrumentation
/// — the recorders measure real work, not typos — and so do the
/// exposition endpoints themselves.
fn route(state: &ServerState, req: &Request) -> Response {
    let served = |&(method, path, _, _): &Route| method == req.method && path == req.path;
    let Some(idx) = ROUTES.iter().position(served) else {
        return if ROUTES.iter().any(|&(_, path, _, _)| path == req.path) {
            error(405, "method not allowed for this route")
        } else {
            error(404, "no such route")
        };
    };
    let (_, _, span, handler) = ROUTES[idx];
    let (Some(span), Some(handles)) = (span, &state.metrics.routes[idx]) else {
        return handler(state, req);
    };
    // The timer spans root-span assembly too, so the recorder sees the
    // full server-side cost of the request.
    let timer = handles.seconds.start();
    let mut root = state.obs.trace.root_span(span);
    let resp = handler(state, req);
    // The root span name already carries the route; only the status is
    // worth an allocation on this path.
    root.field("status", resp.status);
    drop(root);
    timer.stop();
    handles.by_class[status_class(resp.status)].inc();
    resp
}

fn error(status: u16, message: &str) -> Response {
    let body = Value::object(vec![("error", Value::from(message))]);
    Response::json(status, body.to_string())
}

fn ok(body: Value) -> Response {
    Response::json(200, body.to_string())
}

/// `503` + `Retry-After`: the server is up but cannot answer this yet.
fn unavailable(state: &ServerState, message: &str) -> Response {
    error(503, message).with_header("Retry-After", state.retry_after_secs.to_string())
}

/// `POST /ingest` — body `{"columns": [[v,…] per dimension], "metrics": [x,…]}`.
///
/// Columns are column-major (one array per dimension), mirroring
/// [`msketch_cube::ColumnarBatch`]: each distinct value string appears
/// once per JSON array slot, and rows become visible to queries at the
/// next snapshot rotation.
fn handle_ingest(state: &ServerState, req: &Request) -> Response {
    let mut decode_span = msketch_obs::span("server::decode_json");
    let Some(body) = req.body_str() else {
        return error(400, "body is not UTF-8");
    };
    let doc = match serde_json::from_str(body) {
        Ok(doc) => doc,
        Err(e) => return error(400, &format!("invalid JSON body: {e}")),
    };
    let Some(columns) = doc.get("columns").and_then(Value::as_array) else {
        return error(400, "missing \"columns\": expected one array per dimension");
    };
    let Some(metrics) = doc.get("metrics").and_then(Value::as_array) else {
        return error(400, "missing \"metrics\": expected an array of numbers");
    };
    if columns.len() != state.dims.len() {
        return error(
            400,
            &format!(
                "expected {} dimension columns ({}), got {}",
                state.dims.len(),
                state.dims.join(", "),
                columns.len()
            ),
        );
    }
    let n = metrics.len();
    let mut cols: Vec<&[Value]> = Vec::with_capacity(columns.len());
    for column in columns {
        let Some(values) = column.as_array() else {
            return error(400, "each column must be an array of strings");
        };
        if values.len() != n {
            return error(400, "ragged batch: column length != metrics length");
        }
        cols.push(values);
    }
    let mut metric_values = Vec::with_capacity(n);
    for m in metrics {
        let Some(x) = m.as_f64() else {
            return error(400, "metrics must be numbers");
        };
        metric_values.push(x);
    }
    // Optional per-row timestamps (ms since epoch) for the timeline;
    // rows without them are stamped with the server's receive time.
    let ts_values: Option<Vec<u64>> = match doc.get("ts") {
        None => None,
        Some(raw) => {
            if state.timeline.is_none() {
                return error(
                    400,
                    "\"ts\" timestamps need a timeline (start with --timeline-dir)",
                );
            }
            let Some(list) = raw.as_array() else {
                return error(400, "\"ts\" must be an array of millisecond timestamps");
            };
            if list.len() != n {
                return error(400, "ragged batch: ts length != metrics length");
            }
            let mut out = Vec::with_capacity(n);
            for t in list {
                let Some(ms) = t.as_u64() else {
                    return error(400, "\"ts\" entries must be non-negative integers (ms)");
                };
                out.push(ms);
            }
            Some(out)
        }
    };
    // Validate dimension values before any row is buffered, so a
    // malformed row can't leave earlier rows half-staged in a pooled
    // writer that then goes back into circulation.
    let mut str_cols: Vec<Vec<&str>> = Vec::with_capacity(cols.len());
    for col in &cols {
        let mut out = Vec::with_capacity(n);
        for v in *col {
            let Some(s) = v.as_str() else {
                return error(400, "dimension values must be strings");
            };
            out.push(s);
        }
        str_cols.push(out);
    }
    decode_span.field("rows", n);
    drop(decode_span);
    // Multi-writer ingest: rows stream through a pooled ShardWriter,
    // not the engine mutex. Concurrent requests intern and buffer
    // independently and only meet at the bounded shard channels.
    let mut write_span = msketch_obs::span("server::shard_write");
    let mut writer = match state.take_writer() {
        Ok(writer) => writer,
        Err(resp) => return resp,
    };
    let mut row: Vec<&str> = Vec::with_capacity(str_cols.len());
    for (i, &metric) in metric_values.iter().enumerate() {
        row.clear();
        for col in &str_cols {
            row.push(col[i]);
        }
        if let Err(e) = writer.insert(&row, metric) {
            // The handle's channels are dead (engine shut down mid
            // request): drop it here instead of pooling a broken one.
            return engine_error(&e);
        }
    }
    // Flush before acknowledging: once `accepted` is reported, every
    // row is in its shard channel and the next snapshot will carry it.
    if let Err(e) = writer.flush() {
        return engine_error(&e);
    }
    state.return_writer(writer);
    state.metrics.rows_ingested.add(n as u64);
    write_span.field("rows", n);
    drop(write_span);
    // Mirror the batch into the timeline (values already validated
    // above). Rows whose bucket is already rolled up are dropped as
    // late and reported, not errored. The engine already holds every
    // row, so a row the timeline cannot stamp (its closed bucket's
    // segment does not load) is counted and reported too: a 500 here
    // would invite a retry that double-counts every all-time answer.
    let (mut late_dropped, mut timeline_failed) = (0u64, 0u64);
    if let Some(mut timeline) = state.lock_timeline() {
        let mut timeline_span = msketch_obs::span("server::timeline_insert");
        let now = now_ms();
        let mut first_error = None;
        let mut row: Vec<&str> = Vec::with_capacity(str_cols.len());
        for (i, &metric) in metric_values.iter().enumerate() {
            row.clear();
            for col in &str_cols {
                row.push(col[i]);
            }
            let ts = ts_values.as_ref().map_or(now, |ts| ts[i]);
            match timeline.insert(ts, &row, metric) {
                Ok(true) => {}
                Ok(false) => late_dropped += 1,
                Err(e) => {
                    timeline_failed += 1;
                    first_error.get_or_insert(e);
                }
            }
        }
        drop(timeline);
        if let Some(e) = first_error {
            state.timeline_failed(&e, timeline_failed);
        }
        timeline_span.field("late_dropped", late_dropped);
    }
    let mut fields = vec![
        ("accepted", Value::from(n)),
        (
            "rows_accepted",
            Value::from(state.metrics.rows_ingested.get()),
        ),
    ];
    if state.timeline.is_some() {
        fields.push(("late_dropped", Value::from(late_dropped)));
        fields.push(("timeline_failed", Value::from(timeline_failed)));
    }
    ok(Value::object(fields))
}

fn engine_error(e: &EngineError) -> Response {
    match e {
        EngineError::Disconnected | EngineError::ShutDown => error(503, "engine is shut down"),
        other => error(400, &format!("{other}")),
    }
}

/// `POST /refresh` — rotate a fresh snapshot now.
fn handle_refresh(state: &ServerState, _: &Request) -> Response {
    match state.refresh() {
        Ok(epoch) => ok(Value::object(vec![("epoch", Value::from(epoch))])),
        Err(e) => engine_error(&e),
    }
}

fn stats_value(stats: &CascadeStats) -> Value {
    Value::object(vec![
        ("total", Value::from(stats.total)),
        ("simple_hits", Value::from(stats.simple_hits)),
        ("markov_hits", Value::from(stats.markov_hits)),
        ("rtt_hits", Value::from(stats.rtt_hits)),
        ("maxent_evals", Value::from(stats.maxent_evals)),
        ("maxent_failures", Value::from(stats.maxent_failures)),
    ])
}

/// The `/stats` `"timeline"` section: segment inventory, ingest
/// counters and the decoded-segment cache, or `{"enabled": false}`
/// without a timeline. Reads the timeline's counters, not the timeline.
fn timeline_stats_value(state: &ServerState) -> Value {
    let Some((bucket_ms, read_stats)) = &state.timeline_stats else {
        return Value::object(vec![("enabled", Value::from(false))]);
    };
    let stats = read_stats();
    let cache = stats.segment_cache;
    Value::object(vec![
        ("enabled", Value::from(true)),
        ("bucket_ms", Value::from(*bucket_ms)),
        ("open_buckets", Value::from(stats.open_buckets)),
        ("segments", Value::from(stats.segments)),
        ("segment_levels", Value::array(stats.segment_levels)),
        ("segment_bytes", Value::from(stats.segment_bytes)),
        ("rows_ingested", Value::from(stats.rows_ingested)),
        ("late_dropped", Value::from(stats.late_dropped)),
        ("segments_written", Value::from(stats.segments_written)),
        ("rollups_written", Value::from(stats.rollups_written)),
        ("values_folded", Value::from(stats.values_folded)),
        ("retention_removed", Value::from(stats.retention_removed)),
        ("errors", Value::from(state.metrics.timeline_errors.get())),
        (
            "segment_cache",
            Value::object(vec![
                ("cells", Value::from(cache.cells)),
                ("capacity_cells", Value::from(cache.capacity_cells)),
                ("hits", Value::from(cache.hits)),
                ("misses", Value::from(cache.misses)),
            ]),
        ),
    ])
}

/// How many engine epochs the served snapshot is behind; with no
/// snapshot yet, every engine epoch is unserved lag.
fn epoch_lag(engine: &EngineStats, snap: Option<&ServedSnapshot>) -> u64 {
    engine.epoch.saturating_sub(snap.map_or(0, |s| s.epoch()))
}

/// `GET /stats` — serving, staleness, and fault counters. Takes no
/// lock: the engine's and the timeline's numbers are read from the obs
/// handles their owners write, so the route answers while a refresh
/// holds the engine or maintenance holds the timeline.
fn handle_stats(state: &ServerState, _: &Request) -> Response {
    let snap = state.load_snapshot();
    let engine = (state.engine_stats)();
    let of_snap = |read: fn(&ServedSnapshot) -> u64| match &snap {
        Some(s) => Value::from(read(s)),
        None => Value::Null,
    };
    ok(Value::object(vec![
        ("backend", Value::from(state.backend.as_str())),
        ("dims", Value::array(state.dims.iter().map(String::as_str))),
        ("shards", Value::from(state.shards)),
        ("http_threads", Value::from(state.threads)),
        ("engine_epoch", Value::from(engine.epoch)),
        ("snapshot_epoch", of_snap(|s| s.epoch())),
        (
            "epoch_lag",
            Value::from(epoch_lag(&engine, snap.as_deref())),
        ),
        ("snapshot_rows", of_snap(|s| s.row_count())),
        ("snapshot_cells", of_snap(|s| s.cell_count() as u64)),
        (
            "rows_accepted",
            Value::from(state.metrics.rows_ingested.get()),
        ),
        ("worker_restarts", Value::from(engine.worker_restarts)),
        ("rows_lost", Value::from(engine.rows_lost)),
        ("wal_attached", Value::from(state.wal_attached)),
        ("wal_segments", Value::from(engine.wal_segments)),
        ("wal_bytes", Value::from(engine.wal_bytes)),
        ("wal_append_errors", Value::from(engine.wal_append_errors)),
        (
            "delta_cells_applied",
            Value::from(engine.delta_cells_applied),
        ),
        (
            "last_refresh_micros",
            Value::from(engine.last_refresh_micros),
        ),
        (
            "degraded_served",
            Value::from(state.metrics.degraded_served.get()),
        ),
        (
            "refresh_errors",
            Value::from(state.metrics.refresh_errors.get()),
        ),
        // Cumulative cascade totals across every /threshold and /search
        // served — read back out of the same counters /metrics exposes.
        ("cascade", stats_value(&state.metrics.cascade.totals())),
        ("timeline", timeline_stats_value(state)),
        ("shut_down", Value::from(engine.shut_down)),
        (
            "uptime_ms",
            Value::from(state.started.elapsed().as_millis() as u64),
        ),
    ]))
}

/// `GET /metrics` — Prometheus text exposition (format 0.0.4).
///
/// Counters and gauges render as you'd expect; latency recorders render
/// as summaries whose `quantile="0.5|0.95|0.99"` series are max-entropy
/// solves over the recorder's merged moments sketch — the system
/// reporting on itself with the paper's own estimator. Takes no lock
/// and copies nothing: the engine, WAL and timeline series *are* their
/// owners' counters (published at start-up), and the snapshot gauges
/// are set when a snapshot is stored, so a scrape renders the registry
/// as it stands.
fn handle_metrics(state: &ServerState, _: &Request) -> Response {
    let mut resp = Response::text(200, &state.obs.registry.render());
    resp.content_type = "text/plain; version=0.0.4";
    resp
}

/// `GET /trace?last=N` — drain the most recent request traces and
/// warn-level events (newest last), as the same JSON objects the slow
/// log prints to stderr.
fn handle_trace(state: &ServerState, req: &Request) -> Response {
    let last = match req.query_param("last") {
        None => 32,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return error(400, "last must be a non-negative integer"),
        },
    };
    let traces: Vec<String> = state
        .obs
        .trace
        .recent_traces(last)
        .iter()
        .map(TraceRecord::to_json)
        .collect();
    let events: Vec<String> = state
        .obs
        .trace
        .recent_events(last)
        .iter()
        .map(EventRecord::to_json)
        .collect();
    // The records are already JSON objects (the trace layer renders
    // them once, for stderr and for this endpoint); splice them rather
    // than re-encoding.
    let body = format!(
        "{{\"slow_query_ms\":{},\"traces\":[{}],\"events\":[{}]}}",
        state.obs.trace.slow_threshold().as_millis(),
        traces.join(","),
        events.join(",")
    );
    Response::json(200, body)
}

/// `GET /health` — liveness and readiness in one probe.
///
/// Answering at all is liveness (`"live": true`). Readiness means a
/// snapshot exists and the engine is up: `200` when ready, `503` +
/// `Retry-After` when not — the shape load balancers and the CI smoke
/// test poll. The body always carries the fault counters a supervisor
/// would alert on. Takes no lock (see [`handle_stats`]), so a probe is
/// never queued behind a slow shard or a slow disk.
fn handle_health(state: &ServerState, _: &Request) -> Response {
    let snap = state.load_snapshot();
    let engine = (state.engine_stats)();
    let ready = snap.is_some() && !engine.shut_down;
    let body = Value::object(vec![
        ("live", Value::from(true)),
        ("ready", Value::from(ready)),
        (
            "epoch_lag",
            Value::from(epoch_lag(&engine, snap.as_deref())),
        ),
        ("worker_restarts", Value::from(engine.worker_restarts)),
        ("rows_lost", Value::from(engine.rows_lost)),
        ("wal_attached", Value::from(state.wal_attached)),
        ("shut_down", Value::from(engine.shut_down)),
    ]);
    if ready {
        ok(body)
    } else {
        Response::json(503, body.to_string())
            .with_header("Retry-After", state.retry_after_secs.to_string())
    }
}

#[cfg(test)]
mod tests;
