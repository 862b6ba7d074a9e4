//! Sharded concurrent ingestion engine.
//!
//! The paper's query cost model (`t_query = t_merge · n_merge + t_est`,
//! Section 3.3) presumes cubes are cheap to build and merge; this crate
//! supplies the write path that makes that true at Druid-like ingest
//! rates. Rows are routed by a stable hash of their dimension-value
//! tuple to one of N shard workers, each feeding its own
//! [`msketch_cube::DataCube`] over a bounded channel in pre-interned
//! columnar batches ([`msketch_cube::InternedBatch`] — each writer
//! handle interns dimension values into its own per-shard pools, so
//! workers decode dense ids instead of re-hashing strings per row).
//! Because the moments sketch merges
//! by bit-exact power-sum addition and each dimension tuple lands on
//! exactly one shard, folding the shard-local cubes back together
//! ([`DataCube::merge_cube`](msketch_cube::DataCube::merge_cube), with
//! dictionary id remapping) reproduces sequential ingestion *exactly* —
//! concurrency costs no accuracy.
//!
//! ```text
//!              route_hash(dims) % N
//! writer ──┬─▶ channel 0 ─▶ worker 0: DataCube (shard-local dicts)
//!  (rows   ├─▶ channel 1 ─▶ worker 1: DataCube        │ delta (cells
//!  batched │        …                …                │ touched since
//!  per     └─▶ channel N-1 ─▶ worker N-1: DataCube    ▼ the last one)
//!  shard)                       apply_delta ─▶ EngineSnapshot (epoch e)
//!                                     │ checkpoint: cells refreshed since
//!                                     ▼ the last record ─▶ Wal (CRC frames)
//! ```
//!
//! * [`ShardedCube`] — the engine: spawn workers, ingest, snapshot,
//!   checkpoint;
//! * [`ShardWriter`] — additional ingest handles for concurrent writers;
//! * [`EngineSnapshot`] — an epoch-stamped immutable merged cube;
//!   readers query it (it derefs to `DataCube`) while writers continue;
//! * [`Wal`] — the durable log a checkpoint appends to and
//!   [`DynShardedCube::recover`] replays;
//! * [`EngineStats`] — a read of the engine's health numbers, which
//!   live in `msketch_obs` handles the engine owns (and `set_obs`
//!   publishes), so reading them takes no lock.
//!
//! Windows over time are not this crate's job: the serving layer
//! answers `t0`/`t1` ranges from `msketch_timeline`, and the paper's
//! §7.2.2 turnstile lives in [`msketch_cube::window`].

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

mod delta;
mod sharded;
mod snapshot;
mod supervisor;
mod wal;

pub use sharded::{DynShardedCube, EngineConfig, ShardWriter, ShardedCube, StagedCheckpoint};
pub use snapshot::EngineSnapshot;
pub use supervisor::EngineStats;
pub use wal::{sync_dir, FsyncPolicy, RecoveryReport, Wal, WalConfig, WalError};

/// Errors from the concurrent engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A cube-level operation failed (arity, schema, empty result).
    Cube(msketch_cube::Error),
    /// A shard worker terminated; the engine can no longer make
    /// progress.
    Disconnected,
    /// The engine has been shut down: workers are joined and no further
    /// ingest, snapshot, or shutdown call can succeed.
    ShutDown,
    /// Durable-log I/O or replay failed (see [`WalError`]).
    Wal(WalError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Cube(e) => write!(f, "cube operation failed: {e}"),
            EngineError::Disconnected => f.write_str("a shard worker has terminated"),
            EngineError::ShutDown => f.write_str("the engine has been shut down"),
            EngineError::Wal(e) => write!(f, "durable log failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<msketch_cube::Error> for EngineError {
    fn from(e: msketch_cube::Error) -> Self {
        EngineError::Cube(e)
    }
}

impl From<WalError> for EngineError {
    fn from(e: WalError) -> Self {
        EngineError::Wal(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, EngineError>;
