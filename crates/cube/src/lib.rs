//! A Druid-like in-memory aggregation engine (Section 7.1 of the paper).
//!
//! Druid-style engines pre-aggregate one mergeable summary per combination
//! of dimension values and answer quantile queries by merging the relevant
//! summaries — never rescanning raw data (Figure 1 of the paper). This
//! crate reproduces that query path:
//!
//! * [`dictionary`] — string-to-id encoding per dimension, including id
//!   remapping between independently grown dictionaries;
//! * [`batch`] — columnar row batches with batch-local value pools (the
//!   encode-once ingest unit, also shipped over channels by the sharded
//!   ingestion engine);
//! * [`hash`] — the fast batch-local hasher and the stable shard-routing
//!   hash;
//! * [`cube`] — the cell store: ingest rows (one at a time or batched),
//!   union concurrently built cubes, pre-aggregate per cell, roll-up
//!   with filters. Every read merges in one canonical (decoded-tuple)
//!   cell order that the store sorts once per cube state, at its second
//!   ordered read (the first filtered one sorts only its matches);
//!   writes that only replace summaries keep it, writes that add or
//!   remove cells drop it, and reads binary-search a filter's fixed
//!   leading dimensions and filter the rest linearly;
//! * [`query`] — single-quantile and group-by/HAVING threshold queries,
//!   with the cascade fast path for moments-sketch cells;
//! * [`window`] — time panes and sliding windows, including the turnstile
//!   (`merge` new pane / `sub` old pane) update the moments sketch
//!   supports (Section 7.2.2).

pub mod batch;
pub mod cube;
pub mod delta;
pub mod dictionary;
pub mod hash;
pub mod query;
pub mod segment;
pub mod serde;
pub mod window;

pub use batch::ColumnarBatch;
pub use cube::{CellRef, DataCube};
pub use delta::{AppliedDelta, CubeDelta, InternedBatch, InternedColumn, WriterTable};
pub use dictionary::Dictionary;
pub use query::{GroupReport, GroupThresholdQuery, QuantileReport, QueryEngine, ThresholdReport};
pub use segment::{frame_segment, unframe_segment, Segment, SegmentError};
pub use serde::DynCube;
pub use window::{sliding_windows_remerge, sliding_windows_turnstile, TurnstileWindow};

/// Errors from cube construction and querying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Row arity does not match the schema.
    DimensionMismatch {
        /// Dimensions the cube was created with.
        expected: usize,
        /// Dimensions supplied.
        got: usize,
    },
    /// Referenced an unknown dimension index.
    NoSuchDimension(usize),
    /// Two cubes with different dimension schemas cannot union.
    SchemaMismatch {
        /// Dimension names of the destination cube.
        expected: Vec<String>,
        /// Dimension names of the cube being merged in.
        got: Vec<String>,
    },
    /// Columnar input where a dimension column's length disagrees with
    /// the metric count.
    RaggedColumns {
        /// Number of metric values supplied.
        metrics: usize,
        /// Length of the shortest dimension column.
        shortest: usize,
    },
    /// Two cubes whose cells use different sketch backends cannot union.
    BackendMismatch {
        /// Backend name of the destination cube's cells.
        expected: &'static str,
        /// Backend name of the cells being merged in.
        got: &'static str,
    },
    /// A query matched no cells.
    EmptyResult,
    /// An interned batch or snapshot delta referenced a pool id outside
    /// its decode table — a writer/worker desync.
    BadInternedBatch,
    /// A persisted cube failed to encode or decode.
    Wire(msketch_sketches::SketchError),
}

impl From<msketch_sketches::SketchError> for Error {
    fn from(e: msketch_sketches::SketchError) -> Self {
        Error::Wire(e)
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} dimensions, got {got}")
            }
            Error::NoSuchDimension(d) => write!(f, "no such dimension: {d}"),
            Error::SchemaMismatch { expected, got } => {
                write!(
                    f,
                    "cube schemas differ: [{}] vs [{}]",
                    expected.join(", "),
                    got.join(", ")
                )
            }
            Error::RaggedColumns { metrics, shortest } => {
                write!(
                    f,
                    "ragged columnar input: {metrics} metrics vs a column of {shortest} values"
                )
            }
            Error::BackendMismatch { expected, got } => {
                write!(f, "cube sketch backends differ: {expected} vs {got}")
            }
            Error::EmptyResult => write!(f, "query matched no cells"),
            Error::BadInternedBatch => {
                write!(
                    f,
                    "interned batch referenced an id outside its decode table"
                )
            }
            Error::Wire(e) => write!(f, "cube wire format: {e}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;
