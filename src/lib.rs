//! # msketch — moments-sketch workspace facade
//!
//! One-stop crate re-exporting the whole reproduction of *Moment-Based
//! Quantile Sketches for Efficient High Cardinality Aggregation Queries*
//! (Gan et al., VLDB 2018):
//!
//! * [`core`] — the moments sketch, its maximum-entropy solver, bounds,
//!   and cascades;
//! * [`sketches`] — the baseline mergeable quantile summaries;
//! * [`datasets`] — calibrated synthetic evaluation datasets;
//! * [`cube`] — the Druid-like pre-aggregation engine;
//! * [`engine`] — the sharded concurrent ingestion engine (batched
//!   shard-local cubes, delta-refreshed epoch snapshots, the
//!   write-ahead log);
//! * [`timeline`] — time-bucketed continuous aggregation: persisted
//!   per-bucket segments, the hierarchical rollup compactor, and
//!   arbitrary-range query planning over the minimal segment cover;
//! * [`server`] — the HTTP/JSON serving layer over engine snapshots;
//! * [`macrobase`] — the MacroBase-like threshold-search engine;
//! * [`obs`] — self-hosting observability: moment-sketch latency
//!   recorders, request tracing, and Prometheus text exposition;
//! * [`numerics`] — the numerical substrate.
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `msketch-repro` (`crates/bench`) for the paper's figures and tables,
//! including the lesion study's alternative estimators.
//!
//! Most applications only need the [`prelude`]:
//!
//! ```
//! use msketch::prelude::*;
//!
//! // Backend chosen at runtime, cube serialized and restored — the
//! // Druid segment lifecycle.
//! let spec = SketchSpec::parse("moments:10").unwrap();
//! let mut cube = DynCube::from_spec(spec, &["host"]);
//! for i in 0..5000 {
//!     cube.insert(&[["a", "b"][i % 2]], (i % 97) as f64).unwrap();
//! }
//! let restored = DynCube::from_bytes(&cube.to_bytes()).unwrap();
//! let report = QueryEngine::quantiles(&restored, &restored.no_filter(), &[0.5, 0.99]).unwrap();
//! assert!(report.values[0] > 0.0);
//! ```

pub use moments_sketch as core;
pub use msketch_cube as cube;
pub use msketch_datasets as datasets;
pub use msketch_engine as engine;
pub use msketch_macrobase as macrobase;
pub use msketch_obs as obs;
pub use msketch_server as server;
pub use msketch_sketches as sketches;
pub use msketch_timeline as timeline;
pub use numerics;

pub use moments_sketch::{MomentsSketch, SolverConfig};

/// The one-stop import surface: the object-safe sketch API, the runtime
/// backend registry, the wire-format entry points, and the engines.
pub mod prelude {
    pub use moments_sketch::{
        solve_robust, CascadeConfig, CascadeStats, MomentsSketch, SolverConfig, ThresholdEvaluator,
    };
    pub use msketch_cube::{
        ColumnarBatch, DataCube, DynCube, GroupReport, GroupThresholdQuery, QuantileReport,
        QueryEngine, ThresholdReport, TurnstileWindow,
    };
    pub use msketch_engine::{
        DynShardedCube, EngineConfig, EngineSnapshot, ShardWriter, ShardedCube,
    };
    pub use msketch_macrobase::{MacroBaseConfig, MacroBaseEngine};
    pub use msketch_obs::{Obs, Registry, TraceSink};
    pub use msketch_server::{MsketchServer, ServerConfig};
    pub use msketch_sketches::api::{
        from_bytes as sketch_from_bytes_typed, sketch_from_bytes, SketchError, SketchKind,
        SketchSpec,
    };
    pub use msketch_sketches::traits::{QuantileSummary, Sketch, SummaryFactory};
    pub use msketch_sketches::MomentsBacked;
    pub use msketch_timeline::{RangeAnswer, RangePlanner, Timeline, TimelineConfig};
}
