//! The **moments sketch**: a compact, efficiently mergeable quantile
//! summary (Gan et al., *Moment-Based Quantile Sketches for Efficient High
//! Cardinality Aggregation Queries*, VLDB 2018).
//!
//! A moments sketch stores only the minimum, maximum, count, and the first
//! `k` sample moments and log-moments of a dataset — under 200 bytes at
//! `k = 10` — yet supports `< 1%` quantile error on real-world data. Its
//! merge operation is a handful of float additions, which makes it ideal
//! for data-cube style pre-aggregation where a single query may combine
//! hundreds of thousands of per-cell summaries.
//!
//! # Quick start
//!
//! ```
//! use moments_sketch::{MomentsSketch, SolverConfig};
//!
//! let mut sketch = MomentsSketch::new(10);
//! for i in 1..=10_000 {
//!     sketch.accumulate(i as f64 / 10_000.0);
//! }
//! let est = sketch.solve(&SolverConfig::default()).unwrap();
//! let median = est.quantile(0.5).unwrap();
//! assert!((median - 0.5).abs() < 0.01);
//! ```
//!
//! # Module overview
//!
//! * [`sketch`] — the summary itself: init / accumulate / merge / sub.
//! * [`solver`] — the maximum-entropy quantile estimator (method of
//!   moments + maximum entropy principle, Section 4 of the paper), with
//!   the Chebyshev-basis conditioning and cosine-transform integration
//!   optimizations of Section 4.3. It is the one estimator the system
//!   runs; the Section 6.3 lesion study's alternatives are Figure 10
//!   comparators in the reproduction crate (`msketch_bench::estimators`).
//! * [`bounds`] — Markov and Racz–Tari–Telek (RTT) rank bounds used both
//!   for worst-case error guarantees and for cascades.
//! * [`cascade`] — the threshold-query cascade of Section 5 (Algorithm 2).
//! * [`serialize`] — compact binary encoding; [`lowprec`] — reduced
//!   precision storage with randomized rounding (Appendix C).
//! * [`stats`] — moment-shift arithmetic and floating-point stability
//!   rules (Section 4.3.2 / Appendix B).

#![warn(missing_docs)]

pub mod bounds;
pub mod cascade;
pub mod lowprec;
pub mod serialize;
pub mod sketch;
pub mod solver;
pub mod stats;

pub use cascade::{CascadeConfig, CascadeStats, ThresholdEvaluator};
pub use sketch::MomentsSketch;
pub use solver::{solve_robust, MaxEntSolution, SolverConfig};

/// Errors produced while estimating quantiles from a sketch.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The sketch holds no data points.
    EmptySketch,
    /// The maximum-entropy optimization failed to converge — typically a
    /// near-degenerate dataset, or moments forced past what the data
    /// supports.
    SolverFailed {
        /// Failure detail from the numerical layer.
        reason: String,
    },
    /// The requested quantile fraction was outside `(0, 1)`.
    InvalidQuantile(f64),
    /// Invalid configuration or argument.
    InvalidArgument(&'static str),
    /// A serialized sketch could not be decoded.
    Corrupt(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::EmptySketch => write!(f, "sketch is empty"),
            Error::SolverFailed { reason } => write!(f, "max-entropy solve failed: {reason}"),
            Error::InvalidQuantile(p) => write!(f, "quantile fraction {p} outside (0, 1)"),
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            Error::Corrupt(msg) => write!(f, "corrupt sketch encoding: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<numerics::Error> for Error {
    fn from(e: numerics::Error) -> Self {
        Error::SolverFailed {
            reason: e.to_string(),
        }
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;
