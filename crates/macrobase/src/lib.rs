//! A simplified MacroBase engine (Section 7.2 of the paper).
//!
//! MacroBase searches for dimension values whose *outlier rate* is
//! anomalously high. In the paper's deployment, every value above the
//! global 99th percentile `t99` is an outlier (1% overall); the query asks
//! for subpopulations whose outlier rate is at least `r = 30×` the overall
//! rate — equivalently, whose `1 - 30·(1 - 0.99) = 0.7` quantile exceeds
//! `t99`. That is exactly a threshold query, so the moments-sketch cascade
//! (Algorithm 2) resolves most subpopulations without a full quantile
//! estimate.
//!
//! * [`engine`] — the subpopulation search;
//! * [`alert`] — sliding-window alerting over time panes (Section 7.2.2).

pub mod alert;
pub mod engine;

pub use alert::{scan_windows, WindowAlert};
pub use engine::{MacroBaseConfig, MacroBaseEngine, SearchError, SubpopulationReport};
