//! Synthetic datasets for the moments-sketch evaluation.
//!
//! The paper evaluates on six datasets (Table 1): Telecom Italia `milan`
//! internet usage, UCI `hepmass` / `occupancy` / `retail` / `power`, and a
//! synthetic `exponential`. The real datasets are not redistributable
//! here, so [`gen`] provides seeded generators calibrated toward the
//! paper's reported support, mean, standard deviation, and skewness — the
//! distributional properties the sketch's accuracy actually depends on
//! (`gen` lists the statistics that do not match).
//! [`production`] synthesizes the Microsoft-style production workload of
//! Appendix D.4 (integer values, heavily variable cell sizes), [`dist`]
//! holds the underlying samplers (built on `rand`'s uniform source only),
//! and [`cells`] partitions data into pre-aggregation cells.

pub mod cells;
pub mod dist;
pub mod gen;
pub mod production;

pub use cells::{fixed_cells, variable_cells};
pub use gen::Dataset;
pub use production::ProductionWorkload;

/// Re-export of the single-pass descriptive statistics used to validate
/// generators against Table 1.
pub use moments_sketch::stats::{describe, Describe};
