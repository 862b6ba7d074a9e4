//! Mergeable quantile summaries — the baselines of the moments-sketch
//! evaluation (Section 6.1 of the paper), implemented from scratch.
//!
//! | type | paper label | source |
//! |------|-------------|--------|
//! | [`GkSummary`] | `GK` | Greenwald–Khanna, 'GKArray' variant of Luo et al. |
//! | [`TDigest`] | `T-Digest` | Dunning & Ertl's merging t-digest |
//! | [`EwHist`] | `EW-Hist` | equi-width histogram on power-of-two ranges |
//! | [`SHist`] | `S-Hist` | Ben-Haim & Tom-Tov streaming histogram (Druid) |
//! | [`RandomW`] | `RandomW` | randomized mergeable buffer sketch |
//! | [`ReservoirSample`] | `Sampling` | Vitter reservoir with weighted merge |
//! | [`Merge12`] | `Merge12` | low-discrepancy mergeable sketch (Agarwal et al.) |
//! | [`MSketchSummary`] | `M-Sketch` | adapter over [`moments_sketch`] |
//!
//! All types implement the object-safe [`Sketch`] interface (runtime
//! backend selection, `Box<dyn Sketch>` storage, the versioned wire
//! format of [`api`]) plus the typed [`QuantileSummary`] extension the
//! monomorphized harness hot loops drive. Pick a backend at runtime with
//! [`api::SketchSpec`]:
//!
//! ```
//! use msketch_sketches::api::SketchSpec;
//! use msketch_sketches::Sketch;
//!
//! let mut s = SketchSpec::parse("tdigest:5.0").unwrap().build();
//! s.accumulate_all(&[2.0, 4.0, 6.0]);
//! let restored = msketch_sketches::api::sketch_from_bytes(&s.to_bytes()).unwrap();
//! assert_eq!(restored.count(), 3);
//! ```

pub mod api;
pub mod ewhist;
pub mod exact;
pub mod gk;
pub mod merge12;
pub mod msketch;
pub mod randomw;
pub mod rng;
pub mod sampling;
pub mod shist;
pub mod tdigest;
pub mod traits;

pub use api::{sketch_from_bytes, SketchError, SketchKind, SketchSpec};
pub use ewhist::EwHist;
pub use exact::{avg_quantile_error, quantile_error, ExactQuantiles};
pub use gk::GkSummary;
pub use merge12::Merge12;
pub use msketch::{threshold_dyn, MSketchSummary, MomentsBacked};
pub use randomw::RandomW;
pub use sampling::ReservoirSample;
pub use shist::SHist;
pub use tdigest::TDigest;
pub use traits::{QuantileSummary, Sketch, SummaryFactory};
