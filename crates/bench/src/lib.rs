//! The paper's evaluation as data: every figure and table is a function
//! in the [`figures::FIGURES`] registry that returns its rows as
//! [`Table`]s, next to the claim those rows support. The `msketch-repro`
//! binary renders them (`--fig <id>`, `--all`); `tests/claims.rs` asserts
//! the deterministic claims on the same rows.
//!
//! `--full` switches to paper-scale workloads; the default sizes are
//! scaled down to finish interactively while preserving every qualitative
//! comparison.
//!
//! [`estimators`] holds the Section 6.3 lesion study's comparators to
//! the system's solver (Figure 10), with the numerical methods only they
//! use: Romberg quadrature, L-BFGS, a simplex LP solver and an SVD.

use msketch_sketches::{QuantileSummary, Sketch, SketchSpec};
use std::time::{Duration, Instant};

pub mod estimators;
pub mod figures;
mod integrate;
mod lbfgs;
mod simplex;
mod svd;

/// A summary configuration: the parameterizations of Table 2 plus size
/// sweeps, with uniform construction and labeling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SummaryConfig {
    /// Moments sketch of order `k`.
    MSketch(usize),
    /// Low-discrepancy mergeable sketch with level size `k`.
    Merge12(usize),
    /// Random mergeable buffer sketch with buffer size `s`.
    RandomW(usize),
    /// Greenwald–Khanna with error `1/inv_eps`.
    Gk(usize),
    /// t-digest with compression `delta` (tenths, to stay `Copy + Eq`ish).
    TDigest(usize),
    /// Reservoir sample of the given capacity.
    Sampling(usize),
    /// Streaming histogram with the given centroid budget.
    SHist(usize),
    /// Equi-width histogram with the given bin budget.
    EwHist(usize),
}

/// Type-erased summary so heterogeneous sketches run through one harness.
pub type AnySummary = Box<dyn Sketch>;

impl SummaryConfig {
    /// Label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            SummaryConfig::MSketch(_) => "M-Sketch",
            SummaryConfig::Merge12(_) => "Merge12",
            SummaryConfig::RandomW(_) => "RandomW",
            SummaryConfig::Gk(_) => "GK",
            SummaryConfig::TDigest(_) => "T-Digest",
            SummaryConfig::Sampling(_) => "Sampling",
            SummaryConfig::SHist(_) => "S-Hist",
            SummaryConfig::EwHist(_) => "EW-Hist",
        }
    }

    /// Human-readable parameter (Table 2's "param" column).
    pub fn param_string(&self) -> String {
        match self {
            SummaryConfig::MSketch(k) => format!("k={k}"),
            SummaryConfig::Merge12(k) => format!("k={k}"),
            SummaryConfig::RandomW(s) => format!("s={s}"),
            SummaryConfig::Gk(inv) => format!("eps=1/{inv}"),
            SummaryConfig::TDigest(d10) => format!("delta={:.1}", *d10 as f64 / 10.0),
            SummaryConfig::Sampling(n) => format!("{n} samples"),
            SummaryConfig::SHist(b) => format!("{b} bins"),
            SummaryConfig::EwHist(b) => format!("{b} bins"),
        }
    }

    /// Build an empty summary (seed varies randomized sketches per cell).
    pub fn build(&self, seed: u64) -> AnySummary {
        let spec = match *self {
            SummaryConfig::MSketch(k) => SketchSpec::moments(k),
            SummaryConfig::Merge12(k) => SketchSpec::merge12(k),
            SummaryConfig::RandomW(s) => SketchSpec::randomw(s),
            SummaryConfig::Gk(inv) => SketchSpec::gk(1.0 / inv as f64),
            SummaryConfig::TDigest(d10) => SketchSpec::tdigest(d10 as f64 / 10.0),
            SummaryConfig::Sampling(n) => SketchSpec::sampling(n),
            SummaryConfig::SHist(b) => SketchSpec::shist(b),
            SummaryConfig::EwHist(b) => SketchSpec::ewhist(b),
        };
        spec.build_seeded(seed)
    }

    /// Build a summary and accumulate `data` into it.
    pub fn filled(&self, seed: u64, data: &[f64]) -> AnySummary {
        let mut s = self.build(seed);
        s.accumulate_all(data);
        s
    }

    /// The Table 2 parameterizations for ε_avg ≤ 0.01 on `milan`-like
    /// data.
    pub fn table2_milan() -> Vec<SummaryConfig> {
        vec![
            SummaryConfig::MSketch(10),
            SummaryConfig::Merge12(32),
            SummaryConfig::RandomW(40),
            SummaryConfig::Gk(60),
            SummaryConfig::TDigest(50),
            SummaryConfig::Sampling(1000),
            SummaryConfig::SHist(100),
            SummaryConfig::EwHist(100),
        ]
    }

    /// The Table 2 parameterizations for `hepmass`-like data.
    pub fn table2_hepmass() -> Vec<SummaryConfig> {
        vec![
            SummaryConfig::MSketch(3),
            SummaryConfig::Merge12(32),
            SummaryConfig::RandomW(40),
            SummaryConfig::Gk(40),
            SummaryConfig::TDigest(15),
            SummaryConfig::Sampling(1000),
            SummaryConfig::SHist(100),
            SummaryConfig::EwHist(15),
        ]
    }

    /// A size sweep for this summary family (Figures 4, 5, 7).
    pub fn size_sweep(label: &str) -> Vec<SummaryConfig> {
        match label {
            "M-Sketch" => [2, 4, 6, 8, 10, 12, 14].map(SummaryConfig::MSketch).to_vec(),
            "Merge12" => [8, 16, 32, 64, 128, 256].map(SummaryConfig::Merge12).to_vec(),
            "RandomW" => [10, 20, 40, 80, 160, 320].map(SummaryConfig::RandomW).to_vec(),
            "GK" => [10, 20, 40, 80, 160].map(SummaryConfig::Gk).to_vec(),
            "T-Digest" => [10, 20, 50, 100, 200].map(SummaryConfig::TDigest).to_vec(),
            "Sampling" => [16, 64, 256, 1024, 4096].map(SummaryConfig::Sampling).to_vec(),
            "S-Hist" => [10, 30, 100, 300, 1000].map(SummaryConfig::SHist).to_vec(),
            "EW-Hist" => [15, 30, 100, 300, 1000].map(SummaryConfig::EwHist).to_vec(),
            _ => panic!("unknown summary label {label}"),
        }
    }

    /// Every family's size sweep, in legend order.
    pub fn sweep() -> impl Iterator<Item = SummaryConfig> {
        Self::all_labels().into_iter().flat_map(Self::size_sweep)
    }

    /// All eight families (paper legend order).
    pub fn all_labels() -> [&'static str; 8] {
        ["M-Sketch", "Merge12", "RandomW", "GK", "T-Digest", "Sampling", "S-Hist", "EW-Hist"]
    }
}

/// Build one summary per cell, cell `i` seeded `seed ^ i`.
pub fn build_cells(cfg: &SummaryConfig, cells: &[impl AsRef<[f64]>], seed: u64) -> Vec<AnySummary> {
    cells.iter().enumerate().map(|(i, chunk)| cfg.filled(seed ^ i as u64, chunk.as_ref())).collect()
}

/// Merge a slice of summaries into the first one (cloned).
pub fn merge_all(cells: &[AnySummary]) -> AnySummary {
    let mut acc = cells[0].clone();
    for c in &cells[1..] {
        acc.merge_from(c);
    }
    acc
}

/// Merge summaries with `threads` crossbeam workers (Appendix F).
pub fn merge_parallel(cells: &[AnySummary], threads: usize) -> AnySummary {
    let threads = threads.max(1).min(cells.len());
    let chunk = cells.len().div_ceil(threads);
    let partials: Vec<AnySummary> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> =
            cells.chunks(chunk).map(|shard| scope.spawn(move |_| merge_all(shard))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .expect("merge worker panicked");
    merge_all(&partials)
}

/// Time a closure.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Time a closure, repeating until at least `min_total` elapsed, and
/// report the mean duration per run.
pub fn time_mean(min_total: Duration, mut f: impl FnMut()) -> Duration {
    // Warm up.
    f();
    let mut runs = 0u32;
    let start = Instant::now();
    while start.elapsed() < min_total || runs < 3 {
        f();
        runs += 1;
    }
    start.elapsed() / runs
}

/// Format a duration adaptively (ns/µs/ms/s).
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// The one knob every figure takes: `--full` switches to paper-scale
/// workloads.
pub struct HarnessArgs {
    /// Paper-scale run requested.
    pub full: bool,
}

impl HarnessArgs {
    /// Pick between the quick and full variants of a size.
    pub fn scale(&self, quick: usize, full: usize) -> usize {
        if self.full {
            full
        } else {
            quick
        }
    }
}

/// One table of a figure, as data: what the renderer prints and what
/// the claim tests read.
#[derive(Debug, Clone)]
pub struct Table {
    /// Caption, printed between `===` rules.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Formatted cells, one per column.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A table whose every row has one cell per column.
    pub fn new(title: impl Into<String>, columns: &[&str], rows: Vec<Vec<String>>) -> Table {
        assert!(
            rows.iter().all(|r| r.len() == columns.len()),
            "every row needs one cell per column"
        );
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows,
        }
    }

    /// The table as text: title, header, a rule, then the rows, each
    /// column right-aligned to its widest cell.
    pub fn render(&self) -> String {
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|i| {
                let cells = self.rows.iter().map(|r| &r[i]).chain([&self.columns[i]]);
                cells.map(|c| c.chars().count()).max().unwrap_or(0)
            })
            .collect();
        let line = |cells: &[String]| {
            let padded: Vec<String> =
                cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
            padded.join("  ")
        };
        let header = line(&self.columns);
        let rule = "-".repeat(header.chars().count());
        let mut out = format!("\n=== {} ===\n{header}\n{rule}\n", self.title);
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_summary_uniform_behavior() {
        let data: Vec<f64> = (1..=5000).map(f64::from).collect();
        for label in SummaryConfig::all_labels() {
            let cfg = &SummaryConfig::size_sweep(label)[2];
            let s = cfg.filled(1, &data);
            assert_eq!(s.count(), 5000, "{label}");
            let q = s.quantile(0.5);
            assert!(
                (q - 2500.0).abs() < 600.0,
                "{label} median {q} (param {})",
                cfg.param_string()
            );
            assert!(s.size_bytes() > 0);
        }
    }

    #[test]
    fn merge_parallel_matches_sequential() {
        let data: Vec<f64> = (0..20_000).map(|i| (i % 997) as f64).collect();
        let chunks: Vec<&[f64]> = data.chunks(100).collect();
        let cfg = SummaryConfig::MSketch(8);
        let cells = build_cells(&cfg, &chunks, 0x5EED);
        let seq = merge_all(&cells);
        let par = merge_parallel(&cells, 4);
        assert_eq!(seq.count(), par.count());
        assert!((seq.quantile(0.9) - par.quantile(0.9)).abs() < 1e-6);
    }

    #[test]
    fn heterogeneous_merge_panics() {
        let a = SummaryConfig::MSketch(4).build(0);
        let b = SummaryConfig::SHist(10).build(0);
        // The checked path reports the mismatch as an error...
        let mut a2 = a.clone();
        assert!(a2.merge_dyn(&*b).is_err());
        // ...while the typed fast path treats it as a caller bug.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut a = a;
            a.merge_from(&b);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn harness_args_scaling() {
        let quick = HarnessArgs { full: false };
        let full = HarnessArgs { full: true };
        assert_eq!(quick.scale(10, 100), 10);
        assert_eq!(full.scale(10, 100), 100);
    }

    #[test]
    fn table2_configs_cover_all_families() {
        use std::collections::HashSet;
        for configs in [SummaryConfig::table2_milan(), SummaryConfig::table2_hepmass()] {
            let labels: HashSet<&str> = configs.iter().map(|c| c.label()).collect();
            assert_eq!(labels.len(), 8);
            for l in SummaryConfig::all_labels() {
                assert!(labels.contains(l), "{l} missing");
            }
        }
    }

    #[test]
    fn size_sweeps_grow_monotonically() {
        let data: Vec<f64> = (0..4000).map(|i| (i % 251) as f64).collect();
        for label in SummaryConfig::all_labels() {
            let sizes: Vec<usize> = SummaryConfig::size_sweep(label)
                .iter()
                .map(|cfg| cfg.filled(3, &data).size_bytes())
                .collect();
            for w in sizes.windows(2) {
                assert!(w[1] >= w[0], "{label}: sweep not monotone: {sizes:?}");
            }
        }
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500ns");
        assert!(fmt_duration(Duration::from_micros(42)).contains("µs"));
        assert!(fmt_duration(Duration::from_millis(3)).contains("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with('s'));
    }
}
