//! The paper's evaluation as data: every figure and table is a function
//! in the [`figures::FIGURES`] registry that returns its rows as
//! [`Table`]s, next to the claim those rows support. The `msketch-repro`
//! binary renders them (`--fig <id>`, `--all`); `tests/claims.rs` asserts
//! the deterministic claims on the same rows.
//!
//! A figure names each summary it runs by its [`SketchSpec`], the same
//! configuration cubes and engines take: [`comparators`] lists the
//! paper's eight families, [`table2_milan`] their Table 2
//! parameterizations ([`SketchSpec::default_for`]), [`size_sweep`] each
//! family's sizes, and [`param_text`] the "param" column.
//!
//! `--full` switches to paper-scale workloads; the default sizes are
//! scaled down to finish interactively while preserving every qualitative
//! comparison.
//!
//! [`estimators`] holds the Section 6.3 lesion study's comparators to
//! the system's solver (Figure 10), with the numerical methods only they
//! use: Romberg quadrature, L-BFGS, a simplex LP solver and an SVD.

use msketch_sketches::{QuantileSummary, Sketch, SketchKind, SketchSpec};
use std::time::{Duration, Instant};

pub mod estimators;
pub mod figures;
mod integrate;
mod lbfgs;
mod simplex;
mod svd;

/// The paper's eight comparators in legend order: every shipped kind but
/// `Exact`, the ground truth they are scored against.
pub fn comparators() -> impl Iterator<Item = SketchKind> {
    SketchKind::ALL.into_iter().filter(|&kind| kind != SketchKind::Exact)
}

/// The Table 2 parameterizations for ε_avg ≤ 0.01 on `milan`-like data:
/// each comparator's [`SketchSpec::default_for`].
pub fn table2_milan() -> Vec<SketchSpec> {
    comparators().map(SketchSpec::default_for).collect()
}

/// The Table 2 parameterizations for `hepmass`-like data.
pub fn table2_hepmass() -> Vec<SketchSpec> {
    vec![
        SketchSpec::moments(3),
        SketchSpec::merge12(32),
        SketchSpec::randomw(40),
        SketchSpec::gk(1.0 / 40.0),
        SketchSpec::tdigest(1.5),
        SketchSpec::sampling(1000),
        SketchSpec::shist(100),
        SketchSpec::ewhist(15),
    ]
}

/// The size sweep of one family (Table 2, Figures 4, 5, 7 and 23),
/// smallest first. `Exact` has no size knob: its sweep is one spec.
pub fn size_sweep(kind: SketchKind) -> Vec<SketchSpec> {
    match kind {
        SketchKind::Moments => [2, 4, 6, 8, 10, 12, 14].map(SketchSpec::moments).to_vec(),
        SketchKind::Merge12 => [8, 16, 32, 64, 128, 256].map(SketchSpec::merge12).to_vec(),
        SketchKind::RandomW => [10, 20, 40, 80, 160, 320].map(SketchSpec::randomw).to_vec(),
        SketchKind::Gk => {
            [10, 20, 40, 80, 160].map(|inv: usize| SketchSpec::gk(1.0 / inv as f64)).to_vec()
        }
        SketchKind::TDigest => [1.0, 2.0, 5.0, 10.0, 20.0].map(SketchSpec::tdigest).to_vec(),
        SketchKind::Sampling => [16, 64, 256, 1024, 4096].map(SketchSpec::sampling).to_vec(),
        SketchKind::SHist => [10, 30, 100, 300, 1000].map(SketchSpec::shist).to_vec(),
        SketchKind::EwHist => [15, 30, 100, 300, 1000].map(SketchSpec::ewhist).to_vec(),
        SketchKind::Exact => vec![SketchSpec::exact()],
    }
}

/// Every comparator's size sweep, in legend order.
pub fn sweep() -> impl Iterator<Item = SketchSpec> {
    comparators().flat_map(size_sweep)
}

/// The size knob as Table 2's "param" column writes it (`k=10`,
/// `eps=1/60`, `delta=5.0`, `1000 samples`, …).
pub fn param_text(spec: &SketchSpec) -> String {
    let p = spec.param();
    match spec.kind() {
        SketchKind::Moments | SketchKind::Merge12 => format!("k={p}"),
        SketchKind::RandomW => format!("s={p}"),
        SketchKind::Gk => format!("eps=1/{}", (1.0 / p).round()),
        SketchKind::TDigest => format!("delta={p:.1}"),
        SketchKind::Sampling => format!("{p} samples"),
        SketchKind::SHist | SketchKind::EwHist => format!("{p} bins"),
        SketchKind::Exact => "-".into(),
    }
}

/// A summary of `spec`, seeded `seed`, holding `data`.
pub fn filled(spec: &SketchSpec, seed: u64, data: &[f64]) -> Box<dyn Sketch> {
    let mut s = spec.build_seeded(seed);
    s.accumulate_all(data);
    s
}

/// Build one summary per cell, cell `i` seeded `seed ^ i`.
pub fn build_cells(
    spec: &SketchSpec,
    cells: &[impl AsRef<[f64]>],
    seed: u64,
) -> Vec<Box<dyn Sketch>> {
    cells
        .iter()
        .enumerate()
        .map(|(i, chunk)| filled(spec, seed ^ i as u64, chunk.as_ref()))
        .collect()
}

/// Merge a slice of summaries into the first one (cloned).
pub fn merge_all(cells: &[Box<dyn Sketch>]) -> Box<dyn Sketch> {
    let mut acc = cells[0].clone();
    for c in &cells[1..] {
        acc.merge_from(c);
    }
    acc
}

/// Merge summaries on `threads` scoped workers (Appendix F).
pub fn merge_parallel(cells: &[Box<dyn Sketch>], threads: usize) -> Box<dyn Sketch> {
    let threads = threads.max(1).min(cells.len());
    let chunk = cells.len().div_ceil(threads);
    let partials: Vec<Box<dyn Sketch>> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            cells.chunks(chunk).map(|shard| scope.spawn(move || merge_all(shard))).collect();
        handles.into_iter().map(|h| h.join().expect("merge worker panicked")).collect()
    });
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
        for kind in comparators() {
            let spec = &size_sweep(kind)[2];
            let s = filled(spec, 1, &data);
            assert_eq!(s.count(), 5000, "{kind}");
            let q = s.quantile(0.5);
            assert!((q - 2500.0).abs() < 600.0, "{kind} median {q} (param {})", param_text(spec));
            assert!(s.size_bytes() > 0);
        }
    }

    #[test]
    fn merge_parallel_matches_sequential() {
        let data: Vec<f64> = (0..20_000).map(|i| (i % 997) as f64).collect();
        let chunks: Vec<&[f64]> = data.chunks(100).collect();
        let cells = build_cells(&SketchSpec::moments(8), &chunks, 0x5EED);
        let seq = merge_all(&cells);
        let par = merge_parallel(&cells, 4);
        assert_eq!(seq.count(), par.count());
        assert!((seq.quantile(0.9) - par.quantile(0.9)).abs() < 1e-6);
    }

    #[test]
    fn heterogeneous_merge_panics() {
        let a = SketchSpec::moments(4).build_seeded(0);
        let b = SketchSpec::shist(10).build_seeded(0);
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
        for specs in [table2_milan(), table2_hepmass()] {
            let kinds: HashSet<SketchKind> = specs.iter().map(|s| s.kind()).collect();
            assert_eq!(kinds.len(), 8);
            for kind in comparators() {
                assert!(kinds.contains(&kind), "{kind} missing");
            }
        }
    }

    #[test]
    fn size_sweeps_grow_monotonically() {
        let data: Vec<f64> = (0..4000).map(|i| (i % 251) as f64).collect();
        for kind in comparators() {
            let sizes: Vec<usize> =
                size_sweep(kind).iter().map(|spec| filled(spec, 3, &data).size_bytes()).collect();
            for w in sizes.windows(2) {
                assert!(w[1] >= w[0], "{kind}: sweep not monotone: {sizes:?}");
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
