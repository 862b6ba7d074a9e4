//! The registry of the paper's figures and tables. Each entry pairs an id
//! with the claim its rows support and a function that regenerates them at
//! the scale [`HarnessArgs`] asks for. Seeds and sizes are fixed, so every
//! cell that is not a stopwatch reading repeats exactly.

use crate::estimators::{
    BfgsEstimator, CvxMaxEntEstimator, CvxMinEstimator, GaussianEstimator, MnatEstimator,
    MomentSource, NaiveNewtonEstimator, OptEstimator, QuantileEstimator, SvdEstimator,
};
use crate::{
    build_cells, fmt_duration, merge_all, merge_parallel, time_it, time_mean, AnySummary,
    HarnessArgs, SummaryConfig as S, Table,
};
use moments_sketch::bounds::{markov_bound, quantile_error_bound, rtt_bound};
use moments_sketch::lowprec::LowPrecisionCodec;
use moments_sketch::stats::{cheb_moments_from_mono, max_stable_k, shifted_moments, ScaledDomain};
use moments_sketch::{solve_robust, CascadeConfig, MaxEntSolution, MomentsSketch, SolverConfig};
use moments_sketch::{Result as SolveResult, ThresholdEvaluator};
use msketch_cube::sliding_windows_remerge;
use msketch_datasets::gen::{discrete_uniform, gamma_dataset, gaussian, gaussian_with_outliers};
use msketch_datasets::{describe, fixed_cells, Dataset, ProductionWorkload};
use msketch_macrobase::{scan_windows, MacroBaseConfig, MacroBaseEngine};
use msketch_sketches::{avg_quantile_error, exact::eval_phis, EwHist, GkSummary, MSketchSummary};
use msketch_sketches::{Merge12, RandomW, ReservoirSample, Sketch, TDigest};
use numerics::chebyshev;
use std::iter::successors;
use std::time::Duration;

/// One figure or table of the paper's evaluation.
pub struct Figure {
    /// What `msketch-repro --fig` selects.
    pub id: &'static str,
    /// What the figure's rows show at default scale, in one sentence.
    pub claim: &'static str,
    /// Regenerate the figure's tables.
    pub run: fn(&HarnessArgs) -> Vec<Table>,
}

/// Builds [`FIGURES`] from one `id function "claim"` line per figure.
macro_rules! registry {
    ($($id:literal $run:ident $claim:literal)*) => { [$(Figure { id: $id, claim: $claim, run: $run }),*] };
}

/// Every figure and table, in the paper's order.
#[rustfmt::skip]
pub static FIGURES: [Figure; 26] = registry! {
    "table1" table1 "The generators track the paper's Table 1 (support within 10 %, mean within 5 % or ±0.05 for hepmass, stddev within 15 %, skew within 25 %) except milan's stddev (72 vs 104) and max (2 418 vs 7 936), occupancy's stddev (401 vs 311) and retail's mean (13.9 vs 10.7), stddev (473 vs 157) and skew (127 vs 460); exponential's min and max are sample extremes that move with n."
    "table2" table2 "On both milan and hepmass the smallest M-Sketch reaching ε_avg ≤ 0.01 is smaller than the smallest parameterization of any other summary that does."
    "3" fig03 "At the Table 2 parameterizations M-Sketch merges 2 000 cells fastest of all summaries, and its total (one ~0.5 ms maxent solve) is below Merge12, RandomW, GK, T-Digest, Sampling and S-Hist."
    "4" fig04 "M-Sketch merges in tens of nanoseconds at every order, faster than every parameterization of every other summary."
    "5" fig05 "M-Sketch pays for its merges at estimation time: one maxent solve takes about a millisecond, where every other summary answers in under 0.1 ms."
    "6" fig06 "M-Sketch loses at 100 merged cells, where its one maxent solve dominates, and wins from 1 000 cells on, where merge time dominates."
    "7" fig07 "At k = 10 (184 B) M-Sketch reaches ε_avg ≤ 0.01 on every dataset but occupancy (0.019)."
    "8" fig08 "M-Sketch answers at every cardinality, with no solver failure even at 2 distinct values, but trails Merge12, GK and RandomW at 16 or fewer distinct values (ε_avg 0.26 at 2) and leads all three from 128 on."
    "9" fig09 "At equal total moment budget, log moments beat standard moments on milan at every k and are the only ones that answer on retail; on occupancy the two stay within 2× of each other."
    "10" fig10 "Every maximum-entropy estimator (cvx-maxent, newton, bfgs, opt) is at least 3× more accurate than every other estimator, and opt is the fastest of the four."
    "11" fig11 "M-Sketch answers the p99 roll-up over 125 000 cells faster than S-Hist at every size, and within 100× of a bare in-memory sum over the same cells."
    "12" fig12 "The range check and Markov bound cut MacroBase search time by three orders of magnitude at the same hits, +RTT changes nothing (no group reaches it), and even the full cascade's estimate phase costs more than its merge phase."
    "13" fig13 "The range check and the Markov bound decide every threshold query here (98 % reach Markov, none reach RTT or MaxEnt), so +Markov lifts throughput by about three orders of magnitude over Baseline."
    "14" fig14 "The turnstile M-Sketch scans the sliding windows about 10× faster than re-merging Merge12 for every window."
    "15" fig15 "Eq. 21 is conservative: at every offset c it sits at or below the highest order whose shifted moment E[u^k], computed from the sketch's power sums, stays within 3^-k of the exact value — the error budget Eq. 21 is derived from."
    "16" fig16 "Occupancy (offset c ≈ 1.5) loses Chebyshev-moment precision much faster than hepmass (c ≈ 0.4): its loss passes 1e-6 by order 11, while hepmass stays below 1e-7 through order 20."
    "17" fig17 "From 20 bits/value up, ε_avg after 2 000 merges stays within 0.0005 of 64-bit storage; at 14 bits it degrades, and k = 10 on milan fails to solve."
    "18" fig18 "ε_avg ≤ 0.01 on every Gamma shape (ks = 0.1, 1, 10) at every sketch order from 2 to 14."
    "19" fig19 "As the 1 % outliers move out, EW-Hist degrades and so does M-Sketch: it beats Merge12, GK and RandomW up to magnitude 100 but loses to all three from 316 on (ε_avg > 0.1), where they stay near 0.01."
    "20" fig20 "With 2 000- and 10 000-value cells M-Sketch still merges in tens of nanoseconds, while Merge12, RandomW, GK, T-Digest and Sampling take microseconds."
    "21" fig21 "The production workload's values span more than five orders of magnitude and its cell sizes are heavy-tailed: the largest cell holds ~100× the median."
    "22" fig22 "On variable-size production cells M-Sketch keeps ε_avg < 0.01 and merges faster than every other summary, while both histograms miss by more than 0.1."
    "23" fig23 "Guaranteed bounds sit far above observed errors: no summary certifies 0.01 in under 1 000 bytes, and M-Sketch's moment bounds never certify below 0.1."
    "24" fig24 "With the merge count fixed, M-Sketch merges several times faster than Merge12, RandomW and EW-Hist at every thread count; speed-up past the core count in the title is not expected."
    "25" fig25 "With merges per thread fixed, M-Sketch keeps a lead of at least 5× over Merge12 and RandomW at every thread count."
    "ablation" ablation "Accuracy saturates by κ_max = 10^2 and 32 Chebyshev nodes (16 fail on milan); a Newton tolerance of 10^-3 loses accuracy on milan and 10^-12 only adds time, so the defaults (10^4, automatic nodes, 10^-9) sit on the plateau."
};

/// The registry entry for `id`.
pub fn figure(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.id == id)
}

/// A table row from anything `Display`.
macro_rules! row {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}

/// The seed base of the per-cell summaries the cost figures merge.
const CELL_SEED: u64 = 0x5EED;

/// The datasets the merge-cost, estimate-cost and bound figures sweep.
const COST_DATASETS: [Dataset; 3] = [Dataset::Milan, Dataset::Hepmass, Dataset::Exponential];

/// One table per dataset, titled `{figure} ({dataset}): {caption}`.
fn per_dataset(
    datasets: &[Dataset],
    (figure, caption): (&str, &str),
    columns: &[&str],
    rows: impl Fn(Dataset) -> Vec<Vec<String>>,
) -> Vec<Table> {
    let table =
        |&d: &Dataset| Table::new(format!("{figure} ({}): {caption}", d.name()), columns, rows(d));
    datasets.iter().map(table).collect()
}

/// True for integer-valued data (judged on its first 100 values), whose
/// estimates the paper rounds before scoring.
fn integral(data: &[f64]) -> bool {
    data.iter().take(100).all(|x| x.fract() == 0.0)
}

/// ε_avg of estimates at the paper's 21 evaluation quantiles
/// ([`eval_phis`]), rounded first when `round`. `None` when the estimator
/// failed or answered `NaN` anywhere.
fn eps_avg(data: &[f64], round: bool, estimates: Option<Vec<f64>>) -> Option<f64> {
    let mut est = estimates.filter(|e| !e.iter().any(|q| q.is_nan()))?;
    if round {
        est.iter_mut().for_each(|q| *q = q.round());
    }
    Some(avg_quantile_error(data, &est, &eval_phis()))
}

/// ε_avg of a summary's own estimates.
fn summary_eps(s: &dyn Sketch, data: &[f64], round: bool) -> Option<f64> {
    eps_avg(data, round, Some(s.quantiles(&eval_phis())))
}

/// ε_avg of a maxent solve's estimates; `None` when the solve failed.
fn solution_eps(solution: SolveResult<MaxEntSolution>, data: &[f64], round: bool) -> Option<f64> {
    eps_avg(data, round, solution.and_then(|s| s.quantiles(&eval_phis())).ok())
}

/// An ε_avg cell: `digits` decimals, or `fail`.
fn eps_cell(eps: Option<f64>, digits: usize) -> String {
    eps.map_or_else(|| "fail".into(), |e| format!("{e:.digits$}"))
}

/// Merge `cfg` summaries of every chunk, then estimate p99 from the
/// result: the merge, estimate and total times of the paper's query cost
/// model, formatted.
fn merge_then_estimate(cfg: &S, chunks: &[&[f64]]) -> [String; 3] {
    let cells = build_cells(cfg, chunks, CELL_SEED);
    let (merged, t_merge) = time_it(|| merge_all(&cells));
    let (q, t_est) = time_it(|| merged.quantile(0.99));
    assert!(q.is_finite(), "{} answered {q}", cfg.label());
    [t_merge, t_est, t_merge + t_est].map(fmt_duration)
}

/// Mean time per pairwise merge when folding all of `cells`, in ns.
fn merge_ns(cells: &[AnySummary], min_total: Duration) -> f64 {
    let per = time_mean(min_total, || {
        std::hint::black_box(merge_all(cells));
    });
    per.as_nanos() as f64 / (cells.len() - 1).max(1) as f64
}

/// Columns of a per-merge latency table ([`merge_latency_row`]).
const MERGE_LATENCY_COLUMNS: [&str; 4] = ["sketch", "param", "size(b)", "ns/merge"];

/// One row of [`MERGE_LATENCY_COLUMNS`] for `cfg` over `chunks`.
fn merge_latency_row(cfg: &S, chunks: &[&[f64]]) -> Vec<String> {
    let cells = build_cells(cfg, chunks, CELL_SEED);
    let per_merge = merge_ns(&cells, Duration::from_millis(60));
    row![cfg.label(), cfg.param_string(), merge_all(&cells).size_bytes(), format!("{per_merge:.1}")]
}

/// Merge `cells` on `threads` workers: (merges per ms, elapsed).
fn merge_rate(cells: &[AnySummary], threads: usize) -> (f64, Duration) {
    let (merged, t) = time_it(|| merge_parallel(cells, threads));
    let rows: u64 = cells.iter().map(|c| c.count()).sum();
    assert_eq!(merged.count(), rows, "a parallel merge lost rows");
    (cells.len() as f64 / t.as_secs_f64() / 1e3, t)
}

/// Cores this process may run on, for the parallel-merge titles.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One order-`k` moments sketch per cell.
fn moments_cells<'a>(k: usize, cells: impl IntoIterator<Item = &'a [f64]>) -> Vec<MomentsSketch> {
    cells.into_iter().map(|c| MomentsSketch::from_data(k, c)).collect()
}

/// Merge a run of moments sketches into a copy of the first.
fn fold(run: &[MomentsSketch]) -> MomentsSketch {
    let mut acc = run[0].clone();
    run[1..].iter().for_each(|c| acc.merge(c));
    acc
}

/// The cascade ladder of Figures 12 and 13: each rung adds one stage.
fn cascade_ladder() -> [(&'static str, CascadeConfig); 4] {
    let base = CascadeConfig::baseline();
    let simple = CascadeConfig { use_simple: true, ..base };
    let markov = CascadeConfig { use_markov: true, ..simple };
    [
        ("Baseline", base),
        ("+Simple", simple),
        ("+Markov", markov),
        ("+RTT", CascadeConfig::default()),
    ]
}

/// Table 1 as the paper reports it (n; min, max, mean, stddev, skew), in
/// [`Dataset::all`] order.
const PAPER_TABLE1: [(&str, [f64; 5]); 6] = [
    ("81M", [2.3e-6, 7936.0, 36.77, 103.5, 8.585]),
    ("10.5M", [-1.961, 4.378, 0.0163, 1.004, 0.2946]),
    ("20k", [412.8, 2077.0, 690.6, 311.2, 1.654]),
    ("530k", [1.0, 80995.0, 10.66, 156.8, 460.1]),
    ("2M", [0.076, 11.12, 1.092, 1.057, 1.786]),
    ("100M", [1.2e-7, 16.30, 1.000, 0.999, 1.994]),
];

/// Table 1: dataset characteristics, generated (`ours`) above
/// paper-reported (`paper`).
fn table1(args: &HarnessArgs) -> Vec<Table> {
    let line = |name: &str, n: String, [min, max, mean, sd, skew]: [f64; 5], source: &str| {
        let (max, mean, sd) = (format!("{max:.4}"), format!("{mean:.4}"), format!("{sd:.4}"));
        row![name, n, format!("{min:.3e}"), max, mean, sd, format!("{skew:.3}"), source]
    };
    let mut rows = Vec::new();
    for (d, (size, paper)) in Dataset::all().into_iter().zip(PAPER_TABLE1) {
        let n = args.scale(d.default_size().min(400_000), d.default_size());
        let s = describe(&d.generate(n, 42));
        rows.push(line(d.name(), n.to_string(), [s.min, s.max, s.mean, s.stddev, s.skew], "ours"));
        rows.push(line("", size.into(), paper, "paper"));
    }
    let columns = ["dataset", "n", "min", "max", "mean", "stddev", "skew", "source"];
    vec![Table::new("Table 1: Dataset Characteristics (generated | paper)", &columns, rows)]
}

/// Table 2 as the paper reports it, in legend order: milan, then hepmass.
#[rustfmt::skip]
const PAPER_TABLE2: [[&str; 8]; 2] = [
    ["k=10 / 200b", "k=32 / 5920b", "eps=1/40 / 3200b", "eps=1/60 / 720b", "d=5.0 / 769b", "1000 / 8010b", "100 bins / 1220b (>1% err)", "100 bins / 812b (>1% err)"],
    ["k=3 / 72b", "k=32 / 5150b", "eps=1/40 / 3375b", "eps=1/40 / 496b", "d=1.5 / 93b", "1000 / 8010b", "100 bins / 1220b", "15 bins / 132b"],
];

/// Table 2: each summary's smallest parameterization reaching ε_avg ≤ 0.01.
fn table2(args: &HarnessArgs) -> Vec<Table> {
    let n = args.scale(300_000, 1_000_000);
    let title = ("Table 2", "params for eps_avg <= 0.01");
    let columns = ["sketch", "param", "size(b)", "eps_avg", "paper"];
    per_dataset(&[Dataset::Milan, Dataset::Hepmass], title, &columns, |d| {
        let data = d.generate(n, 21);
        let smallest = |(label, paper): (&str, &str)| {
            let hit = S::size_sweep(label).into_iter().find_map(|cfg| {
                let s = cfg.filled(7, &data);
                let eps = summary_eps(&*s, &data, integral(&data)).filter(|&e| e <= 0.01)?;
                Some(row![label, cfg.param_string(), s.size_bytes(), format!("{eps:.4}"), paper])
            });
            hit.unwrap_or_else(|| row![label, "none<=1%", "-", "-", paper])
        };
        let paper = if d == Dataset::Milan { PAPER_TABLE2[0] } else { PAPER_TABLE2[1] };
        S::all_labels().into_iter().zip(paper).map(smallest).collect()
    })
}

/// Figure 3: merge-all-cells + one estimate at the Table 2 parameters.
fn fig03(args: &HarnessArgs) -> Vec<Table> {
    let n = args.scale(400_000, 1_000_000);
    let caption = format!("total query time, {} cells of 200", n.div_ceil(200));
    let columns = ["sketch", "param", "merge", "estimate", "total"];
    per_dataset(&[Dataset::Milan, Dataset::Hepmass], ("Figure 3", &caption), &columns, |d| {
        let data = d.generate(n, 3);
        let chunks = fixed_cells(&data, 200);
        let configs = if d == Dataset::Milan { S::table2_milan() } else { S::table2_hepmass() };
        let row = |cfg: &S| {
            let [merge, estimate, total] = merge_then_estimate(cfg, &chunks);
            row![cfg.label(), cfg.param_string(), merge, estimate, total]
        };
        configs.iter().map(row).collect()
    })
}

/// Figure 4: per-merge latency vs summary size, cells of 200 values.
fn fig04(args: &HarnessArgs) -> Vec<Table> {
    let n = args.scale(100_000, 400_000);
    let title = ("Figure 4", "per-merge latency vs size");
    per_dataset(&COST_DATASETS, title, &MERGE_LATENCY_COLUMNS, |d| {
        let data = d.generate(n, 11);
        let chunks = fixed_cells(&data, 200);
        S::sweep().map(|cfg| merge_latency_row(&cfg, &chunks)).collect()
    })
}

/// Figure 5: quantile-estimation latency vs summary size.
fn fig05(args: &HarnessArgs) -> Vec<Table> {
    let n = args.scale(150_000, 500_000);
    let columns = ["sketch", "param", "size(b)", "t_est"];
    per_dataset(&COST_DATASETS, ("Figure 5", "estimation time vs size"), &columns, |d| {
        let data = d.generate(n, 13);
        let row = |cfg: S| {
            let s = cfg.filled(5, &data);
            let t = time_mean(Duration::from_millis(40), || {
                std::hint::black_box(s.quantile(0.99));
            });
            row![cfg.label(), cfg.param_string(), s.size_bytes(), fmt_duration(t)]
        };
        S::sweep().map(row).collect()
    })
}

/// Figure 6: total query time vs the number of merged cells.
fn fig06(args: &HarnessArgs) -> Vec<Table> {
    let max_cells = args.scale(20_000, 1_000_000);
    let configs = [S::MSketch(10), S::Merge12(32), S::RandomW(40)];
    let columns = ["sketch", "cells", "merge", "estimate", "total"];
    per_dataset(&COST_DATASETS, ("Figure 6", "query time vs n_merge"), &columns, |d| {
        let sizes = successors(Some(100), |n| Some(n * 10)).take_while(|&n| n <= max_cells);
        let rows = sizes.flat_map(|n_cells| {
            let data = d.generate(n_cells * 200, 17);
            let chunks = fixed_cells(&data, 200);
            let row = |cfg: &S| {
                let [merge, estimate, total] = merge_then_estimate(cfg, &chunks);
                row![cfg.label(), n_cells, merge, estimate, total]
            };
            configs.iter().map(row).collect::<Vec<_>>()
        });
        rows.collect()
    })
}

/// Figure 7: ε_avg vs summary size on all six datasets.
fn fig07(args: &HarnessArgs) -> Vec<Table> {
    let columns = ["sketch", "param", "size(b)", "eps_avg"];
    per_dataset(&Dataset::all(), ("Figure 7", "eps_avg vs size"), &columns, |d| {
        let data = d.generate(args.scale(d.default_size().min(200_000), d.default_size()), 29);
        let row = |cfg: S| {
            let s = cfg.filled(23, &data);
            let eps = eps_cell(summary_eps(&*s, &data, integral(&data)), 5);
            row![cfg.label(), cfg.param_string(), s.size_bytes(), eps]
        };
        S::sweep().map(row).collect()
    })
}

/// Figure 8: accuracy vs cardinality of point masses spread over [-1, 1].
fn fig08(args: &HarnessArgs) -> Vec<Table> {
    let n = args.scale(40_000, 200_000);
    let configs = [S::MSketch(10), S::Merge12(32), S::Gk(50), S::RandomW(40)];
    let cardinalities = successors(Some(2), |c| Some(c * 2)).take_while(|&c| c <= 2048);
    let rows = cardinalities.flat_map(|card| {
        let data = discrete_uniform(card, n);
        let row = |cfg: &S| {
            row![card, cfg.label(), eps_cell(summary_eps(&*cfg.filled(31, &data), &data, false), 4)]
        };
        configs.iter().map(row).collect::<Vec<_>>()
    });
    let title = "Figure 8: eps_avg vs cardinality (uniform point masses)";
    vec![Table::new(title, &["cardinality", "sketch", "eps_avg"], rows.collect())]
}

/// Figure 9: accuracy with and without log moments at a fixed total
/// budget (k standard moments vs k/2 standard + k/2 log).
fn fig09(args: &HarnessArgs) -> Vec<Table> {
    let datasets = [Dataset::Milan, Dataset::Retail, Dataset::Occupancy];
    let caption = ("Figure 9", "eps_avg, same total moment budget");
    per_dataset(&datasets, caption, &["k_total", "with_log", "no_log"], |d| {
        let data = d.generate(args.scale(d.default_size().min(200_000), d.default_size()), 37);
        let row = |k: usize| {
            let sketch = MomentsSketch::from_data(k, &data);
            let eps = |cfg| {
                eps_cell(solution_eps(solve_robust(&sketch, &cfg), &data, integral(&data)), 4)
            };
            let with_log = SolverConfig { k1: Some(k / 2), k2: Some(k / 2), ..Default::default() };
            let no_log =
                SolverConfig { k1: Some(k), k2: Some(0), use_log: false, ..Default::default() };
            row![k, eps(with_log), eps(no_log)]
        };
        [2, 4, 6, 8, 10, 12].map(row).to_vec()
    })
}

/// The eight moment-based estimators of the lesion study, all on `k`
/// moments from `source`.
fn lesion_estimators(source: MomentSource, k: usize) -> Vec<Box<dyn QuantileEstimator>> {
    let (k1, k2) = if source == MomentSource::Log { (0, k) } else { (k, 0) };
    let config = SolverConfig { k1: Some(k1), k2: Some(k2), ..Default::default() };
    vec![
        Box::new(GaussianEstimator { source }),
        Box::new(MnatEstimator { source }),
        Box::new(SvdEstimator { source, grid: 256 }),
        Box::new(CvxMinEstimator { source, grid: 128 }),
        Box::new(CvxMaxEntEstimator { source, grid: 1000 }),
        Box::new(NaiveNewtonEstimator { k1, k2, tol: 1e-9 }),
        Box::new(BfgsEstimator { k1, k2 }),
        Box::new(OptEstimator { config }),
    ]
}

/// Figure 10: the estimator lesion study, k = 10 — log moments only on
/// milan, standard moments only on hepmass, as in the paper.
fn fig10(args: &HarnessArgs) -> Vec<Table> {
    let runs = [
        (Dataset::Milan, MomentSource::Log, "log"),
        (Dataset::Hepmass, MomentSource::Standard, "standard"),
    ];
    let table = |(d, source, moments): (Dataset, MomentSource, &str)| {
        let data = d.generate(args.scale(300_000, d.default_size()), 41);
        let (sketch, phis) = (MomentsSketch::from_data(10, &data), eval_phis());
        let row = |est: Box<dyn QuantileEstimator>| {
            let (result, t) = time_it(|| est.estimate(&sketch, &phis));
            let eps = eps_avg(&data, false, result.ok()).map(|e| 100.0 * e);
            row![est.name(), eps_cell(eps, 2), fmt_duration(t)]
        };
        let title = format!("Figure 10 ({}): lesion study, k=10 {moments} moments", d.name());
        let rows = lesion_estimators(source, 10).into_iter().map(row).collect();
        Table::new(title, &["estimator", "eps_avg(%)", "t_est"], rows)
    };
    runs.map(table).to_vec()
}

/// Figure 11: Druid-style end-to-end p99 roll-up over a cube of tiny
/// pre-aggregated cells; M-Sketch vs S-Hist, with a native sum as floor.
fn fig11(args: &HarnessArgs) -> Vec<Table> {
    // The paper ingests 26M milan rows into ~10M cells; cells of 4 rows
    // keep the merge-dominated regime at a smaller scale.
    let data = Dataset::Milan.generate(args.scale(500_000, 5_000_000), 43);
    let chunks = fixed_cells(&data, 4);
    let sums: Vec<f64> = chunks.iter().map(|c| c.iter().sum()).collect();
    let (total, t_sum) = time_it(|| sums.iter().sum::<f64>());
    assert!(total.is_finite());
    let mut rows = vec![row!["sum", fmt_duration(t_sum), "floor"]];
    for cfg in [S::MSketch(10), S::SHist(10), S::SHist(100), S::SHist(1000)] {
        let [.., total] = merge_then_estimate(&cfg, &chunks);
        rows.push(row![format!("{}@{}", cfg.label(), cfg.param_string()), total, ""]);
    }
    let title = format!("Figure 11: Druid-style end-to-end p99 ({} cells)", chunks.len());
    vec![Table::new(title, &["aggregation", "query", "note"], rows)]
}

/// Figure 12: MacroBase search — the cascade ladder vs two Merge12 routes.
fn fig12(args: &HarnessArgs) -> Vec<Table> {
    let n = args.scale(600_000, 4_000_000);
    let n_groups = args.scale(2_000, 10_000);
    let mut data = Dataset::Milan.generate(n, 47);
    // Plant anomalies: ~1% of groups get a heavy tail (the paper's query
    // finds 19 candidate dimension values).
    let group_rows = n / n_groups;
    for g in (0..n / group_rows).step_by(97) {
        for i in 0..group_rows * 2 / 5 {
            data[g * group_rows + i] = 5_000.0 + (i % 100) as f64;
        }
    }
    // Pre-aggregated cells; groups are contiguous runs of cells (a proxy
    // for dimension-value combinations).
    let cell_chunks = fixed_cells(&data, 50);
    let cells = moments_cells(10, cell_chunks.iter().copied());
    let cells_per_group = cells.len() / n_groups;
    // The search API takes any backend; raw sketches go in wrapped.
    let wrap = |sketch| MSketchSummary::from_sketch(sketch, Default::default());
    let engine = MacroBaseEngine::new(MacroBaseConfig::default());
    let t99 = engine.global_threshold(&wrap(fold(&cells))).unwrap();
    let timed_row = |label: &str, t_merge, t_est, hits: usize| {
        row![label, fmt_duration(t_merge), fmt_duration(t_est), fmt_duration(t_merge + t_est), hits]
    };
    let mut rows = Vec::new();
    for (label, cascade) in cascade_ladder() {
        let mut engine = MacroBaseEngine::new(MacroBaseConfig { cascade, ..Default::default() });
        let (groups, t_merge) = time_it(|| {
            cells.chunks(cells_per_group).map(|run| wrap(fold(run))).collect::<Vec<_>>()
        });
        let labels: Vec<String> = (0..groups.len()).map(|i| format!("g{i}")).collect();
        let labelled =
            labels.iter().map(String::as_str).zip(groups.iter().map(|g| g as &dyn Sketch));
        let (hits, t_est) = time_it(|| engine.search(labelled, t99));
        rows.push(timed_row(label, t_merge, t_est, hits.len()));
    }
    // Merge12a: the same search over Merge12 summaries, one quantile per
    // group.
    let m_cells = build_cells(&S::Merge12(32), &cell_chunks, 0);
    let (groups, t_merge) =
        time_it(|| m_cells.chunks(cells_per_group).map(merge_all).collect::<Vec<_>>());
    let phi = MacroBaseConfig::default().subpopulation_phi();
    let (hits, t_est) = time_it(|| groups.iter().filter(|g| g.quantile(phi) > t99).count());
    rows.push(timed_row("Merge12a", t_merge, t_est, hits));
    // Merge12b: optimistic baseline — exact outlier counts per group,
    // straight from the raw rows (no summaries at query time).
    let outlying =
        |rows: &&[f64]| rows.iter().filter(|&&x| x > t99).count() as f64 / rows.len() as f64 > 0.3;
    let (hits, t_total) = time_it(|| data.chunks(cells_per_group * 50).filter(outlying).count());
    rows.push(row!["Merge12b", fmt_duration(t_total), "-", fmt_duration(t_total), hits]);
    let title = format!(
        "Figure 12: MacroBase search, {n_groups} groups x {cells_per_group} cells (t99={t99:.1})"
    );
    vec![Table::new(title, &["method", "merge", "estimate", "total", "hits"], rows)]
}

/// Figure 13: cascade anatomy — (a) threshold throughput as stages are
/// added, (b) each stage alone, (c) the fraction of queries reaching each.
fn fig13(args: &HarnessArgs) -> Vec<Table> {
    let data = Dataset::Milan.generate(args.scale(400_000, 2_000_000), 53);
    let groups = moments_cells(10, fixed_cells(&data, 400));
    // The global p99 is the threshold every group is tested against.
    let t99 = fold(&groups).solve(&SolverConfig::default()).unwrap().quantile(0.99).unwrap();
    let phi = 0.7;
    let qps_row = |label: &str, t: Duration| {
        row![label, format!("{:.0}", groups.len() as f64 / t.as_secs_f64()), fmt_duration(t)]
    };
    let mut ladder = Vec::new();
    let mut fractions = [0.0; 4];
    for (label, cascade) in cascade_ladder() {
        let mut ev = ThresholdEvaluator::new(cascade);
        let (_, t) = time_it(|| groups.iter().filter(|g| ev.threshold(g, t99, phi)).count());
        // The last rung is the full cascade: its stage counts are (c).
        fractions = ev.stats().fraction_reaching();
        ladder.push(qps_row(label, t));
    }
    let in_range = |g: &&MomentsSketch| {
        let g = std::hint::black_box(g);
        t99 >= g.min() && t99 <= g.max()
    };
    let (_, t_simple) = time_it(|| groups.iter().filter(in_range).count());
    let (_, t_markov) = time_it(|| groups.iter().map(|g| markov_bound(g, t99).lower).sum::<f64>());
    let (_, t_rtt) = time_it(|| groups.iter().map(|g| rtt_bound(g, t99).lower).sum::<f64>());
    let (_, t_maxent) = time_it(|| {
        let solved = groups.iter().filter_map(|g| g.solve(&SolverConfig::default()).ok());
        solved.filter_map(|s| s.quantile(phi).ok()).count()
    });
    let stages = ["Simple", "Markov", "RTT", "MaxEnt"];
    let single =
        stages.iter().zip([t_simple, t_markov, t_rtt, t_maxent]).map(|(l, t)| qps_row(l, t));
    let reach = stages.iter().zip(fractions).map(|(l, f)| row![l, format!("{f:.4}")]);
    let title = format!("Figure 13a: threshold throughput, {} groups", groups.len());
    let (title_b, title_c) = (
        "Figure 13b: single-stage throughput",
        "Figure 13c: fraction of queries reaching each stage",
    );
    vec![
        Table::new(title, &["stages", "QPS", "time"], ladder),
        Table::new(title_b, &["stage", "QPS", "time"], single.collect()),
        Table::new(title_c, &["stage", "fraction"], reach.collect()),
    ]
}

/// Figure 14: sliding-window alerting — turnstile M-Sketch + cascade vs
/// re-merging Merge12 per window, on spiked pane data.
fn fig14(args: &HarnessArgs) -> Vec<Table> {
    // Paper: 4320 ten-minute panes over a month, 4-hour windows (w=24),
    // two injected spikes at values 2000 and 1000, threshold 1500.
    let n_panes = args.scale(1_440, 4_320);
    let per_pane = args.scale(400, 2_000);
    let (window, threshold, phi) = (24, 1_500.0, 0.99);
    let base = Dataset::Milan.generate(n_panes * per_pane, 59);
    let mut pane_data: Vec<Vec<f64>> = base.chunks(per_pane).map(|c| c.to_vec()).collect();
    // Spikes span two hours (12 panes) and add 10% extra data.
    for (start, v) in [(n_panes / 3, 2_000.0), (2 * n_panes / 3, 1_000.0)] {
        for pane in pane_data.iter_mut().skip(start).take(12) {
            pane.extend(std::iter::repeat_n(v, per_pane / 10));
        }
    }
    let panes = moments_cells(10, pane_data.iter().map(Vec::as_slice));
    let ((alerts, _), t_scan) =
        time_it(|| scan_windows(&panes, window, threshold, phi, CascadeConfig::default()));
    let m_panes = build_cells(&S::Merge12(32), &pane_data, 0);
    let mut hits = 0usize;
    let (_, t_remerge) = time_it(|| {
        sliding_windows_remerge(&m_panes, window, |_, agg| {
            hits += usize::from(agg.quantile(phi) > threshold)
        })
    });
    let rows = vec![
        row!["M-Sketch turnstile", fmt_duration(t_scan), "-", alerts.len()],
        row!["Merge12 re-merge", fmt_duration(t_remerge), "-", hits],
    ];
    let title = format!("Figure 14: sliding-window query, {n_panes} panes, w={window}");
    vec![Table::new(title, &["method", "aggregate", "estimate", "hits"], rows)]
}

/// `|sketch-derived − exact|` for each moment order `0..=k` of `data`
/// scaled onto [-1, 1]: the shifted moments E[u^i] the sketch's power sums
/// give, or (`cheb_basis`) the Chebyshev moments E[T_i(u)] derived from
/// them, each against its value computed pointwise.
fn moment_errors(data: &[f64], k: usize, cheb_basis: bool) -> impl Iterator<Item = f64> + '_ {
    let sketch = MomentsSketch::from_data(k, data);
    let dom = ScaledDomain::from_range(sketch.min(), sketch.max());
    let mono = shifted_moments(&sketch.moments(), &dom);
    let derived = if cheb_basis { cheb_moments_from_mono(&mono) } else { mono };
    let basis =
        move |i: usize, u: f64| if cheb_basis { chebyshev::t_eval(i, u) } else { u.powi(i as i32) };
    let exact =
        move |i| data.iter().map(|&x| basis(i, dom.scale(x))).sum::<f64>() / data.len() as f64;
    (0..=k).map(move |i| (derived[i] - exact(i)).abs())
}

/// Figure 15 (Appendix B): highest usable moment order vs data offset c,
/// uniform data on [c-1, c+1], against the closed-form bound (Eq. 21).
///
/// The empirical limit is the highest order whose shifted moment stays
/// within 3^-k of its exact value, checked up to the sketch order 44. That
/// is the budget Eq. 21 is derived from: `k ≤ 13.35 / (0.78 + log10(|c| +
/// 1))` is `(2(|c| + 1))^k · 10^-13.35 ≤ 3^-k`, the Appendix B error bound
/// on the k-th shifted moment held under 3^-k.
fn fig15(_: &HarnessArgs) -> Vec<Table> {
    let n = 100_000;
    let rows = (0..=20).map(|half_c| {
        let c = half_c as f64 / 2.0;
        let data: Vec<f64> = (0..n).map(|i| c - 1.0 + 2.0 * i as f64 / (n - 1) as f64).collect();
        let within = |(k, err): &(usize, f64)| *err <= 3f64.powi(-(*k as i32)).max(1e-12);
        let limit = moment_errors(&data, 44, false).enumerate().skip(1).take_while(within).count();
        row![format!("{c:.1}"), limit, max_stable_k(c)]
    });
    let title = "Figure 15: usable moments vs offset c (uniform on [c-1, c+1])";
    vec![Table::new(title, &["c", "empirical", "bound (Eq 21)"], rows.collect())]
}

/// Figure 16 (Appendix B): Chebyshev-moment precision lost to shifting
/// power sums — hepmass (centred near 0) vs occupancy (centred away).
fn fig16(args: &HarnessArgs) -> Vec<Table> {
    let loss = |d: Dataset| {
        let data = d.generate(args.scale(d.default_size().min(200_000), d.default_size()), 61);
        moment_errors(&data, 20, true).collect::<Vec<f64>>()
    };
    let (hepmass, occupancy) = (loss(Dataset::Hepmass), loss(Dataset::Occupancy));
    let rows =
        (0..=20).map(|i| row![i, format!("{:.3e}", hepmass[i]), format!("{:.3e}", occupancy[i])]);
    let title = "Figure 16: Chebyshev-moment precision loss |mu_i - mu_hat_i|";
    vec![Table::new(title, &["k", "hepmass", "occupancy"], rows.collect())]
}

/// Figure 17 (Appendix C): accuracy of low-precision moments sketches
/// after many merges, sweeping bits per value.
fn fig17(args: &HarnessArgs) -> Vec<Table> {
    let n_cells = args.scale(2_000, 100_000);
    let caption = format!("eps_avg vs bits/value after {n_cells} merges");
    let title = ("Figure 17", caption.as_str());
    per_dataset(&[Dataset::Milan, Dataset::Hepmass], title, &["k", "bits", "eps_avg"], |d| {
        let data = d.generate(n_cells * 200, 67);
        let mut rows = Vec::new();
        for k in [6, 10] {
            let cells = moments_cells(k, fixed_cells(&data, 200));
            for bits in [14, 16, 18, 20, 24, 32, 48, 64] {
                let codec = LowPrecisionCodec::new(bits);
                let decode = |(i, cell): (usize, &MomentsSketch)| {
                    LowPrecisionCodec::decode(&codec.encode(cell, i as u64)).unwrap()
                };
                let low: Vec<MomentsSketch> = cells.iter().enumerate().map(decode).collect();
                let eps = solution_eps(fold(&low).solve(&SolverConfig::default()), &data, false);
                rows.push(row![k, bits, eps_cell(eps, 4)]);
            }
        }
        rows
    })
}

/// Figure 18 (Appendix D.1): accuracy on Gamma distributions of varying
/// shape (skew 2/sqrt(ks)) as the sketch order grows.
fn fig18(args: &HarnessArgs) -> Vec<Table> {
    let n = args.scale(200_000, 1_000_000);
    let rows = [0.1, 1.0, 10.0].into_iter().flat_map(|ks| {
        let data = gamma_dataset(ks, n, 71);
        let row = |k: usize| {
            let solution = MomentsSketch::from_data(k, &data).solve(&SolverConfig::default());
            row![ks, k, eps_cell(solution_eps(solution, &data, false), 5)]
        };
        (2..=14).step_by(2).map(row).collect::<Vec<_>>()
    });
    let title = "Figure 18: eps_avg on Gamma(ks) vs sketch order";
    vec![Table::new(title, &["ks", "order", "eps_avg"], rows.collect())]
}

/// Figure 19 (Appendix D.2): robustness to outliers — Gaussian data with
/// 1% outliers of growing magnitude.
fn fig19(args: &HarnessArgs) -> Vec<Table> {
    let n = args.scale(200_000, 10_000_000);
    let configs =
        [S::EwHist(20), S::EwHist(100), S::MSketch(10), S::Merge12(32), S::Gk(50), S::RandomW(40)];
    let rows = [10.0, 31.6, 100.0, 316.0, 1000.0].into_iter().flat_map(|mag| {
        let data = gaussian_with_outliers(n, 0.01, mag, 73);
        let row = |cfg: &S| {
            let eps = summary_eps(&*cfg.filled(3, &data), &data, false);
            row![mag, format!("{}:{}", cfg.label(), cfg.param_string()), eps_cell(eps, 4)]
        };
        configs.iter().map(row).collect::<Vec<_>>()
    });
    let title = "Figure 19: eps_avg vs outlier magnitude (1% outliers)";
    vec![Table::new(title, &["magnitude", "sketch", "eps_avg"], rows.collect())]
}

/// Figure 20 (Appendix D.3): per-merge latency with larger cells (2000
/// values; 10000 for a Gaussian dataset). M-Sketch is fixed-size, so its
/// merge time is unchanged while capacity-bound summaries grow fuller.
fn fig20(args: &HarnessArgs) -> Vec<Table> {
    let n = args.scale(200_000, 2_000_000);
    // The Table 2 milan parameterizations; S-Hist is left out.
    let configs: Vec<S> = S::table2_milan().into_iter().filter(|c| c.label() != "S-Hist").collect();
    let table = |name: &str, data: &[f64], cell_size: usize| {
        let chunks = fixed_cells(data, cell_size);
        let rows = configs.iter().map(|cfg| merge_latency_row(cfg, &chunks)).collect();
        let title = format!("Figure 20 ({name}): per-merge latency, cells of {cell_size}");
        Table::new(title, &MERGE_LATENCY_COLUMNS, rows)
    };
    let mut tables: Vec<Table> =
        COST_DATASETS.iter().map(|d| table(d.name(), &d.generate(n, 79), 2_000)).collect();
    tables.push(table("gauss", &gaussian(args.scale(500_000, 10_000_000), 83), 10_000));
    tables
}

/// Figure 21 (Appendix D.4): the synthetic production workload's value
/// and cell-size distributions (CDF deciles).
fn fig21(args: &HarnessArgs) -> Vec<Table> {
    let w = ProductionWorkload::generate(args.scale(1_000_000, 165_000_000), 2_380.0, 89);
    let (min, max, mean) = w.cell_stats();
    let mut values = w.flatten();
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut sizes: Vec<usize> = w.cells.iter().map(Vec::len).collect();
    sizes.sort_unstable();
    let decile = |q: f64, len: usize| ((q * len as f64) as usize).min(len - 1);
    let rows = (1..=10).map(|d| {
        let q = d as f64 / 10.0;
        let (value, size) = (values[decile(q, values.len())], sizes[decile(q, sizes.len())]);
        row![format!("{q:.1}"), format!("{value:.0}"), size]
    });
    let (n, cells) = (w.total_rows(), w.cells.len());
    let title = format!("Figure 21: CDF deciles, {n} rows in {cells} cells (cell sizes: min {min}, max {max}, mean {mean:.0})");
    vec![Table::new(title, &["CDF", "value", "cell size"], rows.collect())]
}

/// Figure 22 (Appendix D.4): merge time and accuracy on production cells.
fn fig22(args: &HarnessArgs) -> Vec<Table> {
    let (rows, mean_cell) = (args.scale(500_000, 165_000_000), args.scale(500, 2_380) as f64);
    let w = ProductionWorkload::generate(rows, mean_cell, 97);
    let flat = w.flatten();
    let row = |cfg: &S| {
        let cells = build_cells(cfg, &w.cells, 0xFACE);
        let per_merge = merge_ns(&cells, Duration::from_millis(80));
        let merged = merge_all(&cells);
        let eps = eps_cell(summary_eps(&*merged, &flat, integral(&flat)), 4);
        row![cfg.label(), cfg.param_string(), merged.size_bytes(), format!("{per_merge:.1}"), eps]
    };
    let title = format!("Figure 22: production workload, {} variable-size cells", w.cells.len());
    let columns = ["sketch", "param", "size(b)", "ns/merge", "eps_avg"];
    vec![Table::new(title, &columns, S::table2_milan().iter().map(row).collect())]
}

/// The rank error a summary can *certify* (as opposed to its observed
/// error), recovered from the type-erased summary by downcast:
/// * M-Sketch — Markov ∩ RTT bound evaluated at its own estimates;
/// * GK — `max_i (g_i + Δ_i) / 2n` from the tuple invariant;
/// * Merge12 — deterministic compaction bound `levels / (4k)`;
/// * RandomW — 95% sub-Gaussian bound `1.65 / sqrt(8 s)`;
/// * Sampling — Hoeffding 95% bound `sqrt(ln(2/.05) / 2s)`;
/// * T-Digest / EW-Hist — max centroid / bin mass fraction;
/// * S-Hist certifies nothing (`NaN`), as in the paper.
fn guaranteed_bound(s: &AnySummary, phis: &[f64]) -> f64 {
    let any = s.as_any();
    if let Some(m) = any.downcast_ref::<MSketchSummary>() {
        let Ok(sol) = m.sketch.solve(&m.config) else {
            return 1.0;
        };
        let bound = |&p: &f64| {
            sol.quantile(p).map(|q| quantile_error_bound(&m.sketch, q, p)).unwrap_or(1.0)
        };
        return phis.iter().map(bound).sum::<f64>() / phis.len() as f64;
    }
    if let Some(g) = any.downcast_ref::<GkSummary>() {
        return g.max_rank_uncertainty();
    }
    if let Some(m) = any.downcast_ref::<Merge12>() {
        return m.occupied_levels() as f64 / (4.0 * m.level_size() as f64);
    }
    if let Some(r) = any.downcast_ref::<RandomW>() {
        return 1.65 / (8.0 * r.buffer_size() as f64).sqrt();
    }
    if let Some(r) = any.downcast_ref::<ReservoirSample>() {
        let s = r.items().len().max(1) as f64;
        return ((2.0f64 / 0.05).ln() / (2.0 * s)).sqrt();
    }
    if let Some(t) = any.downcast_ref::<TDigest>() {
        return t.max_centroid_fraction();
    }
    if let Some(h) = any.downcast_ref::<EwHist>() {
        return h.max_bin_fraction();
    }
    f64::NAN
}

/// Figure 23 (Appendix E): guaranteed (worst-case) error bound per
/// summary and size, pointwise accumulation.
fn fig23(args: &HarnessArgs) -> Vec<Table> {
    let phis = eval_phis();
    let caption = ("Figure 23", "guaranteed error bound vs size");
    per_dataset(&COST_DATASETS, caption, &["sketch", "param", "size(b)", "bound"], |d| {
        let data = d.generate(args.scale(200_000, d.default_size()), 101);
        let row = |cfg: S| {
            let s = cfg.filled(19, &data);
            let bound = guaranteed_bound(&s, &phis);
            row![cfg.label(), cfg.param_string(), s.size_bytes(), format!("{bound:.4}")]
        };
        S::sweep().filter(|c| c.label() != "S-Hist").map(row).collect()
    })
}

/// Figure 24 (Appendix F): strong scaling of parallel merges — a fixed
/// merge count over growing thread counts.
fn fig24(args: &HarnessArgs) -> Vec<Table> {
    let n_cells = args.scale(50_000, 400_000);
    let caption = format!("strong scaling, {n_cells} merges on {} cores", cores());
    let columns = ["sketch", "threads", "merges/ms", "time"];
    per_dataset(&[Dataset::Milan, Dataset::Hepmass], ("Figure 24", &caption), &columns, |d| {
        let data = d.generate(n_cells * 200, 103);
        let chunks = fixed_cells(&data, 200);
        let configs = [S::MSketch(10), S::Merge12(32), S::RandomW(40), S::EwHist(100)];
        let rows = configs.into_iter().flat_map(|cfg| {
            let cells = build_cells(&cfg, &chunks, CELL_SEED);
            [1, 2, 4, 8, 16].map(|threads| {
                let (rate, t) = merge_rate(&cells, threads);
                row![cfg.label(), threads, format!("{rate:.0}"), fmt_duration(t)]
            })
        });
        rows.collect()
    })
}

/// Figure 25 (Appendix F): weak scaling of parallel merges — the merge
/// count grows with the thread count.
fn fig25(args: &HarnessArgs) -> Vec<Table> {
    let per_thread = args.scale(20_000, 100_000);
    let caption = format!("weak scaling, {per_thread} merges/thread on {} cores", cores());
    let columns = ["sketch", "threads", "cells", "merges/ms"];
    per_dataset(&[Dataset::Milan, Dataset::Hepmass], ("Figure 25", &caption), &columns, |d| {
        let rows = [S::MSketch(10), S::Merge12(32), S::RandomW(40)].into_iter().flat_map(|cfg| {
            [1, 2, 4, 8].map(|threads| {
                let n_cells = per_thread * threads;
                let data = d.generate(n_cells * 50, 107);
                let (rate, _) =
                    merge_rate(&build_cells(&cfg, &fixed_cells(&data, 50), CELL_SEED), threads);
                row![cfg.label(), threads, n_cells, format!("{rate:.0}")]
            })
        });
        rows.collect()
    })
}

/// Solver design ablations beyond the paper's lesion study: the
/// condition-number budget κ_max, the Chebyshev node count and the Newton
/// tolerance, each swept around the defaults (κ_max = 10⁴, automatic
/// nodes, δ = 10⁻⁹, the paper's evaluation settings).
fn ablation(args: &HarnessArgs) -> Vec<Table> {
    let n = args.scale(300_000, 1_000_000);
    let mut tables = Vec::new();
    for d in [Dataset::Milan, Dataset::Occupancy] {
        let data = d.generate(n.min(d.default_size()), 131);
        let sketch = MomentsSketch::from_data(12, &data);
        let run = |param: String, cfg: SolverConfig| {
            let (solution, t) = time_it(|| solve_robust(&sketch, &cfg));
            row![param, eps_cell(solution_eps(solution, &data, false), 5), fmt_duration(t)]
        };
        let base = SolverConfig::default();
        let kappa = [1e1, 1e2, 1e3, 1e4, 1e6, 1e9]
            .map(|kappa_max| (format!("{kappa_max:.0e}"), SolverConfig { kappa_max, ..base }));
        let nodes = [16, 32, 64, 128, 256]
            .map(|n| (n.to_string(), SolverConfig { n_nodes: Some(n), ..base }));
        let tol = [1e-3, 1e-6, 1e-9, 1e-12]
            .map(|grad_tol| (format!("{grad_tol:.0e}"), SolverConfig { grad_tol, ..base }));
        let sweeps: [(&str, &str, Vec<_>); 3] = [
            ("condition-number budget", "kappa_max", kappa.into()),
            ("Chebyshev interpolation nodes", "nodes", nodes.into()),
            ("Newton tolerance", "grad_tol", tol.into()),
        ];
        for (what, param, configs) in sweeps {
            let rows = configs.into_iter().map(|(p, cfg)| run(p, cfg)).collect();
            let title = format!("Ablation ({}): {what}", d.name());
            tables.push(Table::new(title, &[param, "eps_avg", "t_solve"], rows));
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_holds_every_figure_once_in_paper_order() {
        let numbered = (3..=25).map(|n| n.to_string());
        let tables = ["table1", "table2"].map(String::from);
        let expected: Vec<String> =
            tables.into_iter().chain(numbered).chain(["ablation".into()]).collect();
        assert_eq!(FIGURES.iter().map(|f| f.id).collect::<Vec<_>>(), expected);
        assert!(FIGURES.iter().all(|f| figure(f.id).is_some() && !f.claim.is_empty()));
    }
}
