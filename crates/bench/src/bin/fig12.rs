//! Figure 12: MacroBase query runtime — cascade stages vs Merge12
//! alternatives on the outlier-rate search.
//!
//! Run: `cargo run --release -p msketch-bench --bin fig12 [--full]`

use moments_sketch::{CascadeConfig, MomentsSketch};
use msketch_bench::{fmt_duration, print_table_header, print_table_row, time_it, HarnessArgs};
use msketch_datasets::{fixed_cells, Dataset};
use msketch_macrobase::{MacroBaseConfig, MacroBaseEngine};
use msketch_sketches::{MSketchSummary, Merge12, QuantileSummary, Sketch};

fn cascade_variants() -> Vec<(&'static str, CascadeConfig)> {
    let base = CascadeConfig::baseline();
    vec![
        ("Baseline", base),
        (
            "+Simple",
            CascadeConfig {
                use_simple: true,
                ..base
            },
        ),
        (
            "+Markov",
            CascadeConfig {
                use_simple: true,
                use_markov: true,
                ..base
            },
        ),
        ("+RTT", CascadeConfig::default()),
    ]
}

fn main() {
    let args = HarnessArgs::parse();
    let n = args.scale(600_000, 4_000_000);
    let mut data = Dataset::Milan.generate(n, 47);
    // Plant anomalies: ~1% of groups get a heavy tail (the paper's query
    // finds 19 candidate dimension values).
    let group_rows = n / args.scale(2_000, 10_000);
    for g in 0..(n / group_rows) {
        if g % 97 == 0 {
            let start = g * group_rows;
            for i in 0..group_rows * 2 / 5 {
                data[start + i] = 5_000.0 + (i % 100) as f64;
            }
        }
    }
    // Pre-aggregated cells; groups = contiguous runs of cells (a proxy for
    // dimension-value combinations).
    let cell_chunks = fixed_cells(&data, 50);
    let cells: Vec<MomentsSketch> = cell_chunks
        .iter()
        .map(|c| MomentsSketch::from_data(10, c))
        .collect();
    let n_groups = args.scale(2_000, 10_000);
    let cells_per_group = cells.len() / n_groups;
    // Global t99 from a full merge.
    let mut all = cells[0].clone();
    for c in &cells[1..] {
        all.merge(c);
    }
    let engine = MacroBaseEngine::new(MacroBaseConfig::default());
    // The search API takes any backend; raw sketches go in wrapped.
    let wrap = |sketch| MSketchSummary::from_sketch(sketch, Default::default());
    let t99 = engine.global_threshold(&wrap(all)).unwrap();
    let widths = [10, 12, 12, 12, 8];
    print_table_header(
        &format!(
            "Figure 12: MacroBase search, {} groups x {} cells (t99={t99:.1})",
            n_groups, cells_per_group
        ),
        &["method", "merge", "estimate", "total", "hits"],
        &widths,
    );
    for (label, cascade) in cascade_variants() {
        let mut engine = MacroBaseEngine::new(MacroBaseConfig {
            cascade,
            ..Default::default()
        });
        // Merge phase: build each group's sketch from its cells.
        let (groups, t_merge) = time_it(|| {
            cells
                .chunks(cells_per_group)
                .map(|chunk| {
                    let mut g = chunk[0].clone();
                    for c in &chunk[1..] {
                        g.merge(c);
                    }
                    wrap(g)
                })
                .collect::<Vec<_>>()
        });
        let labels: Vec<String> = (0..groups.len()).map(|i| format!("g{i}")).collect();
        let labelled = labels
            .iter()
            .zip(&groups)
            .map(|(l, g)| (l.as_str(), g as &dyn Sketch));
        let (hits, t_est) = time_it(|| engine.search(labelled, t99));
        print_table_row(
            &[
                label.into(),
                fmt_duration(t_merge),
                fmt_duration(t_est),
                fmt_duration(t_merge + t_est),
                format!("{}", hits.len()),
            ],
            &widths,
        );
    }
    // Merge12a: same search with Merge12 summaries (quantile per group).
    {
        let m_cells: Vec<Merge12> = cell_chunks
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut m = Merge12::new(32, i as u64);
                m.accumulate_all(c);
                m
            })
            .collect();
        let (groups, t_merge) = time_it(|| {
            m_cells
                .chunks(cells_per_group)
                .map(|chunk| {
                    let mut g = chunk[0].clone();
                    for c in &chunk[1..] {
                        g.merge_from(c);
                    }
                    g
                })
                .collect::<Vec<_>>()
        });
        let phi = MacroBaseConfig::default().subpopulation_phi();
        let (hits, t_est) = time_it(|| groups.iter().filter(|g| g.quantile(phi) > t99).count());
        print_table_row(
            &[
                "Merge12a".into(),
                fmt_duration(t_merge),
                fmt_duration(t_est),
                fmt_duration(t_merge + t_est),
                format!("{hits}"),
            ],
            &widths,
        );
    }
    // Merge12b: optimistic baseline — accumulate exact outlier counts per
    // group directly from the raw data (no summaries at query time).
    {
        let (hits, t_total) = time_it(|| {
            let group_rows = cells_per_group * 50;
            data.chunks(group_rows)
                .filter(|rows| {
                    let outliers = rows.iter().filter(|&&x| x > t99).count();
                    outliers as f64 / rows.len() as f64 > 0.3
                })
                .count()
        });
        print_table_row(
            &[
                "Merge12b".into(),
                fmt_duration(t_total),
                "-".into(),
                fmt_duration(t_total),
                format!("{hits}"),
            ],
            &widths,
        );
    }
    println!("\nExpect each added cascade stage to shrink estimate time; with the full\ncascade, estimation is negligible next to merging.");
}
