//! The paper's claims, pinned on the rows the reproduction prints. Each
//! test runs one registry figure at default scale — exactly what
//! `msketch-repro --fig <id>` renders — and asserts the claim sentence the
//! registry carries for it. Only deterministic cells are read: seeds and
//! sizes are fixed, and no test looks at a stopwatch column.

use msketch_bench::figures::{figure, FIGURES};
use msketch_bench::{HarnessArgs, Table};
use std::process::Command;

fn run(id: &str) -> Vec<Table> {
    let fig = figure(id).unwrap_or_else(|| panic!("no figure {id}"));
    (fig.run)(&HarnessArgs { full: false })
}

fn index(table: &Table, column: &str) -> usize {
    let found = table.columns.iter().position(|c| c == column);
    found.unwrap_or_else(|| panic!("{}: no column {column}", table.title))
}

/// The cells of `column` as text.
fn text<'a>(table: &'a Table, column: &str) -> Vec<&'a str> {
    let i = index(table, column);
    table.rows.iter().map(|r| r[i].as_str()).collect()
}

/// The cells of `column` as numbers; `fail` and `-` read as NaN.
fn numbers(table: &Table, column: &str) -> Vec<f64> {
    let cells = text(table, column);
    cells.iter().map(|c| c.parse().unwrap_or(f64::NAN)).collect()
}

#[test]
fn table1_generators_match_the_paper_where_documented() {
    let t = &run("table1")[0];
    let stat = |dataset: &str, column: &str| {
        let names = text(t, "dataset");
        let row = names.iter().position(|&n| n == dataset).expect("dataset row");
        // Each generated row is followed by the paper's row.
        let values = numbers(t, column);
        (values[row], values[row + 1])
    };
    // (dataset, statistic, tolerance as a fraction of the paper's value,
    // whether the generator is documented to match within it).
    let checks = [
        // Support within 10 %. Not compared: exponential's min and max,
        // sample extremes that move with n (≈ 1/n and ln n).
        ("milan", "min", 0.10, true),
        ("hepmass", "min", 0.10, true),
        ("occupancy", "min", 0.10, true),
        ("retail", "min", 0.10, true),
        ("power", "min", 0.10, true),
        ("milan", "max", 0.10, false),
        ("hepmass", "max", 0.10, true),
        ("occupancy", "max", 0.10, true),
        ("retail", "max", 0.10, true),
        ("power", "max", 0.10, true),
        // Mean within 5 % (hepmass's, near zero, is checked below).
        ("milan", "mean", 0.05, true),
        ("occupancy", "mean", 0.05, true),
        ("retail", "mean", 0.05, false),
        ("power", "mean", 0.05, true),
        ("exponential", "mean", 0.05, true),
        // Standard deviation within 15 %.
        ("milan", "stddev", 0.15, false),
        ("hepmass", "stddev", 0.15, true),
        ("occupancy", "stddev", 0.15, false),
        ("retail", "stddev", 0.15, false),
        ("power", "stddev", 0.15, true),
        ("exponential", "stddev", 0.15, true),
        // Skewness within 25 %.
        ("milan", "skew", 0.25, true),
        ("hepmass", "skew", 0.25, true),
        ("occupancy", "skew", 0.25, true),
        ("retail", "skew", 0.25, false),
        ("power", "skew", 0.25, true),
        ("exponential", "skew", 0.25, true),
    ];
    for (dataset, column, tolerance, matches) in checks {
        let (ours, paper) = stat(dataset, column);
        let off = (ours / paper - 1.0).abs();
        assert_eq!(
            off <= tolerance,
            matches,
            "{dataset} {column}: generated {ours} vs paper {paper} is {:.1} % off \
             (tolerance {:.0} %); update msketch_datasets::gen's calibration list",
            100.0 * off,
            100.0 * tolerance
        );
    }
    // The paper's hepmass mean is 0.016 on a unit standard deviation, so
    // its tolerance is absolute: ±0.05.
    let (ours, paper) = stat("hepmass", "mean");
    assert!((ours - paper).abs() <= 0.05, "hepmass mean {ours} vs {paper}");
}

#[test]
fn table2_msketch_is_the_smallest_summary_reaching_one_percent() {
    for t in run("table2") {
        let sizes = numbers(&t, "size(b)");
        let labels = text(&t, "sketch");
        let msketch = sizes[labels.iter().position(|&l| l == "M-Sketch").unwrap()];
        assert!(msketch.is_finite(), "{}: M-Sketch never reaches 0.01", t.title);
        for (label, size) in labels.iter().zip(&sizes) {
            assert!(
                *label == "M-Sketch" || size.is_nan() || msketch < *size,
                "{}: M-Sketch {msketch} B vs {label} {size} B",
                t.title
            );
        }
    }
}

#[test]
fn fig8_msketch_answers_every_cardinality_trails_at_16_and_leads_from_128() {
    let t = &run("8")[0];
    let (cards, sketches, eps) =
        (numbers(t, "cardinality"), text(t, "sketch"), numbers(t, "eps_avg"));
    assert!(eps.iter().all(|e| e.is_finite()), "a sketch failed: {eps:?}");
    for card in [2.0, 4.0, 8.0, 16.0, 128.0, 256.0, 512.0, 1024.0, 2048.0] {
        let rows: Vec<usize> = (0..cards.len()).filter(|&i| cards[i] == card).collect();
        let msketch = eps[rows.iter().copied().find(|&i| sketches[i] == "M-Sketch").unwrap()];
        let others = rows.iter().filter(|&&i| sketches[i] != "M-Sketch").map(|&i| eps[i]);
        for other in others {
            let (trails, leads) = (msketch > other, msketch < other);
            assert!(
                if card <= 16.0 { trails } else { leads },
                "cardinality {card}: M-Sketch {msketch} vs {other}"
            );
        }
    }
    assert!(eps[0] > 0.25, "M-Sketch at 2 values: {}", eps[0]);
}

#[test]
fn fig9_log_moments_beat_standard_moments_on_long_tails() {
    for t in run("9") {
        let (with_log, no_log) = (numbers(&t, "with_log"), numbers(&t, "no_log"));
        let pairs = with_log.iter().zip(&no_log);
        if t.title.contains("(milan)") {
            assert!(pairs.into_iter().all(|(w, n)| w < n), "{t:?}");
        } else if t.title.contains("(retail)") {
            assert!(with_log.iter().all(|w| w.is_finite()), "{t:?}");
            assert!(no_log.iter().all(|n| n.is_nan()), "{t:?}");
        } else {
            assert!(t.title.contains("(occupancy)"));
            assert!(pairs.into_iter().all(|(w, n)| w.max(*n) <= 2.0 * w.min(*n)), "{t:?}");
        }
    }
}

#[test]
fn fig10_every_maxent_estimator_is_at_least_3x_more_accurate_than_every_other() {
    for t in run("10") {
        let (names, eps) = (text(&t, "estimator"), numbers(&t, "eps_avg(%)"));
        assert!(eps.iter().all(|e| e.is_finite()), "{t:?}");
        let maxent = ["cvx-maxent", "newton", "bfgs", "opt"];
        let (family, others): (Vec<_>, Vec<_>) =
            names.iter().zip(&eps).partition(|(name, _)| maxent.contains(name));
        assert_eq!((family.len(), others.len()), (4, 4), "{t:?}");
        let worst_maxent = family.iter().map(|(_, e)| **e).fold(0.0, f64::max);
        let best_other = others.iter().map(|(_, e)| **e).fold(f64::INFINITY, f64::min);
        assert!(3.0 * worst_maxent <= best_other, "{}: {worst_maxent} vs {best_other}", t.title);
    }
}

#[test]
fn fig15_eq21_is_at_or_below_the_empirical_limit_at_every_offset() {
    let t = &run("15")[0];
    let (empirical, bound) = (numbers(t, "empirical"), numbers(t, "bound (Eq 21)"));
    assert_eq!(empirical.len(), 21);
    for ((c, e), b) in text(t, "c").iter().zip(&empirical).zip(&bound) {
        assert!(b <= e, "c = {c}: bound {b} above empirical {e}");
    }
}

#[test]
fn fig16_occupancy_loses_chebyshev_precision_faster_than_hepmass() {
    let t = &run("16")[0];
    let (hepmass, occupancy) = (numbers(t, "hepmass"), numbers(t, "occupancy"));
    for (k, (h, o)) in hepmass.iter().zip(&occupancy).enumerate().skip(1) {
        assert!(h < o, "order {k}: hepmass {h} vs occupancy {o}");
        assert!(*h < 1e-7, "order {k}: hepmass {h}");
        assert!(k < 11 || *o > 1e-6, "order {k}: occupancy {o}");
    }
}

#[test]
fn fig17_twenty_bits_per_value_match_sixty_four() {
    for t in run("17") {
        let (ks, bits, eps) = (numbers(&t, "k"), numbers(&t, "bits"), numbers(&t, "eps_avg"));
        let at = |k: f64, b: f64| eps[(0..ks.len()).find(|&i| ks[i] == k && bits[i] == b).unwrap()];
        for k in [6.0, 10.0] {
            let full = at(k, 64.0);
            for b in [20.0, 24.0, 32.0, 48.0] {
                assert!((at(k, b) - full).abs() <= 0.0005, "{} k={k} {b} bits", t.title);
            }
            let low = at(k, 14.0);
            assert!(low.is_nan() || low > full, "{} k={k}: 14 bits no worse", t.title);
        }
        if t.title.contains("(milan)") {
            assert!(at(10.0, 14.0).is_nan(), "milan k=10 at 14 bits solved");
        }
    }
}

#[test]
fn fig18_every_gamma_shape_is_under_one_percent_at_every_order() {
    let t = &run("18")[0];
    let eps = numbers(t, "eps_avg");
    assert_eq!(eps.len(), 21);
    assert!(eps.iter().all(|&e| e <= 0.01), "{t:?}");
}

#[test]
fn fig19_msketch_loses_to_the_comparators_from_magnitude_316() {
    let t = &run("19")[0];
    let (mags, sketches, eps) = (numbers(t, "magnitude"), text(t, "sketch"), numbers(t, "eps_avg"));
    let at = |mag: f64, sketch: &str| {
        eps[(0..mags.len()).find(|&i| mags[i] == mag && sketches[i] == sketch).unwrap()]
    };
    let magnitudes = [10.0, 31.6, 100.0, 316.0, 1000.0];
    for mag in magnitudes {
        let msketch = at(mag, "M-Sketch:k=10");
        for other in ["Merge12:k=32", "GK:eps=1/50", "RandomW:s=40"] {
            let other_eps = at(mag, other);
            assert!(other_eps < 0.015, "{other} at {mag}: {other_eps}");
            if mag <= 100.0 {
                assert!(msketch < other_eps, "{mag}: M-Sketch {msketch} vs {other}");
            } else {
                assert!(msketch > 0.1 && msketch > other_eps, "{mag}: M-Sketch {msketch}");
            }
        }
    }
    for hist in ["EW-Hist:20 bins", "EW-Hist:100 bins"] {
        let errors = magnitudes.map(|m| at(m, hist));
        assert!(errors.windows(2).all(|w| w[0] < w[1]), "{hist}: {errors:?}");
    }
}

#[test]
fn cli_prints_claims_and_rejects_unknown_flags_with_the_ids() {
    let repro = env!("CARGO_BIN_EXE_msketch-repro");
    let out = Command::new(repro).args(["--fig", "table1"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("=== Table 1: Dataset Characteristics"), "{stdout}");
    assert!(stdout.contains(&format!("Claim (table1): {}", FIGURES[0].claim)));

    for args in [&["--bogus"][..], &[], &["--fig", "99"]] {
        let out = Command::new(repro).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let ids = stderr.lines().find_map(|l| l.strip_prefix("ids: ")).unwrap();
        let expected: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        assert_eq!(ids.split(' ').collect::<Vec<_>>(), expected);
    }
}
