//! Integration tests for the Druid-like cube engine driving the moments
//! sketch end to end: ingest → pre-aggregate → roll-up / group-by /
//! project → estimate, validated against exact per-slice computation.

use msketch::cube::{DataCube, GroupThresholdQuery, QueryEngine};
use msketch::datasets::dist;
use msketch::prelude::{QuantileSummary, Sketch};
use msketch::sketches::{MSketchSummary, MomentsBacked, SketchSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

type MCube = DataCube<SketchSpec>;

/// Build a 3-dimensional cube plus the raw rows for ground truth.
fn telemetry_cube(rows: usize) -> (MCube, Vec<(Vec<String>, f64)>) {
    let countries = ["US", "CA", "MX"];
    let versions = ["v1", "v2", "v3", "v4"];
    let devices = ["phone", "tablet"];
    let factory = SketchSpec::moments(10);
    let mut cube = DataCube::new(factory, &["country", "version", "device"]);
    let mut raw = Vec::with_capacity(rows);
    let mut rng = StdRng::seed_from_u64(555);
    for _ in 0..rows {
        let c = countries[rng.gen_range(0..countries.len())];
        let v = versions[rng.gen_range(0..versions.len())];
        let d = devices[rng.gen_range(0..devices.len())];
        // Latency depends on version so slices differ measurably.
        let version_factor = 1.0 + versions.iter().position(|&x| x == v).unwrap() as f64;
        let latency = dist::lognormal(&mut rng, 2.0, 0.4) * version_factor;
        cube.insert(&[c, v, d], latency).unwrap();
        raw.push((vec![c.to_string(), v.to_string(), d.to_string()], latency));
    }
    (cube, raw)
}

fn exact_quantile(mut values: Vec<f64>, phi: f64) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    values[((phi * values.len() as f64) as usize).min(values.len() - 1)]
}

#[test]
fn filtered_rollup_matches_exact_slice() {
    let (cube, raw) = telemetry_cube(60_000);
    let v3 = cube.dictionary(1).unwrap().lookup("v3").unwrap();
    let mut filter = cube.no_filter();
    filter[1] = Some(v3);
    let est = QueryEngine::quantiles(&cube, &filter, &[0.9])
        .unwrap()
        .values[0];
    let exact = exact_quantile(
        raw.iter()
            .filter(|(dims, _)| dims[1] == "v3")
            .map(|&(_, x)| x)
            .collect(),
        0.9,
    );
    let err = (est - exact).abs() / exact;
    assert!(err < 0.05, "est {est} vs exact {exact} ({err:.3})");
}

#[test]
fn group_by_quantiles_track_version_ordering() {
    let (cube, _) = telemetry_cube(40_000);
    // Rows come back sorted by version name; median latency must
    // increase with the version factor.
    let rows =
        QueryEngine::group_quantiles_decoded(&cube, &[1], &cube.no_filter(), &[0.5]).unwrap();
    assert_eq!(rows.len(), 4);
    for w in rows.windows(2) {
        assert!(
            w[1].values[0] > w[0].values[0],
            "medians must rise with version: {rows:?}"
        );
    }
}

#[test]
fn having_query_selects_exactly_the_slow_versions() {
    let (cube, raw) = telemetry_cube(40_000);
    // Threshold chosen between v2 and v3 p90s.
    let p90_v2 = exact_quantile(
        raw.iter()
            .filter(|(d, _)| d[1] == "v2")
            .map(|&(_, x)| x)
            .collect(),
        0.9,
    );
    let p90_v3 = exact_quantile(
        raw.iter()
            .filter(|(d, _)| d[1] == "v3")
            .map(|&(_, x)| x)
            .collect(),
        0.9,
    );
    let t = 0.5 * (p90_v2 + p90_v3);
    let report = GroupThresholdQuery::new(0.9, t)
        .run_cube_decoded(&cube, &[1], &cube.no_filter())
        .unwrap();
    assert_eq!(report.hits, [["v3"], ["v4"]]);
    assert_eq!(report.stats.total, 4);
}

#[test]
fn projection_commutes_with_queries() {
    let (cube, _) = telemetry_cube(30_000);
    let view = cube.project(&[0, 2]).unwrap(); // country x device
    assert!(view.cell_count() <= 6);
    for (key, _) in view.cells() {
        let mut base_filter = cube.no_filter();
        base_filter[0] = Some(key[0]);
        base_filter[2] = Some(key[1]);
        let mut view_filter = view.no_filter();
        view_filter[0] = Some(key[0]);
        view_filter[1] = Some(key[1]);
        let q_base = cube.rollup(&base_filter).unwrap().quantile(0.95);
        let q_view = view.rollup(&view_filter).unwrap().quantile(0.95);
        assert!(
            (q_base - q_view).abs() < 1e-9 * q_base.abs().max(1.0),
            "{q_base} vs {q_view}"
        );
    }
}

#[test]
fn sketch_cells_serialize_through_cube_lifecycle() {
    use msketch::core::serialize::{from_bytes, to_bytes};
    let (cube, raw) = telemetry_cube(20_000);
    // Simulate persisting and reloading every cell, then re-aggregating.
    let mut restored: HashMap<Vec<u32>, MSketchSummary> = HashMap::new();
    for (key, summary) in cube.cells() {
        let bytes = to_bytes(summary.as_moments().unwrap());
        let back = from_bytes(&bytes).unwrap();
        restored.insert(key.clone(), MSketchSummary::from_sketch(back));
    }
    let mut total = restored.values().next().unwrap().clone();
    let mut first = true;
    for s in restored.values() {
        if first {
            first = false;
            continue;
        }
        total.merge_from(s);
    }
    assert_eq!(total.count() as usize, raw.len());
    let est = total.quantile(0.5);
    let exact = exact_quantile(raw.iter().map(|&(_, x)| x).collect(), 0.5);
    assert!((est - exact).abs() / exact < 0.05, "{est} vs {exact}");
}
