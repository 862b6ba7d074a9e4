//! The paper's motivating scenario: a Druid-like cube over mobile
//! telemetry, pre-aggregated by (country, app version, OS), answering
//! roll-up percentile queries and a GROUP BY ... HAVING threshold query.
//!
//! Run: `cargo run --release --example app_telemetry`

use msketch::datasets::dist;
use msketch::prelude::{DynCube, GroupThresholdQuery, QueryEngine, SketchSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let countries = ["USA", "CAN", "MEX", "BRA", "DEU", "JPN"];
    let versions = ["v7.0", "v7.1", "v8.0", "v8.1", "v8.2"];
    let oses = ["ios-6.1", "ios-6.2", "ios-6.3", "android-12"];

    let mut cube = DynCube::from_spec(SketchSpec::moments(10), &["country", "app_version", "os"]);

    // Ingest telemetry: request latency in ms, log-normal-ish, with a
    // regression in v8.2 on android.
    let mut rng = StdRng::seed_from_u64(2024);
    for _ in 0..400_000 {
        let country = countries[rng.gen_range(0..countries.len())];
        let version = versions[rng.gen_range(0..versions.len())];
        let os = oses[rng.gen_range(0..oses.len())];
        let mut latency = dist::lognormal(&mut rng, 3.0, 0.7);
        if version == "v8.2" && os == "android-12" {
            latency *= 6.0; // the regression we want to find
        }
        cube.insert(&[country, version, os], latency).unwrap();
    }
    println!(
        "cube: {} rows in {} cells ({} dims)",
        cube.row_count(),
        cube.cell_count(),
        cube.dim_count()
    );

    // Roll-up: global p99 (merges every cell).
    let all = QueryEngine::quantiles(&cube, &cube.no_filter(), &[0.99]).unwrap();
    println!("global p99 latency = {:.1} ms", all.values[0]);

    // Filtered roll-up: p99 for USA on v8.2 (the paper's example query).
    let mut filter = cube.no_filter();
    filter[0] = cube.dictionary(0).unwrap().lookup("USA");
    filter[1] = cube.dictionary(1).unwrap().lookup("v8.2");
    let usa_v82 = QueryEngine::quantiles(&cube, &filter, &[0.99]).unwrap();
    println!("USA / v8.2 p99 latency = {:.1} ms", usa_v82.values[0]);

    // Threshold query: GROUP BY (version, os) HAVING p99 > 100ms.
    let report = GroupThresholdQuery::new(0.99, 150.0)
        .run_cube_decoded(&cube, &[1, 2], &cube.no_filter())
        .unwrap();
    println!(
        "\nGROUP BY (version, os) HAVING p99 > 150ms — {} of {} groups:",
        report.hits.len(),
        report.groups
    );
    let rows =
        QueryEngine::group_quantiles_decoded(&cube, &[1, 2], &cube.no_filter(), &[0.99]).unwrap();
    for row in rows.iter().filter(|row| report.hits.contains(&row.key)) {
        let (version, os, q) = (&row.key[0], &row.key[1], row.values[0]);
        println!("  {version:>6} on {os:<12} p99 = {q:.0} ms");
    }
    let stats = report.stats;
    println!(
        "cascade resolved {}/{} groups without a max-entropy solve",
        stats.simple_hits + stats.markov_hits + stats.rtt_hits,
        stats.total
    );
}
