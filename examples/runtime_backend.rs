//! Runtime backend selection + the Druid segment lifecycle: pick the
//! sketch backend from a string, pre-aggregate a cube, persist it to
//! bytes, restore it, and answer the same queries on the restored copy.
//!
//! Run: `cargo run --release --example runtime_backend [-- <spec>]`
//! where `<spec>` is `"moments"`, `"tdigest"`, `"gk"`, ... or a
//! parameterized form like `"moments:10"` / `"gk:0.0167"`. The
//! `MSKETCH_BACKEND` environment variable works too.

use msketch::datasets::dist;
use msketch::prelude::{DynCube, GroupThresholdQuery, QueryEngine, SketchSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // The backend arrives as a *string* at runtime — argv, env, or a
    // per-table config in a real deployment. No recompilation involved.
    let choice = std::env::args()
        .nth(1)
        .or_else(|| std::env::var("MSKETCH_BACKEND").ok())
        .unwrap_or_else(|| "moments:10".to_string());
    let spec = SketchSpec::parse(&choice).unwrap_or_else(|e| {
        eprintln!("{e}; valid kinds: moments, merge12, randomw, gk, tdigest, sampling, shist, ewhist, exact");
        std::process::exit(2);
    });
    println!("backend: {} (param {})", spec.kind(), spec.param());

    // Ingest service telemetry into a cube of the chosen backend; the
    // `eu`/`batch` slice runs hot.
    let mut cube = DynCube::from_spec(spec, &["region", "workload"]);
    let mut rng = StdRng::seed_from_u64(42);
    let regions = ["us", "eu", "ap"];
    let workloads = ["interactive", "batch"];
    for _ in 0..200_000 {
        let region = regions[rng.gen_range(0..regions.len())];
        let workload = workloads[rng.gen_range(0..workloads.len())];
        let mut ms = dist::lognormal(&mut rng, 2.5, 0.6);
        if region == "eu" && workload == "batch" {
            ms *= 8.0;
        }
        cube.insert(&[region, workload], ms).unwrap();
    }
    println!(
        "cube: {} rows in {} cells",
        cube.row_count(),
        cube.cell_count()
    );

    // Persist the whole cube — spec, dictionaries, cells — and restore
    // it, as a historical node would load a segment.
    let bytes = cube.to_bytes();
    let restored = DynCube::from_bytes(&bytes).expect("cube roundtrip");
    println!(
        "serialized {} bytes; restored {} cells of kind {}",
        bytes.len(),
        restored.cell_count(),
        restored.spec().kind()
    );

    // The restored cube answers the same queries.
    for (label, cube) in [("live", &cube), ("restored", &restored)] {
        let all = QueryEngine::quantiles(cube, &cube.no_filter(), &[0.99]).unwrap();
        println!("{label:>9}: global p99 = {:.1} ms", all.values[0]);
    }

    // GROUP BY (region, workload) HAVING p90 > 60ms, on the restored
    // copy. Moments-sketch cells route through the threshold cascade;
    // other backends answer directly.
    let everything = restored.no_filter();
    let report = GroupThresholdQuery::new(0.9, 60.0)
        .run_cube_decoded(&restored, &[0, 1], &everything)
        .unwrap();
    let rows =
        QueryEngine::group_quantiles_decoded(&restored, &[0, 1], &everything, &[0.9]).unwrap();
    println!("\nGROUP BY (region, workload) HAVING p90 > 60ms:");
    for row in rows.iter().filter(|row| report.hits.contains(&row.key)) {
        let (region, workload, q) = (&row.key[0], &row.key[1], row.values[0]);
        println!("  {region:>3} / {workload:<11} p90 = {q:.0} ms");
    }
    let stats = report.stats;
    if stats.total > 0 {
        println!(
            "cascade resolved {}/{} groups without a max-entropy solve",
            stats.simple_hits + stats.markov_hits + stats.rtt_hits,
            stats.total
        );
    }
}
