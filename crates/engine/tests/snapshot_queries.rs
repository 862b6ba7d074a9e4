//! The query cascade runs unchanged over concurrently built cubes: both
//! `GroupThresholdQuery::run_cube_decoded` and MacroBase's `search_cube` accept
//! engine snapshots (which deref to `DataCube`) and answer exactly as
//! they would over a sequentially built cube.

use msketch_cube::{DynCube, GroupThresholdQuery};
use msketch_engine::{DynShardedCube, EngineConfig};
use msketch_macrobase::{MacroBaseConfig, MacroBaseEngine};
use msketch_sketches::SketchSpec;

/// 50 service groups of 2000 points each; group `svc-07` holds 40% of
/// its mass far above everything else while staying under 1% of the
/// total population — the paper's 30x outlier-rate setup.
fn ingest(insert: &mut dyn FnMut(&[&str], f64)) {
    for g in 0..50u64 {
        let svc = format!("svc-{g:02}");
        let hw = if g % 2 == 0 { "x1" } else { "x2" };
        for i in 0..2000u64 {
            let base = ((i * 13 + g * 7) % 100) as f64 + 1.0;
            let metric = if g == 7 && i % 5 < 2 {
                base + 1000.0
            } else {
                base
            };
            insert(&[&svc, hw], metric);
        }
    }
}

#[test]
fn snapshot_answers_match_sequential_cube() {
    let spec = SketchSpec::moments(10);
    let mut engine = DynShardedCube::new(
        spec.clone(),
        &["svc", "hw"],
        EngineConfig::with_shards(8).batch_rows(512),
    );
    ingest(&mut |dims, metric| engine.insert(dims, metric).unwrap());
    let snap = engine.snapshot().unwrap();

    let mut sequential = DynCube::from_spec(spec, &["svc", "hw"]);
    ingest(&mut |dims, metric| sequential.insert(dims, metric).unwrap());

    // Threshold cascade over the snapshot vs the sequential cube: same
    // hits (decoded to names; ids may differ between dictionaries) and
    // the cascade actually engages on both.
    let query = GroupThresholdQuery::new(0.7, 800.0);
    let snap_report = query
        .run_cube_decoded(&snap, &[0], &snap.no_filter())
        .unwrap();
    let seq_report = query
        .run_cube_decoded(&sequential, &[0], &sequential.no_filter())
        .unwrap();
    assert_eq!(snap_report.hits, [["svc-07"]]);
    assert_eq!(snap_report, seq_report);
    assert_eq!(snap_report.stats.total, 50);

    // MacroBase outlier-rate search directly over the snapshot.
    let mut mb = MacroBaseEngine::new(MacroBaseConfig::default());
    let reports = mb.search_cube(&*snap, &[0]).unwrap();
    assert_eq!(reports.len(), 1, "reports: {reports:?}");
    assert_eq!(reports[0].label, "svc=svc-07");
    assert_eq!(reports[0].count, 2000.0);
    assert_eq!(mb.stats().total, 50, "moments cells engage the cascade");
    assert!(
        mb.stats().maxent_evals <= 25,
        "cascade should prune most groups: {:?}",
        mb.stats()
    );

    // And the same search over the sequential cube agrees.
    let mut mb_seq = MacroBaseEngine::new(MacroBaseConfig::default());
    let seq_reports = mb_seq.search_cube(&sequential, &[0]).unwrap();
    assert_eq!(seq_reports, reports);
}
