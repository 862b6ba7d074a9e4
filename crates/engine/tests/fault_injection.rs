//! Deterministic fault-injection suite for the engine: worker panics,
//! worker exits, WAL crash-recovery, and torn appends, all driven
//! through the `failpoint` registry so every failure fires at an exact,
//! repeatable point.
//!
//! Failpoints are process-global, so every test that builds an engine
//! runs inside a [`failpoint::scope`], armed or not — otherwise a
//! `1*panic` armed here could fire inside a neighboring test's worker,
//! or a neighbor's checkpoint eat a torn append. The scope disarms
//! whatever its test armed when it ends, pass or fail.

use msketch_engine::{DynShardedCube, EngineConfig, EngineError, WalConfig, WalError};
use msketch_sketches::{Sketch, SketchSpec};

fn engine_1shard() -> DynShardedCube {
    DynShardedCube::new(
        SketchSpec::moments(8),
        &["app"],
        EngineConfig::with_shards(1).batch_rows(1024),
    )
}

fn ingest(engine: &mut DynShardedCube, rows: std::ops::Range<u64>) {
    for i in rows {
        engine
            .insert(&[["a", "b"][(i % 2) as usize]], i as f64)
            .unwrap();
    }
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("msketch-fault-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn worker_panic_mid_batch_is_supervised_and_snapshots_stay_consistent() {
    let _failpoints = failpoint::scope();
    let mut engine = engine_1shard();

    // Establish a checkpointed state inside the worker: 100 rows.
    ingest(&mut engine, 0..100);
    let snap = engine.snapshot().unwrap();
    assert_eq!(snap.row_count(), 100);

    // The next batch panics mid-insert. Supervision must roll the
    // shard back to the checkpoint, account for the discarded rows,
    // and keep the worker thread alive.
    failpoint::cfg("engine::worker_panic", "1*panic").unwrap();
    ingest(&mut engine, 100..150);
    engine.flush().unwrap();
    let snap = engine.snapshot().unwrap();

    // The poisoned batch is gone, everything checkpointed survives.
    assert_eq!(snap.row_count(), 100);
    let stats = engine.stats();
    assert_eq!(stats.worker_restarts, 1);
    assert_eq!(stats.rows_lost, 50);
    assert_eq!(stats.rows_applied, 100);

    // The engine is still fully usable: later rows land normally.
    ingest(&mut engine, 150..175);
    let snap = engine.snapshot().unwrap();
    assert_eq!(snap.row_count(), 125);
    assert_eq!(engine.stats().rows_applied, 125);

    // And the answer over the surviving rows matches a clean engine
    // fed the same surviving history — supervision never leaves a
    // half-applied batch behind.
    let mut clean = engine_1shard();
    ingest(&mut clean, 0..100);
    ingest(&mut clean, 150..175);
    let expected = clean.snapshot().unwrap();
    let got = snap.rollup(&snap.no_filter()).unwrap().quantile(0.5);
    let want = expected
        .rollup(&expected.no_filter())
        .unwrap()
        .quantile(0.5);
    assert_eq!(got.to_bits(), want.to_bits());

    engine.shutdown().unwrap();
    clean.shutdown().unwrap();
}

#[test]
fn worker_exit_surfaces_disconnected_and_shutdown_still_joins() {
    let _failpoints = failpoint::scope();
    let mut engine = engine_1shard();
    ingest(&mut engine, 0..10);
    engine.flush().unwrap();
    // Barrier: the first batch is applied before the failpoint arms,
    // so exactly the second batch dies with the worker below.
    assert_eq!(engine.snapshot().unwrap().row_count(), 10);

    // The worker exits its loop on the next batch (a hard crash the
    // supervisor cannot catch — the restart path doesn't apply). The
    // `1*` count auto-disarms once fired; wait for that so the exit
    // has actually happened before asserting on its consequences.
    failpoint::cfg("engine::worker_exit", "1*return").unwrap();
    ingest(&mut engine, 10..20);
    engine.flush().unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while failpoint::list().contains(&"engine::worker_exit".to_string()) {
        assert!(
            std::time::Instant::now() < deadline,
            "worker never reached the armed failpoint"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    // The dead worker is observable as Disconnected on the next barrier.
    match engine.snapshot() {
        Err(e) => assert_eq!(e, EngineError::Disconnected),
        Ok(_) => panic!("snapshot over a dead shard must fail"),
    }

    // The loss is visible in stats immediately (the snapshot barrier
    // above ordered us after the worker's exit): the in-flight batch
    // the worker died on is accounted, not silently dropped.
    let stats = engine.stats();
    assert_eq!(stats.rows_lost, 10);
    assert_eq!(stats.rows_applied, 10);

    // Shutdown never hangs and never panics: the exited thread joins
    // cleanly; the flush error (if any) is reported, not swallowed as
    // a wedge.
    match engine.shutdown() {
        Ok(()) | Err(EngineError::Disconnected) => {}
        Err(other) => panic!("unexpected shutdown error: {other}"),
    }
    assert!(engine.is_shut_down());
    assert!(matches!(engine.snapshot(), Err(EngineError::ShutDown)));
}

#[test]
fn crash_recovery_replays_checkpoints_bit_exactly() {
    let _failpoints = failpoint::scope();
    let dir = temp_dir("recover-bitexact");
    let config = || EngineConfig::with_shards(2).batch_rows(256);
    let spec = SketchSpec::moments(8);

    // First life: two durable checkpoints, then 100 uncheckpointed
    // rows, then a "crash" (drop without a final checkpoint).
    let reference_quantile;
    {
        let (mut engine, report) =
            DynShardedCube::recover(spec.clone(), &["app"], config(), &dir, WalConfig::default())
                .unwrap();
        assert_eq!(report.segments_replayed, 0);
        ingest(&mut engine, 0..500);
        let snap = engine.checkpoint().unwrap();
        assert_eq!(snap.row_count(), 500);
        ingest(&mut engine, 500..800);
        let snap = engine.checkpoint().unwrap();
        assert_eq!(snap.row_count(), 800);
        reference_quantile = snap.rollup(&snap.no_filter()).unwrap().quantile(0.5);
        // These rows never reach a checkpoint: the crash loses exactly
        // them and nothing else.
        ingest(&mut engine, 800..900);
        engine.flush().unwrap();
    }

    // Second life: replay restores every checkpointed row and the
    // median answer bit-for-bit.
    let (mut engine, report) =
        DynShardedCube::recover(spec, &["app"], config(), &dir, WalConfig::default()).unwrap();
    assert_eq!(report.segments_replayed, 2);
    assert_eq!(report.rows_recovered, 800);
    assert_eq!(report.tail, None);
    let snap = engine.snapshot().unwrap();
    assert_eq!(snap.row_count(), 800);
    let recovered = snap.rollup(&snap.no_filter()).unwrap().quantile(0.5);
    assert_eq!(recovered.to_bits(), reference_quantile.to_bits());

    // Epochs resume past the last durable segment: new checkpoints
    // keep the log strictly ordered.
    ingest(&mut engine, 900..1000);
    let snap = engine.checkpoint().unwrap();
    assert_eq!(snap.row_count(), 900);
    engine.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_append_degrades_durability_but_not_queries() {
    let _failpoints = failpoint::scope();
    let dir = temp_dir("torn-append");
    let spec = SketchSpec::moments(8);
    let config = || EngineConfig::with_shards(1).batch_rows(256);
    {
        let (mut engine, _) =
            DynShardedCube::recover(spec.clone(), &["app"], config(), &dir, WalConfig::default())
                .unwrap();
        ingest(&mut engine, 0..300);
        engine.checkpoint().unwrap();

        // The second checkpoint's append dies halfway through the
        // frame. Its rows must still be served from memory — only
        // durability degrades.
        failpoint::cfg("engine::wal_torn_append", "1*return").unwrap();
        ingest(&mut engine, 300..500);
        let result = engine.checkpoint();
        assert!(matches!(result, Err(EngineError::Wal(_))));
        let snap = engine.snapshot().unwrap();
        assert_eq!(snap.row_count(), 500, "pane must not vanish in memory");
        assert_eq!(engine.stats().wal_append_errors, 1);

        // The torn handle is poisoned: a later checkpoint must refuse
        // the append with a typed error — were it to keep writing past
        // the torn bytes, replay would silently drop every segment it
        // "durably" fsynced back there. Memory stays consistent.
        ingest(&mut engine, 500..600);
        let result = engine.checkpoint();
        assert!(matches!(
            result,
            Err(EngineError::Wal(WalError::Poisoned { .. }))
        ));
        let snap = engine.snapshot().unwrap();
        assert_eq!(snap.row_count(), 600, "pane must not vanish in memory");
        assert_eq!(engine.stats().wal_append_errors, 2);
    }

    // Recovery truncates the torn tail and replays the durable prefix.
    let (_engine, report) =
        DynShardedCube::recover(spec, &["app"], config(), &dir, WalConfig::default()).unwrap();
    assert_eq!(report.segments_replayed, 1);
    assert_eq!(report.rows_recovered, 300);
    assert!(report.truncated_bytes > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every cell of `cube` as `name -> serialized summary`, so two cubes
/// whose dictionaries assigned ids in different orders compare by
/// value.
fn fingerprint(cube: &msketch_cube::DynCube) -> std::collections::BTreeMap<String, Vec<u8>> {
    let dict = cube.dictionary(0).unwrap();
    cube.cells()
        .map(|(key, summary)| (dict.decode(key[0]).unwrap().to_string(), summary.to_bytes()))
        .collect()
}

fn ingest_cells(engine: &mut DynShardedCube, cells: &[&str], rows: std::ops::Range<u64>) {
    for i in rows {
        engine
            .insert(&[cells[i as usize % cells.len()]], i as f64)
            .unwrap();
    }
}

#[test]
fn a_failed_checkpoint_is_logged_by_the_next_one() {
    let _failpoints = failpoint::scope();
    let dir = temp_dir("failed-record");
    let spec = SketchSpec::moments(8);
    let config = || EngineConfig::with_shards(2).batch_rows(64);
    let committed;
    {
        let (mut engine, _) =
            DynShardedCube::recover(spec.clone(), &["app"], config(), &dir, WalConfig::default())
                .unwrap();
        ingest_cells(&mut engine, &["a", "b"], 0..200);
        engine.checkpoint().unwrap();

        // The second record's append fails halfway through its frame:
        // the log rewinds, memory keeps the rows.
        failpoint::cfg("engine::wal_partial_append", "1*return").unwrap();
        ingest_cells(&mut engine, &["c", "a"], 200..350);
        assert!(matches!(engine.checkpoint(), Err(EngineError::Wal(_))));

        // The third record touches other cells only, yet must carry the
        // failed record's cells too, or recovery would lose them.
        ingest_cells(&mut engine, &["d"], 350..400);
        let snap = engine.checkpoint().unwrap();
        assert_eq!(snap.row_count(), 400);
        committed = fingerprint(snap.cube());
        assert_eq!(committed.len(), 4);
        assert_eq!(engine.stats().wal_append_errors, 1);
    }
    let (mut engine, report) =
        DynShardedCube::recover(spec, &["app"], config(), &dir, WalConfig::default()).unwrap();
    assert_eq!(report.segments_replayed, 2);
    assert_eq!(report.rows_recovered, 400);
    assert_eq!(report.tail, None);
    let snap = engine.snapshot().unwrap();
    assert_eq!(snap.row_count(), 400);
    assert_eq!(fingerprint(snap.cube()), committed);
    engine.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_snapshot_between_checkpoints_loses_no_cell_on_recovery() {
    let _failpoints = failpoint::scope();
    let dir = temp_dir("snapshot-between");
    let spec = SketchSpec::moments(8);
    let config = || EngineConfig::with_shards(2).batch_rows(64);
    let committed;
    {
        let (mut engine, _) =
            DynShardedCube::recover(spec.clone(), &["app"], config(), &dir, WalConfig::default())
                .unwrap();
        ingest_cells(&mut engine, &["a"], 0..100);
        engine.checkpoint().unwrap();
        // This refresh ships `b` to the merged cube; the next
        // checkpoint's shards have nothing new for it.
        ingest_cells(&mut engine, &["b"], 100..200);
        assert_eq!(engine.snapshot().unwrap().row_count(), 200);
        ingest_cells(&mut engine, &["c"], 200..250);
        let snap = engine.checkpoint().unwrap();
        committed = fingerprint(snap.cube());
        // Rows after the last checkpoint are the only ones a crash may
        // lose.
        ingest_cells(&mut engine, &["a", "d"], 250..300);
        assert_eq!(engine.snapshot().unwrap().row_count(), 300);
    }
    let (mut engine, report) =
        DynShardedCube::recover(spec, &["app"], config(), &dir, WalConfig::default()).unwrap();
    assert_eq!(report.rows_recovered, 250);
    let snap = engine.snapshot().unwrap();
    assert_eq!(snap.row_count(), 250);
    assert_eq!(fingerprint(snap.cube()), committed);
    engine.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovering_a_log_under_another_schema_fails_loudly() {
    let _failpoints = failpoint::scope();
    let dir = temp_dir("foreign-schema");
    let spec = SketchSpec::moments(8);
    let config = || EngineConfig::with_shards(1);
    {
        let (mut engine, _) =
            DynShardedCube::recover(spec.clone(), &["app"], config(), &dir, WalConfig::default())
                .unwrap();
        ingest(&mut engine, 0..10);
        engine.checkpoint().unwrap();
    }
    let other_dims =
        DynShardedCube::recover(spec, &["region"], config(), &dir, WalConfig::default());
    assert!(matches!(
        other_dims.map(|_| ()),
        Err(EngineError::Cube(
            msketch_cube::Error::SchemaMismatch { .. }
        ))
    ));
    let other_backend = DynShardedCube::recover(
        SketchSpec::tdigest(5.0),
        &["app"],
        config(),
        &dir,
        WalConfig::default(),
    );
    assert!(matches!(
        other_backend.map(|_| ()),
        Err(EngineError::Cube(
            msketch_cube::Error::BackendMismatch { .. }
        ))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}
