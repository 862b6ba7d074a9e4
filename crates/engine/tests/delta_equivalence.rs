//! Property suite for the incremental delta-snapshot path: for any
//! random stream of multi-writer ingest, epoch refreshes, and
//! checkpoints — including worker restarts and WAL crash recovery — the
//! delta-maintained double buffer must be *bit-identical* to a full
//! refold of the same shard state, and (for order-preserving
//! single-writer streams) to plain sequential ingest into one cube.
//!
//! "Bit-identical" is checked cell by cell: snapshots are flattened to
//! `decoded name tuple -> serialized summary bytes` maps, so two cubes
//! compare equal exactly when every cell's power sums (and min/max)
//! match to the last bit — dictionaries are allowed to assign ids in
//! different orders.
//!
//! Failpoints are process-global, so every test here — each builds an
//! engine, armed or not — runs inside a [`failpoint::scope`].

use msketch_cube::DynCube;
use msketch_engine::{DynShardedCube, EngineConfig, WalConfig};
use msketch_sketches::{Sketch, SketchSpec};
use proptest::prelude::*;
use std::collections::HashMap;

const REGIONS: [&str; 5] = ["eu", "us", "ap", "sa", "af"];
const APPS: [&str; 4] = ["web", "api", "batch", "cron"];

fn engine(shards: usize, batch_rows: usize) -> DynShardedCube {
    DynShardedCube::new(
        SketchSpec::moments(8),
        &["region", "app"],
        EngineConfig::with_shards(shards).batch_rows(batch_rows),
    )
}

/// One deterministic row from a seed: which cell it lands in and the
/// metric it carries are both functions of `seed`, so any two engines
/// fed the same seeds see byte-identical inputs.
fn row(seed: u64) -> ([&'static str; 2], f64) {
    let region = REGIONS[(seed % 5) as usize];
    let app = APPS[((seed / 5) % 4) as usize];
    let metric = (seed % 997) as f64 - 331.5;
    ([region, app], metric)
}

/// Flatten a cube to `decoded names -> summary bytes`. Ids may differ
/// between two cubes (their dictionaries interned values in different
/// orders), so cells are keyed by decoded value tuple.
fn fingerprint(cube: &DynCube) -> HashMap<Vec<String>, Vec<u8>> {
    cube.cells()
        .map(|(key, summary)| {
            let names: Vec<String> = key
                .iter()
                .enumerate()
                .map(|(d, &id)| {
                    cube.dictionary(d)
                        .ok()
                        .and_then(|dict| dict.decode(id))
                        .unwrap_or("")
                        .to_string()
                })
                .collect();
            (names, summary.to_bytes())
        })
        .collect()
}

/// Refresh both ways at the same barrier and demand identity. Returns
/// the delta-path row count so callers can assert on coverage.
fn assert_delta_matches_refold(engine: &mut DynShardedCube, context: &str) -> u64 {
    let delta_snap = engine.snapshot().unwrap();
    let refold_snap = engine.snapshot_refold().unwrap();
    assert_eq!(
        delta_snap.row_count(),
        refold_snap.row_count(),
        "row counts diverged: {context}"
    );
    assert_eq!(
        delta_snap.cell_count(),
        refold_snap.cell_count(),
        "cell counts diverged: {context}"
    );
    assert_eq!(
        fingerprint(delta_snap.cube()),
        fingerprint(refold_snap.cube()),
        "cells diverged: {context}"
    );
    delta_snap.row_count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random multi-writer streams with refreshes and checkpoints mixed
    /// in: after every refresh, the incrementally-maintained snapshot
    /// equals a full refold of the same shard state, bit for bit.
    #[test]
    fn delta_snapshots_match_full_refold_on_random_streams(
        ops in prop::collection::vec((0u8..8, any::<u64>(), 1usize..60), 2..14),
        shards in 1usize..4,
        batch_pick in 0usize..3,
    ) {
        let _failpoints = failpoint::scope();
        let batch_rows = [1, 7, 64][batch_pick];
        let mut engine = engine(shards, batch_rows);
        // Two extra ingest handles alongside the engine's embedded
        // writer: three interleaved producers per stream.
        let mut writers = [engine.writer(), engine.writer()];
        for (tag, op_seed, count) in ops {
            match tag {
                // Ingest `count` rows through one of the three lanes.
                0..=4 => {
                    let lane = usize::from(tag) % 3;
                    for i in 0..count {
                        let (dims, metric) = row(op_seed.wrapping_add(i as u64));
                        if lane == 0 {
                            engine.insert(&dims, metric).unwrap();
                        } else {
                            writers[lane - 1].insert(&dims, metric).unwrap();
                        }
                    }
                }
                // Refresh and compare both snapshot paths.
                5 | 6 => {
                    for writer in writers.iter_mut() {
                        writer.flush().unwrap();
                    }
                    assert_delta_matches_refold(&mut engine, "mid-stream refresh");
                }
                // Checkpoint: the same refresh plus a log record.
                _ => {
                    for writer in writers.iter_mut() {
                        writer.flush().unwrap();
                    }
                    engine.checkpoint().unwrap();
                }
            }
        }
        for writer in writers.iter_mut() {
            writer.flush().unwrap();
        }
        assert_delta_matches_refold(&mut engine, "final refresh");
        engine.shutdown().unwrap();
    }

    /// A single writer preserves per-cell arrival order end to end, so
    /// the delta snapshot must also equal plain sequential ingest into
    /// one unsharded cube — no refold reference involved.
    #[test]
    fn single_writer_delta_snapshots_match_sequential_ingest(
        segments in prop::collection::vec(1usize..80, 1..6),
        stream_seed in any::<u64>(),
    ) {
        let _failpoints = failpoint::scope();
        let mut engine = engine(2, 5);
        let mut reference = DynCube::from_spec(SketchSpec::moments(8), &["region", "app"]);
        let mut next = stream_seed;
        for (round, count) in segments.into_iter().enumerate() {
            for _ in 0..count {
                let (dims, metric) = row(next);
                next = next.wrapping_add(1);
                engine.insert(&dims, metric).unwrap();
                reference.insert(&dims, metric).unwrap();
            }
            let snap = engine.snapshot().unwrap();
            prop_assert_eq!(snap.row_count(), reference.row_count(), "round {}", round);
            prop_assert_eq!(
                fingerprint(snap.cube()),
                fingerprint(&reference),
                "round {}",
                round
            );
        }
        engine.shutdown().unwrap();
    }
}

/// A worker panic rolls its shard back to the last checkpoint and
/// discards the poisoned batch; the delta bookkeeping (touched cells,
/// writer tables) must survive the restart so later refreshes remain
/// bit-exact against both the refold path and a clean engine fed the
/// surviving history.
#[test]
fn delta_snapshots_stay_exact_across_worker_restarts() {
    let _failpoints = failpoint::scope();
    let mut engine = engine(1, 1024);
    for seed in 0..200 {
        let (dims, metric) = row(seed);
        engine.insert(&dims, metric).unwrap();
    }
    assert_eq!(assert_delta_matches_refold(&mut engine, "pre-panic"), 200);

    // The next batch dies mid-apply; supervision rolls back to the
    // refreshed checkpoint above.
    failpoint::cfg("engine::worker_panic", "1*panic").unwrap();
    for seed in 200..260 {
        let (dims, metric) = row(seed);
        engine.insert(&dims, metric).unwrap();
    }
    engine.flush().unwrap();
    let rows = assert_delta_matches_refold(&mut engine, "post-panic");
    assert_eq!(rows, 200, "poisoned batch must be discarded whole");
    assert_eq!(engine.stats().worker_restarts, 1);

    // Later rows land normally and the restarted worker's deltas still
    // reproduce a clean engine fed the same surviving history.
    for seed in 260..300 {
        let (dims, metric) = row(seed);
        engine.insert(&dims, metric).unwrap();
    }
    assert_eq!(
        assert_delta_matches_refold(&mut engine, "post-restart"),
        240
    );
    let snap = engine.snapshot().unwrap();
    let mut clean = DynShardedCube::new(
        SketchSpec::moments(8),
        &["region", "app"],
        EngineConfig::with_shards(1).batch_rows(1024),
    );
    for seed in (0..200).chain(260..300) {
        let (dims, metric) = row(seed);
        clean.insert(&dims, metric).unwrap();
    }
    let clean_snap = clean.snapshot().unwrap();
    assert_eq!(fingerprint(snap.cube()), fingerprint(clean_snap.cube()));
    engine.shutdown().unwrap();
    clean.shutdown().unwrap();
}

/// Crash-stop between checkpoints: replaying the WAL must restore the
/// merged base so that delta refreshes over it keep matching the
/// refold path, and the recovered state must equal the last durable
/// snapshot bit for bit.
#[test]
fn delta_snapshots_stay_exact_across_wal_crash_recovery() {
    let _failpoints = failpoint::scope();
    let dir = std::env::temp_dir().join("msketch-delta-equiv-walcrash");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = SketchSpec::moments(8);
    let config = || EngineConfig::with_shards(2).batch_rows(32);

    // First life: two durable checkpoints fed by two writers, then
    // uncheckpointed rows, then a crash (drop without checkpoint).
    let durable;
    {
        let (mut engine, _) = DynShardedCube::recover(
            spec.clone(),
            &["region", "app"],
            config(),
            &dir,
            WalConfig::default(),
        )
        .unwrap();
        let mut side = engine.writer();
        for seed in 0..400 {
            let (dims, metric) = row(seed);
            if seed % 3 == 0 {
                side.insert(&dims, metric).unwrap();
            } else {
                engine.insert(&dims, metric).unwrap();
            }
        }
        side.flush().unwrap();
        engine.checkpoint().unwrap();
        for seed in 400..700 {
            let (dims, metric) = row(seed);
            if seed % 3 == 0 {
                side.insert(&dims, metric).unwrap();
            } else {
                engine.insert(&dims, metric).unwrap();
            }
        }
        side.flush().unwrap();
        let snap = engine.checkpoint().unwrap();
        assert_eq!(snap.row_count(), 700);
        durable = fingerprint(snap.cube());
        // These rows never reach a checkpoint: the crash loses exactly
        // them and nothing else.
        for seed in 700..750 {
            let (dims, metric) = row(seed);
            engine.insert(&dims, metric).unwrap();
        }
        engine.flush().unwrap();
    }

    // Second life: the replayed base seeds the delta state.
    let (mut engine, report) = DynShardedCube::recover(
        spec,
        &["region", "app"],
        config(),
        &dir,
        WalConfig::default(),
    )
    .unwrap();
    assert_eq!(report.rows_recovered, 700);
    let snap = engine.snapshot().unwrap();
    assert_eq!(fingerprint(snap.cube()), durable);
    assert_eq!(
        assert_delta_matches_refold(&mut engine, "post-recovery"),
        700
    );

    // And the recovered base keeps absorbing new rows correctly:
    // ingest, refresh, checkpoint, refresh — all still bit-exact.
    for seed in 750..900 {
        let (dims, metric) = row(seed);
        engine.insert(&dims, metric).unwrap();
    }
    assert_eq!(
        assert_delta_matches_refold(&mut engine, "post-recovery ingest"),
        850
    );
    engine.checkpoint().unwrap();
    assert_eq!(
        assert_delta_matches_refold(&mut engine, "post-recovery checkpoint"),
        850
    );
    engine.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
