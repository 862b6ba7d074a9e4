//! Property tests for the sharded ingestion engine: for any row set,
//! shard count, batch split, and writer count, snapshots must answer
//! quantile queries identically to sequential ingestion — bit-exactly
//! for the moments backend, whose shard merges are pure power-sum
//! additions — with or without a WAL attached. Plus the negative case:
//! `merge_cube` refuses cubes with mismatched dimension schemas.

use msketch::cube::Error as CubeError;
use msketch::engine::WalConfig;
use msketch::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

const APPS: [&str; 7] = ["api", "web", "auth", "feed", "cart", "pay", "img"];
const REGIONS: [&str; 4] = ["us", "eu", "ap", "sa"];

/// Arbitrary row streams: (app index, region index, metric), with runs
/// of repeated tuples mixed in by the generator's clustering.
fn rows() -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    prop::collection::vec((0usize..7, 0usize..4, -1.0e3f64..1.0e3), 1..400)
}

fn sequential(rows: &[(usize, usize, f64)]) -> DynCube {
    let mut cube = DynCube::from_spec(SketchSpec::moments(8), &["app", "region"]);
    for &(a, r, m) in rows {
        cube.insert(&[APPS[a], REGIONS[r]], m).unwrap();
    }
    cube
}

/// Every cell as `decoded value tuple -> summary bytes`, so cubes whose
/// dictionaries assigned ids in different orders compare by value.
fn fingerprint(cube: &DynCube) -> BTreeMap<Vec<String>, Vec<u8>> {
    cube.cells()
        .map(|(key, summary)| {
            let names = key
                .iter()
                .enumerate()
                .map(|(d, &id)| cube.dictionary(d).unwrap().decode(id).unwrap().to_string())
                .collect();
            (names, summary.to_bytes())
        })
        .collect()
}

/// A fresh WAL directory per proptest case.
fn wal_dir() -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "msketch-shard-equiv-wal-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded ingest at any shard count and batch split answers every
    /// roll-up and group-by bit-exactly like sequential ingest.
    #[test]
    fn sharded_snapshot_equals_sequential(
        rows in rows(),
        shards in 1usize..=8,
        batch_rows in 1usize..64,
    ) {
        let reference = sequential(&rows);
        let mut engine = DynShardedCube::new(
            SketchSpec::moments(8),
            &["app", "region"],
            EngineConfig::with_shards(shards).batch_rows(batch_rows),
        );
        for &(a, r, m) in &rows {
            engine.insert(&[APPS[a], REGIONS[r]], m).unwrap();
        }
        let snap = engine.snapshot().unwrap();
        prop_assert_eq!(snap.row_count(), reference.row_count());
        prop_assert_eq!(snap.cell_count(), reference.cell_count());

        // Full roll-up: bit-exact quantiles.
        let a = snap.rollup(&snap.no_filter()).unwrap();
        let b = reference.rollup(&reference.no_filter()).unwrap();
        prop_assert_eq!(a.count(), b.count());
        for phi in [0.01, 0.1, 0.5, 0.9, 0.99] {
            prop_assert_eq!(
                a.quantile(phi).to_bits(),
                b.quantile(phi).to_bits(),
                "rollup phi {}", phi
            );
        }

        // Per-group (by app name; dictionary ids may differ): bit-exact.
        let snap_groups = snap.group_by(&[0], &snap.no_filter()).unwrap();
        let ref_groups = reference.group_by(&[0], &reference.no_filter()).unwrap();
        prop_assert_eq!(snap_groups.len(), ref_groups.len());
        for (key, summary) in &snap_groups {
            let app = snap.dictionary(0).unwrap().decode(key[0]).unwrap();
            let ref_id = reference.dictionary(0).unwrap().lookup(app).unwrap();
            let ref_summary = &ref_groups[&vec![ref_id]];
            prop_assert_eq!(summary.count(), ref_summary.count(), "{} count", app);
            prop_assert_eq!(
                summary.quantile(0.5).to_bits(),
                ref_summary.quantile(0.5).to_bits(),
                "{} median", app
            );
        }
    }

    /// Multiple concurrent writers with arbitrary row interleavings
    /// still land every row exactly once, and the snapshot matches a
    /// sequential cube over the union (counts always; quantiles
    /// bit-exactly — per-cell streams keep their per-writer order
    /// because each writer's rows for a tuple stay on one FIFO channel
    /// and cells are merged by exact power-sum addition).
    #[test]
    fn concurrent_writers_union_exactly(
        rows in rows(),
        writers in 1usize..4,
        shards in 1usize..5,
    ) {
        let mut engine = DynShardedCube::new(
            SketchSpec::moments(8),
            &["app", "region"],
            EngineConfig::with_shards(shards).batch_rows(16),
        );
        let mut handles: Vec<ShardWriter<SketchSpec>> =
            (0..writers).map(|_| engine.writer()).collect();
        std::thread::scope(|scope| {
            for (w, writer) in handles.iter_mut().enumerate() {
                let rows = &rows;
                scope.spawn(move || {
                    for &(a, r, m) in rows.iter().skip(w).step_by(writers) {
                        writer.insert(&[APPS[a], REGIONS[r]], m).unwrap();
                    }
                    writer.flush().unwrap();
                });
            }
        });
        drop(handles);
        let snap = engine.snapshot().unwrap();
        prop_assert_eq!(snap.row_count() as usize, rows.len());
        let reference = sequential(&rows);
        let a = snap.rollup(&snap.no_filter()).unwrap();
        let b = reference.rollup(&reference.no_filter()).unwrap();
        prop_assert_eq!(a.count(), b.count());
        // Counts are exact for every group; with a single writer the
        // quantiles are bit-exact too (per-cell arrival order matches).
        if writers == 1 {
            for phi in [0.1, 0.5, 0.9] {
                prop_assert_eq!(a.quantile(phi).to_bits(), b.quantile(phi).to_bits());
            }
        }
    }

    /// A WAL-attached engine that checkpoints at every refresh point
    /// answers bit-identically to an in-memory engine snapshotting at
    /// the same points, and to sequential ingest of the rows so far:
    /// a checkpoint is the same delta refresh plus a log record.
    #[test]
    fn durable_checkpoints_equal_in_memory_snapshots(
        rows in rows(),
        shards in 1usize..=4,
        cuts in prop::collection::vec(0.0f64..1.0, 1..4),
    ) {
        let config = EngineConfig::with_shards(shards).batch_rows(16);
        let dims = ["app", "region"];
        let dir = wal_dir();
        let (mut durable, _) = DynShardedCube::recover(
            SketchSpec::moments(8),
            &dims,
            config,
            &dir,
            WalConfig::default(),
        )
        .unwrap();
        let mut memory = DynShardedCube::new(SketchSpec::moments(8), &dims, config);
        let mut reference = DynCube::from_spec(SketchSpec::moments(8), &dims);
        let mut ends: Vec<usize> = cuts.iter().map(|c| (c * rows.len() as f64) as usize).collect();
        ends.push(rows.len());
        ends.sort_unstable();
        let mut at = 0;
        for end in ends {
            for &(a, r, m) in &rows[at..end] {
                durable.insert(&[APPS[a], REGIONS[r]], m).unwrap();
                memory.insert(&[APPS[a], REGIONS[r]], m).unwrap();
                reference.insert(&[APPS[a], REGIONS[r]], m).unwrap();
            }
            at = end;
            let checkpointed = durable.checkpoint().unwrap();
            let snapshot = memory.snapshot().unwrap();
            prop_assert_eq!(checkpointed.row_count(), reference.row_count());
            prop_assert_eq!(snapshot.row_count(), reference.row_count());
            let want = fingerprint(&reference);
            prop_assert_eq!(&fingerprint(checkpointed.cube()), &want, "checkpoint at row {}", at);
            prop_assert_eq!(&fingerprint(snapshot.cube()), &want, "snapshot at row {}", at);
        }
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Splitting any row set into two cubes and unioning them with
    /// `merge_cube` reproduces the sequential cube's cell structure and
    /// counts exactly. Quantiles agree up to float roundoff: a cell
    /// present in both halves merges by adding two partial power sums,
    /// which rounds differently than one value-by-value accumulation
    /// (mathematically identical; bit-exactness holds in the sharded
    /// engine because there each tuple's whole stream stays on one
    /// shard).
    #[test]
    fn merge_cube_union_counts_are_exact(rows in rows(), split in 0usize..100) {
        let reference = sequential(&rows);
        let pivot = rows.len() * split.min(99) / 100;
        let mut left = sequential(&rows[..pivot]);
        let right = sequential(&rows[pivot..]);
        left.merge_cube(&right).unwrap();
        prop_assert_eq!(left.row_count(), reference.row_count());
        prop_assert_eq!(left.cell_count(), reference.cell_count());
        let a = left.rollup(&left.no_filter()).unwrap();
        let b = reference.rollup(&reference.no_filter()).unwrap();
        prop_assert_eq!(a.count(), b.count());
        for phi in [0.1, 0.5, 0.9] {
            let (qa, qb) = (a.quantile(phi), b.quantile(phi));
            let tol = 1e-6 * qb.abs().max(1.0);
            prop_assert!(
                (qa - qb).abs() <= tol || (qa.is_nan() && qb.is_nan()),
                "phi {}: {} vs {}", phi, qa, qb
            );
        }
    }
}

/// `merge_cube` rejects cubes whose dimension schemas disagree.
#[test]
fn merge_cube_rejects_mismatched_dimension_names() {
    let mut a = DynCube::from_spec(SketchSpec::moments(8), &["app", "region"]);
    let b = DynCube::from_spec(SketchSpec::moments(8), &["app", "zone"]);
    let c = DynCube::from_spec(SketchSpec::moments(8), &["app"]);
    let d = DynCube::from_spec(SketchSpec::moments(8), &["region", "app"]);
    for other in [&b, &c, &d] {
        assert!(matches!(
            a.merge_cube(other),
            Err(CubeError::SchemaMismatch { .. })
        ));
    }
    // The error carries both schemas for diagnostics.
    match a.merge_cube(&b) {
        Err(CubeError::SchemaMismatch { expected, got }) => {
            assert_eq!(expected, vec!["app".to_string(), "region".to_string()]);
            assert_eq!(got, vec!["app".to_string(), "zone".to_string()]);
        }
        other => panic!("expected SchemaMismatch, got {other:?}"),
    }
}
