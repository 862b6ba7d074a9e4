//! Sharded concurrent ingestion, end to end: several writer threads feed
//! an 8-shard engine; readers query epoch snapshots while ingestion
//! continues; and the final snapshot is checked bit-exact against
//! single-threaded ingestion — the moments sketch's shard merges are
//! exact power-sum additions, so concurrency costs no accuracy.
//!
//! Run with: `cargo run --release --example sharded_ingest`

use msketch::prelude::*;

fn row(i: u64) -> ([&'static str; 2], f64) {
    let app = ["checkout", "search", "feed", "auth"][(i % 4) as usize];
    let region = ["us-east", "eu-west", "ap-south"][(i % 3) as usize];
    // The checkout app in ap-south develops a latency tail.
    let base = (i % 180) as f64 + 5.0;
    let metric = if app == "checkout" && region == "ap-south" && i % 5 < 2 {
        base + 900.0
    } else {
        base
    };
    ([app, region], metric)
}

fn main() {
    const ROWS_PER_WRITER: u64 = 200_000;
    const WRITERS: u64 = 4;

    // A DynCube-backed engine: the sketch backend is a runtime string.
    let spec = SketchSpec::parse("moments:10").unwrap();
    let mut engine = DynShardedCube::new(
        spec.clone(),
        &["app", "region"],
        EngineConfig::with_shards(8).batch_rows(4096),
    );

    // Four writer threads ingest concurrently through their own handles.
    //
    // Load-bearing for the bit-exact check below: writer `w` takes rows
    // `i*WRITERS + w`, and `row()` picks the app as `i % 4 == w`, so each
    // (app, region) cell is fed by exactly one writer and its value
    // stream keeps sequential order on that writer's FIFO channel. With
    // cells shared between writers, per-cell arrival order would be
    // nondeterministic and quantiles would match only up to float
    // roundoff, not bit for bit (see tests/shard_equivalence.rs).
    let mut writers: Vec<ShardWriter<SketchSpec>> = (0..WRITERS).map(|_| engine.writer()).collect();
    std::thread::scope(|scope| {
        for (w, writer) in writers.iter_mut().enumerate() {
            scope.spawn(move || {
                for i in 0..ROWS_PER_WRITER {
                    let (dims, metric) = row(i * WRITERS + w as u64);
                    writer.insert(&dims, metric).expect("ingest");
                }
                writer.flush().expect("flush");
            });
        }
    });
    drop(writers);

    // Epoch snapshot: an immutable merged cube readers query while the
    // engine keeps accepting writes.
    let snap = engine.snapshot().expect("snapshot");
    println!(
        "snapshot epoch {}: {} rows in {} cells",
        snap.epoch(),
        snap.row_count(),
        snap.cell_count()
    );
    assert_eq!(snap.row_count(), ROWS_PER_WRITER * WRITERS);

    // The same cascade threshold query the paper runs on static cubes
    // works on a concurrent snapshot unchanged.
    let query = GroupThresholdQuery::new(0.9, 500.0);
    let report = query
        .run_cube_decoded(&snap, &[0, 1], &snap.no_filter())
        .unwrap();
    println!(
        "HAVING p90 > 500 flagged {} of {} groups (maxent solves: {})",
        report.hits.len(),
        report.groups,
        report.stats.maxent_evals
    );
    for hit in &report.hits {
        println!("  -> {} @ {}", hit[0], hit[1]);
    }
    assert_eq!(report.hits, [["checkout", "ap-south"]]);

    // Bit-exactness: a sequentially built cube answers identically.
    let mut sequential = DynCube::from_spec(spec, &["app", "region"]);
    for i in 0..ROWS_PER_WRITER * WRITERS {
        let (dims, metric) = row(i);
        sequential.insert(&dims, metric).unwrap();
    }
    let a = snap.rollup(&snap.no_filter()).unwrap();
    let b = sequential.rollup(&sequential.no_filter()).unwrap();
    for phi in [0.5, 0.9, 0.99] {
        assert_eq!(
            a.quantile(phi).to_bits(),
            b.quantile(phi).to_bits(),
            "phi {phi}"
        );
    }
    println!("sharded snapshot == sequential ingest (bit-exact rollups)");
    println!("done");
}
