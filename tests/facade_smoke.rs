//! Build-surface smoke test: exercises construct / accumulate / merge /
//! serialize / query strictly through the `msketch` facade re-exports,
//! pinning the public API this workspace promises — including the
//! object-safe sketch layer (`prelude`, `SketchKind`, `SketchSpec`,
//! `&dyn Sketch`). If a re-export is dropped or a core signature drifts,
//! this file stops compiling — by design.

use msketch::core::serialize::{from_bytes, to_bytes};
use msketch::core::solve_robust;
use msketch::prelude::{
    sketch_from_bytes, sketch_from_bytes_typed, DynCube, QuantileSummary, QueryEngine, Sketch,
    SketchError, SketchKind, SketchSpec,
};
use msketch::{MomentsSketch, SolverConfig};

/// The facade's headline types are nameable at the crate root and the
/// full pipeline (build → merge → serialize → solve → query) works.
#[test]
fn facade_pipeline_end_to_end() {
    // Construct per-shard sketches through the root re-export.
    let mut shard_a = MomentsSketch::new(10);
    let mut shard_b = MomentsSketch::new(10);
    for i in 1..=50_000 {
        let x = i as f64 / 50_000.0;
        if i % 2 == 0 {
            shard_a.accumulate(x);
        } else {
            shard_b.accumulate(x);
        }
    }

    // Merge; counts and extrema combine exactly.
    let mut merged = shard_a.clone();
    merged.merge(&shard_b);
    assert_eq!(merged.count(), 50_000.0);
    assert_eq!(merged.min(), shard_a.min().min(shard_b.min()));
    assert_eq!(merged.max(), shard_a.max().max(shard_b.max()));

    // Serialize over the compact wire format and query the restored copy.
    let restored = from_bytes(&to_bytes(&merged)).expect("wire roundtrip");
    assert_eq!(merged, restored);

    let est = restored
        .solve(&SolverConfig::default())
        .expect("maxent solve");
    let median = est.quantile(0.5).expect("median");
    assert!((median - 0.5).abs() < 0.01, "median {median}");

    // The robust entry point agrees with the plain solve path.
    let robust = solve_robust(&restored, &SolverConfig::default()).expect("robust solve");
    let p99 = robust.quantile(0.99).expect("p99");
    assert!((p99 - 0.99).abs() < 0.02, "p99 {p99}");
}

/// The object-safe core is usable as a trait object: `&dyn Sketch` and
/// `Box<dyn Sketch>` support the full lifecycle, and dynamic merges are
/// kind-checked rather than panicking.
#[test]
fn facade_object_safe_sketch_api() {
    // `SketchSpec::<kind>(param).build()` replaces factory closures.
    let mut boxed: Box<dyn Sketch> = SketchSpec::moments(10).build();
    boxed.accumulate_all(&[1.0, 2.0, 3.0, 4.0]);

    // Object safety: a plain borrowed trait object answers queries.
    let view: &dyn Sketch = &*boxed;
    assert_eq!(view.kind(), SketchKind::Moments);
    assert_eq!(view.count(), 4);
    assert!(view.size_bytes() > 0);

    // The versioned wire format round-trips dynamically and typed.
    let bytes = view.to_bytes();
    let restored = sketch_from_bytes(&bytes).expect("dynamic decode");
    assert_eq!(restored.count(), 4);
    let typed: msketch::sketches::MSketchSummary =
        sketch_from_bytes_typed(&bytes).expect("typed decode");
    // The typed extension keeps the monomorphized merge path.
    QuantileSummary::merge_from(&mut typed.clone(), &typed);
    assert_eq!(typed.count(), 4);

    // Same-kind dynamic merges work; cross-kind merges report an error.
    let mut other = SketchSpec::moments(10).build();
    other.accumulate(9.0);
    boxed.merge_dyn(&*other).expect("same-kind merge");
    assert_eq!(boxed.count(), 5);
    let alien = SketchSpec::tdigest(5.0).build();
    assert!(matches!(
        boxed.merge_dyn(&*alien),
        Err(SketchError::KindMismatch { .. })
    ));
}

/// Every registered kind is constructible from a runtime string through
/// the facade, and the registry enumerates exactly the shipped backends.
#[test]
fn facade_runtime_kind_registry() {
    assert_eq!(SketchKind::ALL.len(), 9);
    for kind in SketchKind::ALL {
        let spec = SketchSpec::parse(kind.label()).expect("label parses");
        assert_eq!(spec.kind(), kind);
        let s = spec.build();
        assert_eq!(s.kind(), kind);
    }
}

/// Module-level facade paths stay available: every sub-crate is
/// reachable under its aliased name.
#[test]
fn facade_module_aliases_reachable() {
    // datasets
    let data = msketch::datasets::Dataset::Exponential.generate(2_000, 11);
    assert_eq!(data.len(), 2_000);

    // sketches (+ the shared trait)
    let mut td = msketch::sketches::TDigest::new(5.0);
    td.accumulate_all(&data);
    assert_eq!(td.count(), 2_000);

    // numerics
    assert!((msketch::numerics::dot(&[1.0, 2.0], &[3.0, 4.0]) - 11.0).abs() < 1e-12);

    // cube: runtime-chosen backend, serialized and restored.
    let mut cube = DynCube::from_spec(SketchSpec::moments(8), &["shard"]);
    let shards = ["s0", "s1", "s2", "s3"];
    for (i, &x) in data.iter().enumerate() {
        cube.insert(&[shards[i % 4]], x).expect("insert");
    }
    let restored = DynCube::from_bytes(&cube.to_bytes()).expect("cube roundtrip");
    let total = restored.rollup(&[None]).expect("rollup");
    assert_eq!(total.count(), 2_000);
    // The reduced query surface: one roll-up entry point, multi-φ.
    let report =
        QueryEngine::quantiles(&restored, &restored.no_filter(), &[0.5, 0.99]).expect("quantiles");
    assert_eq!(report.cells_merged, 4);
    assert!(report.values.iter().all(|q| q.is_finite()));

    // macrobase
    let config = msketch::macrobase::MacroBaseConfig::default();
    let _ = config; // constructible through the facade

    // bounds through the `core` alias
    let s = MomentsSketch::from_data(4, &data);
    let bound = msketch::core::bounds::markov_bound(&s, 1.0);
    assert!(bound.lower >= 0.0 && bound.upper <= 1.0 + 1e-12);
}

/// The serving layer is reachable through the facade: a server starts,
/// answers an HTTP round trip, and shuts down joining every thread.
#[test]
fn facade_serving_layer_round_trip() {
    use msketch::prelude::{EngineConfig, MsketchServer, ServerConfig};
    use msketch::server::{client, json};

    let mut server = MsketchServer::start(
        SketchSpec::moments(8),
        &["host"],
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            refresh_interval: std::time::Duration::ZERO,
            engine: EngineConfig::with_shards(1).batch_rows(16),
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();
    let (status, _) = client::post(
        addr,
        "/ingest",
        "{\"columns\": [[\"h1\",\"h2\"]], \"metrics\": [1.0, 9.0]}",
    )
    .expect("ingest");
    assert_eq!(status, 200);
    server.refresh().expect("refresh");
    let (status, body) = client::get(addr, "/quantile?q=0.5").expect("quantile");
    assert_eq!(status, 200);
    let doc = json::from_str(&body).expect("response parses");
    assert_eq!(doc.get("count").and_then(|v| v.as_f64()), Some(2.0));
    server.shutdown();
}
