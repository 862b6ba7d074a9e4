//! Layer probes: timed calls into each crate's public functions on the
//! workload's own seeded data, run in-process after the traced window.
//! The layers are the crates. A probe runs on the workloads whose server
//! exercises that layer with that data (the cube probes on the two
//! high-cardinality workloads, the write-path probes on
//! `ingest-durable`, the timeline probes on `mixed-timeline`, against
//! the directory the server itself wrote); elsewhere the metric reads 0
//! with 0 samples, like a cache-hit count on a workload without hits.

use crate::check::{Expect, Groups, Pop, PHIS};
use crate::gen::{Names, Rows, Shape};
use crate::plan::{Traffic, Workload, BUCKET_MS};
use crate::run::{LayerInputs, Metric};
use crate::stats;
use moments_sketch::bounds::quantile_interval;
use moments_sketch::{
    solve_robust, CascadeConfig, MomentsSketch, SolverConfig, ThresholdEvaluator,
};
use msketch_cube::hash::{FxHashMap, FxHashSet};
use msketch_cube::{
    ColumnarBatch, DynCube, GroupThresholdQuery, InternedBatch, InternedColumn, QueryEngine,
    WriterTable,
};
use msketch_engine::{DynShardedCube, EngineConfig, FsyncPolicy, Wal, WalConfig};
use msketch_macrobase::{MacroBaseConfig, MacroBaseEngine};
use msketch_sketches::{sketch_from_bytes, MomentsBacked, QuantileSummary, Sketch, SketchSpec};
use msketch_timeline::{Timeline, TimelineConfig};
use std::hint::black_box;
use std::time::Instant;

/// Every probe metric with its unit; a traced run emits all of them.
pub const PROBES: &[(&str, &str)] = &[
    ("core.accumulate_ns_per_row", "ns"),
    ("core.merge_ns_per_cell", "ns"),
    ("core.solve_us", "us"),
    ("core.solve_newton_iters", "count"),
    ("core.solve_fct_count", "count"),
    ("core.solve_cell_us", "us"),
    ("core.solution_quantiles_us", "us"),
    ("core.bounds_us", "us"),
    ("core.cascade_us_per_group", "us"),
    ("core.cascade_maxent_frac", "ratio"),
    ("core.sketch_bytes", "B"),
    ("core.to_bytes_ns", "ns"),
    ("core.from_bytes_ns", "ns"),
    ("numerics.dct1_us", "us"),
    ("sketches.dyn_merge_ns_per_cell", "ns"),
    ("sketches.dyn_quantile_us", "us"),
    ("sketches.dyn_quantiles2_us", "us"),
    ("sketches.wire_encode_ns", "ns"),
    ("sketches.wire_decode_ns", "ns"),
    ("cube.matching_sorted_us", "us"),
    ("cube.cells_sorted_ms", "ms"),
    ("cube.group_quantiles_us_per_group", "us"),
    ("cube.group_by_us_per_kcell", "us"),
    ("cube.threshold_us_per_group", "us"),
    ("cube.insert_batch_ns_per_row", "ns"),
    ("cube.insert_interned_ns_per_row", "ns"),
    ("cube.apply_delta_us_per_cell", "us"),
    ("cube.to_bytes_us_per_kcell", "us"),
    ("cube.from_bytes_us_per_kcell", "us"),
    ("cube.merge_cube_ns_per_cell", "ns"),
    ("cube.bytes_per_cell", "B"),
    ("macrobase.search_ms", "ms"),
    ("macrobase.maxent_frac", "ratio"),
    ("engine.writer_insert_ns_per_row", "ns"),
    ("engine.snapshot_delta_ms", "ms"),
    ("engine.checkpoint_ms", "ms"),
    ("engine.wal_append_us", "us"),
    ("engine.wal_bytes_per_row", "B"),
    ("engine.recover_ms", "ms"),
    ("timeline.insert_ns_per_row", "ns"),
    ("timeline.plan_us", "us"),
    ("timeline.cover_segments", "count"),
    ("timeline.segment_load_us", "us"),
    ("timeline.range_cube_ms.10s", "ms"),
    ("timeline.range_cube_ms.90s", "ms"),
    ("timeline.range_cube_ms.10min", "ms"),
    ("timeline.range_cube_ms.50min", "ms"),
    ("timeline.maintain_ms", "ms"),
    ("timeline.store_bytes_per_row", "B"),
    ("serde_json.parse_ingest_ns_per_row", "ns"),
    ("serde_json.encode_groupby_us", "us"),
    ("tiny_http.health_rtt_us", "us"),
    ("obs.observe_ns", "ns"),
    ("obs.trace_roundtrip_ns", "ns"),
];

/// Median wall time of `f` over `reps` calls, in nanoseconds.
fn time_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

/// Median per-call time of a cheap `f`, timed in batches of `batch`.
fn time_each_ns<R>(batch: usize, mut f: impl FnMut() -> R) -> f64 {
    time_ns(7, || {
        for _ in 0..batch {
            black_box(f());
        }
    }) / batch as f64
}

/// Probe values by name; unset ones stay 0.
struct Sheet {
    values: Vec<(f64, usize)>,
}

impl Sheet {
    fn set(&mut self, name: &str, value: f64, samples: usize) {
        let at = PROBES
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("probe {name} is not declared in PROBES"));
        self.values[at] = (value, samples);
    }
}

/// Run the probes this workload's layers call for.
pub(crate) fn run(x: &LayerInputs) -> Result<Vec<Metric>, String> {
    let t = Instant::now();
    let mut sheet = Sheet {
        values: vec![(0.0, 0); PROBES.len()],
    };
    sheet.set("tiny_http.health_rtt_us", x.health_rtt_us, 1);
    obs(&mut sheet);
    match &x.w.traffic {
        Traffic::Mix { .. } => cube_layers(x.w, &mut sheet)?,
        Traffic::Ingest { .. } => write_path(x, &mut sheet)?,
        Traffic::Paced { .. } => timeline(x, &mut sheet)?,
    }
    eprintln!(
        "[{}] layer probes took {:.2} s",
        x.w.name,
        t.elapsed().as_secs_f64()
    );
    Ok(PROBES
        .iter()
        .zip(&sheet.values)
        .map(|(&(name, unit), &(value, samples))| Metric::new(name, value, unit, samples))
        .collect())
}

fn obs(sheet: &mut Sheet) {
    let registry = msketch_obs::Registry::new();
    let recorder = registry.recorder("perfbench_probe_seconds", &[]);
    sheet.set(
        "obs.observe_ns",
        time_each_ns(10_000, || recorder.observe(0.001)),
        7,
    );
    let sink = msketch_obs::TraceSink::new(256);
    let roundtrip = time_each_ns(2_000, || {
        let _root = sink.root_span("probe::request");
        let _child = msketch_obs::span("probe::stage");
    });
    sheet.set("obs.trace_roundtrip_ns", roundtrip, 7);
}

/// Build an in-process cube from rows, in batches, timing the inserts.
fn build_cube(shape: &Shape, rows: &Rows) -> (DynCube, f64) {
    let names = Names::new(shape);
    let dims: Vec<&str> = shape.dims().split(',').collect();
    let mut cube = DynCube::from_spec(SketchSpec::moments(10), &dims);
    let mut spent = 0.0;
    for at in (0..rows.len()).step_by(50_000) {
        let end = (at + 50_000).min(rows.len());
        let app: Vec<&str> = (at..end)
            .map(|i| names.app[rows.app[i] as usize].as_str())
            .collect();
        let host: Vec<&str> = (at..end)
            .map(|i| names.host[rows.host[i] as usize].as_str())
            .collect();
        let region: Vec<&str> = (at..end)
            .map(|i| {
                names
                    .region
                    .get(shape.region_of(rows.host[i]))
                    .map_or("", String::as_str)
            })
            .collect();
        let columns: Vec<&[&str]> = if shape.regions > 0 {
            vec![&app, &host, &region]
        } else {
            vec![&app, &host]
        };
        let batch =
            ColumnarBatch::from_columns(&columns, &rows.value[at..end]).expect("equal lengths");
        let t = Instant::now();
        cube.insert_batch(&batch).expect("arity matches");
        spent += t.elapsed().as_nanos() as f64;
    }
    (cube, spent / rows.len().max(1) as f64)
}

fn filter_of(cube: &DynCube, pairs: &[(usize, &str)]) -> Vec<Option<u32>> {
    let mut filter = cube.no_filter();
    for &(d, value) in pairs {
        filter[d] = cube.dictionary(d).ok().and_then(|dict| dict.lookup(value));
    }
    filter
}

fn rollup(cube: &DynCube, filter: &[Option<u32>]) -> Box<dyn Sketch> {
    cube.rollup(filter).expect("filter matches cells")
}

/// `Box<dyn Sketch>` probes on whatever cube the workload serves.
fn dyn_sketch(cube: &DynCube, merged: &dyn Sketch, sheet: &mut Sheet) {
    let cells: Vec<&Box<dyn Sketch>> = cube.cells().map(|(_, s)| s).collect();
    let merge = time_ns(5, || {
        let mut acc = cells[0].clone();
        for cell in &cells[1..] {
            acc.merge_from(cell);
        }
        acc
    });
    sheet.set(
        "sketches.dyn_merge_ns_per_cell",
        merge / cells.len() as f64,
        5,
    );
    sheet.set(
        "sketches.dyn_quantile_us",
        time_ns(9, || merged.quantile(0.99)) / 1e3,
        9,
    );
    sheet.set(
        "sketches.dyn_quantiles2_us",
        time_ns(9, || merged.quantiles(&PHIS)) / 1e3,
        9,
    );
}

/// core / numerics / sketches / cube / macrobase on the high-cardinality
/// cube, built in-process from the same rows the server was sent.
fn cube_layers(w: &Workload, sheet: &mut Sheet) -> Result<(), String> {
    let (cube, _) = build_cube(&w.shape, &w.rows);
    let names = w.oracle.names();
    let cells = cube.cell_count();
    let sketches: Vec<&MomentsSketch> = cube.cells().filter_map(|(_, s)| s.as_moments()).collect();
    if sketches.len() != cells {
        return Err("cube cells are not moments sketches".to_string());
    }
    let config = SolverConfig::default();

    // core: merge over every cell.
    let merge = time_ns(5, || {
        let mut acc = MomentsSketch::new(10);
        for s in &sketches {
            acc.merge(s);
        }
        acc
    });
    sheet.set("core.merge_ns_per_cell", merge / cells as f64, 5);

    // core: solve on slice-sized sketches (one app each) and one-cell ones.
    let apps: Vec<u16> = (0..w.shape.apps as u16)
        .step_by((w.shape.apps / 24).max(1))
        .collect();
    let slices: Vec<Box<dyn Sketch>> = apps
        .iter()
        .map(|&a| rollup(&cube, &filter_of(&cube, &[(0, &names.app[a as usize])])))
        .collect();
    let mut solve_ns = Vec::new();
    let (mut iters, mut fcts) = (Vec::new(), Vec::new());
    let mut quantiles_ns = Vec::new();
    let mut bounds_ns = Vec::new();
    for slice in &slices {
        let sketch = slice.as_moments().expect("moments cube");
        solve_ns.push(time_ns(3, || solve_robust(sketch, &config)));
        let solution =
            solve_robust(sketch, &config).map_err(|e| format!("slice solve failed: {e}"))?;
        iters.push(solution.iterations() as f64);
        fcts.push(solution.fct_count() as f64);
        quantiles_ns.push(time_ns(3, || solution.quantiles(&PHIS)));
        bounds_ns.push(time_ns(3, || quantile_interval(sketch, 0.99, 60)));
    }
    sheet.set(
        "core.solve_us",
        stats::median(&solve_ns) / 1e3,
        slices.len(),
    );
    sheet.set("core.solve_newton_iters", stats::mean(&iters), slices.len());
    sheet.set("core.solve_fct_count", stats::mean(&fcts), slices.len());
    sheet.set(
        "core.solution_quantiles_us",
        stats::median(&quantiles_ns) / 1e3,
        slices.len(),
    );
    sheet.set(
        "core.bounds_us",
        stats::median(&bounds_ns) / 1e3,
        slices.len(),
    );
    let step = (cells / 48).max(1);
    let cell_ns: Vec<f64> = sketches
        .iter()
        .step_by(step)
        .map(|s| time_ns(3, || solve_robust(s, &config)))
        .collect();
    sheet.set(
        "core.solve_cell_us",
        stats::median(&cell_ns) / 1e3,
        cell_ns.len(),
    );

    // core: the cascade over the groups of threshold queries.
    let thresholds: Vec<(u16, f64)> = w
        .expects
        .iter()
        .filter_map(|e| match e {
            Expect::Threshold {
                groups: Groups::HostsOfApp(a),
                t,
                ..
            } => Some((*a, *t)),
            _ => None,
        })
        .take(32)
        .collect();
    // slice-highcard has no threshold requests; probe at the same rank.
    let thresholds = if thresholds.is_empty() {
        let t = w.oracle.quantile(Pop::All, 0.999);
        apps.iter().map(|&a| (a, t)).collect()
    } else {
        thresholds
    };
    let mut evaluator = ThresholdEvaluator::new(CascadeConfig::default());
    let mut groups = 0usize;
    let t0 = Instant::now();
    for &(a, t) in &thresholds {
        let filter = filter_of(&cube, &[(0, &names.app[a as usize])]);
        for (_, cell) in cube.matching_sorted(&filter) {
            evaluator.threshold(cell.as_moments().expect("moments cube"), t, 0.99);
            groups += 1;
        }
    }
    let cascade_ns = t0.elapsed().as_nanos() as f64;
    // The scan is timed on its own below; subtract it to price the cascade.
    let filter = filter_of(&cube, &[(0, &names.app[thresholds[0].0 as usize])]);
    let scan = time_ns(5, || cube.matching_sorted(&filter).len());
    sheet.set("cube.matching_sorted_us", scan / 1e3, 5);
    let stats_ = evaluator.stats();
    sheet.set(
        "core.cascade_us_per_group",
        (cascade_ns - scan * thresholds.len() as f64).max(0.0) / groups.max(1) as f64 / 1e3,
        groups,
    );
    sheet.set(
        "core.cascade_maxent_frac",
        stats_.maxent_evals as f64 / stats_.total.max(1) as f64,
        stats_.total as usize,
    );

    // core + sketches: wire formats.
    let one = sketches[0];
    let bytes = moments_sketch::serialize::to_bytes(one);
    sheet.set("core.sketch_bytes", bytes.len() as f64, 1);
    sheet.set(
        "core.to_bytes_ns",
        time_each_ns(2_000, || moments_sketch::serialize::to_bytes(one)),
        7,
    );
    sheet.set(
        "core.from_bytes_ns",
        time_each_ns(2_000, || moments_sketch::serialize::from_bytes(&bytes)),
        7,
    );
    let boxed = cube.cells().next().expect("cube has cells").1;
    let wire = boxed.to_bytes();
    sheet.set(
        "sketches.wire_encode_ns",
        time_each_ns(2_000, || boxed.to_bytes()),
        7,
    );
    sheet.set(
        "sketches.wire_decode_ns",
        time_each_ns(2_000, || sketch_from_bytes(&wire)),
        7,
    );

    // numerics: the cosine transform at the solver's grid size (128
    // panels when standard and log moments mix, as they do on this data).
    let grid: Vec<f64> = (0..=128).map(|i| (i as f64 * 0.37).sin()).collect();
    sheet.set(
        "numerics.dct1_us",
        time_each_ns(200, || numerics::fct::dct1(&grid)) / 1e3,
        7,
    );

    dyn_sketch(&cube, slices[0].as_ref(), sheet);

    // cube: scans, grouping, thresholds, encoding.
    sheet.set(
        "cube.cells_sorted_ms",
        time_ns(3, || cube.cells_sorted().len()) / 1e6,
        3,
    );
    let region_dim = w.shape.dims().split(',').position(|d| d == "region");
    if let Some(region) = region_dim {
        let n_groups = w.shape.regions as f64;
        let grouped = time_ns(3, || {
            QueryEngine::group_quantiles_decoded(&cube, &[region], &filter, &PHIS)
        });
        sheet.set(
            "cube.group_quantiles_us_per_group",
            grouped / n_groups / 1e3,
            3,
        );
        let report = QueryEngine::group_quantiles_decoded(&cube, &[region], &filter, &PHIS)
            .map_err(|e| format!("group_quantiles: {e}"))?;
        let encode = time_ns(9, || {
            serde_json::Value::Array(
                report
                    .iter()
                    .map(|g| {
                        serde_json::Value::object(vec![
                            ("key", serde_json::Value::array(g.key.clone())),
                            ("count", serde_json::Value::from(g.count)),
                            ("values", serde_json::Value::array(g.values.clone())),
                        ])
                    })
                    .collect(),
            )
            .to_string()
        });
        sheet.set("serde_json.encode_groupby_us", encode / 1e3, 9);
    }
    let by_host = time_ns(3, || cube.group_by(&[1], &filter).map(|g| g.len()));
    sheet.set(
        "cube.group_by_us_per_kcell",
        by_host / 1e3 / (w.shape.hosts as f64 / 1e3),
        3,
    );
    let (_, t) = thresholds[0];
    let query = GroupThresholdQuery::new(0.99, t);
    let per_query = time_ns(5, || {
        query
            .run_cube_decoded(&cube, &[1], &filter)
            .map(|r| r.groups)
    });
    sheet.set(
        "cube.threshold_us_per_group",
        per_query / 1e3 / w.shape.hosts as f64,
        5,
    );
    let image = cube.to_bytes();
    sheet.set("cube.bytes_per_cell", image.len() as f64 / cells as f64, 1);

    // macrobase: the search the `search` class runs.
    let mut engine = MacroBaseEngine::new(MacroBaseConfig {
        global_phi: 0.99,
        rate_ratio: 3.0,
        ..MacroBaseConfig::default()
    });
    let search = time_ns(2, || engine.search_cube(&cube, &[0]).map(|r| r.len()));
    sheet.set("macrobase.search_ms", search / 1e6, 2);
    let cascade = engine.stats();
    sheet.set(
        "macrobase.maxent_frac",
        cascade.maxent_evals as f64 / cascade.total.max(1) as f64,
        cascade.total as usize,
    );
    Ok(())
}

/// `serde_json::from_str` on one of the workload's own `/ingest` bodies;
/// returns the rows in it.
fn parse_probe(w: &Workload, sheet: &mut Sheet) -> Result<usize, String> {
    let (body, body_rows) = w
        .requests
        .iter()
        .zip(&w.expects)
        .find_map(|(req, expect)| match (expect, &req.body) {
            (Expect::Ingest { rows }, Some(body)) => Some((body.clone(), *rows)),
            _ => None,
        })
        .ok_or("the workload has no ingest request")?;
    let parse = time_ns(9, || {
        serde_json::from_str(&body).map(|v| v.as_object().map(|o| o.len()))
    });
    sheet.set(
        "serde_json.parse_ingest_ns_per_row",
        parse / body_rows as f64,
        9,
    );
    Ok(body_rows)
}

/// `ShardWriter::insert` + `flush` of the workload's rows into a fresh
/// two-shard engine (the path `/ingest` takes after parsing).
fn writer_probe(
    w: &Workload,
    sheet: &mut Sheet,
) -> Result<(DynShardedCube, msketch_engine::ShardWriter<SketchSpec>), String> {
    let names = w.oracle.names();
    let rows = &w.rows;
    let dims: Vec<&str> = w.shape.dims().split(',').collect();
    let engine = DynShardedCube::new(SketchSpec::moments(10), &dims, EngineConfig::with_shards(2));
    let mut writer = engine.writer();
    let n = rows.len().min(200_000);
    let err = |e: msketch_engine::EngineError| format!("engine probe: {e}");
    let t = Instant::now();
    for i in 0..n {
        let row = [
            names.app[rows.app[i] as usize].as_str(),
            names.host[rows.host[i] as usize].as_str(),
        ];
        writer.insert(&row, rows.value[i]).map_err(err)?;
    }
    writer.flush().map_err(err)?;
    sheet.set(
        "engine.writer_insert_ns_per_row",
        t.elapsed().as_nanos() as f64 / n as f64,
        n,
    );
    Ok((engine, writer))
}

/// The write path: JSON parse, cube inserts, shard writers, delta
/// refresh, WAL append and recovery — on `ingest-durable`'s own bodies
/// and on the log the server left behind.
fn write_path(x: &LayerInputs, sheet: &mut Sheet) -> Result<(), String> {
    let w = x.w;
    let rows = &w.rows;
    let dims: Vec<&str> = w.shape.dims().split(',').collect();
    let spec = SketchSpec::moments(10);
    let body_rows = parse_probe(w, sheet)?;

    let accumulate = time_ns(5, || {
        let mut s = MomentsSketch::new(10);
        s.accumulate_all(&rows.value);
        s
    });
    sheet.set(
        "core.accumulate_ns_per_row",
        accumulate / rows.len() as f64,
        5,
    );

    let (cube, insert_ns) = build_cube(&w.shape, rows);
    sheet.set("cube.insert_batch_ns_per_row", insert_ns, rows.len());

    // The interned multi-writer path, fed the way a shard worker is: ids
    // into the writer's pools, pool values sent once.
    let names = Names::new(&w.shape);
    let batch = InternedBatch {
        writer: 0,
        columns: vec![
            InternedColumn {
                ids: rows.app.iter().map(|&a| a as u32).collect(),
                news: names.app.clone(),
            },
            InternedColumn {
                ids: rows.host.iter().map(|&h| h as u32).collect(),
                news: names.host.clone(),
            },
        ],
        metrics: rows.value.clone(),
    };
    let interned = time_ns(3, || {
        let mut cube = DynCube::from_spec(spec.clone(), &dims);
        let mut tables: Vec<WriterTable> = batch
            .columns
            .iter()
            .map(|c| {
                let mut t = WriterTable::default();
                t.extend_strings(&c.news);
                t
            })
            .collect();
        let mut touched = FxHashSet::default();
        cube.insert_interned(&batch, &mut tables, &mut touched)
            .map(|()| cube.cell_count())
    });
    sheet.set(
        "cube.insert_interned_ns_per_row",
        interned / rows.len() as f64,
        3,
    );

    let delta = cube.full_delta();
    let apply = time_ns(5, || {
        let mut target = DynCube::from_spec(spec.clone(), &dims);
        target
            .apply_delta(&delta, &FxHashMap::default())
            .map(|a| a.cells.len())
    });
    sheet.set(
        "cube.apply_delta_us_per_cell",
        apply / 1e3 / delta.cell_count() as f64,
        5,
    );
    let kcells = cube.cell_count() as f64 / 1e3;
    sheet.set(
        "cube.to_bytes_us_per_kcell",
        time_ns(5, || cube.to_bytes().len()) / 1e3 / kcells,
        5,
    );

    // engine: writers, delta snapshots, durable checkpoints.
    let config = EngineConfig::with_shards(2);
    let row = |i: usize| {
        [
            names.app[rows.app[i] as usize].as_str(),
            names.host[rows.host[i] as usize].as_str(),
        ]
    };
    let err = |e: msketch_engine::EngineError| format!("engine probe: {e}");
    let (mut engine, mut writer) = writer_probe(w, sheet)?;
    engine.snapshot().map_err(err)?;
    let pane = 2 * body_rows;
    let mut snapshots = Vec::new();
    for round in 0..5 {
        for i in (round * pane)..((round + 1) * pane) {
            writer
                .insert(&row(i % rows.len()), rows.value[i % rows.len()])
                .map_err(err)?;
        }
        writer.flush().map_err(err)?;
        let t = Instant::now();
        engine.snapshot().map_err(err)?;
        snapshots.push(t.elapsed().as_nanos() as f64);
    }
    sheet.set(
        "engine.snapshot_delta_ms",
        stats::median(&snapshots) / 1e6,
        snapshots.len(),
    );
    drop(writer);
    drop(engine);

    let scratch =
        crate::daemon::Scratch::new(&x.opts.out_dir, "probe-wal").map_err(|e| e.to_string())?;
    let always = WalConfig {
        fsync: FsyncPolicy::Always,
    };
    let (mut engine, _) = DynShardedCube::recover(
        spec.clone(),
        &dims,
        config,
        scratch.path().join("engine"),
        always,
    )
    .map_err(err)?;
    let mut writer = engine.writer();
    let mut checkpoints = Vec::new();
    for round in 0..5 {
        for i in (round * pane)..((round + 1) * pane) {
            writer
                .insert(&row(i % rows.len()), rows.value[i % rows.len()])
                .map_err(err)?;
        }
        writer.flush().map_err(err)?;
        let t = Instant::now();
        engine.checkpoint().map_err(err)?;
        checkpoints.push(t.elapsed().as_nanos() as f64);
    }
    sheet.set(
        "engine.checkpoint_ms",
        stats::median(&checkpoints) / 1e6,
        checkpoints.len(),
    );
    drop(writer);
    drop(engine);

    // A pane-sized payload: the cells two bodies touch.
    let (pane_cube, _) = build_cube(
        &w.shape,
        &Rows {
            app: rows.app[..pane].to_vec(),
            host: rows.host[..pane].to_vec(),
            value: rows.value[..pane].to_vec(),
        },
    );
    let payload = pane_cube.to_bytes();
    let (mut wal, _, _) =
        Wal::open(&scratch.path().join("wal"), always).map_err(|e| format!("wal probe: {e}"))?;
    let mut epoch = 0;
    let append = time_ns(9, || {
        epoch += 1;
        wal.append(epoch, &payload)
    });
    sheet.set("engine.wal_append_us", append / 1e3, 9);

    sheet.set(
        "engine.wal_bytes_per_row",
        x.wal_bytes as f64 / x.acked_rows.max(1) as f64,
        x.acked_rows as usize,
    );
    if let Some(dir) = x.wal_dir {
        let t = Instant::now();
        let (recovered, report) =
            DynShardedCube::recover(spec, &dims, config, dir, always).map_err(err)?;
        sheet.set(
            "engine.recover_ms",
            t.elapsed().as_nanos() as f64 / 1e6,
            report.segments_replayed,
        );
        drop(recovered);
    }
    Ok(())
}

/// The timeline, opened in-process on the directory the server wrote:
/// cover planning, segment loads, range cubes of several widths (only
/// the traffic's own width is ever requested over the socket), and one
/// maintenance interval's worth of inserts, checkpoint and compaction.
fn timeline(x: &LayerInputs, sheet: &mut Sheet) -> Result<(), String> {
    let w = x.w;
    let dir = x
        .timeline_dir
        .ok_or("mixed-timeline ran without a timeline directory")?;
    let dims: Vec<&str> = w.shape.dims().split(',').collect();
    let config = TimelineConfig::default()
        .bucket_ms(BUCKET_MS)
        .fsync(FsyncPolicy::Never);
    let err = |e: msketch_timeline::TimelineError| format!("timeline probe: {e}");
    let (mut tl, _) = Timeline::open(dir, SketchSpec::moments(10), &dims, config).map_err(err)?;

    let ranges: Vec<(u64, u64)> = w
        .expects
        .iter()
        .filter_map(|e| match e {
            Expect::Range { t0, t1 } => Some((*t0, *t1)),
            _ => None,
        })
        .take(24)
        .collect();
    let (start, end) = ranges.iter().fold((u64::MAX, 0), |(lo, hi), &(t0, t1)| {
        (lo.min(t0), hi.max(t1))
    });
    let mut plan_ns = Vec::new();
    let mut cover = Vec::new();
    for &(t0, t1) in &ranges {
        plan_ns.push(time_ns(3, || tl.plan(t0, t1).map(|p| p.len())));
        cover.push(tl.plan(t0, t1).map_err(err)?.len() as f64);
    }
    sheet.set(
        "timeline.plan_us",
        stats::median(&plan_ns) / 1e3,
        ranges.len(),
    );
    sheet.set(
        "timeline.cover_segments",
        stats::median(&cover),
        ranges.len(),
    );

    let metas: Vec<_> = tl.store().index().values().take(64).cloned().collect();
    let loads: Vec<f64> = metas
        .iter()
        .map(|m| time_ns(1, || tl.store().load(m).map(|c| c.cell_count())))
        .collect();
    sheet.set(
        "timeline.segment_load_us",
        stats::median(&loads) / 1e3,
        loads.len(),
    );

    for (label, width) in [
        ("10s", 10_000u64),
        ("90s", 90_000),
        ("10min", 600_000),
        ("50min", 3_000_000),
    ] {
        // Clamped to the history there is (smoke runs keep minutes of it).
        let width = width.min(end - start);
        let times: Vec<f64> = (0..5u64)
            .map(|k| {
                let t0 = start + (end - start - width) * k / 5 + 17 * k;
                time_ns(1, || {
                    tl.range_cube(t0, t0 + width)
                        .map(|a| a.map(|a| a.segments_read))
                })
            })
            .collect();
        sheet.set(
            &format!("timeline.range_cube_ms.{label}"),
            stats::median(&times) / 1e6,
            times.len(),
        );
    }

    // The cubes a range read decodes and merges, priced per cell.
    if let Some(meta) = metas.first() {
        let segment = tl.store().load(meta).map_err(err)?;
        let image = segment.to_bytes();
        let kcells = segment.cell_count() as f64 / 1e3;
        sheet.set(
            "cube.from_bytes_us_per_kcell",
            time_ns(9, || DynCube::from_bytes(&image).map(|c| c.cell_count())) / 1e3 / kcells,
            9,
        );
        let merge = time_ns(9, || {
            let mut acc = DynCube::from_spec(SketchSpec::moments(10), &dims);
            acc.merge_cube(&segment).map(|()| acc.cell_count())
        });
        sheet.set(
            "cube.merge_cube_ns_per_cell",
            merge / segment.cell_count() as f64,
            9,
        );
    }
    if let Some(&(t0, t1)) = ranges.first() {
        if let Some(answer) = tl.range_cube(t0, t1).map_err(err)? {
            let merged = answer
                .cube
                .rollup(&answer.cube.no_filter())
                .map_err(|e| e.to_string())?;
            dyn_sketch(&answer.cube, merged.as_ref(), sheet);
        }
    }

    // What an `/ingest` costs before it reaches the timeline.
    parse_probe(w, sheet)?;
    drop(writer_probe(w, sheet)?);

    // One refresh interval of live rows, then the maintenance that the
    // server runs under the timeline lock.
    let names = w.oracle.names();
    // 20 bodies a second for one 250 ms interval.
    let live_rows = 5 * x.opts.scale.timeline.rows;
    let mut now = end + 3_600_000;
    let mut insert_ns = Vec::new();
    let mut maintain_ns = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for i in 0..live_rows {
            let k = i % w.rows.len();
            let row = [
                names.app[w.rows.app[k] as usize].as_str(),
                names.host[w.rows.host[k] as usize].as_str(),
            ];
            tl.insert(now + (i as u64 % BUCKET_MS), &row, w.rows.value[k])
                .map_err(err)?;
        }
        insert_ns.push(t.elapsed().as_nanos() as f64 / live_rows as f64);
        now += BUCKET_MS;
        maintain_ns.push(time_ns(1, || tl.maintain(now).map(|r| r.checkpointed)));
    }
    sheet.set(
        "timeline.insert_ns_per_row",
        stats::median(&insert_ns),
        insert_ns.len() * live_rows,
    );
    sheet.set(
        "timeline.maintain_ms",
        stats::median(&maintain_ns) / 1e6,
        maintain_ns.len(),
    );

    let stat = |key: &str| {
        x.stats
            .get("timeline")
            .and_then(|t| t.get(key))
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0) as f64
    };
    sheet.set(
        "timeline.store_bytes_per_row",
        stat("segment_bytes") / stat("rows_ingested").max(1.0),
        stat("rows_ingested") as usize,
    );
    Ok(())
}

/// The layer-probe model of each request class's latency, in
/// microseconds: the sum of the probes that compose the request.
/// Compared with the measured median, the difference is what no layer
/// accounts for.
pub(crate) fn models(w: &Workload, probe: &dyn Fn(&str) -> f64) -> Vec<(&'static str, f64)> {
    let rtt = probe("tiny_http.health_rtt_us");
    let cells = w.shape.cells() as f64;
    let merge_us = |n: f64| n * probe("sketches.dyn_merge_ns_per_cell") / 1e3;
    // The handler solves once per requested quantile.
    let estimate = PHIS.len() as f64 * probe("sketches.dyn_quantile_us");
    let scan = probe("cube.matching_sorted_us");
    let present = |class: &str| w.classes.contains(&class);
    let body_rows = w
        .expects
        .iter()
        .find_map(|e| match e {
            Expect::Ingest { rows } => Some(*rows as f64),
            _ => None,
        })
        .unwrap_or(0.0);
    let mut out = Vec::new();
    let mut model = |class: &'static str, us: f64| {
        out.push((class, if present(class) { rtt + us } else { 0.0 }));
    };
    model("slice", scan + merge_us(w.shape.hosts as f64) + estimate);
    model(
        "cell",
        scan + PHIS.len() as f64 * probe("core.solve_cell_us"),
    );
    model(
        "rollup",
        probe("cube.cells_sorted_ms") * 1e3 + merge_us(cells) + estimate,
    );
    model(
        "groupby",
        w.shape.regions as f64 * probe("cube.group_quantiles_us_per_group"),
    );
    model(
        "threshold",
        w.shape.hosts as f64 * probe("cube.threshold_us_per_group"),
    );
    model("search", probe("macrobase.search_ms") * 1e3);
    model(
        "ingest",
        body_rows
            * (probe("serde_json.parse_ingest_ns_per_row")
                + probe("engine.writer_insert_ns_per_row")
                + probe("timeline.insert_ns_per_row"))
            / 1e3,
    );
    model("refresh", probe("engine.checkpoint_ms") * 1e3);
    model(
        "range",
        probe("timeline.range_cube_ms.10min") * 1e3 + merge_us(cells) + estimate,
    );
    out
}
