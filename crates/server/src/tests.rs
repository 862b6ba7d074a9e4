//! Router-level unit tests: drive `route()` with hand-built requests —
//! no sockets — and check status codes, JSON shapes, and bit-exactness
//! against the in-process snapshot.

use super::*;
use moments_sketch::bounds::quantile_interval;
use msketch_cube::QueryEngine;
use msketch_macrobase::{MacroBaseConfig, MacroBaseEngine};
use msketch_sketches::MomentsBacked;

fn test_server() -> MsketchServer {
    test_server_with(SketchSpec::moments(8))
}

fn test_server_with(spec: SketchSpec) -> MsketchServer {
    MsketchServer::start(
        spec,
        &["app", "region"],
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            // Manual refresh only: deterministic epochs.
            refresh_interval: Duration::ZERO,
            engine: EngineConfig::with_shards(2).batch_rows(64),
            ..ServerConfig::default()
        },
    )
    .expect("start server")
}

fn request(method: &str, path: &str, query: &[(&str, &str)], body: &str) -> Request {
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

fn call(server: &MsketchServer, req: &Request) -> (u16, Value) {
    let response = route(&server.state, req);
    let body = std::str::from_utf8(&response.body).expect("response body is UTF-8");
    let doc =
        serde_json::from_str(body).unwrap_or_else(|e| panic!("response not JSON ({e}): {body}"));
    (response.status, doc)
}

fn ingest_demo_rows(server: &MsketchServer, rows: usize) {
    // Two apps x two regions (app uncorrelated with region, so all four
    // cells materialize); "slow" rows get a latency tail.
    let mut apps = Vec::new();
    let mut regions = Vec::new();
    let mut metrics = Vec::new();
    for i in 0..rows {
        let slow = i % 8 < 2;
        apps.push(if slow { "slow" } else { "fast" });
        regions.push(if i % 2 == 0 { "eu" } else { "us" });
        metrics.push(format!(
            "{}",
            (i % 100) as f64 + if slow { 900.0 } else { 0.0 }
        ));
    }
    let body = format!(
        "{{\"columns\": [[{}],[{}]], \"metrics\": [{}]}}",
        apps.iter()
            .map(|a| format!("{a:?}"))
            .collect::<Vec<_>>()
            .join(","),
        regions
            .iter()
            .map(|r| format!("{r:?}"))
            .collect::<Vec<_>>()
            .join(","),
        metrics.join(","),
    );
    let (status, doc) = call(server, &request("POST", "/ingest", &[], &body));
    assert_eq!(status, 200, "{doc}");
    assert_eq!(doc.get("accepted").unwrap().as_i64(), Some(rows as i64));
}

#[test]
fn ingest_refresh_quantile_round_trip_is_bit_exact() {
    // Off the moments path too: t-digest cells estimate through the
    // same one `Sketch::quantiles` call.
    for spec in [SketchSpec::moments(8), SketchSpec::tdigest(5.0)] {
        let server = test_server_with(spec);
        ingest_demo_rows(&server, 4000);
        let (status, doc) = call(&server, &request("POST", "/refresh", &[], ""));
        assert_eq!(status, 200);
        assert_eq!(doc.get("epoch").unwrap().as_u64(), Some(2));

        for (q, phis) in [("0.5", vec![0.5]), ("0.1,0.5,0.99", vec![0.1, 0.5, 0.99])] {
            let (status, doc) = call(&server, &request("GET", "/quantile", &[("q", q)], ""));
            assert_eq!(status, 200, "{doc}");
            assert_eq!(doc.get("epoch").unwrap().as_u64(), Some(2));
            assert_eq!(doc.get("count").unwrap().as_f64(), Some(4000.0));
            assert_eq!(doc.get("cells_merged").unwrap().as_i64(), Some(4));

            // The served values equal the in-process answer on the same
            // snapshot, bit for bit — floats survive the JSON hop.
            let snap = server.current_snapshot().expect("snapshot");
            let expected = QueryEngine::quantiles(snap.cube(), &snap.no_filter(), &phis).unwrap();
            let served = doc.get("values").unwrap().as_array().unwrap();
            assert_eq!(served.len(), phis.len());
            for (value, expect) in served.iter().zip(&expected.values) {
                assert_eq!(value.as_f64().unwrap().to_bits(), expect.to_bits());
            }
        }
    }
}

#[test]
fn range_end_fractions_answer_the_exact_min_and_max() {
    let server = test_server();
    let metrics: Vec<String> = (1..=1000).map(|i| i.to_string()).collect();
    let body = format!(
        "{{\"columns\": [[{}],[{}]], \"metrics\": [{}]}}",
        vec!["\"a\""; 1000].join(","),
        vec!["\"eu\""; 1000].join(","),
        metrics.join(","),
    );
    let (status, doc) = call(&server, &request("POST", "/ingest", &[], &body));
    assert_eq!(status, 200, "{doc}");
    server.refresh().unwrap();

    let (status, doc) = call(
        &server,
        &request("GET", "/quantile", &[("q", "0,0.5,1")], ""),
    );
    assert_eq!(status, 200, "{doc}");
    let values = doc.get("values").unwrap().as_array().unwrap();
    assert_eq!(values[0].as_f64(), Some(1.0), "{doc}");
    assert!((values[1].as_f64().unwrap() - 500.0).abs() < 10.0, "{doc}");
    assert_eq!(values[2].as_f64(), Some(1000.0), "{doc}");

    // `/groupby` reads through the same summary.
    let (status, doc) = call(
        &server,
        &request("GET", "/groupby", &[("by", "app"), ("q", "1,0")], ""),
    );
    assert_eq!(status, 200, "{doc}");
    let group = doc.get("groups").unwrap().at(0).unwrap();
    let values = group.get("values").unwrap().as_array().unwrap();
    assert_eq!(
        (values[0].as_f64(), values[1].as_f64()),
        (Some(1000.0), Some(1.0))
    );
}

#[test]
fn filters_select_subpopulations() {
    let server = test_server();
    ingest_demo_rows(&server, 2000);
    server.refresh().unwrap();
    let (status, all) = call(&server, &request("GET", "/quantile", &[], ""));
    assert_eq!(status, 200);
    let (status, slow) = call(
        &server,
        &request("GET", "/quantile", &[("app", "slow")], ""),
    );
    assert_eq!(status, 200);
    assert_eq!(slow.get("count").unwrap().as_f64(), Some(500.0));
    assert!(
        slow.get("values").unwrap().at(0).unwrap().as_f64().unwrap()
            > all.get("values").unwrap().at(0).unwrap().as_f64().unwrap(),
        "slow app median above global median"
    );
    // A value the dictionary has never seen is an empty selection:
    // zero rows and no values, not an error (PR 8 bugfix — empty
    // windows and empty selections answer cleanly).
    let (status, doc) = call(
        &server,
        &request("GET", "/quantile", &[("app", "nonexistent")], ""),
    );
    assert_eq!(status, 200, "{doc}");
    assert_eq!(doc.get("rows").unwrap().as_u64(), Some(0));
    assert_eq!(doc.get("count").unwrap().as_f64(), Some(0.0));
    assert!(doc.get("values").unwrap().as_array().unwrap().is_empty());
}

#[test]
fn groupby_returns_sorted_decoded_groups() {
    let server = test_server();
    ingest_demo_rows(&server, 2000);
    server.refresh().unwrap();
    let (status, doc) = call(
        &server,
        &request(
            "GET",
            "/groupby",
            &[("by", "app,region"), ("q", "0.5,0.9")],
            "",
        ),
    );
    assert_eq!(status, 200, "{doc}");
    let groups = doc.get("groups").unwrap().as_array().unwrap();
    assert_eq!(groups.len(), 4);
    let keys: Vec<Vec<&str>> = groups
        .iter()
        .map(|g| {
            g.get("key")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|k| k.as_str().unwrap())
                .collect()
        })
        .collect();
    assert_eq!(
        keys,
        [
            ["fast", "eu"],
            ["fast", "us"],
            ["slow", "eu"],
            ["slow", "us"]
        ]
    );
}

#[test]
fn threshold_runs_the_cascade_and_flags_the_slow_app() {
    let server = test_server();
    ingest_demo_rows(&server, 4000);
    server.refresh().unwrap();
    let (status, doc) = call(
        &server,
        &request(
            "GET",
            "/threshold",
            &[("by", "app"), ("q", "0.9"), ("t", "500")],
            "",
        ),
    );
    assert_eq!(status, 200, "{doc}");
    assert_eq!(doc.get("groups").unwrap().as_i64(), Some(2));
    let hits = doc.get("hits").unwrap().as_array().unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].at(0).unwrap().as_str(), Some("slow"));
    // Moments cells route through the cascade: stats are populated.
    assert_eq!(
        doc.get("stats").unwrap().get("total").unwrap().as_i64(),
        Some(2)
    );
}

#[test]
fn search_agrees_with_in_process_macrobase() {
    let server = test_server();
    ingest_demo_rows(&server, 4000);
    server.refresh().unwrap();
    let (status, doc) = call(
        &server,
        &request("GET", "/search", &[("by", "app"), ("ratio", "2")], ""),
    );
    assert_eq!(status, 200, "{doc}");
    // The serving contract: identical reports to in-process MacroBase
    // over the same snapshot (whatever the statistics decide).
    let snap = server.current_snapshot().expect("snapshot");
    let mut macrobase = MacroBaseEngine::new(MacroBaseConfig {
        rate_ratio: 2.0,
        ..MacroBaseConfig::default()
    });
    let expected = macrobase.search_cube(snap.cube(), &[0]).unwrap();
    let subs = doc.get("subpopulations").unwrap().as_array().unwrap();
    assert_eq!(subs.len(), expected.len(), "{doc}");
    for (sub, report) in subs.iter().zip(&expected) {
        assert_eq!(
            sub.get("label").unwrap().as_str(),
            Some(report.label.as_str())
        );
        assert_eq!(sub.get("count").unwrap().as_f64(), Some(report.count));
    }
    assert_eq!(
        doc.get("stats").unwrap().get("total").unwrap().as_u64(),
        Some(macrobase.stats().total)
    );
}

#[test]
fn stats_report_epochs_and_lag() {
    let server = test_server();
    let (status, doc) = call(&server, &request("GET", "/stats", &[], ""));
    assert_eq!(status, 200);
    // The backend label round-trips through SketchSpec::parse.
    assert_eq!(doc.get("backend").unwrap().as_str(), Some("M-Sketch:8"));
    assert!(SketchSpec::parse(doc.get("backend").unwrap().as_str().unwrap()).is_ok());
    assert_eq!(doc.get("snapshot_epoch").unwrap().as_u64(), Some(1));
    assert_eq!(doc.get("epoch_lag").unwrap().as_u64(), Some(0));
    assert_eq!(doc.get("snapshot_rows").unwrap().as_u64(), Some(0));
    assert_eq!(doc.get("shards").unwrap().as_i64(), Some(2));

    // An in-process snapshot (not via the server) advances the engine
    // epoch while the served snapshot stays — visible as epoch_lag.
    ingest_demo_rows(&server, 100);
    server.state.engine.lock().unwrap().snapshot().unwrap();
    let (_, doc) = call(&server, &request("GET", "/stats", &[], ""));
    assert_eq!(doc.get("engine_epoch").unwrap().as_u64(), Some(2));
    assert_eq!(doc.get("snapshot_epoch").unwrap().as_u64(), Some(1));
    assert_eq!(doc.get("epoch_lag").unwrap().as_u64(), Some(1));
    assert_eq!(doc.get("rows_accepted").unwrap().as_u64(), Some(100));

    server.refresh().unwrap();
    let (_, doc) = call(&server, &request("GET", "/stats", &[], ""));
    assert_eq!(doc.get("epoch_lag").unwrap().as_u64(), Some(0));
    assert_eq!(doc.get("snapshot_rows").unwrap().as_u64(), Some(100));
}

/// The four read routes, each with the least query it answers `200` to.
const READ_ROUTES: [(&str, &[(&str, &str)]); 4] = [
    ("/quantile", &[]),
    ("/groupby", &[("by", "app")]),
    ("/threshold", &[("by", "app"), ("t", "1")]),
    ("/search", &[("by", "app")]),
];

/// What one read route answers under one condition.
#[derive(Clone, Copy)]
enum Expect {
    /// This status; `4xx` carry a JSON `error`, `503` a `Retry-After`.
    Status(u16),
    /// `200` with `"rows": 0`: no rows is an answer, not an error.
    NoRows,
    /// The route does not read the parameter; nothing is pinned.
    NotTaken,
}
use Expect::{NoRows, NotTaken, Status};

/// One row of the read-route contract: a condition, the parameters
/// that create it (overriding the route's base query), and what each
/// of [`READ_ROUTES`] answers.
type Condition = (
    &'static str,
    &'static [(&'static str, &'static str)],
    [Expect; 4],
);

fn check_read_routes(server: &MsketchServer, conditions: &[Condition]) {
    for (what, extra, expected) in conditions {
        for ((path, base), expect) in READ_ROUTES.iter().zip(expected) {
            let status = match expect {
                Status(status) => *status,
                NoRows => 200,
                NotTaken => continue,
            };
            let mut query: Vec<(&str, &str)> = base
                .iter()
                .filter(|(name, _)| extra.iter().all(|(over, _)| over != name))
                .copied()
                .collect();
            query.extend(extra.iter().copied());
            let response = route(&server.state, &request("GET", path, &query, ""));
            let body = std::str::from_utf8(&response.body).unwrap();
            let doc = serde_json::from_str(body).unwrap();
            assert_eq!(response.status, status, "{path}, {what}: {body}");
            match expect {
                NoRows => assert_eq!(doc.get("rows").unwrap().as_u64(), Some(0), "{body}"),
                Status(503) => assert!(
                    response
                        .headers
                        .iter()
                        .any(|(name, _)| *name == "Retry-After"),
                    "{path}, {what}: {:?}",
                    response.headers
                ),
                _ => assert!(doc.get("error").is_some(), "{path}, {what}: {body}"),
            }
        }
    }
}

#[test]
fn malformed_requests_get_specific_4xx() {
    let server = test_server();
    ingest_demo_rows(&server, 400);
    server.refresh().unwrap();
    check_read_routes(
        &server,
        &[
            (
                "bad q",
                &[("q", "1.5")],
                [Status(400), Status(400), Status(400), NotTaken],
            ),
            (
                "non-numeric q",
                &[("q", "abc")],
                [Status(400), Status(400), Status(400), NotTaken],
            ),
            (
                "bad by",
                &[("by", "host")],
                [NotTaken, Status(400), Status(400), Status(400)],
            ),
            (
                "missing by",
                &[("by", "")],
                [NotTaken, Status(400), Status(400), Status(400)],
            ),
            (
                "NaN threshold",
                &[("t", "nan")],
                [NotTaken, NotTaken, Status(400), NotTaken],
            ),
            ("unknown parameter", &[("bogus", "1")], [Status(400); 4]),
            ("half a range", &[("t0", "60000")], [Status(400); 4]),
            // `/search` answers for the whole snapshot: a filter is
            // rejected, not silently ignored.
            (
                "never-seen filter value",
                &[("app", "nonexistent")],
                [NoRows, NoRows, NoRows, Status(400)],
            ),
        ],
    );
    let (status, doc) = call(&server, &request("GET", "/threshold", &[("by", "app")], ""));
    assert_eq!(status, 400, "missing t: {doc}");
    // Infinite thresholds are exact answers, not errors.
    for (t, hits) in [("inf", 0), ("-inf", 2)] {
        let query = [("by", "app"), ("t", t)];
        let (status, doc) = call(&server, &request("GET", "/threshold", &query, ""));
        assert_eq!(status, 200, "t={t}: {doc}");
        assert_eq!(doc.get("hits").unwrap().as_array().unwrap().len(), hits);
    }

    // An empty cube is the empty selection on every route.
    let empty = test_server();
    check_read_routes(&empty, &[("empty cube", &[], [NoRows; 4])]);
    let (_, doc) = call(&empty, &request("GET", "/search", &[("by", "app")], ""));
    assert!(doc
        .get("subpopulations")
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());

    let cases: Vec<(Request, u16)> = vec![
        (request("GET", "/nope", &[], ""), 404),
        (request("DELETE", "/quantile", &[], ""), 405),
        (request("POST", "/metrics", &[], ""), 405),
        (request("POST", "/ingest", &[], "not json"), 400),
        (request("POST", "/ingest", &[], "{\"metrics\": [1]}"), 400),
        (
            request(
                "POST",
                "/ingest",
                &[],
                "{\"columns\": [[\"a\"]], \"metrics\": [1]}",
            ),
            400,
        ),
        (
            request(
                "POST",
                "/ingest",
                &[],
                "{\"columns\": [[\"a\"],[\"b\",\"c\"]], \"metrics\": [1]}",
            ),
            400,
        ),
        (
            request(
                "POST",
                "/ingest",
                &[],
                "{\"columns\": [[\"a\"],[1]], \"metrics\": [1]}",
            ),
            400,
        ),
    ];
    for (req, expected) in cases {
        let (status, doc) = call(&server, &req);
        assert_eq!(status, expected, "{} {} -> {doc}", req.method, req.path);
        assert!(doc.get("error").is_some(), "{doc}");
    }
}

#[test]
fn shutdown_turns_ingest_into_503_and_is_idempotent() {
    let mut server = test_server();
    ingest_demo_rows(&server, 10);
    server.shutdown();
    server.shutdown();
    let (status, doc) = call(
        &server,
        &request(
            "POST",
            "/ingest",
            &[],
            "{\"columns\": [[\"a\"],[\"b\"]], \"metrics\": [1]}",
        ),
    );
    assert_eq!(status, 503, "{doc}");
    // Reads still work from the last served snapshot.
    let (status, _) = call(&server, &request("GET", "/stats", &[], ""));
    assert_eq!(status, 200);
}

#[test]
fn ingest_never_waits_on_the_engine_lock() {
    // The first `/ingest` of a fresh server takes a pooled writer:
    // start-up filled the pool, so a refresh holding the engine (say,
    // across a slow fsync) does not hold ingest up.
    let server = test_server();
    let (held_tx, held_rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _engine = server.state.lock_engine();
            held_tx.send(()).unwrap();
            std::thread::sleep(Duration::from_millis(500));
        });
        held_rx.recv().unwrap();
        let started = Instant::now();
        let body = "{\"columns\": [[\"a\"],[\"b\"]], \"metrics\": [1]}";
        let (status, doc) = call(&server, &request("POST", "/ingest", &[], body));
        let elapsed = started.elapsed();
        assert_eq!(status, 200, "{doc}");
        assert!(
            elapsed < Duration::from_millis(200),
            "ingest waited {elapsed:?} on the engine lock"
        );
    });
}

#[test]
fn deferred_snapshot_reads_are_503_with_retry_after_until_refresh() {
    let server = MsketchServer::start(
        SketchSpec::moments(8),
        &["app", "region"],
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            refresh_interval: Duration::ZERO,
            engine: EngineConfig::with_shards(2).batch_rows(64),
            defer_initial_snapshot: true,
            retry_after_secs: 7,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    assert!(server.current_snapshot().is_none());

    // Every read endpoint refuses to invent an answer and advises when
    // to come back — before it judges any parameter (503 before 400).
    // Only a malformed range is a 400 already: range requests answer
    // from the timeline and need no snapshot. /stats and /health stay
    // answerable (that's the point of a health probe).
    check_read_routes(
        &server,
        &[
            ("no snapshot", &[], [Status(503); 4]),
            ("no snapshot, bad q", &[("q", "1.5")], [Status(503); 4]),
            ("no snapshot, bad by", &[("by", "host")], [Status(503); 4]),
            (
                "no snapshot, unknown parameter",
                &[("bogus", "1")],
                [Status(503); 4],
            ),
            (
                "no snapshot, never-seen filter value",
                &[("app", "nonexistent")],
                [Status(503); 4],
            ),
            (
                "no snapshot, half a range",
                &[("t0", "60000")],
                [Status(400), Status(400), Status(400), Status(503)],
            ),
        ],
    );
    let response = route(&server.state, &request("GET", "/search", &[], ""));
    assert!(response
        .headers
        .iter()
        .any(|(name, value)| *name == "Retry-After" && value == "7"));
    let (status, doc) = call(&server, &request("GET", "/stats", &[], ""));
    assert_eq!(status, 200);
    assert!(matches!(doc.get("snapshot_epoch"), Some(Value::Null)));
    // With nothing served yet, every engine epoch is unserved lag.
    assert_eq!(doc.get("epoch_lag").unwrap().as_u64(), Some(0));

    let response = route(&server.state, &request("GET", "/health", &[], ""));
    assert_eq!(response.status, 503);
    let doc = serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
    assert_eq!(doc.get("live").unwrap().as_bool(), Some(true));
    assert_eq!(doc.get("ready").unwrap().as_bool(), Some(false));

    // The first refresh makes the server ready.
    ingest_demo_rows(&server, 100);
    server.refresh().unwrap();
    let (status, doc) = call(&server, &request("GET", "/quantile", &[], ""));
    assert_eq!(status, 200, "{doc}");
    assert_eq!(doc.get("count").unwrap().as_f64(), Some(100.0));
    let (status, doc) = call(&server, &request("GET", "/health", &[], ""));
    assert_eq!(status, 200, "{doc}");
    assert_eq!(doc.get("ready").unwrap().as_bool(), Some(true));
}

#[test]
fn health_reports_not_ready_after_shutdown() {
    let mut server = test_server();
    let (status, doc) = call(&server, &request("GET", "/health", &[], ""));
    assert_eq!(status, 200, "{doc}");
    assert_eq!(doc.get("ready").unwrap().as_bool(), Some(true));
    assert_eq!(doc.get("wal_attached").unwrap().as_bool(), Some(false));
    server.shutdown();
    let (status, doc) = call(&server, &request("GET", "/health", &[], ""));
    assert_eq!(status, 503, "{doc}");
    assert_eq!(doc.get("live").unwrap().as_bool(), Some(true));
    assert_eq!(doc.get("shut_down").unwrap().as_bool(), Some(true));
}

#[test]
fn expired_deadline_degrades_quantiles_to_bound_midpoints() {
    let _failpoints = failpoint::scope();
    let server = MsketchServer::start(
        SketchSpec::moments(8),
        &["app", "region"],
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            refresh_interval: Duration::ZERO,
            engine: EngineConfig::with_shards(2).batch_rows(64),
            quantile_deadline: Duration::from_millis(1),
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    ingest_demo_rows(&server, 2000);
    server.refresh().unwrap();

    // Under budget: the max-entropy fast path, not degraded.
    let (status, doc) = call(&server, &request("GET", "/quantile", &[("q", "0.5")], ""));
    assert_eq!(status, 200, "{doc}");
    assert_eq!(doc.get("degraded").unwrap().as_bool(), Some(false));

    // Burn the budget before estimation starts: the response still
    // answers (merge is never skipped) but switches to the closed-form
    // moment-bound midpoint and says so.
    failpoint::cfg("server::quantile_slow", "sleep(25)").unwrap();
    let (status, doc) = call(&server, &request("GET", "/quantile", &[("q", "0.5")], ""));
    assert_eq!(status, 200, "{doc}");
    assert_eq!(doc.get("degraded").unwrap().as_bool(), Some(true));
    assert_eq!(doc.get("count").unwrap().as_f64(), Some(2000.0));
    assert_eq!(doc.get("cells_merged").unwrap().as_i64(), Some(4));

    // Bit-exact with the interval midpoint computed in process.
    let snap = server.current_snapshot().expect("snapshot");
    let merged = snap.cube().rollup(&snap.no_filter()).unwrap();
    let interval = quantile_interval(merged.as_moments().unwrap(), 0.5, 60);
    let expected = 0.5 * (interval.lo + interval.hi);
    let served = doc.get("values").unwrap().at(0).unwrap().as_f64().unwrap();
    assert_eq!(served.to_bits(), expected.to_bits());
    // The midpoint is a real estimate: inside the data range.
    assert!((0.0..=999.0).contains(&served), "served {served}");

    let (_, doc) = call(&server, &request("GET", "/stats", &[], ""));
    assert_eq!(doc.get("degraded_served").unwrap().as_u64(), Some(1));
}

// ---- timeline (PR 8): range queries over persisted rollup segments ----

const MIN_MS: u64 = 60_000;

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("msketch-server-timeline-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn timeline_server(dir: &std::path::Path) -> MsketchServer {
    timeline_server_with(SketchSpec::moments(8), dir)
}

fn timeline_server_with(spec: SketchSpec, dir: &std::path::Path) -> MsketchServer {
    MsketchServer::start(
        spec,
        &["app", "region"],
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            refresh_interval: Duration::ZERO,
            engine: EngineConfig::with_shards(2).batch_rows(8),
            timeline_dir: Some(dir.to_path_buf()),
            bucket_ms: MIN_MS,
            fsync: FsyncPolicy::Never,
            ..ServerConfig::default()
        },
    )
    .expect("start timeline server")
}

/// A `(app, region, metric, ts)` ingest row for the timeline tests.
type StampedRow = (&'static str, &'static str, f64, u64);

/// An `/ingest` body with an explicit `ts` column.
fn stamped_body(rows: &[StampedRow]) -> String {
    let join = |f: &dyn Fn(&StampedRow) -> String| rows.iter().map(f).collect::<Vec<_>>().join(",");
    format!(
        "{{\"columns\": [[{}],[{}]], \"metrics\": [{}], \"ts\": [{}]}}",
        join(&|r| format!("{:?}", r.0)),
        join(&|r| format!("{:?}", r.1)),
        join(&|r| format!("{}", r.2)),
        join(&|r| format!("{}", r.3)),
    )
}

/// Six rows per minute bucket over buckets `[60s, 300s)`; non-positive
/// integer metrics keep every moment sum exactly representable, so
/// folds are bit-exact under any merge order.
fn stamped_demo_rows() -> Vec<StampedRow> {
    (0..24u64)
        .map(|i| {
            (
                if i % 3 == 0 { "slow" } else { "fast" },
                if i % 2 == 0 { "eu" } else { "us" },
                -((i % 5) as f64),
                MIN_MS + i * 10_000,
            )
        })
        .collect()
}

#[test]
fn timeline_range_queries_answer_from_segments() {
    // A second backend rides the same range plumbing: HTTP equals the
    // in-process estimate over the same range cube, bit for bit.
    let dir = fresh_dir("range-tdigest");
    let server = timeline_server_with(SketchSpec::tdigest(5.0), &dir);
    let body = stamped_body(&stamped_demo_rows());
    let (status, doc) = call(&server, &request("POST", "/ingest", &[], &body));
    assert_eq!(status, 200, "{doc}");
    server.refresh().unwrap();
    let range = [("q", "0.1,0.5,0.9"), ("t0", "60000"), ("t1", "300000")];
    let (status, ranged) = call(&server, &request("GET", "/quantile", &range, ""));
    assert_eq!(status, 200, "{ranged}");
    let timeline = server.state.lock_timeline().unwrap();
    let cover = timeline.range_cube(60_000, 300_000).unwrap().unwrap();
    drop(timeline);
    let expected =
        QueryEngine::quantiles(&cover.cube, &cover.cube.no_filter(), &[0.1, 0.5, 0.9]).unwrap();
    let served = ranged.get("values").unwrap().as_array().unwrap();
    assert_eq!(served.len(), 3);
    for (value, expect) in served.iter().zip(&expected.values) {
        assert_eq!(value.as_f64().unwrap().to_bits(), expect.to_bits());
    }
    drop(server);

    let dir = fresh_dir("range");
    let server = timeline_server(&dir);
    let (status, doc) = call(&server, &request("POST", "/ingest", &[], &body));
    assert_eq!(status, 200, "{doc}");
    server.refresh().unwrap();

    // The full range answers from persisted segments and agrees bit
    // for bit with the snapshot over the same rows.
    let (status, ranged) = call(&server, &request("GET", "/quantile", &range, ""));
    assert_eq!(status, 200, "{ranged}");
    assert_eq!(ranged.get("rows").unwrap().as_u64(), Some(24));
    assert_eq!(ranged.get("t0").unwrap().as_u64(), Some(60_000));
    assert_eq!(ranged.get("t1").unwrap().as_u64(), Some(300_000));
    assert!(ranged.get("segments").unwrap().as_u64().unwrap() >= 1);
    let (status, snap) = call(
        &server,
        &request("GET", "/quantile", &[("q", "0.1,0.5,0.9")], ""),
    );
    assert_eq!(status, 200, "{snap}");
    let ranged_values = ranged.get("values").unwrap().as_array().unwrap();
    let snap_values = snap.get("values").unwrap().as_array().unwrap();
    assert_eq!(ranged_values.len(), 3);
    for (r, s) in ranged_values.iter().zip(snap_values) {
        assert_eq!(r.as_f64().unwrap().to_bits(), s.as_f64().unwrap().to_bits());
    }

    // A partial range reads exactly its one bucket's segment.
    let (status, part) = call(
        &server,
        &request("GET", "/quantile", &[("t0", "60000"), ("t1", "120000")], ""),
    );
    assert_eq!(status, 200, "{part}");
    assert_eq!(part.get("rows").unwrap().as_u64(), Some(6));
    assert_eq!(part.get("segments").unwrap().as_u64(), Some(1));

    // Group-by and threshold ride the same range plumbing (filters
    // included: dictionaries come from the merged range cube).
    let (status, grouped) = call(
        &server,
        &request(
            "GET",
            "/groupby",
            &[("by", "app"), ("t0", "60000"), ("t1", "300000")],
            "",
        ),
    );
    assert_eq!(status, 200, "{grouped}");
    assert_eq!(grouped.get("groups").unwrap().as_array().unwrap().len(), 2);
    let (status, thresh) = call(
        &server,
        &request(
            "GET",
            "/threshold",
            &[
                ("by", "app"),
                ("q", "0.9"),
                ("t", "-3.5"),
                ("t0", "60000"),
                ("t1", "300000"),
            ],
            "",
        ),
    );
    assert_eq!(status, 200, "{thresh}");
    assert_eq!(thresh.get("groups").unwrap().as_u64(), Some(2));

    // A range no segment covers answers cleanly: zero rows, no error.
    let (status, empty) = call(
        &server,
        &request(
            "GET",
            "/quantile",
            &[("t0", "9000000000000"), ("t1", "9000000060000")],
            "",
        ),
    );
    assert_eq!(status, 200, "{empty}");
    assert_eq!(empty.get("rows").unwrap().as_u64(), Some(0));
    assert_eq!(empty.get("segments").unwrap().as_u64(), Some(0));
    assert!(empty.get("values").unwrap().as_array().unwrap().is_empty());

    // Unaligned, it reports the bounds snapped outward to bucket edges
    // — the pair a busy window would report for the same request.
    let (status, quiet) = call(
        &server,
        &request(
            "GET",
            "/quantile",
            &[("t0", "9000000000001"), ("t1", "9000000059999")],
            "",
        ),
    );
    assert_eq!(status, 200, "{quiet}");
    assert_eq!(quiet.get("rows").unwrap().as_u64(), Some(0));
    assert_eq!(quiet.get("t0").unwrap().as_u64(), Some(9_000_000_000_000));
    assert_eq!(quiet.get("t1").unwrap().as_u64(), Some(9_000_000_060_000));
}

#[test]
fn range_reads_use_intermediate_rollups_and_trace_what_they_cost() {
    let dir = fresh_dir("ladder");
    let server = timeline_server(&dir);
    // Two rows in each of the first ten minute buckets.
    let rows: Vec<StampedRow> = (0..20u64)
        .map(|i| ("fast", "eu", -((i % 5) as f64), i * MIN_MS / 2))
        .collect();
    let (status, doc) = call(
        &server,
        &request("POST", "/ingest", &[], &stamped_body(&rows)),
    );
    assert_eq!(status, 200, "{doc}");
    server.refresh().unwrap();

    // The server runs `TimelineConfig::default()`: hours and days seal,
    // and 5-minute, 20-minute and 6-hour rollups are written with them.
    let (_, stats) = call(&server, &request("GET", "/stats", &[], ""));
    let levels = stats.get("timeline").unwrap().get("segment_levels");
    assert_eq!(levels.unwrap().to_string(), "[10,2,1,1,1,1]");
    // Ten minutes are two 5-minute segments, not ten buckets.
    let range = [("t0", "0"), ("t1", "600000")];
    let (status, ranged) = call(&server, &request("GET", "/quantile", &range, ""));
    assert_eq!(status, 200, "{ranged}");
    assert_eq!(ranged.get("rows").unwrap().as_u64(), Some(20));
    assert_eq!(ranged.get("segments").unwrap().as_u64(), Some(2));

    // The merge span says where its time went: segments and cells
    // merged, and how much of it was loading what the cache missed.
    let (_, trace) = call(&server, &request("GET", "/trace", &[("last", "4")], ""));
    let traces = trace.get("traces").unwrap().as_array().unwrap();
    let mut spans = traces
        .iter()
        .flat_map(|t| t.get("spans").unwrap().as_array().unwrap());
    let merge = spans
        .rfind(|s| s.get("name").unwrap().as_str() == Some("timeline::merge_cover"))
        .unwrap_or_else(|| panic!("no timeline::merge_cover span in {trace}"));
    let field = |name: &str| merge.get("fields").unwrap().get(name).unwrap().as_u64();
    assert_eq!(field("segments"), Some(2));
    assert_eq!(field("cache_hits"), Some(0));
    assert_eq!(field("cells"), Some(2));
    let dur = merge.get("dur_us").unwrap().as_u64().unwrap();
    assert!(field("load_us").unwrap() <= dur, "{merge}");
}

#[test]
fn timeline_range_parameter_validation() {
    let dir = fresh_dir("validation");
    let server = timeline_server(&dir);
    let bad: [&[(&str, &str)]; 4] = [
        &[("t0", "60000")],
        &[("t1", "60000")],
        &[("t0", "x"), ("t1", "60000")],
        &[("t0", "120000"), ("t1", "60000")],
    ];
    for query in bad {
        let (status, doc) = call(&server, &request("GET", "/quantile", query, ""));
        assert_eq!(status, 400, "{query:?}: {doc}");
    }

    // Without a timeline, range params and "ts" stamps are rejected
    // up front instead of silently ignored.
    let plain = test_server();
    let (status, doc) = call(
        &plain,
        &request("GET", "/quantile", &[("t0", "0"), ("t1", "60000")], ""),
    );
    assert_eq!(status, 400, "{doc}");
    let body = "{\"columns\": [[\"a\"],[\"b\"]], \"metrics\": [1], \"ts\": [5]}";
    let (status, doc) = call(&plain, &request("POST", "/ingest", &[], body));
    assert_eq!(status, 400, "{doc}");
    let (_, stats) = call(&plain, &request("GET", "/stats", &[], ""));
    let timeline = stats.get("timeline").unwrap();
    assert_eq!(timeline.get("enabled").unwrap().as_bool(), Some(false));
}

#[test]
fn timeline_survives_restart_bit_exactly() {
    let dir = fresh_dir("reopen");
    let mut server = timeline_server(&dir);
    let body = stamped_body(&stamped_demo_rows());
    let (status, doc) = call(&server, &request("POST", "/ingest", &[], &body));
    assert_eq!(status, 200, "{doc}");
    server.refresh().unwrap();
    let range = [("q", "0.5,0.9"), ("t0", "60000"), ("t1", "300000")];
    let (status, before) = call(&server, &request("GET", "/quantile", &range, ""));
    assert_eq!(status, 200, "{before}");
    server.shutdown();

    // A fresh process over the same directory recovers every segment
    // and serves the same range answer — without waiting for any
    // engine snapshot (range reads never touch the snapshot path).
    let server = timeline_server(&dir);
    let recovery = server.timeline_recovery().expect("recovery report");
    assert!(recovery.segments_loaded >= 4, "{recovery:?}");
    assert_eq!(recovery.corrupt_skipped, 0, "{recovery:?}");
    let (status, after) = call(&server, &request("GET", "/quantile", &range, ""));
    assert_eq!(status, 200, "{after}");
    assert_eq!(
        after.get("rows").unwrap().as_u64(),
        before.get("rows").unwrap().as_u64()
    );
    let before_values = before.get("values").unwrap().as_array().unwrap();
    let after_values = after.get("values").unwrap().as_array().unwrap();
    assert_eq!(before_values.len(), after_values.len());
    for (b, a) in before_values.iter().zip(after_values) {
        assert_eq!(b.as_f64().unwrap().to_bits(), a.as_f64().unwrap().to_bits());
    }
}

#[test]
fn late_rows_drop_after_rollup_and_stats_report_the_timeline() {
    let dir = fresh_dir("late");
    let server = timeline_server(&dir);
    let body = stamped_body(&stamped_demo_rows());
    let (status, doc) = call(&server, &request("POST", "/ingest", &[], &body));
    assert_eq!(status, 200, "{doc}");
    // refresh → maintain: checkpoint the four minute buckets, then
    // roll them up (their hour and day windows closed long ago).
    server.refresh().unwrap();

    // A row stamped into the rolled-up hour is late: the engine still
    // takes it, the timeline drops and reports it.
    let late = stamped_body(&[("fast", "eu", -1.0, 90_000)]);
    let (status, doc) = call(&server, &request("POST", "/ingest", &[], &late));
    assert_eq!(status, 200, "{doc}");
    assert_eq!(doc.get("accepted").unwrap().as_u64(), Some(1));
    assert_eq!(doc.get("late_dropped").unwrap().as_u64(), Some(1));

    // One two-bucket range read cold, then the same one warm.
    let range = [("t0", "60000"), ("t1", "180000")];
    let (_, cold) = call(&server, &request("GET", "/quantile", &range, ""));
    let (_, warm) = call(&server, &request("GET", "/quantile", &range, ""));
    assert_eq!(cold.get("segments").unwrap().as_u64(), Some(2));
    assert_eq!(cold.to_string(), warm.to_string());

    let (_, stats) = call(&server, &request("GET", "/stats", &[], ""));
    let timeline = stats.get("timeline").unwrap();
    let cache = timeline.get("segment_cache").unwrap();
    assert_eq!(cache.get("misses").unwrap().as_u64(), Some(2));
    assert_eq!(cache.get("hits").unwrap().as_u64(), Some(2));
    let resident = cache.get("cells").unwrap().as_u64().unwrap();
    assert!(
        (2..=8).contains(&resident),
        "two buckets of 1-4 cells: {cache}"
    );
    assert!(cache.get("capacity_cells").unwrap().as_u64().unwrap() >= resident);
    assert_eq!(timeline.get("enabled").unwrap().as_bool(), Some(true));
    assert_eq!(timeline.get("bucket_ms").unwrap().as_u64(), Some(MIN_MS));
    assert_eq!(timeline.get("rows_ingested").unwrap().as_u64(), Some(24));
    assert_eq!(timeline.get("late_dropped").unwrap().as_u64(), Some(1));
    assert!(timeline.get("segments").unwrap().as_u64().unwrap() >= 5);
    assert!(timeline.get("rollups_written").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(timeline.get("errors").unwrap().as_u64(), Some(0));
}

#[test]
fn a_row_the_timeline_cannot_stamp_is_reported_not_a_500() {
    // 100 ms buckets: the first sealing level (60 buckets) is a 6 s
    // window. A bucket that closed 100-200 ms ago is persisted by the
    // refresh but not sealed, so a late row for it reloads its segment.
    let dir = fresh_dir("unloadable-bucket");
    let server = MsketchServer::start(
        SketchSpec::moments(8),
        &["app", "region"],
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            refresh_interval: Duration::ZERO,
            engine: EngineConfig::with_shards(2).batch_rows(8),
            timeline_dir: Some(dir.clone()),
            bucket_ms: 100,
            fsync: FsyncPolicy::Never,
            ..ServerConfig::default()
        },
    )
    .expect("start timeline server");
    while !(1_000..4_000).contains(&(now_ms() % 6_000)) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let closed = (now_ms() / 100 - 2) * 100;
    let body = stamped_body(&[("fast", "eu", -1.0, closed)]);
    let (status, doc) = call(&server, &request("POST", "/ingest", &[], &body));
    assert_eq!(status, 200, "{doc}");
    server.refresh().unwrap();

    // Corrupt the bucket's segment, then post one late row into it and
    // one row stamped now.
    let segment = dir.join(format!("seg-L0-{closed}-{}.seg", closed + 100));
    let mut bytes = std::fs::read(&segment).expect("the refresh wrote the bucket");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&segment, bytes).unwrap();
    let body = stamped_body(&[
        ("fast", "eu", -2.0, closed + 50),
        ("slow", "us", -3.0, now_ms()),
    ]);
    let (status, doc) = call(&server, &request("POST", "/ingest", &[], &body));

    // The engine holds both rows, so the answer is 200 and says which
    // row the timeline could not stamp; a retry would double-count.
    assert_eq!(status, 200, "{doc}");
    assert_eq!(doc.get("accepted").unwrap().as_u64(), Some(2));
    assert_eq!(doc.get("late_dropped").unwrap().as_u64(), Some(0));
    assert_eq!(doc.get("timeline_failed").unwrap().as_u64(), Some(1));
    let (_, stats) = call(&server, &request("GET", "/stats", &[], ""));
    let timeline = stats.get("timeline").unwrap();
    assert_eq!(timeline.get("rows_ingested").unwrap().as_u64(), Some(2));
    assert_eq!(timeline.get("errors").unwrap().as_u64(), Some(1));
    let events = server.obs().trace.recent_events(100);
    assert!(
        events.iter().any(|e| e.name == "server::timeline_error"),
        "no warn event for the unstamped row"
    );
    server.refresh().unwrap();
    let (_, doc) = call(&server, &request("GET", "/quantile", &[], ""));
    assert_eq!(doc.get("count").unwrap().as_f64(), Some(3.0), "{doc}");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_idle_server_keeps_maintaining_its_timeline() {
    // 10 ms buckets: the first sealing level (60 buckets) is a 600 ms
    // window. Rows land early in one, the refresh after them runs
    // before it closes, and then no row arrives again: only
    // maintenance on idle refresher ticks can close the bucket and roll
    // the window up.
    let dir = fresh_dir("idle-maintenance");
    let server = MsketchServer::start(
        SketchSpec::moments(8),
        &["app", "region"],
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            refresh_interval: Duration::from_millis(20),
            engine: EngineConfig::with_shards(2).batch_rows(8),
            timeline_dir: Some(dir.clone()),
            bucket_ms: 10,
            fsync: FsyncPolicy::Never,
            ..ServerConfig::default()
        },
    )
    .expect("start timeline server");
    while now_ms() % 600 > 300 {
        std::thread::sleep(Duration::from_millis(5));
    }
    ingest_demo_rows(&server, 40);
    let timeline = |server: &MsketchServer| {
        let (status, doc) = call(server, &request("GET", "/stats", &[], ""));
        assert_eq!(status, 200, "{doc}");
        let read = |field: &str| doc.get("timeline").and_then(|t| t.get(field)?.as_u64());
        (read("open_buckets"), read("rollups_written"))
    };
    // Idle past the window's end, with slack for a slow machine.
    std::thread::sleep(Duration::from_millis(700));
    let deadline = Instant::now() + Duration::from_secs(3);
    let (mut open, mut rollups) = timeline(&server);
    while (open != Some(0) || rollups == Some(0)) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        (open, rollups) = timeline(&server);
    }
    assert_eq!(open, Some(0), "the idle server left a bucket open");
    assert!(
        rollups.is_some_and(|n| n > 0),
        "the idle server never rolled its window up: {rollups:?}"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
