//! Fault-injection over real sockets: admission-queue shedding,
//! not-ready 503s, deadline-degraded quantiles, WAL crash recovery
//! through a server restart, a graceful shutdown that logs what it
//! acknowledged, a stalled fsync and a stalled range read
//! that must not stall ingest, and refresher/shutdown races — the
//! server-level half of the deterministic fault harness.
//!
//! Failpoints are process-global, so every test here — armed or not,
//! each starts a server a neighbour's fault could reach — runs inside
//! a [`failpoint::scope`], which also disarms whatever the test armed.

use msketch_engine::EngineConfig;
use msketch_server::{MsketchServer, ServerConfig};
use msketch_sketches::SketchSpec;
use std::time::Duration;
use tiny_http::client;

/// An ingest body over the single `app` dimension.
fn ingest_body(rows: std::ops::Range<u64>) -> String {
    let mut apps = Vec::new();
    let mut metrics = Vec::new();
    for i in rows {
        apps.push(format!("{:?}", ["a", "b"][(i % 2) as usize]));
        metrics.push(format!("{}", i as f64));
    }
    format!(
        "{{\"columns\": [[{}]], \"metrics\": [{}]}}",
        apps.join(","),
        metrics.join(",")
    )
}

fn start(config: ServerConfig) -> MsketchServer {
    MsketchServer::start(SketchSpec::moments(8), &["app"], config).expect("start server")
}

fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

#[test]
fn full_admission_queue_sheds_quantile_requests_with_429() {
    let _failpoints = failpoint::scope();
    // One worker, one queue slot: pin the worker on a slow /quantile
    // (the failpoint stays armed — no count — so every evaluation
    // sleeps), park one connection in the queue, and the third must
    // be shed at accept time.
    let mut server = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        queue_cap: 1,
        retry_after_secs: 5,
        refresh_interval: Duration::from_secs(3600),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    client::post(addr, "/ingest", &ingest_body(0..100)).unwrap();
    server.refresh().unwrap();

    failpoint::cfg("server::quantile_slow", "sleep(600)").unwrap();
    let mut pin = client::Conn::connect(addr).unwrap();
    let pinner = std::thread::spawn(move || pin.get("/quantile?q=0.5"));
    // Let the worker dequeue the pinned connection, then occupy the
    // single queue slot with an idle keep-alive connection.
    std::thread::sleep(Duration::from_millis(150));
    let _queued = client::Conn::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let (status, headers, body) = client::get_full(addr, "/quantile?q=0.5").unwrap();
    assert_eq!(status, 429, "{body}");
    assert_eq!(header(&headers, "retry-after"), Some("5"), "{body}");

    // The pinned request was delayed, not dropped.
    let (status, body) = pinner.join().unwrap().unwrap();
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

#[test]
fn reads_are_503_with_retry_after_until_the_first_snapshot() {
    let _failpoints = failpoint::scope();
    let mut server = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        defer_initial_snapshot: true,
        retry_after_secs: 9,
        refresh_interval: Duration::from_secs(3600),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Every read path sheds politely while there is nothing to serve.
    for path in [
        "/quantile?q=0.5",
        "/groupby?dim=app&q=0.5",
        "/threshold?q=0.9&t=1",
        "/search?q=0.9&t=1",
    ] {
        let (status, headers, body) = client::get_full(addr, path).unwrap();
        assert_eq!(status, 503, "{path}: {body}");
        assert_eq!(header(&headers, "retry-after"), Some("9"), "{path}");
    }
    let (status, body) = client::get(addr, "/health").unwrap();
    assert_eq!(status, 503, "{body}");
    let doc = serde_json::from_str(&body).unwrap();
    assert_eq!(doc.get("live").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(doc.get("ready").and_then(|v| v.as_bool()), Some(false));

    // Ingest works without a snapshot; once a refresh lands, every
    // read path opens up.
    let (status, body) = client::post(addr, "/ingest", &ingest_body(0..100)).unwrap();
    assert_eq!(status, 200, "{body}");
    server.refresh().unwrap();
    let (status, body) = client::get(addr, "/quantile?q=0.5").unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = serde_json::from_str(&body).unwrap();
    assert_eq!(doc.get("count").and_then(|v| v.as_f64()), Some(100.0));
    let (status, _) = client::get(addr, "/health").unwrap();
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn expired_deadline_serves_degraded_quantiles_over_http() {
    let _failpoints = failpoint::scope();
    let mut server = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        quantile_deadline: Duration::from_millis(1),
        refresh_interval: Duration::from_secs(3600),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    client::post(addr, "/ingest", &ingest_body(0..1000)).unwrap();
    server.refresh().unwrap();

    // Fast requests are exact.
    let (status, body) = client::get(addr, "/quantile?q=0.5").unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = serde_json::from_str(&body).unwrap();
    assert_eq!(doc.get("degraded").and_then(|v| v.as_bool()), Some(false));

    // A request that blows the deadline still answers — from the
    // moment bounds — and says so.
    failpoint::cfg("server::quantile_slow", "1*sleep(25)").unwrap();
    let (status, body) = client::get(addr, "/quantile?q=0.5").unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = serde_json::from_str(&body).unwrap();
    assert_eq!(
        doc.get("degraded").and_then(|v| v.as_bool()),
        Some(true),
        "{body}"
    );
    let value = doc.get("values").and_then(|v| v.as_array()).unwrap()[0]
        .as_f64()
        .unwrap();
    assert!((0.0..=999.0).contains(&value), "degraded median {value}");

    let (_, body) = client::get(addr, "/stats").unwrap();
    let doc = serde_json::from_str(&body).unwrap();
    assert_eq!(doc.get("degraded_served").and_then(|v| v.as_u64()), Some(1));
    server.shutdown();
}

#[test]
fn wal_recovery_restores_served_answers_bit_exactly() {
    let _failpoints = failpoint::scope();
    let dir = std::env::temp_dir().join("msketch-server-fault-walrt");
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        refresh_interval: Duration::from_secs(3600),
        wal_dir: Some(dir.clone()),
        engine: EngineConfig::with_shards(2).batch_rows(128),
        ..ServerConfig::default()
    };

    // First life: ingest, refresh (= durable checkpoint when a WAL is
    // attached), record the served answers, go down.
    let mut server = start(config());
    let addr = server.local_addr();
    let (status, body) = client::post(addr, "/ingest", &ingest_body(0..600)).unwrap();
    assert_eq!(status, 200, "{body}");
    server.refresh().unwrap();
    let (status, body) = client::get(addr, "/quantile?q=0.1,0.5,0.9").unwrap();
    assert_eq!(status, 200, "{body}");
    let before = serde_json::from_str(&body).unwrap();
    server.shutdown();

    // Second life: replay the log and serve the same bits without a
    // single row re-ingested.
    let mut server = start(config());
    let report = server.recovery_report().expect("recovery report");
    assert_eq!(report.rows_recovered, 600);
    assert!(report.segments_replayed >= 1);
    let (status, body) = client::get(server.local_addr(), "/quantile?q=0.1,0.5,0.9").unwrap();
    assert_eq!(status, 200, "{body}");
    let after = serde_json::from_str(&body).unwrap();
    assert_eq!(after.get("count").and_then(|v| v.as_f64()), Some(600.0));
    let bits = |doc: &serde_json::Value| -> Vec<u64> {
        doc.get("values")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap().to_bits())
            .collect()
    };
    assert_eq!(bits(&before), bits(&after), "{body}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_graceful_shutdown_logs_rows_acknowledged_since_the_last_refresh() {
    let _failpoints = failpoint::scope();
    let dir = std::env::temp_dir().join("msketch-server-fault-graceful");
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        refresh_interval: Duration::from_secs(3600),
        wal_dir: Some(dir.clone()),
        engine: EngineConfig::with_shards(2).batch_rows(128),
        ..ServerConfig::default()
    };

    // Rows acknowledged, then a shutdown with no refresh in between:
    // the shutdown's own checkpoint must log them.
    let mut server = start(config());
    let (status, body) =
        client::post(server.local_addr(), "/ingest", &ingest_body(0..600)).unwrap();
    assert_eq!(status, 200, "{body}");
    server.shutdown();

    let mut server = start(config());
    let report = server.recovery_report().expect("recovery report");
    assert_eq!(report.rows_recovered, 600);
    let (status, body) = client::get(server.local_addr(), "/quantile?q=0.5").unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = serde_json::from_str(&body).unwrap();
    assert_eq!(doc.get("count").and_then(|v| v.as_f64()), Some(600.0));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_proceeds_while_a_checkpoint_fsync_stalls() {
    let _failpoints = failpoint::scope();
    let dir = std::env::temp_dir().join("msketch-server-fault-fsync-stall");
    let _ = std::fs::remove_dir_all(&dir);
    let mut server = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        refresh_interval: Duration::from_secs(3600),
        wal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    client::post(addr, "/ingest", &ingest_body(0..300)).unwrap();

    // Pin the checkpoint's WAL sync: the refresh holds the engine lock
    // across this sleep, but ingest takes pooled writers that need no
    // engine lock, so it keeps flowing while the refresh is stuck
    // fsyncing its record.
    failpoint::cfg("engine::wal_fsync", "1*sleep(800)").unwrap();
    let refresh_started = std::time::Instant::now();
    std::thread::scope(|scope| {
        let refresher = scope.spawn(|| server.refresh());
        // Give the refresh time to build its record and enter the
        // sleeping fsync.
        std::thread::sleep(Duration::from_millis(200));
        let ingest_started = std::time::Instant::now();
        let (status, body) = client::post(addr, "/ingest", &ingest_body(300..400)).unwrap();
        let ingest_elapsed = ingest_started.elapsed();
        assert_eq!(status, 200, "{body}");
        assert!(
            ingest_elapsed < Duration::from_millis(400),
            "ingest stalled {ingest_elapsed:?} behind the checkpoint fsync"
        );
        refresher.join().unwrap().unwrap();
    });
    // The refresh really did sit in the armed fsync — the ingest above
    // overlapped it rather than racing past an already-finished one.
    assert!(
        refresh_started.elapsed() >= Duration::from_millis(700),
        "checkpoint finished too fast for the failpoint to have fired"
    );

    // Both batches survive the stalled checkpoint and the next one.
    server.refresh().unwrap();
    let (status, body) = client::get(addr, "/quantile?q=0.5").unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = serde_json::from_str(&body).unwrap();
    assert_eq!(doc.get("count").and_then(|v| v.as_f64()), Some(400.0));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_proceeds_while_a_range_read_stalls() {
    let _failpoints = failpoint::scope();
    let dir = std::env::temp_dir().join("msketch-server-fault-range-stall");
    let _ = std::fs::remove_dir_all(&dir);
    let mut server = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 3,
        refresh_interval: Duration::from_secs(3600),
        timeline_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    // Four one-minute buckets, then (hours later) the bucket the
    // concurrent ingest lands in — open, not under any rollup.
    let stamped = |rows: std::ops::Range<u64>, base: u64| {
        let body = ingest_body(rows.clone());
        let ts: Vec<String> = rows.map(|i| (base + i * 1_000).to_string()).collect();
        format!(
            "{}, \"ts\": [{}]}}",
            body.trim_end_matches('}'),
            ts.join(",")
        )
    };
    let (status, body) = client::post(addr, "/ingest", &stamped(0..240, 60_000)).unwrap();
    assert_eq!(status, 200, "{body}");
    server.refresh().unwrap();

    // Pin the range read's first segment load: it runs after the
    // timeline lock is released, so a stamped ingest (which takes that
    // lock) goes straight through, and so does /stats (which takes none).
    failpoint::cfg("timeline::segment_load", "1*sleep(800)").unwrap();
    let read_started = std::time::Instant::now();
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| client::get(addr, "/quantile?q=0.5&t0=60000&t1=300000"));
        // Give the read time to plan, drop the lock, and park.
        std::thread::sleep(Duration::from_millis(200));
        let others_started = std::time::Instant::now();
        let (status, body) = client::post(addr, "/ingest", &stamped(0..50, 86_400_000)).unwrap();
        assert_eq!(status, 200, "{body}");
        let doc = serde_json::from_str(&body).unwrap();
        assert_eq!(doc.get("late_dropped").and_then(|v| v.as_u64()), Some(0));
        let (status, body) = client::get(addr, "/stats").unwrap();
        assert_eq!(status, 200, "{body}");
        let others_elapsed = others_started.elapsed();
        assert!(
            others_elapsed < Duration::from_millis(400),
            "ingest + stats stalled {others_elapsed:?} behind the range read"
        );
        let (status, body) = reader.join().unwrap().unwrap();
        assert_eq!(status, 200, "{body}");
        let doc = serde_json::from_str(&body).unwrap();
        assert_eq!(doc.get("rows").and_then(|v| v.as_u64()), Some(240));
    });
    // The read really did sit in the armed load — the requests above
    // overlapped it rather than racing past an already-finished one.
    assert!(
        read_started.elapsed() >= Duration::from_millis(700),
        "range read finished too fast for the failpoint to have fired"
    );

    // The same read again is all cache hits, and the exposition says so.
    let (status, body) = client::get(addr, "/quantile?q=0.5&t0=60000&t1=300000").unwrap();
    assert_eq!(status, 200, "{body}");
    let (_, metrics) = client::get(addr, "/metrics").unwrap();
    let series = |name: &str| -> f64 {
        let line = metrics.lines().find(|l| l.starts_with(&format!("{name} ")));
        let line = line.unwrap_or_else(|| panic!("{name} missing from /metrics"));
        line[name.len() + 1..].parse().unwrap()
    };
    assert_eq!(series("msketch_timeline_segment_cache_misses_total"), 4.0);
    assert_eq!(series("msketch_timeline_segment_cache_hits_total"), 4.0);
    assert_eq!(series("msketch_timeline_segment_cache_cells"), 8.0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exposition_answers_while_refresh_and_maintenance_stall() {
    let _failpoints = failpoint::scope();
    let dir = std::env::temp_dir().join("msketch-server-fault-exposition-stall");
    let _ = std::fs::remove_dir_all(&dir);
    let mut server = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        refresh_interval: Duration::from_secs(3600),
        timeline_dir: Some(dir.clone()),
        engine: EngineConfig::with_shards(1),
        // /metrics renders each latency summary with a maxent solve,
        // and a recorder holding two unlike observations is a hard one
        // that alone outlasts the 100 ms this test allows a lock-free
        // route. So every recorder holds at most one when /metrics is
        // scraped: the stalled refresh is the first (no start-up
        // snapshot), and each window below scrapes before it probes.
        defer_initial_snapshot: true,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // One shard sits on the batch below for 400 ms, so the refresh
    // waits that long for its delta *holding the engine mutex*; it then
    // publishes the snapshot, and maintenance sleeps 400 ms in its one
    // segment write *holding the timeline mutex*. A probe, a scrape and
    // /stats must not queue behind either.
    failpoint::cfg("engine::worker_panic", "1*sleep(400)").unwrap();
    failpoint::cfg("timeline::segment_write", "1*sleep(400)").unwrap();
    let (status, body) = client::post(addr, "/ingest", &ingest_body(0..100)).unwrap();
    assert_eq!(status, 200, "{body}");
    let probe_all = |stalled: &str, health: u16| {
        for (path, expected) in [("/metrics", 200), ("/health", health), ("/stats", 200)] {
            let started = std::time::Instant::now();
            let (status, body) = client::get(addr, path).unwrap();
            let elapsed = started.elapsed();
            assert_eq!(status, expected, "{path}: {body}");
            assert!(
                elapsed < Duration::from_millis(100),
                "{path} took {elapsed:?} behind the {stalled} lock"
            );
        }
    };
    let refresh_started = std::time::Instant::now();
    std::thread::scope(|scope| {
        let refresher = scope.spawn(|| server.refresh());
        std::thread::sleep(Duration::from_millis(100));
        probe_all("engine", 503);
        // Into the second stall: the segment write starts when the
        // shard's sleep ends, 400 ms in, and lasts until 800 ms.
        std::thread::sleep(Duration::from_millis(500).saturating_sub(refresh_started.elapsed()));
        probe_all("timeline", 200);
        assert!(
            refresh_started.elapsed() < Duration::from_millis(800),
            "probes ran past the stalls they were meant to overlap"
        );
        refresher.join().unwrap().unwrap();
    });
    // Both stalls really happened, back to back, under the probes.
    assert!(
        refresh_started.elapsed() >= Duration::from_millis(750),
        "refresh finished too fast for both failpoints to have fired"
    );
    assert!(failpoint::list().is_empty(), "{:?}", failpoint::list());

    // And what the lock-free routes report is what the owners counted.
    let (_, body) = client::get(addr, "/stats").unwrap();
    let doc = serde_json::from_str(&body).unwrap();
    assert_eq!(doc.get("snapshot_rows").and_then(|v| v.as_u64()), Some(100));
    let timeline = doc.get("timeline").unwrap();
    assert_eq!(timeline.get("segments").and_then(|v| v.as_u64()), Some(1));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_races_the_refresher_without_hanging() {
    let _failpoints = failpoint::scope();
    // A refresher ticking every millisecond against a WAL-backed
    // engine maximizes the chance that shutdown lands mid-refresh;
    // the refresher must observe the engine going down and exit, not
    // wedge the join or panic the process.
    for round in 0..3 {
        let dir = std::env::temp_dir().join(format!("msketch-server-fault-race-{round}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut server = start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            refresh_interval: Duration::from_millis(1),
            wal_dir: Some(dir.clone()),
            ..ServerConfig::default()
        });
        let addr = server.local_addr();
        client::post(addr, "/ingest", &ingest_body(0..200)).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
