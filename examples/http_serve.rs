//! The serving layer end to end: start the HTTP server, stream 120k
//! rows of telemetry *over HTTP*, rotate a snapshot, and answer
//! quantile / group-by / threshold queries over the wire — asserting
//! every served number equals the in-process answer on the same
//! snapshot **bit for bit** (shortest-round-trip float formatting in
//! the JSON layer makes the HTTP hop lossless).
//!
//! Run with: `cargo run --release --example http_serve`

use msketch::prelude::*;
use msketch::server::{client, json};

const ROWS: usize = 120_000;
const BATCH: usize = 10_000;

fn row(i: usize) -> (&'static str, &'static str, f64) {
    let app = ["checkout", "search", "feed", "auth"][i % 4];
    let region = ["us-east", "eu-west", "ap-south"][(i / 4) % 3];
    let base = (i % 180) as f64 + 5.0;
    // The checkout app in ap-south develops a latency tail.
    let metric = if app == "checkout" && region == "ap-south" && i % 5 < 2 {
        base + 900.0
    } else {
        base
    };
    (app, region, metric)
}

fn main() {
    // A moments:10-backed engine served over HTTP. Background refresh is
    // disabled so the snapshot under test is pinned (production would
    // set a cadence like 500ms).
    let mut server = MsketchServer::start(
        SketchSpec::parse("moments:10").unwrap(),
        &["app", "region"],
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            refresh_interval: std::time::Duration::ZERO,
            engine: EngineConfig::with_shards(4).batch_rows(4096),
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();
    println!("serving on http://{addr}");

    // ── Ingest 120k rows over HTTP, columnar batches on one keep-alive
    // connection.
    let mut conn = client::Conn::connect(addr).expect("connect");
    for batch in 0..ROWS / BATCH {
        let mut apps = Vec::with_capacity(BATCH);
        let mut regions = Vec::with_capacity(BATCH);
        let mut metrics = Vec::with_capacity(BATCH);
        for i in 0..BATCH {
            let (app, region, metric) = row(batch * BATCH + i);
            apps.push(app);
            regions.push(region);
            metrics.push(metric);
        }
        let body = json::Value::object(vec![
            (
                "columns",
                json::Value::Array(vec![json::Value::array(apps), json::Value::array(regions)]),
            ),
            ("metrics", json::Value::array(metrics)),
        ]);
        let (status, reply) = conn.post("/ingest", &body.to_string()).expect("ingest");
        assert_eq!(status, 200, "{reply}");
    }
    let (status, reply) = conn.post("/refresh", "").expect("refresh");
    assert_eq!(status, 200);
    let epoch = json::from_str(&reply)
        .unwrap()
        .get("epoch")
        .unwrap()
        .as_u64()
        .unwrap();
    println!("ingested {ROWS} rows over HTTP; snapshot epoch {epoch}");

    // The in-process ground truth: the very snapshot the server now
    // answers from.
    let snap = server.current_snapshot().expect("snapshot");
    assert_eq!(snap.epoch(), epoch);
    assert_eq!(snap.row_count() as usize, ROWS);

    // ── /quantile: global and filtered, bit-exact vs the same rollup.
    let phis = [0.5, 0.9, 0.99];
    let (status, reply) = conn.get("/quantile?q=0.5,0.9,0.99").expect("quantile");
    assert_eq!(status, 200, "{reply}");
    let doc = json::from_str(&reply).unwrap();
    let expected = QueryEngine::quantiles(snap.cube(), &snap.no_filter(), &phis).unwrap();
    for (served, expect) in doc
        .get("values")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .zip(&expected.values)
    {
        assert_eq!(served.as_f64().unwrap().to_bits(), expect.to_bits());
    }
    println!(
        "GET /quantile         p50={} p90={} p99={} (bit-exact vs in-process)",
        expected.values[0], expected.values[1], expected.values[2]
    );

    let (status, reply) = conn
        .get("/quantile?q=0.99&app=checkout&region=ap-south")
        .expect("filtered quantile");
    assert_eq!(status, 200, "{reply}");
    let doc = json::from_str(&reply).unwrap();
    let mut filter = snap.no_filter();
    filter[0] = snap.dictionary(0).unwrap().lookup("checkout");
    filter[1] = snap.dictionary(1).unwrap().lookup("ap-south");
    let expected = QueryEngine::quantiles(snap.cube(), &filter, &[0.99]).unwrap();
    let served = doc.get("values").unwrap().at(0).unwrap().as_f64().unwrap();
    assert_eq!(served.to_bits(), expected.values[0].to_bits());
    assert_eq!(doc.get("count").unwrap().as_f64(), Some(expected.count));
    println!(
        "GET /quantile (filtered checkout@ap-south) p99={served} over {} rows",
        expected.count
    );

    // ── /groupby: per-app quantiles, bit-exact per group.
    let (status, reply) = conn.get("/groupby?by=app&q=0.5,0.99").expect("groupby");
    assert_eq!(status, 200, "{reply}");
    let doc = json::from_str(&reply).unwrap();
    let expected =
        QueryEngine::group_quantiles_decoded(snap.cube(), &[0], &snap.no_filter(), &[0.5, 0.99])
            .unwrap();
    let groups = doc.get("groups").unwrap().as_array().unwrap();
    assert_eq!(groups.len(), expected.len());
    for (group, expect) in groups.iter().zip(&expected) {
        assert_eq!(
            group.get("key").unwrap().at(0).unwrap().as_str().unwrap(),
            expect.key[0]
        );
        assert_eq!(group.get("count").unwrap().as_f64(), Some(expect.count));
        for (served, value) in group
            .get("values")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .zip(&expect.values)
        {
            assert_eq!(served.as_f64().unwrap().to_bits(), value.to_bits());
        }
    }
    println!(
        "GET /groupby          {} groups, all values bit-exact",
        groups.len()
    );

    // ── /threshold: the HAVING cascade, identical hits to run_cube_decoded on
    // the same snapshot.
    let (status, reply) = conn
        .get("/threshold?by=app,region&q=0.9&t=500")
        .expect("threshold");
    assert_eq!(status, 200, "{reply}");
    let doc = json::from_str(&reply).unwrap();
    let expected = GroupThresholdQuery::new(0.9, 500.0)
        .run_cube_decoded(snap.cube(), &[0, 1], &snap.no_filter())
        .unwrap();
    let hits: Vec<Vec<String>> = doc
        .get("hits")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|hit| {
            hit.as_array()
                .unwrap()
                .iter()
                .map(|v| v.as_str().unwrap().to_string())
                .collect()
        })
        .collect();
    assert_eq!(hits, expected.hits);
    assert_eq!(hits, [["checkout", "ap-south"]]);
    assert_eq!(
        doc.get("stats").unwrap().get("total").unwrap().as_u64(),
        Some(expected.stats.total)
    );
    println!(
        "GET /threshold        HAVING p90>500 flagged {:?} ({} of {} groups reached maxent)",
        hits[0].join("@"),
        expected.stats.maxent_evals,
        expected.stats.total
    );

    // ── /stats: serving counters.
    let (status, reply) = conn.get("/stats").expect("stats");
    assert_eq!(status, 200);
    let doc = json::from_str(&reply).unwrap();
    assert_eq!(
        doc.get("snapshot_rows").unwrap().as_u64(),
        Some(ROWS as u64)
    );
    assert_eq!(doc.get("epoch_lag").unwrap().as_u64(), Some(0));
    println!("GET /stats            {reply}");

    server.shutdown();
    println!("server shut down cleanly (HTTP pool + shard workers joined)");
}
