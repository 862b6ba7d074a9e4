//! The observability layer end-to-end over real sockets: `/metrics`
//! serves valid Prometheus text exposition with moment-sketch latency
//! summaries for the hot paths, `/trace` serves a per-stage breakdown
//! for a deterministically-slowed query, and cascade statistics
//! accumulate across queries instead of being recomputed and dropped.
//!
//! The Prometheus validator below is hand-rolled on purpose: the
//! acceptance bar is "a real scraper can ingest this", and the closest
//! thing to that without a dependency is enforcing the text-format
//! grammar (TYPE comments, name charset, label syntax, float values)
//! line by line and failing loudly on anything off-grammar.

use msketch_engine::EngineConfig;
use msketch_server::{MsketchServer, ServerConfig};
use msketch_sketches::SketchSpec;
use std::collections::BTreeMap;
use std::time::Duration;
use tiny_http::client;

fn ingest_body(rows: std::ops::Range<u64>) -> String {
    let mut apps = Vec::new();
    let mut metrics = Vec::new();
    for i in rows {
        apps.push(format!("{:?}", ["a", "b", "c"][(i % 3) as usize]));
        metrics.push(format!("{}", (i % 100) as f64 + 1.0));
    }
    format!(
        "{{\"columns\": [[{}]], \"metrics\": [{}]}}",
        apps.join(","),
        metrics.join(",")
    )
}

// ---------------------------------------------------------------------
// A hand-rolled Prometheus text-format (0.0.4) validator.
// ---------------------------------------------------------------------

/// One parsed sample line.
#[derive(Debug, Clone)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

impl Sample {
    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parse one `name{label="value",…} value` line.
fn parse_sample(line: &str, lineno: usize) -> Result<Sample, String> {
    let err = |what: &str| format!("line {lineno}: {what}: {line:?}");
    let name_end = line
        .find(['{', ' '])
        .ok_or_else(|| err("sample has no value separator"))?;
    let name = &line[..name_end];
    if !valid_metric_name(name) {
        return Err(err("invalid metric name"));
    }
    let mut labels = Vec::new();
    let rest = if line[name_end..].starts_with('{') {
        let mut chars = line[name_end + 1..].char_indices().peekable();
        let body_start = name_end + 1;
        let mut label_start = 0usize;
        let close;
        'outer: loop {
            // Label name up to `=`.
            let eq = loop {
                match chars.next() {
                    Some((i, '=')) => break i,
                    Some((i, '}')) if i == label_start => {
                        // Empty label set `{}` or trailing comma handled
                        // strictly: only legal as the very first char.
                        if label_start == 0 && labels.is_empty() {
                            close = i;
                            break 'outer;
                        }
                        return Err(err("dangling comma in label set"));
                    }
                    Some(_) => continue,
                    None => return Err(err("unterminated label set")),
                }
            };
            let key = &line[body_start + label_start..body_start + eq];
            if !valid_label_name(key) {
                return Err(err("invalid label name"));
            }
            match chars.next() {
                Some((_, '"')) => {}
                _ => return Err(err("label value must be double-quoted")),
            }
            // Quoted value with escapes.
            let mut value = String::new();
            loop {
                match chars.next() {
                    Some((_, '\\')) => match chars.next() {
                        Some((_, '\\')) => value.push('\\'),
                        Some((_, '"')) => value.push('"'),
                        Some((_, 'n')) => value.push('\n'),
                        _ => return Err(err("bad escape in label value")),
                    },
                    Some((_, '"')) => break,
                    Some((_, c)) => value.push(c),
                    None => return Err(err("unterminated label value")),
                }
            }
            labels.push((key.to_string(), value));
            match chars.next() {
                Some((_, ',')) => {
                    label_start = chars.peek().map_or(usize::MAX, |(i, _)| *i);
                }
                Some((i, '}')) => {
                    close = i;
                    break;
                }
                _ => return Err(err("expected `,` or `}` after label value")),
            }
        }
        &line[body_start + close + 1..]
    } else {
        &line[name_end..]
    };
    let value_text = rest
        .strip_prefix(' ')
        .ok_or_else(|| err("exactly one space must separate the series from its value"))?;
    if value_text.is_empty() || value_text.contains(' ') {
        // We never emit timestamps; a second field would be one.
        return Err(err("expected exactly one value field"));
    }
    let value = match value_text {
        "NaN" => f64::NAN,
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v
            .parse::<f64>()
            .map_err(|_| err("value does not parse as a float"))?,
    };
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Validate a whole exposition body: TYPE comments are well-formed and
/// precede their family's samples, every sample line parses, and
/// summary `_sum`/`_count` series trace back to a declared summary.
/// Returns samples keyed by metric name.
fn parse_prometheus(text: &str) -> Result<BTreeMap<String, Vec<Sample>>, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples: BTreeMap<String, Vec<Sample>> = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            return Err(format!("line {lineno}: blank line in exposition"));
        }
        if let Some(comment) = line.strip_prefix("# ") {
            if let Some(decl) = comment.strip_prefix("TYPE ") {
                let mut parts = decl.split(' ');
                let (Some(name), Some(kind), None) = (parts.next(), parts.next(), parts.next())
                else {
                    return Err(format!("line {lineno}: malformed TYPE comment"));
                };
                if !valid_metric_name(name) {
                    return Err(format!("line {lineno}: TYPE names invalid metric"));
                }
                if !["counter", "gauge", "summary", "histogram", "untyped"].contains(&kind) {
                    return Err(format!("line {lineno}: unknown TYPE {kind:?}"));
                }
                if types.insert(name.to_string(), kind.to_string()).is_some() {
                    return Err(format!("line {lineno}: duplicate TYPE for {name}"));
                }
                continue;
            }
            if comment.starts_with("HELP ") {
                continue;
            }
            return Err(format!("line {lineno}: unrecognized comment {line:?}"));
        }
        let sample = parse_sample(line, lineno)?;
        // The family a sample belongs to: summaries export `x_sum` and
        // `x_count` alongside `x{quantile=…}`.
        let family = ["_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                sample
                    .name
                    .strip_suffix(suffix)
                    .filter(|base| types.get(*base).map(String::as_str) == Some("summary"))
            })
            .unwrap_or(sample.name.as_str());
        let Some(kind) = types.get(family) else {
            return Err(format!(
                "line {lineno}: sample {} precedes its TYPE declaration",
                sample.name
            ));
        };
        if kind == "counter" && !(sample.value.is_finite() && sample.value >= 0.0) {
            return Err(format!(
                "line {lineno}: counter {} has non-monotone value {}",
                sample.name, sample.value
            ));
        }
        samples.entry(sample.name.clone()).or_default().push(sample);
    }
    Ok(samples)
}

/// The one series in `family` matching every `(label, value)` filter.
fn find<'s>(
    samples: &'s BTreeMap<String, Vec<Sample>>,
    family: &str,
    filters: &[(&str, &str)],
) -> Option<&'s Sample> {
    samples
        .get(family)?
        .iter()
        .find(|s| filters.iter().all(|(k, v)| s.label(k) == Some(*v)))
}

// ---------------------------------------------------------------------
// /metrics
// ---------------------------------------------------------------------

#[test]
fn metrics_exposition_parses_and_covers_the_hot_paths() {
    let _failpoints = failpoint::scope();
    let dir = std::env::temp_dir().join(format!("msketch-obs-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut server = MsketchServer::start(
        SketchSpec::moments(8),
        &["app"],
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            refresh_interval: Duration::from_secs(3600),
            engine: EngineConfig::with_shards(2).batch_rows(64),
            wal_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();

    // Exercise every path the acceptance bar names: ingest (which also
    // appends+fsyncs the WAL), a refresh, a quantile, and a threshold
    // cascade.
    let (status, body) = client::post(addr, "/ingest", &ingest_body(0..300)).unwrap();
    assert_eq!(status, 200, "{body}");
    server.refresh().expect("refresh");
    let (status, body) = client::get(addr, "/quantile?q=0.5,0.99").unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = client::get(addr, "/threshold?by=app&q=0.9&t=50").unwrap();
    assert_eq!(status, 200, "{body}");

    let (status, headers, text) = client::get_full(addr, "/metrics").unwrap();
    assert_eq!(status, 200, "{text}");
    let content_type = headers
        .iter()
        .find(|(k, _)| k == "content-type")
        .map(|(_, v)| v.as_str());
    assert_eq!(content_type, Some("text/plain; version=0.0.4"));

    let samples = parse_prometheus(&text).unwrap_or_else(|e| {
        panic!("/metrics is not valid Prometheus text format: {e}\n---\n{text}")
    });

    // Latency summaries for each hot path: p50/p95/p99 plus a count
    // proving the observations really landed.
    for route in ["/ingest", "/quantile", "/threshold"] {
        for q in ["0.5", "0.95", "0.99"] {
            let s = find(
                &samples,
                "msketch_request_seconds",
                &[("route", route), ("quantile", q)],
            )
            .unwrap_or_else(|| panic!("missing msketch_request_seconds p{q} for {route}"));
            assert!(
                s.value.is_finite() && s.value >= 0.0,
                "{route} p{q} = {}",
                s.value
            );
        }
        let count = find(
            &samples,
            "msketch_request_seconds_count",
            &[("route", route)],
        )
        .unwrap_or_else(|| panic!("missing request count for {route}"));
        assert!(count.value >= 1.0, "{route} count = {}", count.value);
        let ok = find(
            &samples,
            "msketch_http_requests_total",
            &[("route", route), ("status", "2xx")],
        )
        .unwrap_or_else(|| panic!("missing 2xx counter for {route}"));
        assert!(ok.value >= 1.0);
    }
    // Engine refresh and WAL fsync recorders observe through the
    // library layers, not the HTTP handler.
    for family in [
        "msketch_engine_refresh_seconds",
        "msketch_wal_fsync_seconds",
    ] {
        let count = find(&samples, &format!("{family}_count"), &[])
            .unwrap_or_else(|| panic!("missing {family}_count"));
        assert!(count.value >= 1.0, "{family}_count = {}", count.value);
        let p99 = find(&samples, family, &[("quantile", "0.99")])
            .unwrap_or_else(|| panic!("missing {family} p99"));
        assert!(p99.value.is_finite() && p99.value >= 0.0);
    }
    // Counters and gauges mirrored from the engine and ingest path.
    let rows = find(&samples, "msketch_rows_ingested_total", &[]).expect("rows counter");
    assert_eq!(rows.value, 300.0);
    let snap_rows = find(&samples, "msketch_snapshot_rows", &[]).expect("snapshot rows gauge");
    assert_eq!(snap_rows.value, 300.0);
    let wal_segments = find(&samples, "msketch_wal_segments", &[]).expect("wal gauge");
    assert!(wal_segments.value >= 1.0);
    // The threshold cascade reported per-stage hit counts.
    let groups = samples
        .get("msketch_cascade_stage_hits_total")
        .and_then(|fam| fam.iter().find(|s| s.label("stage") == Some("groups")))
        .expect("cascade groups counter");
    assert!(groups.value >= 1.0, "cascade saw {} groups", groups.value);

    // Scraping must not perturb what it reports: /metrics itself is
    // uninstrumented.
    assert!(find(
        &samples,
        "msketch_request_seconds_count",
        &[("route", "/metrics")]
    )
    .is_none());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// /trace
// ---------------------------------------------------------------------

#[test]
fn slow_query_trace_shows_per_stage_breakdown() {
    let _failpoints = failpoint::scope();
    let mut server = MsketchServer::start(
        SketchSpec::moments(8),
        &["app"],
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            refresh_interval: Duration::from_secs(3600),
            slow_query: Duration::from_millis(40),
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();
    client::post(addr, "/ingest", &ingest_body(0..200)).unwrap();
    server.refresh().expect("refresh");

    // One deterministically slow evaluation, well past the threshold.
    failpoint::cfg("server::quantile_slow", "1*sleep(120)").unwrap();
    let (status, body) = client::get(addr, "/quantile?q=0.5").unwrap();
    assert_eq!(status, 200, "{body}");

    let (status, body) = client::get(addr, "/trace?last=16").unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = serde_json::from_str(&body)
        .unwrap_or_else(|e| panic!("/trace is not valid JSON ({e}): {body}"));
    assert_eq!(
        doc.get("slow_query_ms").and_then(|v| v.as_u64()),
        Some(40),
        "{body}"
    );
    let traces = doc
        .get("traces")
        .and_then(|v| v.as_array())
        .expect("traces");
    let slow = traces
        .iter()
        .find(|t| {
            t.get("trace").and_then(|v| v.as_str()) == Some("http::quantile")
                && t.get("slow").and_then(|v| v.as_bool()) == Some(true)
        })
        .unwrap_or_else(|| panic!("no slow http::quantile trace in {body}"));
    let total_us = slow
        .get("total_us")
        .and_then(|v| v.as_u64())
        .expect("total_us");
    assert!(total_us >= 120_000, "slept 120ms but total_us = {total_us}");
    let spans = slow.get("spans").and_then(|v| v.as_array()).expect("spans");
    // The per-stage breakdown: merge and estimate stages are separate
    // child spans nested under the root, each timed within the total.
    for stage in ["server::merge_cells", "server::estimate"] {
        let span = spans
            .iter()
            .find(|s| s.get("name").and_then(|v| v.as_str()) == Some(stage))
            .unwrap_or_else(|| panic!("trace has no {stage} span: {body}"));
        let dur = span.get("dur_us").and_then(|v| v.as_u64()).expect("dur_us");
        assert!(
            dur <= total_us,
            "{stage} ran {dur}us in a {total_us}us trace"
        );
        assert!(
            span.get("parent")
                .and_then(|v| v.as_u64())
                .is_some_and(|p| p >= 1),
            "{stage} is not attached to the trace tree"
        );
    }
    // The injected sleep sits in the handler prologue, before either
    // stage — so the breakdown must show both stages fast and the
    // stall in the uninstrumented gap. Localizing latency *between*
    // stages is exactly what a per-stage breakdown buys over a single
    // request timer.
    let staged_us: u64 = spans
        .iter()
        .filter(|s| {
            matches!(
                s.get("name").and_then(|v| v.as_str()),
                Some("server::merge_cells" | "server::estimate")
            )
        })
        .filter_map(|s| s.get("dur_us").and_then(|v| v.as_u64()))
        .sum();
    assert!(
        total_us - staged_us >= 100_000,
        "breakdown failed to localize the stall: stages took {staged_us}us of {total_us}us"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// Cumulative cascade statistics
// ---------------------------------------------------------------------

#[test]
fn cascade_statistics_accumulate_across_queries() {
    let _failpoints = failpoint::scope();
    let mut server = MsketchServer::start(
        SketchSpec::moments(8),
        &["app"],
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            refresh_interval: Duration::from_secs(3600),
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();
    client::post(addr, "/ingest", &ingest_body(0..300)).unwrap();
    server.refresh().expect("refresh");

    let cascade_total = |body: &str| -> u64 {
        let doc = serde_json::from_str(body).unwrap();
        doc.get("cascade")
            .and_then(|c| c.get("total"))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("no cascade totals in /stats: {body}"))
    };

    let (status, body) = client::get(addr, "/threshold?by=app&q=0.9&t=50").unwrap();
    assert_eq!(status, 200, "{body}");
    let (_, stats1) = client::get(addr, "/stats").unwrap();
    let after_one = cascade_total(&stats1);
    assert!(after_one >= 1, "first query evaluated {after_one} groups");

    // The same query again: per-query stats would stay flat, the
    // cumulative registry doubles.
    let (status, body) = client::get(addr, "/threshold?by=app&q=0.9&t=50").unwrap();
    assert_eq!(status, 200, "{body}");
    let (_, stats2) = client::get(addr, "/stats").unwrap();
    assert_eq!(cascade_total(&stats2), 2 * after_one);

    // /search accumulates into the same counters.
    let (status, body) = client::get(addr, "/search?by=app&q=0.9&t=50").unwrap();
    assert_eq!(status, 200, "{body}");
    let (_, stats3) = client::get(addr, "/stats").unwrap();
    assert!(cascade_total(&stats3) > 2 * after_one, "{stats3}");

    server.shutdown();
}
