//! One run of one workload: build inputs, set the server up (several
//! times, for a steady `setup_s`), drive the warm-up and the measured
//! window, check every answer against the oracle, and turn the records
//! into metrics. A traced run does the same with a trace ring large
//! enough to hold the window, drains it afterwards, and adds the layer
//! probes; end-to-end numbers always come from the untraced run.

use crate::check::Expect;
use crate::daemon::{self, Daemon, Scratch};
use crate::load::{self, Done};
use crate::plan::{self, Scale, Traffic, Workload, WARMUP_S};
use crate::probes;
use crate::stats;
use crate::trace::{self, Signature, Trace};
use serde_json::Value;
use std::collections::HashSet;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// The tail percentile reported for the primary class. A percentile is
/// reported only with ten samples beyond it, and the 15-second window the
/// benchmark's total time cap leaves gives `range` 75 samples: a p80 (50
/// samples) is the highest round percentile every primary class supports.
/// It is a per-layer metric, not an end-to-end one: tails did not repeat
/// within any bound (see `declared::END_TO_END`).
pub const TAIL: f64 = 0.80;

/// Trace ring capacity of a traced run: holds every request of a window.
const TRACE_CAP: usize = 200_000;

/// What to run and where.
#[derive(Debug, Clone)]
pub struct Options {
    /// The `msketch-serve` binary built from this checkout.
    pub server: PathBuf,
    /// Directory (inside the checkout's build directory) for WAL,
    /// timeline and trace files.
    pub out_dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measured window in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub traced: bool,
    /// Cube sizes.
    pub scale: Scale,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as declared.
    pub unit: &'static str,
    /// Samples the value rests on (0 where that has no meaning).
    pub samples: usize,
}

impl Metric {
    pub(crate) fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Requests in the measured window.
    pub attempted: u64,
    /// Of those: non-2xx, refused, or rejected by the oracle.
    pub failed: u64,
    /// Whether every answer and every post-window check was right.
    pub correct: bool,
    /// The first few failures, with the offending request.
    pub failures: Vec<String>,
    /// End-to-end metrics (always computed).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// A server that is set up and ready for the first measured request,
/// with the directories it writes to.
struct Ready {
    daemon: Daemon,
    args: Vec<String>,
    wal: Option<Scratch>,
    timeline: Option<Scratch>,
}

/// Spawn the server and load it: child spawn → ready for traffic.
fn set_up(w: &Workload, opts: &Options) -> Result<Ready, String> {
    let scratch =
        |label| Scratch::new(&opts.out_dir, label).map_err(|e| format!("scratch dir: {e}"));
    let wal = w.wal.then(|| scratch("wal")).transpose()?;
    let timeline = w.timeline.then(|| scratch("timeline")).transpose()?;
    // nproc is 2 here: two HTTP workers, two shards, everything else the
    // daemon's production defaults (observability armed).
    let mut args: Vec<String> = ["--threads", "2", "--shards", "2", "--dims", w.shape.dims()]
        .map(String::from)
        .to_vec();
    args.extend(w.flags.iter().cloned());
    for (flag, dir) in [("--wal-dir", &wal), ("--timeline-dir", &timeline)] {
        if let Some(dir) = dir {
            args.extend([flag.to_string(), dir.path().display().to_string()]);
        }
    }
    if opts.traced {
        args.extend(["--trace-cap".to_string(), TRACE_CAP.to_string()]);
    }
    let daemon = Daemon::spawn(&opts.server, &args)?;
    let addr = daemon.addr();
    let errors: Vec<String> = std::thread::scope(|scope| {
        let loaders: Vec<_> = (0..w.loaders)
            .map(|k| {
                let bodies = w.load.iter().skip(k).step_by(w.loaders);
                scope.spawn(move || -> Result<(), String> {
                    let mut conn =
                        tiny_http::client::Conn::connect(addr).map_err(|e| e.to_string())?;
                    for body in bodies {
                        match conn.post("/ingest", body) {
                            Ok((200, reply))
                                if !reply.contains("\"late_dropped\":")
                                    || reply.contains("\"late_dropped\":0") => {}
                            Ok((status, reply)) => {
                                return Err(format!("load: HTTP {status}: {reply}"))
                            }
                            Err(e) => return Err(format!("load: {e}")),
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        loaders
            .into_iter()
            .filter_map(|l| l.join().expect("loader panicked").err())
            .collect()
    });
    if let Some(e) = errors.into_iter().next() {
        return Err(e);
    }
    load::once(addr, "/refresh", Some(""))?;
    // History compaction: set-up ends when the timeline has rolled up
    // every window it was given.
    let deadline = Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let stats = server_stats(&daemon)?;
        let rows = stats
            .get("snapshot_rows")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if rows != w.load_rows {
            return Err(format!(
                "after load the snapshot holds {rows} rows, not {}",
                w.load_rows
            ));
        }
        let timeline_stat = |key: &str| {
            stats
                .get("timeline")
                .and_then(|t| t.get(key))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        if timeline_stat("late_dropped") != 0 {
            return Err(format!(
                "{} history rows dropped as late",
                timeline_stat("late_dropped")
            ));
        }
        if timeline_stat("rollups_written") >= w.settle_rollups {
            break;
        }
        if Instant::now() > deadline {
            return Err("timeline compaction did not settle".to_string());
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    Ok(Ready {
        daemon,
        args,
        wal,
        timeline,
    })
}

fn server_stats(daemon: &Daemon) -> Result<Value, String> {
    let body = load::once(daemon.addr(), "/stats", None)?;
    serde_json::from_str(&body).map_err(|e| format!("/stats is not JSON: {e}"))
}

/// Run one workload once.
pub fn run(name: &str, opts: &Options) -> Result<Outcome, String> {
    let t = Instant::now();
    let w = plan::build(name, opts.seed, &opts.scale, unix_ms()).ok_or_else(|| {
        format!(
            "unknown workload {name:?} (known: {})",
            plan::WORKLOADS.join(", ")
        )
    })?;
    eprintln!(
        "[{name}] inputs built in {:.2} s: {} rows, {} requests, {} set-up bodies",
        t.elapsed().as_secs_f64(),
        w.rows.len(),
        w.requests.len(),
        w.load.len()
    );
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;

    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..w.setups {
        drop(ready.take());
        let t = Instant::now();
        ready = Some(set_up(&w, opts)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut ready = ready.ok_or("a workload sets up at least once")?;
    eprintln!("[{name}] set-up times: {setup_s:.3?} s");

    let warmup_ns = (WARMUP_S * 1e9) as u64;
    let total_ns = warmup_ns + (opts.seconds * 1e9) as u64;
    let window_from_unix_ms = unix_ms() + (WARMUP_S * 1e3) as u64;
    let records = load::drive(
        ready.daemon.addr(),
        &w.requests,
        w.scripts(opts.seed, total_ns),
        total_ns,
    );
    let rss_mb = ready.daemon.peak_rss_mb();
    let stats = server_stats(&ready.daemon)?;
    let health_rtt_us = if opts.traced {
        health_rtt_us(&ready.daemon)?
    } else {
        0.0
    };
    let traces = if opts.traced {
        let body = load::once(
            ready.daemon.addr(),
            &format!("/trace?last={TRACE_CAP}"),
            None,
        )?;
        let mut traces = trace::parse(&body)?;
        traces.retain(|t| t.started_unix_ms >= window_from_unix_ms);
        traces
    } else {
        Vec::new()
    };

    // Rows acknowledged since the server started: set-up, warm-up, window.
    let acked_rows: u64 = w.load_rows
        + records
            .iter()
            .filter(|d| d.status == 200)
            .filter_map(|d| match &w.expects[d.req] {
                Expect::Ingest { rows } => Some(*rows as u64),
                _ => None,
            })
            .sum::<u64>();
    let mut failures = Vec::new();
    let mut post_ok = true;
    if w.wal {
        if let Err(e) = durability(&w, opts, &mut ready, acked_rows) {
            failures.push(format!("durability: {e}"));
            post_ok = false;
        }
    }
    for (key, section) in [
        ("rows_lost", None),
        ("worker_restarts", None),
        ("refresh_errors", None),
        ("late_dropped", Some("timeline")),
    ] {
        let scope = section.map_or(Some(&stats), |s| stats.get(s));
        let n = scope
            .and_then(|s| s.get(key))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if n != 0 {
            failures.push(format!("/stats reports {key} = {n}"));
            post_ok = false;
        }
    }
    let Ready {
        daemon,
        wal,
        timeline,
        ..
    } = ready;
    let wal_bytes = wal.as_ref().map_or(0, |d| daemon::dir_bytes(d.path()));
    drop(daemon);

    // Check every answer of the measured window, after the window.
    let measured: Vec<&Done> = records.iter().filter(|d| d.due_ns >= warmup_ns).collect();
    let mut failed = 0u64;
    let mut rank_errors = Vec::new();
    for d in &measured {
        match w.oracle.check(&w.expects[d.req], d.status, &d.body) {
            Ok(errs) => rank_errors.extend(errs),
            Err(why) => {
                failed += 1;
                if failures.len() < 8 {
                    failures.push(format!("{}: {why}", w.requests[d.req].path));
                }
            }
        }
    }
    let attempted = measured.len() as u64;

    // Per-class latencies; a failed request is slower than any limit.
    let mut by_class: Vec<Vec<f64>> = vec![Vec::new(); w.classes.len()];
    for d in &measured {
        by_class[w.requests[d.req].class].push(d.latency_ms());
    }
    by_class.iter_mut().for_each(|v| stats::sort(v));
    let p = |class: usize, q: f64| stats::percentile(&by_class[class], q).unwrap_or(0.0);
    for (class, name) in w.classes.iter().enumerate() {
        eprintln!(
            "[{}] {name:<15} n={:<5} p10 {:>9.3}  p25 {:>9.3}  p50 {:>9.3}  p75 {:>9.3}  p90 {:>9.3} ms",
            w.name,
            by_class[class].len(),
            p(class, 0.10),
            p(class, 0.25),
            p(class, 0.50),
            p(class, 0.75),
            p(class, 0.90),
        );
    }
    // The window lasts until its last request has been answered.
    let last_done = measured.iter().map(|d| d.done_ns).max();
    let window_s = (last_done.unwrap_or(total_ns) - warmup_ns) as f64 / 1e9;
    let ok_units: u64 = measured
        .iter()
        .filter(|d| d.status == 200)
        .map(|d| match (&w.expects[d.req], w.counts_rows) {
            (Expect::Ingest { rows }, true) => *rows as u64,
            (_, true) => 0,
            (_, false) => 1,
        })
        .sum();
    let end_to_end = vec![
        Metric::new("setup_s", stats::median(&setup_s), "s", setup_s.len()),
        Metric::new("rss_mb", rss_mb, "MB", 1),
        Metric::new(
            "primary_p50_ms",
            p(w.primary, 0.5),
            "ms",
            by_class[w.primary].len(),
        ),
        Metric::new(
            "secondary_p50_ms",
            p(w.secondary, 0.5),
            "ms",
            by_class[w.secondary].len(),
        ),
        Metric::new(
            "throughput_per_s",
            ok_units as f64 / window_s,
            "1/s",
            measured.len(),
        ),
    ];

    let mut per_layer = Vec::new();
    if opts.traced {
        let reference = opts.out_dir.join(format!("untraced-{name}.p50"));
        let untraced_p50 = std::fs::read_to_string(&reference)
            .ok()
            .and_then(|s| s.trim().parse::<f64>().ok());
        per_layer = layer_metrics(&LayerInputs {
            w: &w,
            opts,
            measured: &measured,
            by_class: &by_class,
            traces: &traces,
            stats: &stats,
            rank_errors: &rank_errors,
            untraced_p50,
            wal_bytes,
            acked_rows,
            health_rtt_us,
            timeline_dir: timeline.as_ref().map(|d| d.path()),
            wal_dir: wal.as_ref().map(|d| d.path()),
        })?;
        write_spans(&w, opts, &records, &traces)?;
    } else {
        let _ = std::fs::write(
            opts.out_dir.join(format!("untraced-{name}.p50")),
            format!("{}\n", p(w.primary, 0.5)),
        );
    }
    Ok(Outcome {
        workload: w.name,
        attempted,
        failed,
        correct: failed == 0 && post_ok && attempted > 0,
        failures,
        end_to_end,
        per_layer,
    })
}

/// The durability contract, checked rather than assumed: after a final
/// refresh the snapshot holds every acknowledged row; a body acknowledged
/// *after* that refresh is then lost to `kill -9` (rows since the last
/// checkpoint may be lost — nothing else may), and a restart on the same
/// WAL directory recovers exactly the rows acknowledged before it.
fn durability(w: &Workload, opts: &Options, ready: &mut Ready, acked: u64) -> Result<(), String> {
    let addr = ready.daemon.addr();
    load::once(addr, "/refresh", Some(""))?;
    let rows = server_stats(&ready.daemon)?
        .get("snapshot_rows")
        .and_then(Value::as_u64);
    if rows != Some(acked) {
        return Err(format!(
            "snapshot holds {rows:?} rows after the final refresh, {acked} were acknowledged"
        ));
    }
    let Traffic::Ingest { bodies, .. } = &w.traffic else {
        return Err("not an ingest workload".to_string());
    };
    let extra = w.requests[bodies[0]].body.as_deref().unwrap_or("");
    load::once(addr, "/ingest", Some(extra))?;
    ready.daemon.kill9();
    ready.daemon = Daemon::spawn(&opts.server, &ready.args)?;
    if ready.daemon.recovered_rows != Some(acked) {
        return Err(format!(
            "restart recovered {:?} rows, {acked} were acknowledged before the last refresh",
            ready.daemon.recovered_rows
        ));
    }
    let rows = server_stats(&ready.daemon)?
        .get("snapshot_rows")
        .and_then(Value::as_u64);
    if rows != Some(acked) {
        return Err(format!(
            "restarted snapshot holds {rows:?} rows, expected {acked}"
        ));
    }
    Ok(())
}

/// Median keep-alive round trip of `GET /health`: the floor under every
/// latency the socket can report.
fn health_rtt_us(daemon: &Daemon) -> Result<f64, String> {
    let mut conn =
        tiny_http::client::Conn::connect(daemon.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut samples = Vec::with_capacity(2_000);
    for _ in 0..2_000 {
        let t = Instant::now();
        match conn.get("/health") {
            Ok((200, _)) => samples.push(t.elapsed().as_nanos() as f64 / 1e3),
            Ok((status, body)) => return Err(format!("/health: HTTP {status}: {body}")),
            Err(e) => return Err(format!("/health: {e}")),
        }
    }
    Ok(stats::median(&samples))
}

/// What [`layer_metrics`] reads.
pub(crate) struct LayerInputs<'a> {
    pub w: &'a Workload,
    pub opts: &'a Options,
    pub measured: &'a [&'a Done],
    pub by_class: &'a [Vec<f64>],
    pub traces: &'a [Trace],
    pub stats: &'a Value,
    pub rank_errors: &'a [f64],
    pub untraced_p50: Option<f64>,
    pub wal_bytes: u64,
    pub acked_rows: u64,
    pub health_rtt_us: f64,
    pub timeline_dir: Option<&'a std::path::Path>,
    pub wal_dir: Option<&'a std::path::Path>,
}

/// Every request class of every workload: the per-class metric names.
pub const ALL_CLASSES: [&str; 12] = [
    "slice",
    "cell",
    "host",
    "wide",
    "rollup",
    "groupby",
    "threshold",
    "threshold-wide",
    "search",
    "ingest",
    "refresh",
    "range",
];

/// Routes with a root span.
pub const ROUTES: [&str; 6] = [
    "quantile",
    "groupby",
    "threshold",
    "search",
    "ingest",
    "refresh",
];

/// How a class's traces are told apart in the ring.
fn signature(w: &Workload, class: usize) -> Signature {
    let mut root = "";
    let mut sizes = Vec::new();
    for (_, expect) in w
        .requests
        .iter()
        .zip(&w.expects)
        .filter(|(r, _)| r.class == class)
    {
        let (name, size) = match expect {
            Expect::Quantile { cells, .. } | Expect::GrowingSlice { cells, .. } => {
                ("http::quantile", Some(*cells as u64))
            }
            Expect::Range { .. } => ("http::quantile", Some(w.shape.cells() as u64)),
            Expect::GroupBy(_) => ("http::groupby", None),
            Expect::Threshold { groups, .. } => (
                "http::threshold",
                Some(w.oracle.groups(*groups).len() as u64),
            ),
            Expect::Search { .. } => ("http::search", None),
            Expect::Ingest { .. } => ("http::ingest", None),
            Expect::Refresh => ("http::refresh", None),
        };
        root = name;
        // `wide` merges 12 400 or 12 600 cells, depending on the region.
        if let Some(size) = size.filter(|s| !sizes.contains(s)) {
            sizes.push(size);
        }
    }
    Signature { root, sizes }
}

fn layer_metrics(x: &LayerInputs) -> Result<Vec<Metric>, String> {
    let w = x.w;
    let mut out = probes::run(x)?;
    let class_index = |name: &str| w.classes.iter().position(|c| *c == name);
    let p50 = |class: usize| stats::percentile(&x.by_class[class], 0.5).unwrap_or(0.0);

    // client.*: the generator's own view.
    for name in ALL_CLASSES {
        let (value, n) = class_index(name).map_or((0.0, 0), |c| (p50(c), x.by_class[c].len()));
        out.push(Metric::new(format!("client.{name}_p50_ms"), value, "ms", n));
    }
    out.push(Metric::new(
        "client.primary_p80_ms",
        stats::percentile(&x.by_class[w.primary], TAIL).unwrap_or(0.0),
        "ms",
        x.by_class[w.primary].len(),
    ));
    // How late the generator ran (open loop; a closed loop is never late).
    let worst_lag = x.measured.iter().map(|d| d.lag_ms()).fold(0.0, f64::max);
    out.push(Metric::new(
        "client.sched_lag_max_ms",
        worst_lag,
        "ms",
        x.measured.len(),
    ));
    let mut seen = HashSet::new();
    let repeats = x
        .measured
        .iter()
        .filter(|d| w.requests[d.req].body.is_none() && !seen.insert(&w.requests[d.req].path))
        .count();
    out.push(Metric::new(
        "client.repeat_frac",
        repeats as f64 / x.measured.len().max(1) as f64,
        "ratio",
        x.measured.len(),
    ));
    out.push(Metric::new(
        "client.trace_overhead_frac",
        x.untraced_p50
            .map_or(0.0, |base| p50(w.primary) / base - 1.0),
        "ratio",
        x.by_class[w.primary].len(),
    ));
    out.push(Metric::new(
        "client.eps_avg",
        stats::mean(x.rank_errors),
        "rank",
        x.rank_errors.len(),
    ));

    // server.*: the production spans, per class and per stage.
    let median_of = |values: Vec<f64>| (stats::median(&values), values.len());
    let mut table = String::new();
    for name in ALL_CLASSES {
        let (mut handler, mut n) = (0.0, 0);
        if let Some(class) = class_index(name) {
            let sig = signature(w, class);
            let mine: Vec<&Trace> = x.traces.iter().filter(|t| sig.matches(t)).collect();
            (handler, n) = median_of(mine.iter().map(|t| t.total_us as f64).collect());
            let client_us = p50(class) * 1e3;
            let mut stages: Vec<&str> = mine
                .iter()
                .flat_map(|t| {
                    t.spans
                        .iter()
                        .filter(|s| s.parent == 1)
                        .map(|s| s.name.as_str())
                })
                .collect();
            stages.sort_unstable();
            stages.dedup();
            let children: Vec<String> = stages
                .iter()
                .map(|stage| {
                    let (m, _) = median_of(
                        mine.iter()
                            .filter_map(|t| t.span(stage).map(|s| s.dur_us as f64))
                            .collect(),
                    );
                    format!("{stage} {m:.0}")
                })
                .collect();
            let (unattributed, _) = median_of(mine.iter().map(|t| t.unattributed_frac()).collect());
            table.push_str(&format!(
                "  {name:<15} client p50 {client_us:>9.0} us = socket {:>7.0} + handler {handler:>9.0} ({n} traces) = [{}] + unattributed {:.1}%\n",
                client_us - handler,
                children.join(", "),
                unattributed * 100.0
            ));
        }
        out.push(Metric::new(
            format!("server.handler_us.{name}"),
            handler,
            "us",
            n,
        ));
        let socket = class_index(name)
            .filter(|_| n > 0)
            .map_or(0.0, |c| p50(c) * 1e3 - handler);
        out.push(Metric::new(
            format!("server.socket_us.{name}"),
            socket,
            "us",
            n,
        ));
    }
    eprintln!(
        "[{}] per-class breakdown (medians, microseconds):\n{table}",
        w.name
    );
    // Stage medians: on the primary class where it has the stage, else on
    // every trace that has it (a stage median over mixed classes sits on a
    // class boundary).
    let primary = signature(w, w.primary);
    for (metric, span) in [
        ("server.decode_json_us", "server::decode_json"),
        ("server.shard_write_us", "server::shard_write"),
        ("server.timeline_insert_us", "server::timeline_insert"),
        ("server.merge_cells_us", "server::merge_cells"),
        ("server.estimate_us", "server::estimate"),
    ] {
        let of = |only_primary: bool| -> Vec<f64> {
            x.traces
                .iter()
                .filter(|t| !only_primary || primary.matches(t))
                .filter_map(|t| t.span(span).map(|s| s.dur_us as f64))
                .collect()
        };
        let mut values = of(true);
        if values.is_empty() {
            values = of(false);
        }
        let (value, n) = median_of(values);
        out.push(Metric::new(metric, value, "us", n));
    }
    for route in ROUTES {
        let (value, n) = median_of(
            x.traces
                .iter()
                .filter(|t| t.root.strip_prefix("http::") == Some(route))
                .map(|t| t.unattributed_frac())
                .collect(),
        );
        out.push(Metric::new(
            format!("server.unattributed_frac.{route}"),
            value,
            "ratio",
            n,
        ));
    }
    let stat = |key: &str| x.stats.get(key).and_then(Value::as_u64).unwrap_or(0) as f64;
    out.push(Metric::new(
        "server.degraded_served",
        stat("degraded_served"),
        "count",
        0,
    ));
    out.push(Metric::new(
        "server.refresh_errors",
        stat("refresh_errors"),
        "count",
        0,
    ));
    out.push(Metric::new(
        "engine.epoch_lag_max",
        stat("epoch_lag"),
        "count",
        0,
    ));
    out.push(Metric::new(
        "engine.rows_lost",
        stat("rows_lost"),
        "count",
        0,
    ));
    out.push(Metric::new(
        "engine.worker_restarts",
        stat("worker_restarts"),
        "count",
        0,
    ));
    let late = x
        .stats
        .get("timeline")
        .and_then(|t| t.get("late_dropped"))
        .and_then(Value::as_u64);
    out.push(Metric::new(
        "timeline.late_dropped",
        late.unwrap_or(0) as f64,
        "count",
        0,
    ));
    let shed = x.measured.iter().filter(|d| d.status == 429).count();
    out.push(Metric::new(
        "tiny_http.shed_429",
        shed as f64,
        "count",
        x.measured.len(),
    ));

    // client.model_gap_frac.*: measured p50 against the sum of the layer
    // probes that compose the request.
    let probe = |name: &str| out.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    for (class, model_us) in probes::models(w, &probe) {
        let measured_us = class_index(class).map_or(0.0, |c| p50(c) * 1e3);
        let gap = if measured_us > 0.0 && model_us > 0.0 {
            (measured_us - model_us) / measured_us
        } else {
            0.0
        };
        if gap.abs() > 0.10 {
            eprintln!(
                "finding: [{}] {class}: measured p50 {measured_us:.0} us vs layer-probe model {model_us:.0} us (gap {:.0}%)",
                w.name,
                gap * 100.0
            );
        }
        out.push(Metric::new(
            format!("client.model_gap_frac.{class}"),
            gap,
            "ratio",
            0,
        ));
    }
    Ok(out)
}

/// Write the run's spans once, at exit: one line per request (the
/// benchmark's own span) and one per server span, sharing a trace id.
fn write_spans(
    w: &Workload,
    opts: &Options,
    records: &[Done],
    traces: &[Trace],
) -> Result<(), String> {
    let path = opts.out_dir.join(format!("trace-{}.jsonl", w.name));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    for (id, d) in records.iter().enumerate() {
        let req = &w.requests[d.req];
        writeln!(
            out,
            "{{\"span\":\"client::{}\",\"request\":{id},\"parent\":null,\"client\":{},\"due_ns\":{},\"start_ns\":{},\"end_ns\":{},\"status\":{},\"path\":{:?}}}",
            w.classes[req.class], d.client, d.due_ns, d.sent_ns, d.done_ns, d.status, req.path
        )
        .map_err(io)?;
    }
    for (id, t) in traces.iter().enumerate() {
        for s in &t.spans {
            writeln!(
                out,
                "{{\"span\":{:?},\"trace\":{id},\"id\":{},\"parent\":{},\"started_unix_ms\":{},\"start_us\":{},\"end_us\":{}}}",
                s.name,
                s.id,
                s.parent,
                t.started_unix_ms,
                s.start_us,
                s.start_us + s.dur_us
            )
            .map_err(io)?;
        }
    }
    out.flush().map_err(io)?;
    eprintln!("[{}] spans written to {}", w.name, path.display());
    Ok(())
}
