//! `msketch-serve` — stand-alone HTTP serving daemon over the sharded
//! ingestion engine.
//!
//! ```text
//! msketch-serve [--addr 127.0.0.1:8080] [--spec moments:10]
//!               [--dims app,region] [--threads 4] [--shards N]
//!               [--refresh-ms 500] [--wal-dir DIR] [--fsync POLICY]
//!               [--queue-cap N] [--deadline-ms MS]
//!               [--timeline-dir DIR] [--bucket-ms MS] [--retention MS]
//!               [--cell-budget N] [--slow-query-ms MS] [--trace-cap N]
//! ```
//!
//! Prints one `listening on http://…` line once the socket is bound
//! (the CI smoke test scrapes the ephemeral port from it), then serves
//! until `quit` arrives on stdin — the graceful path: snapshot
//! refresher stopped, HTTP pool drained, shard workers joined. A plain
//! kill is also safe: every thread dies with the process, and with
//! `--wal-dir` set a restart replays every checkpointed pane bit-exactly
//! (the kill-9 crash-recovery smoke in CI exercises exactly this).
//!
//! Fault-injection sites honor the `FAILPOINTS` environment variable
//! (`name=spec;…`), wired through `failpoint::init_from_env()`.

// Panic perimeter (lint/README.md): a panic here parks a shard's
// channel peers or poisons state that later requests share. Test
// builds may panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

use msketch_engine::FsyncPolicy;
use msketch_server::{MsketchServer, ServeError, ServerConfig};
use msketch_sketches::SketchSpec;
use std::io::BufRead;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: msketch-serve [--addr HOST:PORT] [--spec KIND:PARAM] [--dims NAME,NAME…]\n\
         \x20                    [--threads N] [--shards N] [--refresh-ms MS]\n\
         \x20                    [--wal-dir DIR] [--fsync always|every:N|never]\n\
         \x20                    [--queue-cap N] [--deadline-ms MS]\n\
         \x20                    [--timeline-dir DIR] [--bucket-ms MS] [--retention MS]\n\
         \x20                    [--cell-budget N] [--slow-query-ms MS] [--trace-cap N]\n\
         defaults: --addr 127.0.0.1:8080 --spec moments:10 --dims app,region\n\
         \x20         --threads 4 --shards <cores> --refresh-ms 500\n\
         \x20         no WAL, --fsync always, unbounded queue, no deadline\n\
         \x20         no timeline, --bucket-ms 60000, unbounded retention/cells\n\
         \x20         no slow-query stderr log, --trace-cap 256"
    );
    std::process::exit(2);
}

/// Parse `--fsync always|every:N|never`.
fn parse_fsync(text: &str) -> Option<FsyncPolicy> {
    match text {
        "always" => Some(FsyncPolicy::Always),
        "never" => Some(FsyncPolicy::Never),
        other => {
            let n: u64 = other.strip_prefix("every:")?.parse().ok()?;
            Some(FsyncPolicy::EveryN(n.max(1)))
        }
    }
}

fn main() -> Result<(), ServeError> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:8080".to_string(),
        ..ServerConfig::default()
    };
    let mut spec_text = "moments:10".to_string();
    let mut dims_text = "app,region".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--spec" => spec_text = value("--spec"),
            "--dims" => dims_text = value("--dims"),
            "--threads" => config.threads = value("--threads").parse().unwrap_or_else(|_| usage()),
            "--shards" => {
                let shards: usize = value("--shards").parse().unwrap_or_else(|_| usage());
                config.engine.shards = shards.max(1);
            }
            "--refresh-ms" => {
                let ms: u64 = value("--refresh-ms").parse().unwrap_or_else(|_| usage());
                config.refresh_interval = Duration::from_millis(ms);
            }
            "--wal-dir" => {
                config.wal_dir = Some(std::path::PathBuf::from(value("--wal-dir")));
            }
            "--fsync" => {
                config.fsync = parse_fsync(&value("--fsync")).unwrap_or_else(|| usage());
            }
            "--queue-cap" => {
                config.queue_cap = value("--queue-cap").parse().unwrap_or_else(|_| usage());
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms").parse().unwrap_or_else(|_| usage());
                config.quantile_deadline = Duration::from_millis(ms);
            }
            "--timeline-dir" => {
                config.timeline_dir = Some(std::path::PathBuf::from(value("--timeline-dir")));
            }
            "--bucket-ms" => {
                let ms: u64 = value("--bucket-ms").parse().unwrap_or_else(|_| usage());
                config.bucket_ms = ms.max(1);
            }
            "--retention" => {
                config.retention_ms = value("--retention").parse().unwrap_or_else(|_| usage());
            }
            "--cell-budget" => {
                config.cell_budget = value("--cell-budget").parse().unwrap_or_else(|_| usage());
            }
            "--slow-query-ms" => {
                let ms: u64 = value("--slow-query-ms").parse().unwrap_or_else(|_| usage());
                config.slow_query = Duration::from_millis(ms);
            }
            "--trace-cap" => {
                config.trace_cap = value("--trace-cap").parse().unwrap_or_else(|_| usage());
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    let spec = SketchSpec::parse(&spec_text).unwrap_or_else(|e| {
        eprintln!("invalid --spec {spec_text:?}: {e}");
        usage()
    });
    let dims: Vec<&str> = dims_text.split(',').filter(|d| !d.is_empty()).collect();
    if dims.is_empty() {
        eprintln!("--dims lists no dimension names");
        usage();
    }

    // Deterministic fault injection (FAILPOINTS=name=spec;…) for the
    // fault suite and the CI crash-recovery smoke.
    failpoint::init_from_env();

    let mut server = MsketchServer::start(spec, &dims, config)?;
    if let Some(recovery) = server.timeline_recovery() {
        println!(
            "msketch-serve timeline recovered {} segments ({} corrupt skipped, {} torn tmp files removed, \
             {} off the rollup ladder skipped, {} unsealed intermediate rollups removed)",
            recovery.segments_loaded,
            recovery.corrupt_skipped,
            recovery.tmp_removed,
            recovery.off_ladder_skipped,
            recovery.unsealed_removed
        );
    }
    if let Some(report) = server.recovery_report() {
        println!(
            "msketch-serve recovered {} rows from {} WAL segments (last epoch {}, {} bytes truncated)",
            report.rows_recovered,
            report.segments_replayed,
            report.last_epoch,
            report.truncated_bytes
        );
    }
    println!(
        "msketch-serve listening on http://{} (backend {spec_text}, dims {dims_text})",
        server.local_addr()
    );
    println!("type 'quit' to shut down gracefully");

    // Serve until an explicit quit (or Ctrl-D on a terminal). EOF on a
    // *non-interactive* stdin (e.g. daemonized with </dev/null) parks
    // instead of exiting, so backgrounding works.
    let stdin = std::io::stdin();
    let mut explicit_quit = false;
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => {
                explicit_quit = true;
                break;
            }
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    if !explicit_quit && !std::io::IsTerminal::is_terminal(&std::io::stdin()) {
        loop {
            std::thread::park();
        }
    }
    eprintln!("shutting down: draining HTTP pool and joining shard workers…");
    server.shutdown();
    eprintln!("bye");
    Ok(())
}
