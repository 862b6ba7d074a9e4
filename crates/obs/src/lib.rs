//! Self-hosting observability for the msketch workspace.
//!
//! The system observes itself with the paper's own data structure:
//! latency recorders are striped [`moments_sketch::MomentsSketch`]es
//! (mergeable across threads exactly as shard panes are), queried at
//! scrape time through the max-entropy solver, so `GET /metrics` serves
//! p50/p95/p99 series computed by the sketch being benchmarked.
//!
//! Three pieces, all dependency-free beyond the workspace's own crates:
//!
//! - [`registry`]: counters, gauges, and moment-sketch latency
//!   recorders behind cheap cloneable handles; Prometheus text
//!   exposition via [`Registry::render`]. Relaxed-atomic fast paths.
//!   A handle exists before it has a name: the engine and the timeline
//!   own theirs from construction and publish them with
//!   [`Registry::register_counter`] / [`Registry::register_gauge`], so
//!   a number has one home and the exposition routes take no lock.
//! - [`trace`]: structured spans rooted per request / per refresh,
//!   propagated through lower layers by a thread local (no API
//!   threading), drained by `GET /trace?last=N`; slow traces and
//!   warn events are mirrored to stderr as JSON lines.
//! - [`Obs`]: the bundle the server constructs and hands to the engine
//!   (`ShardedCube::set_obs`) and the timeline
//!   (`Timeline::register_metrics`).
//!
//! Metric names registered with literal strings are pinned append-only
//! in `lint/metrics.golden` by the `metrics` lint rule, like wire tags
//! and failpoint sites.

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

pub mod registry;
pub mod trace;

pub use registry::{Counter, Gauge, Recorder, Registry, Timer, EXPOSED_QUANTILES};
pub use trace::{
    span, EventRecord, FieldValue, Level, RootSpan, SpanGuard, TraceRecord, TraceSink,
};

use std::sync::Arc;

/// The observability bundle threaded through the stack: one metrics
/// registry plus one trace sink. Cloneable handle; clones share state.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Metrics registry backing `/metrics` and `/stats`.
    pub registry: Arc<Registry>,
    /// Trace ring + slow-query/event log backing `/trace`.
    pub trace: Arc<TraceSink>,
}

impl Obs {
    /// A fresh bundle with default capacities.
    pub fn new() -> Obs {
        Obs::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("test_total", &[("route", "/x")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same (name, labels) yields the same underlying series.
        assert_eq!(reg.counter("test_total", &[("route", "/x")]).get(), 5);
        let g = reg.gauge("test_rows", &[]);
        g.set(42);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn label_order_is_canonical() {
        let reg = Registry::new();
        let a = reg.counter("t_total", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("t_total", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn recorder_quantiles_track_distribution() {
        let reg = Registry::new();
        let rec = reg.recorder("lat_seconds", &[]);
        for i in 1..=10_000 {
            rec.observe(i as f64 / 10_000.0);
        }
        let qs = rec.quantiles(&[0.5, 0.99]);
        assert!((qs[0] - 0.5).abs() < 0.05, "p50 {}", qs[0]);
        assert!((qs[1] - 0.99).abs() < 0.05, "p99 {}", qs[1]);
    }

    #[test]
    fn a_registered_handle_is_the_series() {
        let reg = Registry::new();
        let owned = Counter::default();
        owned.add(2);
        reg.register_counter("owned_total", &[], &owned);
        owned.inc();
        owned.inc_exclusive();
        assert_eq!(reg.counter("owned_total", &[]).get(), 4);
        let level = Gauge::default();
        reg.register_gauge("owned_level", &[], &level);
        level.add(5);
        level.sub(2);
        let text = reg.render();
        assert!(text.contains("owned_total 4\n"), "{text}");
        assert!(text.contains("owned_level 3\n"), "{text}");
    }

    #[test]
    fn cancelled_timer_records_nothing() {
        let reg = Registry::new();
        let rec = reg.recorder("lat_seconds", &[]);
        rec.start().cancel();
        assert_eq!(rec.count(), 0);
    }

    #[test]
    fn render_has_type_lines_and_series() {
        let reg = Registry::new();
        reg.counter("c_total", &[("route", "/q")]).add(3);
        reg.gauge("g_rows", &[]).set(7);
        let rec = reg.recorder("r_seconds", &[]);
        rec.observe(0.25);
        let text = reg.render();
        assert!(text.contains("# TYPE c_total counter\n"));
        assert!(text.contains("c_total{route=\"/q\"} 3\n"));
        assert!(text.contains("# TYPE g_rows gauge\n"));
        assert!(text.contains("g_rows 7\n"));
        assert!(text.contains("# TYPE r_seconds summary\n"));
        assert!(text.contains("r_seconds{quantile=\"0.5\"}"));
        assert!(text.contains("r_seconds_sum 0.25\n"));
        assert!(text.contains("r_seconds_count 1\n"));
    }

    #[test]
    fn spans_nest_and_land_in_ring() {
        let sink = TraceSink::new(8);
        {
            let mut root = sink.root_span("http::/quantile");
            root.field("q", "0.99");
            {
                let mut child = span("engine::snapshot");
                child.field("cells", "12");
                let _grand = span("engine::wal_append");
            }
        }
        let traces = sink.recent_traces(10);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.root, "http::/quantile");
        assert_eq!(t.spans.len(), 3);
        // Completion order: grandchild, child, root.
        assert_eq!(t.spans[0].name, "engine::wal_append");
        assert_eq!(t.spans[1].name, "engine::snapshot");
        assert_eq!(t.spans[2].name, "http::/quantile");
        // Parent chain: root=1, child parents root, grandchild the child.
        assert_eq!(t.spans[2].id, 1);
        assert_eq!(t.spans[1].parent, 1);
        assert_eq!(t.spans[0].parent, t.spans[1].id);
        let json = t.to_json();
        assert!(json.contains("\"trace\":\"http::/quantile\""));
        assert!(json.contains("\"fields\":{\"q\":\"0.99\"}"));
    }

    #[test]
    fn span_without_root_is_noop() {
        let sink = TraceSink::new(8);
        {
            let _orphan = span("engine::snapshot");
        }
        assert_eq!(sink.trace_count(), 0);
    }

    #[test]
    fn nested_root_degrades_to_child() {
        let sink = TraceSink::new(8);
        {
            let _outer = sink.root_span("http::/refresh");
            let _inner = sink.root_span("engine::refresh");
        }
        let traces = sink.recent_traces(10);
        assert_eq!(traces.len(), 1, "nested root must not open a second trace");
        assert_eq!(traces[0].spans.len(), 2);
    }

    #[test]
    fn slow_threshold_marks_traces() {
        let sink = TraceSink::new(8);
        sink.set_slow_threshold(Duration::from_micros(1));
        {
            let _root = sink.root_span("http::/quantile");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(sink.recent_traces(1)[0].slow);
    }

    #[test]
    fn events_ring_and_json() {
        let sink = TraceSink::new(8);
        sink.event(
            Level::Warn,
            "engine::worker_restart",
            &[("shard", "3".to_string())],
        );
        let events = sink.recent_events(10);
        assert_eq!(events.len(), 1);
        let json = events[0].to_json();
        assert!(json.contains("\"event\":\"engine::worker_restart\""));
        assert!(json.contains("\"level\":\"warn\""));
        assert!(json.contains("\"shard\":\"3\""));
    }

    #[test]
    fn trace_ring_is_bounded() {
        let sink = TraceSink::new(2);
        for _ in 0..5 {
            let _root = sink.root_span("http::/x");
        }
        assert_eq!(sink.trace_count(), 2);
    }
}
