//! Metrics registry: counters, gauges, and moment-sketch latency
//! recorders, rendered in Prometheus text exposition format.
//!
//! Hot paths touch only relaxed atomics (or, for recorders, one striped
//! mutex). A counter or gauge is a detached handle first and a
//! registered series second: whoever owns a number creates the handle
//! ([`Counter::default`]), writes it where the value changes, and may
//! publish it under a name with [`Registry::register_counter`] /
//! [`Registry::register_gauge`] — so the owner's field and the
//! `/metrics` series are one atomic, never a copy of one another.
//!
//! Latency recorders are the self-hosting part: each (metric,
//! label-set) owns a small pool of [`MomentsSketch`] stripes (one per
//! recording thread, assigned round-robin), merged in stripe order at
//! scrape time exactly as shard panes are merged in shard order — so
//! concurrent recording is bit-identical to sequential recording of the
//! same per-stripe sequences, and `/metrics` serves p50/p95/p99 through
//! the repo's own max-entropy solver.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use moments_sketch::{bounds, MomentsSketch};
use msketch_sketches::traits::Sketch as _;
use msketch_sketches::MSketchSummary;

/// Sketch order for latency recorders — the paper's default (184 bytes).
const RECORDER_K: usize = 10;

/// Stripes per recorder. Threads are assigned stripes round-robin, so
/// up to this many threads record without contending on one mutex.
pub const RECORDER_STRIPES: usize = 8;

/// Bisection iterations for the certified-bounds fallback when the
/// max-entropy solve fails (same budget as the server's degraded path).
const BOUND_ITERS: usize = 60;

/// Quantiles exposed per summary series.
pub const EXPOSED_QUANTILES: [f64; 3] = [0.5, 0.95, 0.99];

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A monotonically increasing counter (relaxed atomics). Clones share
/// the value; [`Counter::default`] is a fresh, unregistered zero.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Increment by one with a plain load and store instead of an
    /// atomic read-modify-write. Only for an owner that already
    /// serialises its updates (it counts behind `&mut self`) and counts
    /// per row: concurrent callers would lose increments.
    pub fn inc_exclusive(&self) {
        self.0.store(self.get() + 1, Ordering::Relaxed);
    }
}

/// A settable gauge (relaxed atomics, unsigned). Clones share the
/// value; [`Gauge::default`] is a fresh, unregistered zero.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the value by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Lower the value by `n`.
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Round-robin stripe assignment: each thread gets a stable stripe
/// index the first time it records, so a given thread's observations
/// always land in the same sketch (deterministic merge inputs).
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static THREAD_STRIPE: usize =
        NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % RECORDER_STRIPES;
}

struct RecorderShared {
    stripes: [Mutex<MomentsSketch>; RECORDER_STRIPES],
}

/// A latency recorder backed by striped [`MomentsSketch`]es.
///
/// `observe` values are in **seconds** (Prometheus base-unit
/// convention). The merged sketch is queried at scrape time via the
/// max-entropy solver, falling back to certified-bound midpoints on
/// solver failure — the same degradation ladder as `/quantile`.
#[derive(Clone)]
pub struct Recorder {
    shared: Arc<RecorderShared>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            shared: Arc::new(RecorderShared {
                stripes: std::array::from_fn(|_| Mutex::new(MomentsSketch::new(RECORDER_K))),
            }),
        }
    }

    /// Record one observation (seconds) into the calling thread's stripe.
    pub fn observe(&self, secs: f64) {
        let stripe = THREAD_STRIPE.with(|s| *s);
        self.observe_striped(stripe, secs);
    }

    /// Record into an explicit stripe. Tests use this to prove the
    /// concurrent-merge path bit-identical to sequential recording.
    pub fn observe_striped(&self, stripe: usize, secs: f64) {
        lock(&self.shared.stripes[stripe % RECORDER_STRIPES]).accumulate(secs);
    }

    /// Start a timer that records its elapsed time on [`Timer::stop`] or
    /// drop.
    pub fn start(&self) -> Timer {
        Timer {
            recorder: Some(self.clone()),
            started: Instant::now(),
        }
    }

    /// Merge all stripes in stripe order into one sketch.
    ///
    /// Stripe order is fixed, so the result is bit-identical no matter
    /// how recording threads interleaved (float addition per stripe is
    /// sequenced by the stripe mutex; cross-stripe addition is sequenced
    /// here) — the pane-merge discipline from the engine.
    pub fn merged(&self) -> MomentsSketch {
        let mut out = MomentsSketch::new(RECORDER_K);
        for stripe in &self.shared.stripes {
            out.merge(&lock(stripe));
        }
        out
    }

    /// Total observations across stripes.
    pub fn count(&self) -> u64 {
        self.shared
            .stripes
            .iter()
            .map(|s| lock(s).count() as u64)
            .sum()
    }

    /// Estimate quantiles of the merged sketch: one max-entropy solve
    /// amortized over all `phis`, with certified-bound midpoints for any
    /// quantile the solver cannot produce. Empty recorders yield NaNs.
    pub fn quantiles(&self, phis: &[f64]) -> Vec<f64> {
        let merged = self.merged();
        if merged.count() == 0.0 {
            return vec![f64::NAN; phis.len()];
        }
        let summary = MSketchSummary::from_sketch(merged.clone());
        let mut qs = summary.quantiles(phis);
        for (q, &phi) in qs.iter_mut().zip(phis) {
            if q.is_nan() {
                let iv = bounds::quantile_interval(&merged, phi, BOUND_ITERS);
                *q = 0.5 * (iv.lo + iv.hi);
            }
        }
        qs
    }
}

/// Guard returned by [`Recorder::start`]; records elapsed seconds on
/// drop (or explicitly via [`Timer::stop`]).
pub struct Timer {
    recorder: Option<Recorder>,
    started: Instant,
}

impl Timer {
    /// Stop now and record; consumes the timer.
    pub fn stop(self) {}

    /// Discard without recording (e.g. on error paths that should not
    /// pollute the latency distribution).
    pub fn cancel(mut self) {
        self.recorder = None;
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(rec) = self.recorder.take() {
            rec.observe(self.started.elapsed().as_secs_f64());
        }
    }
}

/// Sorted label pairs — the series key within a metric family.
type LabelSet = Vec<(String, String)>;

fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut ls: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    ls.sort();
    ls
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<(String, LabelSet), Counter>,
    gauges: BTreeMap<(String, LabelSet), Gauge>,
    recorders: BTreeMap<(String, LabelSet), Recorder>,
}

/// A metrics registry: named counter/gauge/summary families, each
/// family a set of label-distinguished series.
///
/// Handles returned by [`Registry::counter`] etc. are cached per
/// (name, label-set) and cheap to clone; hot paths fetch them once at
/// startup and never touch the registry map again. Metric names used
/// with literal names are pinned append-only in `lint/metrics.golden`
/// (lint rule `metrics`), like wire tags and failpoints.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or register the counter series `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        lock(&self.inner)
            .counters
            .entry((name.to_string(), label_set(labels)))
            .or_default()
            .clone()
    }

    /// Get or register the gauge series `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        lock(&self.inner)
            .gauges
            .entry((name.to_string(), label_set(labels)))
            .or_default()
            .clone()
    }

    /// Publish a counter its owner already holds as the series
    /// `name{labels}` (replacing any handle registered there before):
    /// the owner keeps writing its own field, and the exposition reads
    /// that same atomic.
    pub fn register_counter(&self, name: &str, labels: &[(&str, &str)], counter: &Counter) {
        lock(&self.inner)
            .counters
            .insert((name.to_string(), label_set(labels)), counter.clone());
    }

    /// Publish a gauge its owner already holds as the series
    /// `name{labels}`; see [`Registry::register_counter`].
    pub fn register_gauge(&self, name: &str, labels: &[(&str, &str)], gauge: &Gauge) {
        lock(&self.inner)
            .gauges
            .insert((name.to_string(), label_set(labels)), gauge.clone());
    }

    /// Get or register the latency-recorder (summary) series
    /// `name{labels}`.
    pub fn recorder(&self, name: &str, labels: &[(&str, &str)]) -> Recorder {
        lock(&self.inner)
            .recorders
            .entry((name.to_string(), label_set(labels)))
            .or_insert_with(Recorder::new)
            .clone()
    }

    /// All registered series names (sorted, deduplicated) — the lint
    /// `metrics` rule's runtime counterpart, used by tests.
    pub fn names(&self) -> Vec<String> {
        let inner = lock(&self.inner);
        let mut names: Vec<String> = inner
            .counters
            .keys()
            .chain(inner.gauges.keys())
            .chain(inner.recorders.keys())
            .map(|(n, _)| n.clone())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Render every registered series in Prometheus text exposition
    /// format (version 0.0.4): `# TYPE` per family, then one line per
    /// series, summaries as `quantile=` series plus `_sum`/`_count`.
    ///
    /// Output is deterministically ordered (BTreeMap iteration), so
    /// scrapes are diffable.
    pub fn render(&self) -> String {
        // Snapshot handles under the lock, estimate quantiles outside it
        // (the max-entropy solve is the expensive part of a scrape).
        let (counters, gauges, recorders) = {
            let inner = lock(&self.inner);
            (
                inner
                    .counters
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>(),
                inner
                    .gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>(),
                inner
                    .recorders
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>(),
            )
        };
        let mut out = String::new();
        let mut last_type: Option<String> = None;
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            if last_type.as_deref() != Some(name) {
                out.push_str("# TYPE ");
                out.push_str(name);
                out.push(' ');
                out.push_str(kind);
                out.push('\n');
                last_type = Some(name.to_string());
            }
        };
        for ((name, labels), c) in &counters {
            type_line(&mut out, name, "counter");
            series_line(&mut out, name, labels, &[], &c.get().to_string());
        }
        for ((name, labels), g) in &gauges {
            type_line(&mut out, name, "gauge");
            series_line(&mut out, name, labels, &[], &g.get().to_string());
        }
        for ((name, labels), r) in &recorders {
            type_line(&mut out, name, "summary");
            let merged = r.merged();
            let qs = r.quantiles(&EXPOSED_QUANTILES);
            for (phi, q) in EXPOSED_QUANTILES.iter().zip(&qs) {
                series_line(
                    &mut out,
                    name,
                    labels,
                    &[("quantile", &format_phi(*phi))],
                    &format_value(*q),
                );
            }
            // The moments sketch carries sum and count natively:
            // power_sums[1] = Σx, power_sums[0] = n.
            let sum = if merged.count() == 0.0 {
                0.0
            } else {
                merged.power_sums()[1]
            };
            let mut sum_name = name.clone();
            sum_name.push_str("_sum");
            series_line(&mut out, &sum_name, labels, &[], &format_value(sum));
            let mut count_name = name.clone();
            count_name.push_str("_count");
            series_line(
                &mut out,
                &count_name,
                labels,
                &[],
                &(merged.count() as u64).to_string(),
            );
        }
        out
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

/// `0.5` / `0.95` / `0.99` — trimmed, no trailing zeros (label text).
fn format_phi(phi: f64) -> String {
    let mut s = format!("{phi}");
    if !s.contains('.') {
        s.push_str(".0");
    }
    s
}

/// A sample value: Rust's shortest-round-trip float formatting, which
/// the Prometheus text format accepts (including `NaN`).
fn format_value(v: f64) -> String {
    format!("{v}")
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn series_line(
    out: &mut String,
    name: &str,
    labels: &LabelSet,
    extra: &[(&str, &str)],
    value: &str,
) {
    out.push_str(name);
    if !labels.is_empty() || !extra.is_empty() {
        out.push('{');
        let mut first = true;
        let pairs = labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(extra.iter().copied());
        for (k, v) in pairs {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(v));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}
