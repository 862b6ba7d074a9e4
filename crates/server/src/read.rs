//! The read path: `/quantile`, `/groupby`, `/threshold` and `/search`
//! are each one *selection → fold → estimate/cascade → render*
//! pipeline (the paper's query model: merge the matching cells, then
//! estimate once — Eq. 2–3 — or run the cascade before the solver —
//! Alg. 2).
//!
//! [`Selection::resolve`] is the only place a read route touches the
//! snapshot slot or the timeline, so the status order is decided once:
//! a `t0`/`t1` range answers from the timeline and needs no snapshot;
//! otherwise no snapshot yet is `503` + `Retry-After` *before* any
//! parameter is judged; every malformed or unsupported parameter is
//! then a `400`; and a selection that matches nothing is a `200` with
//! `"rows": 0` ([`Selection::answer`]), never an error.

use crate::{error, ok, stats_value, unavailable, ServedSnapshot, ServerState};
use moments_sketch::bounds::quantile_interval;
use msketch_cube::query::fold_cells;
use msketch_cube::{DynCube, GroupThresholdQuery, QueryEngine};
use msketch_macrobase::{MacroBaseConfig, MacroBaseEngine};
use msketch_sketches::{MomentsBacked, Sketch};
use msketch_timeline::{RangeAnswer, RangeRead, TimelineError};
use serde_json::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tiny_http::{Request, Response};

/// A read handler's result: `Err` is the error response to send
/// instead, so the parse steps chain with `?`.
pub(crate) type Outcome<T> = Result<T, Response>;

type Field = (&'static str, Value);

/// Bisection steps when resolving a quantile from the moment *bounds*
/// on the degraded path (same depth the estimator's own interval
/// reporting uses).
const BOUND_ITERS: usize = 60;

/// What part of the data a route can be asked about.
#[derive(Clone, Copy, PartialEq)]
enum Scope {
    /// `dim=value` filters and a `t0`/`t1` range narrow the selection.
    Slice,
    /// The route answers for the whole snapshot only
    /// (`MacroBaseEngine::search_cube` takes no filter): filters and
    /// ranges are rejected, not silently ignored.
    WholeSnapshot,
}

impl Scope {
    /// Query parameter names that are operators, not dimension filters
    /// (each route reads the ones it takes and ignores the others). The
    /// range pair is an operator only where a range can be asked for.
    fn operators(self) -> &'static [&'static str] {
        match self {
            Scope::Slice => &["q", "by", "t", "global_phi", "ratio", "t0", "t1"],
            Scope::WholeSnapshot => &["q", "by", "t", "global_phi", "ratio"],
        }
    }
}

/// Where a selection's cells live.
enum Source {
    /// The merged segment cover of a `t0`/`t1` range.
    Range(RangeAnswer),
    /// The epoch snapshot current when the request arrived.
    Snapshot(Arc<ServedSnapshot>),
}

impl Source {
    fn cube(&self) -> &DynCube {
        match self {
            Source::Range(answer) => &answer.cube,
            Source::Snapshot(snap) => snap.cube(),
        }
    }
}

/// What a read request selected: the cube it answers from, the cell
/// filter its `dim=value` parameters spell, and the response head
/// naming the source (`epoch`, or `t0`/`t1`/`segments`).
struct Selection {
    source: Source,
    filter: Vec<Option<u32>>,
    head: Vec<Field>,
}

impl Selection {
    /// Range cover or snapshot (else `503`), then the filter (else
    /// `400`) — the status order every read route shares.
    fn resolve(state: &ServerState, req: &Request, scope: Scope) -> Outcome<Selection> {
        let range = match scope {
            Scope::Slice => parse_range(state, req)?,
            Scope::WholeSnapshot => None,
        };
        let (source, head) = match range {
            Some(answer) => {
                let head = vec![
                    ("t0", Value::from(answer.t0)),
                    ("t1", Value::from(answer.t1)),
                    ("segments", Value::from(answer.segments_read)),
                ];
                (Source::Range(answer), head)
            }
            None => {
                let Some(snap) = state.load_snapshot() else {
                    return Err(unavailable(state, "no snapshot yet: refresh has not run"));
                };
                let head = vec![("epoch", Value::from(snap.epoch()))];
                (Source::Snapshot(snap), head)
            }
        };
        let filter = parse_filter(state, source.cube(), req, scope)?;
        Ok(Selection {
            source,
            filter,
            head,
        })
    }

    fn cube(&self) -> &DynCube {
        self.source.cube()
    }

    /// `200`: the response head, then `"rows"` when the route states
    /// it, then `body`. "No rows" is an answer, not an error: a quiet
    /// window, a never-seen filter value or an empty cube passes
    /// `Some(0)` with its zero-valued body.
    fn answer(self, rows: Option<u64>, body: Vec<Field>) -> Response {
        let mut fields = self.head;
        fields.extend(rows.map(|rows| ("rows", Value::from(rows))));
        fields.extend(body);
        ok(Value::object(fields))
    }
}

/// Parse `?t0=&t1=` and, when present, answer the range from the
/// timeline's segment cover. `Ok(None)` means no range was requested
/// (serve from the snapshot); an in-range query with no persisted data
/// comes back as an *empty* answer (zero-row cube, `segments_read: 0`,
/// the same snapped bounds a busy window reports), not an error.
///
/// The timeline lock is held only to plan the cover; the segment loads
/// and the merge — the whole cost of a range read — run after it is
/// released, so stamped `/ingest`, maintenance, `/stats` and `/metrics`
/// never wait behind one.
fn parse_range(state: &ServerState, req: &Request) -> Outcome<Option<RangeAnswer>> {
    let (raw_t0, raw_t1) = match (req.query_param("t0"), req.query_param("t1")) {
        (None, None) => return Ok(None),
        (Some(a), Some(b)) => (a, b),
        _ => return Err(error(400, "t0 and t1 must be given together")),
    };
    let (Ok(t0), Ok(t1)) = (raw_t0.parse::<u64>(), raw_t1.parse::<u64>()) else {
        return Err(error(400, "t0 and t1 must be millisecond timestamps"));
    };
    // The guard lives inside the closure: dropped before any merge.
    let plan = || {
        state
            .lock_timeline()
            .map(|timeline| timeline.range_read(t0, t1))
    };
    let Some(read) = plan() else {
        return Err(error(
            400,
            "range queries need a timeline (start with --timeline-dir)",
        ));
    };
    let mut answer = read.and_then(RangeRead::merge);
    if matches!(answer, Err(TimelineError::SegmentGone { .. })) {
        // Retention deleted a cover segment between the plan and its
        // load; the index no longer lists it, so a second plan answers.
        if let Some(read) = plan() {
            answer = read.and_then(RangeRead::merge);
        }
    }
    match answer {
        Ok(answer) => Ok(Some(answer)),
        Err(TimelineError::BadRange { .. }) => {
            Err(error(400, "empty or inverted time range: t1 must be > t0"))
        }
        Err(e) => Err(error(500, &format!("range query failed: {e}"))),
    }
}

/// Build a cell filter from `?dim=value` parameters against the
/// selected cube — the snapshot's merged cube or a timeline range cube.
/// A value the dictionary has never seen filters to the empty selection
/// (sentinel id that matches no cell) rather than erroring.
fn parse_filter(
    state: &ServerState,
    cube: &DynCube,
    req: &Request,
    scope: Scope,
) -> Outcome<Vec<Option<u32>>> {
    let mut filter = cube.no_filter();
    for (name, value) in &req.query {
        if scope.operators().contains(&name.as_str()) {
            continue;
        }
        if scope == Scope::WholeSnapshot {
            let why = "this route answers for the whole snapshot (no filters, no time range)";
            return Err(error(
                400,
                &format!("unsupported parameter {name:?}: {why}"),
            ));
        }
        let Some(d) = state.dims.iter().position(|dim| dim == name) else {
            return Err(error(
                400,
                &format!(
                    "unknown parameter {name:?} (dimensions: {})",
                    state.dims.join(", ")
                ),
            ));
        };
        let id = cube
            .dictionary(d)
            .ok()
            .and_then(|dict| dict.lookup(value))
            .unwrap_or(u32::MAX);
        filter[d] = Some(id);
    }
    Ok(filter)
}

/// Parse `?q=0.5,0.99` (default `0.5`).
fn parse_phis(req: &Request) -> Outcome<Vec<f64>> {
    let raw = req.query_param("q").unwrap_or("0.5");
    let mut phis = Vec::new();
    for part in raw.split(',').filter(|p| !p.is_empty()) {
        match part.parse::<f64>() {
            Ok(phi) if (0.0..=1.0).contains(&phi) => phis.push(phi),
            _ => return Err(error(400, "q must be a comma list of fractions in [0, 1]")),
        }
    }
    if phis.is_empty() {
        return Err(error(400, "q lists no quantile fractions"));
    }
    Ok(phis)
}

/// Parse `?by=dim,dim` into dimension indices.
fn parse_group_dims(state: &ServerState, req: &Request) -> Outcome<Vec<usize>> {
    let Some(raw) = req.query_param("by") else {
        return Err(error(400, "missing \"by\": comma list of dimension names"));
    };
    let mut dims = Vec::new();
    for name in raw.split(',').filter(|p| !p.is_empty()) {
        let Some(d) = state.dims.iter().position(|dim| dim == name) else {
            return Err(error(
                400,
                &format!(
                    "unknown dimension {name:?} (dimensions: {})",
                    state.dims.join(", ")
                ),
            ));
        };
        dims.push(d);
    }
    if dims.is_empty() {
        return Err(error(400, "\"by\" lists no dimensions"));
    }
    Ok(dims)
}

/// Estimate `phis` from a merged summary — the one solve of a request
/// ([`Sketch::quantiles`] reads every fraction out of a single
/// max-entropy solution).
///
/// The per-request deadline ([`crate::ServerConfig::quantile_deadline`])
/// is checked once, after the merge and before the solve: a request
/// that has already spent its budget answers from the closed-form
/// moment-bound interval midpoint instead and is marked `degraded`.
/// Merging is never skipped — only estimation is downgraded — so
/// `count`/`cells_merged` stay exact.
fn estimate(
    state: &ServerState,
    started: Instant,
    merged: &(impl Sketch + MomentsBacked),
    phis: &[f64],
) -> (Vec<f64>, bool) {
    let mut span = msketch_obs::span("server::estimate");
    let deadline = state.quantile_deadline;
    let degraded = deadline > Duration::ZERO && started.elapsed() >= deadline;
    let values = match merged.as_moments().filter(|_| degraded) {
        Some(moments) => phis
            .iter()
            .map(|&phi| {
                let interval = quantile_interval(moments, phi, BOUND_ITERS);
                0.5 * (interval.lo + interval.hi)
            })
            .collect(),
        // Non-moments backends have no cheaper fallback tier; their
        // direct estimate is already the cheap path.
        None => merged.quantiles(phis),
    };
    span.field("phis", phis.len());
    span.field("degraded", degraded);
    if degraded {
        state.metrics.degraded_served.inc();
    }
    (values, degraded)
}

/// `GET /quantile?q=0.5,0.99&dim=value…` — fold the selection, then
/// estimate once. Bit-exact with [`QueryEngine::quantiles`] on the same
/// cube unless the deadline degrades it.
pub(crate) fn quantile(state: &ServerState, req: &Request) -> Outcome<Response> {
    let started = Instant::now();
    // Deterministic slow-request injection point for the fault suite.
    failpoint::sleep_if("server::quantile_slow");
    let selection = Selection::resolve(state, req, Scope::Slice)?;
    let phis = parse_phis(req)?;
    let mut merge_span = msketch_obs::span("server::merge_cells");
    let folded = fold_cells(selection.cube(), &selection.filter);
    merge_span.field("cells", folded.as_ref().map_or(0, |(_, cells)| *cells));
    drop(merge_span);
    let (rows, cells_merged, values, degraded) = match &folded {
        Some((merged, cells)) => {
            let (values, degraded) = estimate(state, started, merged, &phis);
            (merged.count(), *cells, values, degraded)
        }
        None => (0, 0, Vec::new(), false),
    };
    Ok(selection.answer(
        Some(rows),
        vec![
            ("count", Value::from(rows as f64)),
            ("cells_merged", Value::from(cells_merged)),
            ("phis", Value::array(phis)),
            ("values", Value::array(values)),
            ("degraded", Value::from(degraded)),
        ],
    ))
}

/// `GET /groupby?by=dim,dim&q=0.5,0.99&dim=value…`
pub(crate) fn groupby(state: &ServerState, req: &Request) -> Outcome<Response> {
    let selection = Selection::resolve(state, req, Scope::Slice)?;
    let by = parse_group_dims(state, req)?;
    let phis = parse_phis(req)?;
    let groups =
        QueryEngine::group_quantiles_decoded(selection.cube(), &by, &selection.filter, &phis)
            .map_err(|e| error(400, &format!("{e}")))?;
    let rows = groups.is_empty().then_some(0);
    let groups = groups.into_iter().map(|g| {
        Value::object(vec![
            ("key", Value::array(g.key)),
            ("count", Value::from(g.count)),
            ("values", Value::array(g.values)),
        ])
    });
    Ok(selection.answer(
        rows,
        vec![
            (
                "by",
                Value::array(by.iter().map(|&d| state.dims[d].as_str())),
            ),
            ("phis", Value::array(phis)),
            ("groups", Value::Array(groups.collect())),
        ],
    ))
}

/// `GET /threshold?by=dim&q=0.9&t=500&dim=value…` — the paper's HAVING
/// query, resolved with the threshold cascade.
pub(crate) fn threshold(state: &ServerState, req: &Request) -> Outcome<Response> {
    let selection = Selection::resolve(state, req, Scope::Slice)?;
    let by = parse_group_dims(state, req)?;
    let phi = match req.query_param("q").unwrap_or("0.9").parse::<f64>() {
        Ok(phi) if (0.0..=1.0).contains(&phi) => phi,
        _ => return Err(error(400, "q must be one fraction in [0, 1]")),
    };
    // NaN compares false at every cascade stage, so it would fall
    // through to one max-ent solve per group and then count as a hit;
    // ±inf stay valid (the simple stage answers them exactly).
    let Some(t) = req
        .query_param("t")
        .and_then(|t| t.parse::<f64>().ok())
        .filter(|t| !t.is_nan())
    else {
        return Err(error(400, "missing, non-numeric or NaN threshold \"t\""));
    };
    let report = GroupThresholdQuery::new(phi, t)
        .run_cube_decoded(selection.cube(), &by, &selection.filter)
        .map_err(|e| error(400, &format!("{e}")))?;
    // Fold the per-query stats into the cumulative stage counters so
    // `/metrics` and `/stats` keep process-lifetime cascade hit rates.
    state.metrics.cascade.accumulate(&report.stats);
    let hits = report.hits.into_iter().map(Value::array);
    Ok(selection.answer(
        (report.groups == 0).then_some(0),
        vec![
            ("phi", Value::from(phi)),
            ("t", Value::from(t)),
            ("groups", Value::from(report.groups)),
            ("hits", Value::Array(hits.collect())),
            ("stats", stats_value(&report.stats)),
        ],
    ))
}

/// `GET /search?by=dim&global_phi=0.99&ratio=30` — MacroBase-style
/// outlier-rate subpopulation search over the whole snapshot.
pub(crate) fn search(state: &ServerState, req: &Request) -> Outcome<Response> {
    let selection = Selection::resolve(state, req, Scope::WholeSnapshot)?;
    let by = parse_group_dims(state, req)?;
    let global_phi = match req
        .query_param("global_phi")
        .unwrap_or("0.99")
        .parse::<f64>()
    {
        Ok(phi) if (0.0..1.0).contains(&phi) => phi,
        _ => return Err(error(400, "global_phi must be a fraction in [0, 1)")),
    };
    let ratio = match req.query_param("ratio").unwrap_or("30").parse::<f64>() {
        Ok(r) if r >= 1.0 => r,
        _ => return Err(error(400, "ratio must be a number >= 1")),
    };
    let mut macrobase = MacroBaseEngine::new(MacroBaseConfig {
        global_phi,
        rate_ratio: ratio,
        ..MacroBaseConfig::default()
    });
    // An empty cube has no global threshold to search against.
    let empty = selection.cube().cell_count() == 0;
    let reports = if empty {
        Vec::new()
    } else {
        macrobase
            .search_cube(selection.cube(), &by)
            .map_err(|e| error(400, &format!("{e}")))?
    };
    state.metrics.cascade.accumulate(&macrobase.stats());
    let subpopulations = reports.into_iter().map(|r| {
        Value::object(vec![
            ("label", Value::from(r.label)),
            ("count", Value::from(r.count)),
        ])
    });
    Ok(selection.answer(
        empty.then_some(0),
        vec![
            ("global_phi", Value::from(global_phi)),
            ("ratio", Value::from(ratio)),
            ("subpopulations", Value::Array(subpopulations.collect())),
            ("stats", stats_value(&macrobase.stats())),
        ],
    ))
}
