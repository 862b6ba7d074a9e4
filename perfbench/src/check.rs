//! The exact oracle and the correctness gate. The oracle is computed
//! from the generated rows, never from the system under test: exact
//! row counts, cell counts and empirical CDFs per sub-population.
//!
//! What is checked, per answer:
//!
//! * counts (`rows`, `cells_merged`, `groups`, per-group `count`,
//!   `accepted`) equal ground truth exactly;
//! * each quantile's rank error `|F_exact(q̂) − φ|` is at most
//!   [`margin`]`(n)` for a sub-population of `n` rows;
//! * each threshold / search decision agrees with the exact quantile
//!   whenever the threshold is more than that margin in rank away from
//!   `φ`, and always when the threshold lies outside the group's range.
//!
//! The margin catches wrong answers (a wrong filter, a lost merge, a
//! solver that diverged); how *accurate* right answers are is graded by
//! `client.eps_avg`, the paper's ε_avg.

use crate::gen::{Names, Rows, Shape};
use serde_json::Value;

/// Rank-error allowance for a sub-population of `n` rows. Calibrated
/// once on the committed tree (README, "Correctness gate"): the largest
/// rank error seen over all seeds tried was well under half of it, and
/// `2/√n` covers one-cell groups whose empirical quantiles are coarse.
pub fn margin(n: usize) -> f64 {
    0.05 + 2.0 / (n.max(1) as f64).sqrt()
}

/// Extra allowance for `/search`, whose threshold is itself an estimate
/// (the global `φ`-quantile) that the response does not report.
pub const SEARCH_SLACK: f64 = 0.02;

/// A sub-population the oracle knows the exact distribution of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pop {
    /// Every row.
    All,
    /// Rows of one app.
    App(u16),
    /// Rows of one host.
    Host(u16),
    /// Rows of one region.
    Region(u16),
    /// Rows of one `(app, host)` cell.
    Cell(u16, u16),
    /// Rows of one app within one region.
    AppRegion(u16, u16),
}

/// The groups a grouped query returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Groups {
    /// `by=host&app=X`: one group per host, each a single cell.
    HostsOfApp(u16),
    /// `by=app&region=R`: one group per app.
    AppsOfRegion(u16),
    /// `by=region&app=X`: one group per region.
    RegionsOfApp(u16),
    /// `by=app`: one group per app.
    Apps,
}

/// What a correct response to a request looks like. Field names say what
/// they hold: populations, exact cell counts, query parameters.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// `/quantile` over a static sub-population spanning `cells` cells.
    Quantile { pop: Pop, cells: usize },
    /// `/groupby` with `q=0.5,0.99`.
    GroupBy(Groups),
    /// `/threshold` with quantile `phi` and threshold `t`.
    Threshold { groups: Groups, phi: f64, t: f64 },
    /// `/search?by=app` with outlier quantile `global_phi` and `ratio`.
    Search { global_phi: f64, ratio: f64 },
    /// `/ingest` of `rows` rows, none of them late.
    Ingest { rows: usize },
    /// `/refresh`.
    Refresh,
    /// `/quantile?t0&t1` over timestamped history, all cells.
    Range { t0: u64, t1: u64 },
    /// `/quantile?app=X` while rows are still arriving: the history of
    /// the app is a lower bound on `rows`, and the live rows come from
    /// the same distribution.
    GrowingSlice { app: u16, cells: usize },
}

/// The quantile fractions every quantile request asks for.
pub const PHIS: [f64; 2] = [0.5, 0.99];

/// Exact distributions of every sub-population of one row set.
pub struct Oracle {
    shape: Shape,
    names: Names,
    all: Vec<f64>,
    by_app: Vec<Vec<f64>>,
    by_host: Vec<Vec<f64>>,
    by_region: Vec<Vec<f64>>,
    by_cell: Vec<Vec<f64>>,
    by_app_region: Vec<Vec<f64>>,
    /// Timestamped history in time order (`ts`, value), when there is one.
    history: Option<(Vec<u64>, Vec<f64>)>,
    bucket_ms: u64,
}

impl Oracle {
    /// Sort the rows by value once, then deal them into each partition in
    /// that order, so every partition is born sorted.
    pub fn new(shape: &Shape, rows: &Rows) -> Oracle {
        let mut order: Vec<(f64, u32)> = rows
            .value
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let regions = shape.regions.max(1);
        let deal = |buckets: usize, key: &dyn Fn(usize) -> usize| {
            let mut out: Vec<Vec<f64>> = vec![Vec::new(); buckets];
            for &(v, i) in &order {
                out[key(i as usize)].push(v);
            }
            out
        };
        let app = |i: usize| rows.app[i] as usize;
        let host = |i: usize| rows.host[i] as usize;
        let region = |i: usize| shape.region_of(rows.host[i]);
        Oracle {
            shape: *shape,
            names: Names::new(shape),
            all: order.iter().map(|&(v, _)| v).collect(),
            by_app: deal(shape.apps, &app),
            by_host: deal(shape.hosts, &host),
            by_region: deal(regions, &region),
            by_cell: deal(shape.cells(), &|i| app(i) * shape.hosts + host(i)),
            by_app_region: deal(shape.apps * regions, &|i| app(i) * regions + region(i)),
            history: None,
            bucket_ms: 1,
        }
    }

    /// Attach the rows' timestamps (ascending) so range queries can be
    /// checked; `bucket_ms` is the width the server snaps ranges to.
    pub fn with_history(mut self, ts: Vec<u64>, values: Vec<f64>, bucket_ms: u64) -> Oracle {
        self.history = Some((ts, values));
        self.bucket_ms = bucket_ms;
        self
    }

    /// Dimension value names.
    pub fn names(&self) -> &Names {
        &self.names
    }

    /// The ascending values of a sub-population.
    pub fn pop(&self, pop: Pop) -> &[f64] {
        let regions = self.shape.regions.max(1);
        match pop {
            Pop::All => &self.all,
            Pop::App(a) => &self.by_app[a as usize],
            Pop::Host(h) => &self.by_host[h as usize],
            Pop::Region(r) => &self.by_region[r as usize],
            Pop::Cell(a, h) => &self.by_cell[a as usize * self.shape.hosts + h as usize],
            Pop::AppRegion(a, r) => &self.by_app_region[a as usize * regions + r as usize],
        }
    }

    /// The exact `phi`-quantile of a sub-population (nearest rank).
    pub fn quantile(&self, pop: Pop, phi: f64) -> f64 {
        let s = self.pop(pop);
        s[((phi * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1]
    }

    /// Expected groups of a grouped query as `(key, population)`, in the
    /// key order the server sorts by (plain string order).
    pub fn groups(&self, groups: Groups) -> Vec<(String, Pop)> {
        let n = &self.names;
        let mut out: Vec<(String, Pop)> = match groups {
            Groups::HostsOfApp(a) => (0..self.shape.hosts as u16)
                .map(|h| (n.host[h as usize].clone(), Pop::Cell(a, h)))
                .collect(),
            Groups::AppsOfRegion(r) => (0..self.shape.apps as u16)
                .map(|a| (n.app[a as usize].clone(), Pop::AppRegion(a, r)))
                .collect(),
            Groups::RegionsOfApp(a) => (0..self.shape.regions as u16)
                .map(|r| (n.region[r as usize].clone(), Pop::AppRegion(a, r)))
                .collect(),
            Groups::Apps => (0..self.shape.apps as u16)
                .map(|a| (n.app[a as usize].clone(), Pop::App(a)))
                .collect(),
        };
        out.retain(|(_, pop)| !self.pop(*pop).is_empty());
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Check one response. `Ok` carries the rank error of every quantile
    /// it answered (for ε_avg); `Err` says what was wrong.
    pub fn check(&self, expect: &Expect, status: u16, body: &str) -> Result<Vec<f64>, String> {
        if status != 200 {
            return Err(format!("HTTP {status}: {}", truncate(body)));
        }
        let doc = serde_json::from_str(body).map_err(|e| format!("response is not JSON: {e}"))?;
        match expect {
            Expect::Quantile { pop, cells } => {
                let sorted = self.pop(*pop);
                want_u64(&doc, "rows", sorted.len() as u64)?;
                want_u64(&doc, "cells_merged", *cells as u64)?;
                want_not_degraded(&doc)?;
                rank_errors(field(&doc, "values")?, sorted.len(), |v| {
                    cdf_interval(sorted, v)
                })
            }
            Expect::GrowingSlice { app, cells } => {
                let sorted = self.pop(Pop::App(*app));
                let rows = field(&doc, "rows")?.as_u64().unwrap_or(0);
                if rows < sorted.len() as u64 {
                    return Err(format!(
                        "rows {rows} < {} already acknowledged",
                        sorted.len()
                    ));
                }
                want_u64(&doc, "cells_merged", *cells as u64)?;
                want_not_degraded(&doc)?;
                rank_errors(field(&doc, "values")?, sorted.len(), |v| {
                    cdf_interval(sorted, v)
                })
            }
            Expect::Range { t0, t1 } => {
                let (ts, values) = self.history.as_ref().ok_or("no history to check against")?;
                let lo = t0 - t0 % self.bucket_ms;
                let hi = t1.div_ceil(self.bucket_ms) * self.bucket_ms;
                want_u64(&doc, "t0", lo)?;
                want_u64(&doc, "t1", hi)?;
                let window =
                    &values[ts.partition_point(|&t| t < lo)..ts.partition_point(|&t| t < hi)];
                want_u64(&doc, "rows", window.len() as u64)?;
                want_u64(&doc, "cells_merged", self.shape.cells() as u64)?;
                want_not_degraded(&doc)?;
                rank_errors(field(&doc, "values")?, window.len(), |v| {
                    let below = window.iter().filter(|&&x| x < v).count();
                    let upto = window.iter().filter(|&&x| x <= v).count();
                    let n = window.len().max(1) as f64;
                    (below as f64 / n, upto as f64 / n)
                })
            }
            Expect::GroupBy(groups) => {
                let want = self.groups(*groups);
                let got = field(&doc, "groups")?
                    .as_array()
                    .ok_or("groups is not an array")?;
                if got.len() != want.len() {
                    return Err(format!("{} groups, expected {}", got.len(), want.len()));
                }
                let mut errs = Vec::new();
                for (g, (key, pop)) in got.iter().zip(&want) {
                    let sorted = self.pop(*pop);
                    if field(g, "key")?.at(0).and_then(Value::as_str) != Some(key) {
                        return Err(format!(
                            "group key {} where {key} belongs",
                            field(g, "key")?
                        ));
                    }
                    want_u64(g, "count", sorted.len() as u64).map_err(|e| format!("{key}: {e}"))?;
                    errs.extend(
                        rank_errors(field(g, "values")?, sorted.len(), |v| {
                            cdf_interval(sorted, v)
                        })
                        .map_err(|e| format!("{key}: {e}"))?,
                    );
                }
                Ok(errs)
            }
            Expect::Threshold { groups, phi, t } => {
                let want = self.groups(*groups);
                want_u64(&doc, "groups", want.len() as u64)?;
                let hits = field(&doc, "hits")?
                    .as_array()
                    .ok_or("hits is not an array")?;
                let hit_keys: Vec<&str> = hits
                    .iter()
                    .filter_map(|h| h.at(0).and_then(Value::as_str))
                    .collect();
                if hit_keys.len() != hits.len() {
                    return Err("a hit has no string key".to_string());
                }
                self.decisions(&want, &hit_keys, *phi, *t, 0.0)
            }
            Expect::Search { global_phi, ratio } => {
                let want = self.groups(Groups::Apps);
                let subs = field(&doc, "subpopulations")?
                    .as_array()
                    .ok_or("subpopulations is not an array")?;
                let mut flagged = Vec::new();
                for s in subs {
                    let label = field(s, "label")?.as_str().ok_or("label is not a string")?;
                    let key = label
                        .strip_prefix("app=")
                        .ok_or_else(|| format!("label {label:?}"))?;
                    let Some((_, pop)) = want.iter().find(|(k, _)| k == key) else {
                        return Err(format!("unknown subpopulation {label:?}"));
                    };
                    want_u64(s, "count", self.pop(*pop).len() as u64)
                        .map_err(|e| format!("{label}: {e}"))?;
                    flagged.push(key);
                }
                let phi = 1.0 - ratio * (1.0 - global_phi);
                let t = self.quantile(Pop::All, *global_phi);
                self.decisions(&want, &flagged, phi, t, SEARCH_SLACK)
            }
            Expect::Ingest { rows } => {
                want_u64(&doc, "accepted", *rows as u64)?;
                match doc.get("late_dropped").and_then(Value::as_u64) {
                    None | Some(0) => Ok(Vec::new()),
                    Some(n) => Err(format!("{n} rows dropped as late")),
                }
            }
            Expect::Refresh => field(&doc, "epoch").map(|_| Vec::new()),
        }
    }

    /// Every group's `quantile(phi) > t` decision against the exact CDF:
    /// binding outside the margin and outside the group's range.
    fn decisions(
        &self,
        want: &[(String, Pop)],
        hits: &[&str],
        phi: f64,
        t: f64,
        slack: f64,
    ) -> Result<Vec<f64>, String> {
        for key in hits {
            if !want.iter().any(|(k, _)| k == key) {
                return Err(format!("hit {key:?} is not a group of this query"));
            }
        }
        for (key, pop) in want {
            let sorted = self.pop(*pop);
            let hit = hits.contains(&key.as_str());
            let (_, f_t) = cdf_interval(sorted, t);
            let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
            let exact = f_t < phi;
            let decided = (f_t - phi).abs() > margin(sorted.len()) + slack
                || (slack == 0.0 && (t >= max || t < min));
            if decided && hit != exact {
                return Err(format!(
                    "group {key}: answered {hit}, but F({t}) = {f_t:.4} vs phi {phi} over {} rows",
                    sorted.len()
                ));
            }
        }
        Ok(Vec::new())
    }
}

/// `(P[X < v], P[X <= v])` over an ascending sample.
fn cdf_interval(sorted: &[f64], v: f64) -> (f64, f64) {
    let n = sorted.len().max(1) as f64;
    (
        sorted.partition_point(|&x| x < v) as f64 / n,
        sorted.partition_point(|&x| x <= v) as f64 / n,
    )
}

/// Rank error of each answered quantile: the distance from `φ` to the
/// exact CDF's jump at the answer (zero when `φ` falls inside the jump).
fn rank_errors(
    values: &Value,
    n: usize,
    cdf: impl Fn(f64) -> (f64, f64),
) -> Result<Vec<f64>, String> {
    let values = values.as_array().ok_or("values is not an array")?;
    if values.len() != PHIS.len() {
        return Err(format!(
            "{} values for {} quantiles",
            values.len(),
            PHIS.len()
        ));
    }
    let mut errs = Vec::with_capacity(PHIS.len());
    for (v, &phi) in values.iter().zip(&PHIS) {
        let v = v
            .as_f64()
            .filter(|v| v.is_finite())
            .ok_or("a quantile is not a finite number")?;
        let (below, upto) = cdf(v);
        let err = (below - phi).max(phi - upto).max(0.0);
        if err > margin(n) {
            return Err(format!(
                "q{phi} = {v}: rank error {err:.4} over {n} rows exceeds {:.4}",
                margin(n)
            ));
        }
        errs.push(err);
    }
    Ok(errs)
}

fn field<'a>(doc: &'a Value, key: &str) -> Result<&'a Value, String> {
    doc.get(key)
        .ok_or_else(|| format!("response has no {key:?}"))
}

fn want_u64(doc: &Value, key: &str, want: u64) -> Result<(), String> {
    // Counts arrive as integers or as floats holding one ("count": 250.0).
    let got = field(doc, key)?;
    match got.as_u64().or_else(|| got.as_f64().map(|f| f as u64)) {
        Some(n) if n == want => Ok(()),
        _ => Err(format!("{key} = {got}, expected {want}")),
    }
}

fn want_not_degraded(doc: &Value) -> Result<(), String> {
    match doc.get("degraded").and_then(Value::as_bool) {
        Some(false) => Ok(()),
        _ => Err("answer is degraded".to_string()),
    }
}

fn truncate(s: &str) -> &str {
    &s[..s.len().min(200)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn oracle() -> Oracle {
        let shape = Shape {
            apps: 4,
            hosts: 6,
            regions: 2,
            rows: 6_000,
        };
        Oracle::new(&shape, &gen::rows(&shape, 1))
    }

    #[test]
    fn partitions_are_sorted_and_cover_every_row() {
        let o = oracle();
        assert_eq!(o.pop(Pop::All).len(), 6_000);
        let by_app: usize = (0..4).map(|a| o.pop(Pop::App(a)).len()).sum();
        let by_cell: usize = (0..4)
            .flat_map(|a| (0..6).map(move |h| (a, h)))
            .map(|(a, h)| o.pop(Pop::Cell(a, h)).len())
            .sum();
        assert_eq!((by_app, by_cell), (6_000, 6_000));
        assert!(o.pop(Pop::AppRegion(1, 1)).windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(
            o.pop(Pop::AppRegion(1, 0)).len() + o.pop(Pop::AppRegion(1, 1)).len(),
            o.pop(Pop::App(1)).len()
        );
    }

    #[test]
    fn quantile_answers_pass_inside_the_margin_and_fail_outside() {
        let o = oracle();
        let n = o.pop(Pop::App(2)).len();
        let expect = Expect::Quantile {
            pop: Pop::App(2),
            cells: 6,
        };
        let body = |rows: usize, p50: f64, p99: f64| {
            format!(
                "{{\"rows\":{rows},\"cells_merged\":6,\"values\":[{p50},{p99}],\"degraded\":false}}"
            )
        };
        let (p50, p99) = (o.quantile(Pop::App(2), 0.5), o.quantile(Pop::App(2), 0.99));
        let errs = o.check(&expect, 200, &body(n, p50, p99)).unwrap();
        assert!(
            errs.iter().all(|&e| e == 0.0),
            "exact answers have no rank error"
        );
        // The p20 offered as a median is a wrong answer.
        let p20 = o.quantile(Pop::App(2), 0.2);
        assert!(o
            .check(&expect, 200, &body(n, p20, p99))
            .unwrap_err()
            .contains("rank error"));
        assert!(o
            .check(&expect, 200, &body(n + 1, p50, p99))
            .unwrap_err()
            .contains("rows"));
        assert!(o.check(&expect, 503, "{}").unwrap_err().contains("503"));
    }

    #[test]
    fn threshold_decisions_bind_outside_the_margin() {
        let o = oracle();
        let expect = |t| Expect::Threshold {
            groups: Groups::AppsOfRegion(0),
            phi: 0.5,
            t,
        };
        let body = |hits: &str| format!("{{\"groups\":4,\"hits\":[{hits}]}}");
        // A threshold above every value: nothing may be reported.
        assert!(o.check(&expect(1e12), 200, &body("")).is_ok());
        assert!(o.check(&expect(1e12), 200, &body("[\"app1\"]")).is_err());
        // A threshold below every value: every group must be reported.
        let all = "[\"app0\"],[\"app1\"],[\"app2\"],[\"app3\"]";
        assert!(o.check(&expect(0.0), 200, &body(all)).is_ok());
        assert!(o.check(&expect(0.0), 200, &body("[\"app0\"]")).is_err());
        assert!(o.check(&expect(0.0), 200, &body("[\"nope\"]")).is_err());
    }
}
