//! Query layer: single-quantile roll-up queries and group-by threshold
//! queries with the cascade fast path (Sections 3.3 and 5.2).

use crate::cube::DataCube;
use crate::Result;
use moments_sketch::{CascadeConfig, CascadeStats, ThresholdEvaluator};
use msketch_sketches::traits::{QuantileSummary, Sketch, SummaryFactory};
use serde::Serialize;
use std::collections::HashMap;

/// A multi-quantile roll-up answer in wire-friendly form: plain decoded
/// fields, no summary handles — what the HTTP serving layer renders to
/// JSON and what harnesses can log directly.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QuantileReport {
    /// The quantile fractions queried, as given.
    pub phis: Vec<f64>,
    /// One estimate per entry of `phis`.
    pub values: Vec<f64>,
    /// Points in the merged population.
    pub count: f64,
    /// Cells merged to answer — `n_merge` of the paper's cost model.
    pub cells_merged: usize,
}

/// One group of a group-by quantile query, with its key decoded to
/// dimension values.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GroupReport {
    /// Decoded group key, aligned with the queried group dimensions.
    pub key: Vec<String>,
    /// Points in the group.
    pub count: f64,
    /// One estimate per requested quantile fraction.
    pub values: Vec<f64>,
}

/// A threshold (HAVING) query answer with decoded keys plus the cascade
/// statistics that resolved it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ThresholdReport {
    /// Decoded keys of the groups whose quantile exceeded the threshold,
    /// in sorted order.
    pub hits: Vec<Vec<String>>,
    /// Groups evaluated.
    pub groups: usize,
    /// Per-stage cascade resolution counters.
    pub stats: CascadeStats,
}

/// Merge every cell matching `filter` into one summary, returning it
/// with the number of cells merged (`n_merge` of the paper's cost
/// model), or `None` when nothing matched.
///
/// This is the one cell-fold loop of the workspace — the hot loop of
/// every aggregation query, costing `n_merge · t_merge`.
/// [`DataCube::rollup`], [`QueryEngine::quantiles`] and the HTTP
/// `/quantile` route all answer through it. Cells merge in
/// deterministic decoded-tuple order (see
/// [`DataCube::matching_sorted`]), so equal cell sets always produce
/// bit-identical results.
pub fn fold_cells<F: SummaryFactory>(
    cube: &DataCube<F>,
    filter: &[Option<u32>],
) -> Option<(F::Summary, usize)> {
    let mut cells = cube.ordered(filter).map(|(_, summary)| summary);
    let mut merged = (**cells.next()?).clone();
    let mut cells_merged = 1;
    for summary in cells {
        merged.merge_from(summary);
        cells_merged += 1;
    }
    Some((merged, cells_merged))
}

/// Matching cells grouped by `group_dims`, in sorted-key order, with
/// the number of cells merged into them — the one group scan of the
/// workspace, and the deterministic evaluation order of every group
/// query ([`QueryEngine::group_quantiles_decoded`],
/// [`GroupThresholdQuery::run_cube_decoded`], MacroBase's
/// `search_cube`, [`DataCube::group_by`]). Each group merges its cells
/// in canonical order; one key buffer serves every lookup, so only a
/// new group allocates its key. No matching cell is no group, not an
/// error.
#[expect(clippy::type_complexity, reason = "the groups plus one count")]
pub fn sorted_groups<F: SummaryFactory>(
    cube: &DataCube<F>,
    group_dims: &[usize],
    filter: &[Option<u32>],
) -> Result<(Vec<(Vec<u32>, F::Summary)>, usize)> {
    if let Some(&d) = group_dims.iter().find(|&&d| d >= cube.dim_count()) {
        return Err(crate::Error::NoSuchDimension(d));
    }
    let mut groups: HashMap<Vec<u32>, F::Summary> = HashMap::new();
    let mut gkey: Vec<u32> = Vec::with_capacity(group_dims.len());
    let mut cells = 0;
    for (key, summary) in cube.ordered(filter) {
        cells += 1;
        gkey.clear();
        gkey.extend(group_dims.iter().map(|&d| key[d]));
        match groups.get_mut(&gkey) {
            Some(group) => group.merge_from(summary),
            None => {
                groups.insert(gkey.clone(), (**summary).clone());
            }
        }
    }
    let mut groups: Vec<_> = groups.into_iter().collect();
    groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    Ok((groups, cells))
}

/// Decode a group key's ids into their dimension values; ids unknown to
/// a dictionary (impossible for keys drawn from the cube's own cells)
/// decode as `"?"`.
pub fn decode_group_key<F: SummaryFactory>(
    cube: &DataCube<F>,
    group_dims: &[usize],
    key: &[u32],
) -> Vec<String> {
    key.iter()
        .zip(group_dims)
        .map(|(&id, &d)| {
            cube.dictionary(d)
                .ok()
                .and_then(|dict| dict.decode(id))
                .unwrap_or("?")
                .to_string()
        })
        .collect()
}

/// Convenience wrapper answering the paper's two query classes against a
/// cube of arbitrary summaries. Estimation goes through
/// [`Sketch::quantiles`] only: one solve per merged summary however
/// many fractions are read out.
pub struct QueryEngine;

impl QueryEngine {
    /// `SELECT percentile(metric, φ…) WHERE <filter>` — merge matching
    /// cells, then estimate once (Equation 2's cost model), in decoded,
    /// wire-friendly form.
    pub fn quantiles<F: SummaryFactory>(
        cube: &DataCube<F>,
        filter: &[Option<u32>],
        phis: &[f64],
    ) -> Result<QuantileReport> {
        let (merged, cells_merged) = fold_cells(cube, filter).ok_or(crate::Error::EmptyResult)?;
        Ok(QuantileReport {
            phis: phis.to_vec(),
            values: merged.quantiles(phis),
            count: merged.count() as f64,
            cells_merged,
        })
    }

    /// Group-by quantiles with decoded keys, sorted by key: one estimate
    /// per group (Equation 3's cost model with `t_est · n_groups`).
    pub fn group_quantiles_decoded<F: SummaryFactory>(
        cube: &DataCube<F>,
        group_dims: &[usize],
        filter: &[Option<u32>],
        phis: &[f64],
    ) -> Result<Vec<GroupReport>> {
        let mut span = msketch_obs::span("cube::group_by");
        let (groups, cells) = sorted_groups(cube, group_dims, filter)?;
        span.field("groups", groups.len());
        span.field("cells", cells);
        drop(span);
        let mut span = msketch_obs::span("cube::estimate");
        span.field("groups", groups.len());
        let mut out: Vec<GroupReport> = groups
            .into_iter()
            .map(|(key, summary)| GroupReport {
                key: decode_group_key(cube, group_dims, &key),
                count: summary.count() as f64,
                values: summary.quantiles(phis),
            })
            .collect();
        // Decoded keys depend only on the data, never on dictionary id
        // assignment, so the order is stable across ingest paths.
        out.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        drop(span);
        Ok(out)
    }
}

/// `GROUP BY ... HAVING percentile(metric, φ) > t`, resolved with the
/// threshold cascade (Algorithm 2).
pub struct GroupThresholdQuery {
    /// Quantile fraction of the HAVING predicate.
    pub phi: f64,
    /// Threshold value.
    pub t: f64,
    /// Cascade configuration (stage ablation for Figures 12–13).
    pub cascade: CascadeConfig,
}

impl GroupThresholdQuery {
    /// New query with the default cascade.
    pub fn new(phi: f64, t: f64) -> Self {
        GroupThresholdQuery {
            phi,
            t,
            cascade: CascadeConfig::default(),
        }
    }

    /// Run against a cube (or an engine snapshot, which derefs to one):
    /// group matching cells by `group_dims`, threshold each group, and
    /// report the hits decoded to dimension values and sorted — the
    /// deterministic, wire-friendly form served over HTTP.
    ///
    /// Works for any backend — moments-sketch groups (typed or boxed)
    /// route through the cascade, other backends compare their direct
    /// quantile estimate ([`msketch_sketches::threshold_dyn`]). Groups
    /// are evaluated in sorted-key order, so results and cascade
    /// statistics are deterministic.
    pub fn run_cube_decoded<F: SummaryFactory>(
        &self,
        cube: &DataCube<F>,
        group_dims: &[usize],
        filter: &[Option<u32>],
    ) -> Result<ThresholdReport> {
        let mut span = msketch_obs::span("cascade::evaluate");
        let (entries, _) = sorted_groups(cube, group_dims, filter)?;
        let mut evaluator = ThresholdEvaluator::new(self.cascade);
        let mut hits: Vec<Vec<String>> = Vec::new();
        for (key, summary) in &entries {
            if msketch_sketches::threshold_dyn(&mut evaluator, summary, self.t, self.phi) {
                hits.push(decode_group_key(cube, group_dims, key));
            }
        }
        let stats = evaluator.stats();
        span.field("groups", entries.len());
        span.field("maxent_evals", stats.maxent_evals);
        drop(span);
        hits.sort_unstable();
        Ok(ThresholdReport {
            hits,
            groups: entries.len(),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msketch_sketches::SketchSpec;

    fn cube_with_hot_group() -> DataCube<SketchSpec> {
        let factory = SketchSpec::moments(10);
        let mut cube = DataCube::new(factory, &["app", "hw"]);
        for i in 0..9000u64 {
            let app = match i % 3 {
                0 => "a1",
                1 => "a2",
                _ => "a3",
            };
            let hw = if i % 2 == 0 { "h1" } else { "h2" };
            // App a3 has a slow tail.
            let metric = (i % 97) as f64 + if app == "a3" { 300.0 } else { 0.0 };
            cube.insert(&[app, hw], metric).unwrap();
        }
        cube
    }

    #[test]
    fn single_quantile_query() {
        let cube = cube_with_hot_group();
        let report = QueryEngine::quantiles(&cube, &cube.no_filter(), &[0.5]).unwrap();
        assert!(report.values[0] > 0.0);
        // A filter that matches nothing is an error here, not a panic.
        assert_eq!(
            QueryEngine::quantiles(&cube, &[Some(u32::MAX), None], &[0.5]),
            Err(crate::Error::EmptyResult)
        );
    }

    #[test]
    fn group_quantiles_separate_populations() {
        let cube = cube_with_hot_group();
        let rows =
            QueryEngine::group_quantiles_decoded(&cube, &[0], &cube.no_filter(), &[0.9]).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows[2].values[0] > rows[0].values[0] + 250.0, "{rows:?}");
    }

    #[test]
    fn having_threshold_finds_hot_group() {
        let cube = cube_with_hot_group();
        let report = GroupThresholdQuery::new(0.9, 250.0)
            .run_cube_decoded(&cube, &[0], &cube.no_filter())
            .unwrap();
        assert_eq!(report.hits, [["a3"]]);
        assert_eq!(report.stats.total, 3);
    }

    #[test]
    fn non_moments_backends_bypass_the_cascade() {
        let mut cube = crate::DynCube::from_spec(SketchSpec::tdigest(5.0), &["app"]);
        for i in 0..6000u64 {
            let app = if i % 3 == 2 { "slow" } else { "fast" };
            let metric = (i % 97) as f64 + if app == "slow" { 300.0 } else { 0.0 };
            cube.insert(&[app], metric).unwrap();
        }
        let report = GroupThresholdQuery::new(0.9, 250.0)
            .run_cube_decoded(&cube, &[0], &cube.no_filter())
            .unwrap();
        assert_eq!(report.hits, [["slow"]]);
        assert_eq!(report.groups, 2);
        // Non-moments backends bypass the cascade entirely.
        assert_eq!(report.stats.total, 0);
    }

    #[test]
    fn quantile_report_is_bit_exact_vs_scalar_queries() {
        let cube = cube_with_hot_group();
        let phis = [0.1, 0.5, 0.9, 0.99];
        let report = QueryEngine::quantiles(&cube, &cube.no_filter(), &phis).unwrap();
        assert_eq!(report.phis, phis);
        assert_eq!(report.count, 9000.0);
        assert_eq!(report.cells_merged, 6);
        let merged = cube.rollup(&cube.no_filter()).unwrap();
        for (phi, value) in phis.iter().zip(&report.values) {
            assert_eq!(
                value.to_bits(),
                merged.quantile(*phi).to_bits(),
                "phi {phi}"
            );
        }
    }

    #[test]
    fn group_reports_decode_and_sort_keys() {
        let cube = cube_with_hot_group();
        let rows =
            QueryEngine::group_quantiles_decoded(&cube, &[0], &cube.no_filter(), &[0.5, 0.9])
                .unwrap();
        let keys: Vec<&[String]> = rows.iter().map(|r| r.key.as_slice()).collect();
        assert_eq!(keys, [["a1"], ["a2"], ["a3"]]);
        for row in &rows {
            assert_eq!(row.count, 3000.0);
            assert_eq!(row.values.len(), 2);
        }
    }

    #[test]
    fn threshold_report_matches_run_cube() {
        let cube = cube_with_hot_group();
        let query = GroupThresholdQuery::new(0.9, 250.0);
        let report = query
            .run_cube_decoded(&cube, &[0], &cube.no_filter())
            .unwrap();
        assert_eq!(report.hits, [["a3"]]);
        assert_eq!(report.groups, 3);
        assert_eq!(report.stats.total, 3);
        // A filter keeps the group universe honest.
        let h1 = cube.dictionary(1).unwrap().lookup("h1").unwrap();
        let filtered = query
            .run_cube_decoded(&cube, &[0], &[None, Some(h1)])
            .unwrap();
        assert_eq!(filtered.groups, 3);
        assert_eq!(filtered.hits, [["a3"]]);
        // Bad group dimension surfaces as an error, not a panic.
        assert!(query
            .run_cube_decoded(&cube, &[9], &cube.no_filter())
            .is_err());
    }

    #[test]
    fn cascade_agrees_with_baseline_on_groups() {
        let cube = cube_with_hot_group();
        let mut query = GroupThresholdQuery::new(0.7, 90.0);
        let full = query
            .run_cube_decoded(&cube, &[0, 1], &cube.no_filter())
            .unwrap();
        query.cascade = CascadeConfig::baseline();
        let base = query
            .run_cube_decoded(&cube, &[0, 1], &cube.no_filter())
            .unwrap();
        assert_eq!(full.hits, base.hits);
        assert_eq!(base.stats.maxent_evals, base.stats.total);
    }
}
