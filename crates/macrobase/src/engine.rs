//! Outlier-rate subpopulation search (Section 7.2.1 of the paper).

use moments_sketch::{CascadeConfig, CascadeStats, ThresholdEvaluator};
use msketch_cube::query::{decode_group_key, sorted_groups};
use msketch_cube::DataCube;
use msketch_sketches::traits::SummaryFactory;
use msketch_sketches::{MSketchSummary, Sketch};

/// Query configuration mirroring the paper's MacroBase deployment.
#[derive(Debug, Clone, Copy)]
pub struct MacroBaseConfig {
    /// Global percentile defining outliers (paper: 0.99 → `t99`).
    pub global_phi: f64,
    /// Minimum outlier-rate ratio vs the overall rate (paper: 30).
    pub rate_ratio: f64,
    /// Cascade stages to use.
    pub cascade: CascadeConfig,
}

impl Default for MacroBaseConfig {
    fn default() -> Self {
        MacroBaseConfig {
            global_phi: 0.99,
            rate_ratio: 30.0,
            cascade: CascadeConfig::default(),
        }
    }
}

impl MacroBaseConfig {
    /// The per-subpopulation quantile that must exceed the global
    /// threshold: `1 - ratio · (1 - global_phi)`.
    pub fn subpopulation_phi(&self) -> f64 {
        (1.0 - self.rate_ratio * (1.0 - self.global_phi)).clamp(0.0, 1.0)
    }
}

/// One flagged subpopulation — plain decoded fields, so the serving
/// layer renders it to JSON directly.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SubpopulationReport {
    /// Caller-provided label (e.g. "app=v8,hw=x1").
    pub label: String,
    /// Points in the subpopulation.
    pub count: f64,
}

/// Why a cube-level search failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchError {
    /// Grouping or rolling up the cube failed.
    Cube(msketch_cube::Error),
    /// The global threshold estimate failed (degenerate all-data sketch).
    Threshold(moments_sketch::Error),
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::Cube(e) => write!(f, "cube query failed: {e}"),
            SearchError::Threshold(e) => write!(f, "global threshold failed: {e}"),
        }
    }
}

impl std::error::Error for SearchError {}

impl From<msketch_cube::Error> for SearchError {
    fn from(e: msketch_cube::Error) -> Self {
        SearchError::Cube(e)
    }
}

/// The search engine; holds cascade state across queries.
pub struct MacroBaseEngine {
    config: MacroBaseConfig,
    evaluator: ThresholdEvaluator,
}

impl MacroBaseEngine {
    /// Create an engine.
    pub fn new(config: MacroBaseConfig) -> Self {
        MacroBaseEngine {
            evaluator: ThresholdEvaluator::new(config.cascade),
            config,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &MacroBaseConfig {
        &self.config
    }

    /// Compute the global outlier threshold (`t99`) from the merged
    /// all-data summary of any backend. Moments sketches go through one
    /// max-entropy solve at the default solver settings, so a failed solve
    /// is an error; other backends answer directly.
    pub fn global_threshold(&self, all: &dyn Sketch) -> moments_sketch::Result<f64> {
        match all.as_any().downcast_ref::<MSketchSummary>() {
            Some(ms) => ms.sketch.quantile(self.config.global_phi),
            None => Ok(all.quantile(self.config.global_phi)),
        }
    }

    /// Scan labeled subpopulations of any backend, returning those whose
    /// `subpopulation_phi()`-quantile exceeds `threshold`. Moments-sketch
    /// groups run the threshold cascade; every other backend compares its
    /// direct quantile estimate ([`msketch_sketches::threshold_dyn`]).
    pub fn search<'a, I>(&mut self, groups: I, threshold: f64) -> Vec<SubpopulationReport>
    where
        I: IntoIterator<Item = (&'a str, &'a dyn Sketch)>,
    {
        let phi = self.config.subpopulation_phi();
        let mut out = Vec::new();
        for (label, sketch) in groups {
            if msketch_sketches::threshold_dyn(&mut self.evaluator, sketch, threshold, phi) {
                out.push(SubpopulationReport {
                    label: label.to_string(),
                    count: sketch.count() as f64,
                });
            }
        }
        out
    }

    /// Run the full outlier-rate search against a cube — or an engine
    /// snapshot, which derefs to one — so the cascade runs unchanged
    /// over concurrently built cubes.
    ///
    /// Computes the global threshold from the all-data roll-up, groups
    /// cells by `group_dims`, and hands the groups to [`Self::search`]
    /// labelled from the cube's own dictionaries as
    /// `name=value,name=value`. Groups are scanned in sorted-key order,
    /// so reports and cascade statistics are deterministic.
    pub fn search_cube<F: SummaryFactory>(
        &mut self,
        cube: &DataCube<F>,
        group_dims: &[usize],
    ) -> Result<Vec<SubpopulationReport>, SearchError> {
        let mut span = msketch_obs::span("macrobase::search");
        let all = cube.rollup(&cube.no_filter())?;
        let threshold = self
            .global_threshold(&all)
            .map_err(SearchError::Threshold)?;
        let (groups, _) = sorted_groups(cube, group_dims, &cube.no_filter())?;
        let labels: Vec<String> = groups
            .iter()
            .map(|(key, _)| {
                let named: Vec<String> = group_dims
                    .iter()
                    .zip(decode_group_key(cube, group_dims, key))
                    .map(|(&d, value)| format!("{}={value}", cube.dim_names()[d]))
                    .collect();
                named.join(",")
            })
            .collect();
        let out = self.search(
            labels
                .iter()
                .zip(&groups)
                .map(|(label, (_, summary))| (label.as_str(), summary as &dyn Sketch)),
            threshold,
        );
        span.field("groups", groups.len());
        span.field("subpopulations", out.len());
        Ok(out)
    }

    /// Cascade statistics accumulated so far.
    pub fn stats(&self) -> CascadeStats {
        self.evaluator.stats()
    }

    /// Reset cascade statistics.
    pub fn reset_stats(&mut self) {
        self.evaluator.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moments_sketch::MomentsSketch;

    /// Build subpopulations where one group has a heavy upper tail.
    ///
    /// 50 groups of 2000 points: a 30× outlier-rate ratio needs the
    /// anomalous group to hold ≥ 30% of its own mass above the global
    /// 99th percentile while being a small share of the total, so the
    /// spike (40% of group 7) must stay under 1% of all 100k points.
    fn groups() -> (Vec<(String, MSketchSummary)>, MSketchSummary) {
        let wrap = MSketchSummary::from_sketch;
        let mut all = MomentsSketch::new(10);
        let mut out = Vec::new();
        for g in 0..50 {
            let data: Vec<f64> = (0..2000)
                .map(|i| {
                    let base = ((i * 13 + g * 7) % 100) as f64 + 1.0;
                    // Group 7 is anomalous: 40% of its points are huge.
                    if g == 7 && i % 5 < 2 {
                        base + 1000.0
                    } else {
                        base
                    }
                })
                .collect();
            let s = MomentsSketch::from_data(10, &data);
            all.merge(&s);
            out.push((format!("group-{g}"), wrap(s)));
        }
        (out, wrap(all))
    }

    fn labelled(groups: &[(String, MSketchSummary)]) -> impl Iterator<Item = (&str, &dyn Sketch)> {
        groups.iter().map(|(l, s)| (l.as_str(), s as &dyn Sketch))
    }

    #[test]
    fn phi_mapping_matches_paper() {
        let cfg = MacroBaseConfig::default();
        assert!((cfg.subpopulation_phi() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn finds_the_anomalous_group() {
        let (groups, all) = groups();
        let mut engine = MacroBaseEngine::new(MacroBaseConfig::default());
        let t = engine.global_threshold(&all).unwrap();
        let hits = engine.search(labelled(&groups), t);
        assert_eq!(hits.len(), 1, "hits: {:?}", hits);
        assert_eq!(hits[0].label, "group-7");
    }

    #[test]
    fn cascade_does_most_of_the_work() {
        let (groups, all) = groups();
        let mut engine = MacroBaseEngine::new(MacroBaseConfig::default());
        let t = engine.global_threshold(&all).unwrap();
        let _ = engine.search(labelled(&groups), t);
        let stats = engine.stats();
        assert_eq!(stats.total, 50);
        assert!(
            stats.maxent_evals <= stats.total / 2,
            "cascade should prune most groups: {stats:?}"
        );
    }

    #[test]
    fn dyn_search_works_on_non_moments_backends() {
        use msketch_sketches::api::SketchSpec;

        // Two groups, one with a heavy tail; a t-digest backend has no
        // cascade but must still flag the anomalous group. The anomalous
        // group is a small share of the population so its spike stays
        // under 1% of all points (the 30x-ratio setup of the paper).
        let spec = SketchSpec::tdigest(5.0);
        let mut normal = spec.build();
        let mut anomalous = spec.build();
        for i in 0..98_000u64 {
            normal.accumulate((i % 100) as f64 + 1.0);
        }
        for i in 0..2_000u64 {
            let base = (i % 100) as f64 + 1.0;
            anomalous.accumulate(if i % 20 < 9 { base + 1000.0 } else { base });
        }
        let mut all = normal.clone();
        all.merge_dyn(&*anomalous).unwrap();
        let mut engine = MacroBaseEngine::new(MacroBaseConfig::default());
        let t = engine.global_threshold(&*all).unwrap();
        let groups: Vec<(&str, &dyn Sketch)> =
            vec![("normal", &*normal), ("anomalous", &*anomalous)];
        let hits = engine.search(groups, t);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].label, "anomalous");
        assert_eq!(engine.stats().total, 0, "no cascade for non-moments cells");
    }

    #[test]
    fn search_cube_flags_the_anomalous_subpopulation() {
        use msketch_sketches::api::SketchSpec;

        // A runtime-backed cube with one anomalous (app, hw) cell; the
        // cube-level search must find it and label it from the cube's
        // dictionaries.
        let mut cube = msketch_cube::DynCube::from_spec(SketchSpec::moments(10), &["app", "hw"]);
        for g in 0..50u64 {
            let app = format!("app-{g}");
            for i in 0..2000u64 {
                let base = ((i * 13 + g * 7) % 100) as f64 + 1.0;
                let metric = if g == 7 && i % 5 < 2 {
                    base + 1000.0
                } else {
                    base
                };
                cube.insert(&[&app, "hw-0"], metric).unwrap();
            }
        }
        let mut engine = MacroBaseEngine::new(MacroBaseConfig::default());
        let hits = engine.search_cube(&cube, &[0]).unwrap();
        assert_eq!(hits.len(), 1, "hits: {hits:?}");
        assert_eq!(hits[0].label, "app=app-7");
        assert_eq!(hits[0].count, 2000.0);
        assert_eq!(engine.stats().total, 50, "moments cells use the cascade");
        // Empty cube: a clean error, not a panic.
        let empty = msketch_cube::DynCube::from_spec(SketchSpec::moments(10), &["app"]);
        assert!(matches!(
            engine.search_cube(&empty, &[0]),
            Err(SearchError::Cube(msketch_cube::Error::EmptyResult))
        ));
    }

    #[test]
    fn baseline_cascade_agrees() {
        let (groups, all) = groups();
        let mut fast = MacroBaseEngine::new(MacroBaseConfig::default());
        let mut slow = MacroBaseEngine::new(MacroBaseConfig {
            cascade: CascadeConfig::baseline(),
            ..Default::default()
        });
        let t = fast.global_threshold(&all).unwrap();
        let a = fast.search(labelled(&groups), t);
        let b = slow.search(labelled(&groups), t);
        assert_eq!(a, b);
        assert_eq!(slow.stats().maxent_evals, 50);
    }
}
