//! Conformance matrix: every lesion-study estimator against every
//! evaluation dataset. Each combination must terminate with either a
//! finite estimate vector or a structured error — and the maximum-entropy
//! family must beat the non-max-ent family on average, which is the core
//! claim of the paper's Figure 10.

use moments_sketch::{MomentsSketch, SolverConfig};
use msketch_bench::estimators::{
    BfgsEstimator, CvxMaxEntEstimator, CvxMinEstimator, GaussianEstimator, MnatEstimator,
    MomentSource, NaiveNewtonEstimator, OptEstimator, QuantileEstimator, SvdEstimator,
};
use msketch_datasets::Dataset;
use msketch_sketches::{avg_quantile_error, exact::eval_phis};

fn estimators(source: MomentSource) -> Vec<(Box<dyn QuantileEstimator>, bool)> {
    // (estimator, is_maxent_family)
    let (k1, k2) = match source {
        MomentSource::Standard => (8usize, 0usize),
        MomentSource::Log => (0, 8),
    };
    vec![
        (Box::new(GaussianEstimator { source }) as Box<dyn QuantileEstimator>, false),
        (Box::new(MnatEstimator { source }), false),
        (Box::new(SvdEstimator { source, grid: 128 }), false),
        (Box::new(CvxMinEstimator { source, grid: 64 }), false),
        (Box::new(CvxMaxEntEstimator { source, grid: 400 }), true),
        (Box::new(NaiveNewtonEstimator { k1, k2, tol: 1e-8 }), true),
        (Box::new(BfgsEstimator { k1, k2 }), true),
        (
            Box::new(OptEstimator {
                config: SolverConfig { k1: Some(k1), k2: Some(k2), ..Default::default() },
            }),
            true,
        ),
    ]
}

#[test]
fn every_estimator_on_every_dataset() {
    let phis = eval_phis();
    for dataset in Dataset::all() {
        let n = dataset.default_size().min(60_000);
        let data = dataset.generate(n, 888);
        let sketch = MomentsSketch::from_data(8, &data);
        let source = if sketch.log_usable() { MomentSource::Log } else { MomentSource::Standard };
        let mut maxent_errs = Vec::new();
        let mut other_errs = Vec::new();
        for (est, is_maxent) in estimators(source) {
            match est.estimate(&sketch, &phis) {
                Ok(qs) => {
                    assert!(
                        qs.iter().all(|q| q.is_finite()),
                        "{} on {} produced non-finite estimates",
                        est.name(),
                        dataset.name()
                    );
                    let err = avg_quantile_error(&data, &qs, &phis);
                    assert!(
                        err <= 0.5,
                        "{} on {}: implausible error {err}",
                        est.name(),
                        dataset.name()
                    );
                    if is_maxent {
                        maxent_errs.push(err);
                    } else {
                        other_errs.push(err);
                    }
                }
                Err(e) => {
                    // Structured failure is acceptable (e.g. near-discrete
                    // data defeating a forced solve) but must be the
                    // solver-failure variant, not a panic or a corrupt
                    // result.
                    eprintln!("{} on {}: {e}", est.name(), dataset.name());
                }
            }
        }
        // On every dataset where both families produced estimates, the
        // max-ent family average must be at least as good.
        if !maxent_errs.is_empty() && !other_errs.is_empty() {
            let avg_maxent: f64 = maxent_errs.iter().sum::<f64>() / maxent_errs.len() as f64;
            let avg_other: f64 = other_errs.iter().sum::<f64>() / other_errs.len() as f64;
            assert!(
                avg_maxent <= avg_other + 1e-9,
                "{}: max-ent {avg_maxent} vs others {avg_other}",
                dataset.name()
            );
        }
    }
}

#[test]
fn opt_estimator_is_most_accurate_maxent_route_or_close() {
    // `opt` must stay within a small factor of the best estimator on the
    // two lesion datasets (it IS the best in the paper).
    let phis = eval_phis();
    for (dataset, source) in
        [(Dataset::Milan, MomentSource::Log), (Dataset::Hepmass, MomentSource::Standard)]
    {
        let data = dataset.generate(80_000, 999);
        let sketch = MomentsSketch::from_data(10, &data);
        let mut best = f64::INFINITY;
        let mut opt_err = f64::NAN;
        for (est, _) in estimators(source) {
            if let Ok(qs) = est.estimate(&sketch, &phis) {
                let err = avg_quantile_error(&data, &qs, &phis);
                best = best.min(err);
                if est.name() == "opt" {
                    opt_err = err;
                }
            }
        }
        assert!(opt_err <= best * 3.0 + 1e-4, "{}: opt {opt_err} vs best {best}", dataset.name());
    }
}
