//! Golden bits of the maxent solver.
//!
//! Every `msketch_datasets` generator, cell sizes 10–100 000, orders
//! k ∈ {6, 10, 14} and four solver configurations: each solve's chosen
//! `(k1, k2)`, Newton iterations, cosine-transform count, condition
//! number, seven quantiles and two CDF values must equal, bit for bit,
//! the line recorded in `tests/data/solver_golden.txt`. A change to the
//! solver that alters any estimate fails here; such a change must
//! re-derive the file from its parent and list what moved and why.
//!
//! CI runs this binary under the release profile as well, so the claim
//! holds at both optimisation levels.

use msketch::core::solver::solve;
use msketch::core::{MomentsSketch, SolverConfig};
use msketch::datasets::Dataset;

const GOLDEN: &str = include_str!("data/solver_golden.txt");

const SIZES: [usize; 6] = [10, 30, 100, 1_000, 10_000, 100_000];
const ORDERS: [usize; 3] = [6, 10, 14];
const PHIS: [f64; 7] = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99];
const SEED: u64 = 38;

fn configs(k: usize) -> [(&'static str, SolverConfig); 4] {
    let default = SolverConfig::default();
    // The variants cap Newton at 40 iterations: many of their solves do
    // not converge, and the lower cap still pins each failure (its
    // residual is in the error text) at a third of the cost.
    let capped = SolverConfig {
        max_iter: 40,
        ..default
    };
    [
        ("default", default),
        (
            "nolog",
            SolverConfig {
                use_log: false,
                ..capped
            },
        ),
        (
            "nodes128",
            SolverConfig {
                n_nodes: Some(128),
                ..capped
            },
        ),
        (
            "forced",
            SolverConfig {
                k1: Some(k / 2),
                k2: Some(k / 2),
                ..capped
            },
        ),
    ]
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// One line per solve, in the fixture's format.
fn golden_line(name: &str, data: &[f64], k: usize, cfg_name: &str, cfg: &SolverConfig) -> String {
    let sketch = MomentsSketch::from_data(k, data);
    let head = format!("{name} n={} k={k} cfg={cfg_name}", data.len());
    let sol = match solve(&sketch, cfg) {
        Ok(sol) => sol,
        Err(e) => return format!("{head} err={e}"),
    };
    let quantiles: Vec<String> = PHIS
        .iter()
        .map(|&phi| sol.quantile(phi).map_or_else(|e| format!("err({e})"), bits))
        .collect();
    let cdfs: Vec<String> = [data[data.len() / 3], data[2 * data.len() / 3]]
        .iter()
        .map(|&x| bits(sol.cdf(x)))
        .collect();
    format!(
        "{head} k1={} k2={} it={} fct={} cond={} q={} cdf={}",
        sol.k1(),
        sol.k2(),
        sol.iterations(),
        sol.fct_count(),
        bits(sol.condition_number()),
        quantiles.join(","),
        cdfs.join(",")
    )
}

#[test]
fn solver_output_matches_golden_bits() {
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let mut actual = Vec::with_capacity(expected.len());
    for dataset in Dataset::all() {
        for &n in &SIZES {
            let data = dataset.generate(n, SEED);
            for &k in &ORDERS {
                for (cfg_name, cfg) in configs(k) {
                    actual.push(golden_line(dataset.name(), &data, k, cfg_name, &cfg));
                }
            }
        }
    }
    assert_eq!(
        actual.len(),
        expected.len(),
        "fixture has a different number of solves"
    );
    let mismatches: Vec<String> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a != e)
        .map(|(a, e)| format!("expected {e}\n     got {a}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} solves changed:\n{}",
        mismatches.len(),
        actual.len(),
        mismatches
            .iter()
            .take(10)
            .cloned()
            .collect::<Vec<_>>()
            .join("\n")
    );
}
