//! Property-based tests (proptest) on the core invariants of the moments
//! sketch and its estimation pipeline.

use msketch::core::bounds::{combined_bound, markov_bound, rtt_bound};
use msketch::core::lowprec::LowPrecisionCodec;
use msketch::core::serialize::{from_bytes, to_bytes};
use msketch::core::{solve_robust, MomentsSketch, SolverConfig};
use proptest::prelude::*;

/// Strategy: small non-degenerate datasets of finite doubles.
fn dataset() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e4f64..1.0e4, 8..200)
}

/// Strategy: strictly positive datasets (log moments usable).
fn positive_dataset() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1.0e-3f64..1.0e4, 8..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging partitions equals pointwise accumulation, for any split.
    #[test]
    fn merge_equals_pointwise(data in dataset(), split in 1usize..7) {
        let whole = MomentsSketch::from_data(6, &data);
        let mut merged = MomentsSketch::new(6);
        let chunk = (data.len() / split).max(1);
        for c in data.chunks(chunk) {
            merged.merge(&MomentsSketch::from_data(6, c));
        }
        prop_assert_eq!(whole.count(), merged.count());
        prop_assert_eq!(whole.min(), merged.min());
        prop_assert_eq!(whole.max(), merged.max());
        for (a, b) in whole.power_sums().iter().zip(merged.power_sums()) {
            prop_assert!((a - b).abs() <= 1e-6 * b.abs().max(1.0));
        }
    }

    /// Quantile estimates always land inside [min, max] and are monotone
    /// in phi.
    #[test]
    fn quantiles_bounded_and_monotone(data in dataset()) {
        let sketch = MomentsSketch::from_data(8, &data);
        if let Ok(sol) = solve_robust(&sketch, &SolverConfig::default()) {
            let mut prev = f64::NEG_INFINITY;
            for i in 1..20 {
                let phi = i as f64 / 20.0;
                let q = sol.quantile(phi).unwrap();
                prop_assert!(q >= sketch.min() - 1e-9);
                prop_assert!(q <= sketch.max() + 1e-9);
                prop_assert!(q + 1e-9 >= prev, "quantiles must be monotone");
                prev = q;
            }
        }
    }

    /// Rank bounds always contain the true empirical CDF.
    #[test]
    fn bounds_contain_truth(data in dataset(), t_frac in 0.0f64..1.0) {
        let sketch = MomentsSketch::from_data(6, &data);
        let t = sketch.min() + t_frac * (sketch.max() - sketch.min());
        let truth = data.iter().filter(|&&x| x < t).count() as f64 / data.len() as f64;
        let truth_hi = data.iter().filter(|&&x| x <= t).count() as f64 / data.len() as f64;
        for bound in [markov_bound(&sketch, t), rtt_bound(&sketch, t), combined_bound(&sketch, t)] {
            prop_assert!(bound.lower <= truth + 1e-6,
                "lower {} > truth {truth}", bound.lower);
            prop_assert!(bound.upper >= truth_hi - 1e-6,
                "upper {} < truth {truth_hi}", bound.upper);
        }
    }

    /// Log moments stay usable under merge for positive data.
    #[test]
    fn log_usability_preserved(a in positive_dataset(), b in positive_dataset()) {
        let mut s = MomentsSketch::from_data(5, &a);
        s.merge(&MomentsSketch::from_data(5, &b));
        prop_assert!(s.log_usable());
    }

    /// Binary serialization round-trips exactly.
    #[test]
    fn serialization_roundtrip(data in dataset()) {
        let s = MomentsSketch::from_data(7, &data);
        let back = from_bytes(&to_bytes(&s)).unwrap();
        prop_assert_eq!(s, back);
    }

    /// Low-precision encode/decode keeps every value within the
    /// quantization error for its bit budget.
    #[test]
    fn lowprec_error_bounded(data in dataset(), bits in 16u32..=52) {
        let s = MomentsSketch::from_data(5, &data);
        let codec = LowPrecisionCodec::new(bits);
        let back = LowPrecisionCodec::decode(&codec.encode(&s, 42)).unwrap();
        let tol = 2.0f64.powi(-((bits as i32 - 12).min(52) - 1));
        for (a, b) in s.power_sums().iter().zip(back.power_sums()) {
            if *a != 0.0 {
                prop_assert!(((a - b) / a).abs() <= tol, "{a} vs {b} at {bits} bits");
            }
        }
    }

    /// Turnstile subtraction inverts merging (power sums restored).
    #[test]
    fn sub_inverts_merge(a in dataset(), b in dataset()) {
        let sa = MomentsSketch::from_data(6, &a);
        let sb = MomentsSketch::from_data(6, &b);
        let mut m = sa.clone();
        m.merge(&sb);
        m.sub(&sb);
        prop_assert_eq!(m.count(), sa.count());
        for (x, y) in m.power_sums().iter().zip(sa.power_sums()) {
            prop_assert!((x - y).abs() <= 1e-6 * y.abs().max(1.0));
        }
    }

    /// The estimated CDF is monotone in x.
    #[test]
    fn cdf_monotone(data in positive_dataset()) {
        let sketch = MomentsSketch::from_data(6, &data);
        if let Ok(sol) = solve_robust(&sketch, &SolverConfig::default()) {
            let lo = sketch.min();
            let hi = sketch.max();
            let mut prev = -1.0;
            for i in 0..=40 {
                let x = lo + (hi - lo) * i as f64 / 40.0;
                let c = sol.cdf(x);
                prop_assert!((0.0..=1.0).contains(&c));
                prop_assert!(c + 1e-9 >= prev);
                prev = c;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Baseline summaries answer within [min, max] after arbitrary merges.
    #[test]
    fn baseline_summaries_stay_in_range(
        data in prop::collection::vec(-1e4f64..1e4, 50..400),
        cell in 10usize..50,
    ) {
        use msketch::sketches::{
            EwHist, GkSummary, Merge12, QuantileSummary, RandomW, ReservoirSample, SHist, Sketch,
            TDigest,
        };
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        macro_rules! check {
            ($make:expr) => {{
                let mut merged = $make;
                for (i, c) in data.chunks(cell).enumerate() {
                    let mut s = $make;
                    let _ = i;
                    s.accumulate_all(c);
                    merged.merge_from(&s);
                }
                prop_assert_eq!(merged.count(), data.len() as u64);
                for phi in [0.01, 0.5, 0.99] {
                    let q = merged.quantile(phi);
                    prop_assert!(q >= lo - 1e-9 && q <= hi + 1e-9,
                        "{} phi={phi} q={q} outside [{lo},{hi}]", merged.kind());
                }
            }};
        }
        check!(GkSummary::new(0.05));
        check!(TDigest::new(3.0));
        check!(EwHist::new(32));
        check!(SHist::new(32));
        check!(RandomW::new(32, 7));
        check!(Merge12::new(16, 9));
        check!(ReservoirSample::new(64, 3));
    }
}
