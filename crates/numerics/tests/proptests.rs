//! Property-based tests for the numerical substrate.

use numerics::chebyshev;
use numerics::linalg::{Cholesky, Matrix};
use numerics::poly;
use numerics::roots::{brent, real_roots_in, BrentOptions};
use numerics::special;
use proptest::prelude::*;

fn small_coeffs(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-3.0f64..3.0, 1..n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Clenshaw evaluation equals the naive T_k sum.
    #[test]
    fn clenshaw_equals_naive(coeffs in small_coeffs(10), x in -1.0f64..1.0) {
        let naive: f64 = coeffs
            .iter()
            .enumerate()
            .map(|(k, &c)| c * chebyshev::t_eval(k, x))
            .sum();
        prop_assert!((chebyshev::clenshaw(&coeffs, x) - naive).abs() < 1e-10);
    }

    /// Series products evaluate pointwise like scalar products.
    #[test]
    fn series_product_pointwise(a in small_coeffs(8), b in small_coeffs(8), x in -1.0f64..1.0) {
        let ab = chebyshev::mul(&a, &b);
        let lhs = chebyshev::clenshaw(&ab, x);
        let rhs = chebyshev::clenshaw(&a, x) * chebyshev::clenshaw(&b, x);
        prop_assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }

    /// Closed-form series integration equals fine trapezoid integration.
    #[test]
    fn series_integration_matches_quadrature(coeffs in small_coeffs(8)) {
        let closed = chebyshev::integrate(&coeffs);
        let quad = numerics::integrate::trapezoid(
            |x| chebyshev::clenshaw(&coeffs, x), -1.0, 1.0, 20_000);
        prop_assert!((closed - quad).abs() < 1e-5, "{closed} vs {quad}");
    }

    /// LU solves satisfy A x = b for random diagonally dominant systems.
    #[test]
    fn lu_solves(entries in prop::collection::vec(-1.0f64..1.0, 16), b in prop::collection::vec(-5.0f64..5.0, 4)) {
        let mut a = Matrix::from_vec(4, 4, entries);
        for i in 0..4 {
            a[(i, i)] += 5.0; // diagonal dominance => nonsingular
        }
        let x = a.solve(&b).unwrap();
        let ax = a.matvec(&x);
        for (l, r) in ax.iter().zip(&b) {
            prop_assert!((l - r).abs() < 1e-8);
        }
    }

    /// Cholesky agrees with LU on SPD systems.
    #[test]
    fn cholesky_matches_lu(entries in prop::collection::vec(-1.0f64..1.0, 16), b in prop::collection::vec(-5.0f64..5.0, 4)) {
        // A = M^T M + I is SPD.
        let m = Matrix::from_vec(4, 4, entries);
        let mut a = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                a[(i, j)] += (0..4).map(|k| m[(k, i)] * m[(k, j)]).sum::<f64>();
            }
        }
        let x_lu = a.solve(&b).unwrap();
        let x_ch = Cholesky::factor(&a).unwrap().solve(&b);
        for (l, r) in x_lu.iter().zip(&x_ch) {
            prop_assert!((l - r).abs() < 1e-7);
        }
    }

    /// Brent finds roots of monotone cubics wherever a bracket exists.
    #[test]
    fn brent_on_monotone_cubic(a in 0.1f64..3.0, b in -2.0f64..2.0, target in -5.0f64..5.0) {
        let f = |x: f64| a * x * x * x + a * x + b - target;
        let r = brent(f, -100.0, 100.0, BrentOptions::default()).unwrap();
        prop_assert!(f(r).abs() < 1e-6);
    }

    /// The real-rooted polynomial solver recovers planted roots.
    #[test]
    fn planted_roots_recovered(mut roots in prop::collection::vec(-0.95f64..0.95, 1..6)) {
        roots.sort_by(|a, b| a.partial_cmp(b).unwrap());
        roots.dedup_by(|a, b| (*a - *b).abs() < 0.05);
        let mut p = vec![1.0];
        for &r in &roots {
            p = poly::mul(&p, &[-r, 1.0]);
        }
        let found = real_roots_in(&p, -1.0, 1.0);
        prop_assert_eq!(found.len(), roots.len());
        for (f, r) in found.iter().zip(&roots) {
            prop_assert!((f - r).abs() < 1e-6, "{f} vs {r}");
        }
    }

    /// erf is odd, bounded, monotone.
    #[test]
    fn erf_properties(x in -5.0f64..5.0, dx in 0.001f64..1.0) {
        prop_assert!((special::erf(x) + special::erf(-x)).abs() < 1e-12);
        prop_assert!(special::erf(x).abs() <= 1.0);
        prop_assert!(special::erf(x + dx) >= special::erf(x));
    }

    /// inv_norm_cdf inverts norm_cdf across the open unit interval.
    #[test]
    fn normal_quantile_roundtrip(p in 1e-8f64..0.99999999) {
        let x = special::inv_norm_cdf(p);
        prop_assert!((special::norm_cdf(x) - p).abs() < 1e-9);
    }

    /// DCT-I fast path always matches the direct path.
    #[test]
    fn dct_paths_agree(v in prop::collection::vec(-10.0f64..10.0, 17..=17)) {
        let fast = numerics::fct::dct1_fft(&v);
        let direct = numerics::fct::dct1_direct(&v);
        for (a, b) in fast.iter().zip(&direct) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }
}
