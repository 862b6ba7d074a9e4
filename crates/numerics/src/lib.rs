//! Numerical substrate of the moments sketch's maximum-entropy solver and
//! moment bounds.
//!
//! The reference (Java) implementation took these building blocks from
//! Apache `commons-math`; this crate implements them from scratch:
//!
//! * [`chebyshev`] — Chebyshev polynomials/series: Clenshaw evaluation,
//!   basis conversions, series products, closed-form integration, and
//!   interpolation at Chebyshev–Lobatto nodes.
//! * [`fct`] — fast cosine transform (DCT-I), the bottleneck operation of
//!   the optimized solver (Section 4.3 of the paper).
//! * [`linalg`] — small dense matrices, LU and Cholesky solves.
//! * [`eigen`] — symmetric Jacobi eigenvalues and condition numbers (used
//!   by the paper's `k1,k2` selection heuristic).
//! * [`roots`] — Brent's method and a real-rooted polynomial root finder
//!   (used by the Racz–Tari–Telek quantile bounds).
//! * [`integrate`] — trapezoid and Clenshaw–Curtis quadrature.
//! * [`optimize`] — damped Newton's method with backtracking line search.
//! * [`special`] — erf, inverse normal CDF, log-gamma, binomials.
//! * [`poly`] — dense monomial-basis polynomial arithmetic.

pub mod chebyshev;
pub mod eigen;
pub mod fct;
pub mod integrate;
pub mod linalg;
pub mod optimize;
pub mod poly;
pub mod roots;
pub mod special;

/// Errors produced by numerical routines.
///
/// Numerical failure (singular systems, non-convergence) is an expected
/// runtime condition for the estimators built on top of this crate, so
/// every fallible routine reports it as a `Result` rather than panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A linear system was singular (or numerically indistinguishable from
    /// singular) at the given pivot.
    Singular {
        /// Zero-based pivot column where elimination failed.
        pivot: usize,
    },
    /// A matrix that must be positive definite was not.
    NotPositiveDefinite {
        /// Zero-based pivot where the factorization failed.
        pivot: usize,
    },
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual norm at the final iterate.
        residual: f64,
    },
    /// A root-bracketing routine was called on an interval without a sign
    /// change.
    NoBracket {
        /// Lower end of the offending bracket.
        lo: f64,
        /// Upper end of the offending bracket.
        hi: f64,
    },
    /// Invalid argument (dimension mismatch, empty input, ...).
    InvalidArgument(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Singular { pivot } => write!(f, "singular matrix at pivot {pivot}"),
            Error::NotPositiveDefinite { pivot } => {
                write!(f, "matrix not positive definite at pivot {pivot}")
            }
            Error::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:.3e})"
            ),
            Error::NoBracket { lo, hi } => {
                write!(f, "no sign change on bracket [{lo:.6e}, {hi:.6e}]")
            }
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Infinity norm of a slice.
#[inline]
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0, |m, &x| m.max(x.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let a = [3.0, 4.0];
        assert_eq!(dot(&a, &a), 25.0);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
    }

    #[test]
    fn error_display() {
        let e = Error::NoConvergence {
            iterations: 10,
            residual: 1e-3,
        };
        assert!(e.to_string().contains("10"));
        assert!(Error::Singular { pivot: 3 }
            .to_string()
            .contains("singular"));
    }
}
