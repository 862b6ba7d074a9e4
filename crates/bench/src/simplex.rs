//! Dense two-phase simplex method for small linear programs.
//!
//! The solver of the `cvx-min` lesion estimator (Section 6.3): minimize the
//! maximum density of a discretized distribution subject to moment
//! constraints. The reference implementation used the ECOS cone solver; a
//! textbook simplex with Bland's anti-cycling rule is more than adequate
//! for the ~1000-variable, ~15-constraint programs involved.

// Index-based loops mirror the textbook matrix algorithms here;
// iterator rewrites would obscure the pivots.
#![allow(clippy::needless_range_loop)]

/// Why [`solve`] found no optimum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LpError {
    /// No point satisfies the constraints.
    Infeasible,
    /// The objective decreases without bound.
    Unbounded,
    /// The pivot budget ran out.
    NoConvergence,
}

type Result<T> = std::result::Result<T, LpError>;

/// A linear program in standard form:
/// minimize `c' x` subject to `A x = b`, `x >= 0`.
#[derive(Debug, Clone)]
pub struct StandardLp {
    /// Constraint matrix, row-major, `m x n`.
    pub a: Vec<Vec<f64>>,
    /// Right-hand side, length `m`.
    pub b: Vec<f64>,
    /// Objective coefficients, length `n`.
    pub c: Vec<f64>,
}

/// Solve a standard-form LP with the two-phase simplex method, returning
/// an optimal `x`. Panics on
/// a malformed program (empty, ragged, or a mismatched right-hand side).
pub fn solve(lp: &StandardLp) -> Result<Vec<f64>> {
    let m = lp.a.len();
    let n = lp.c.len();
    assert!(m > 0 && n > 0, "empty linear program");
    assert!(lp.a.iter().all(|row| row.len() == n), "ragged constraint matrix");
    assert_eq!(lp.b.len(), m, "rhs length mismatch");

    // Tableau layout: columns [x_0 .. x_{n-1} | artificial_0 .. artificial_{m-1} | rhs].
    // Rows: m constraint rows + 1 objective row.
    let ncols = n + m + 1;
    let mut tab = vec![vec![0.0f64; ncols]; m + 1];
    for i in 0..m {
        let flip = if lp.b[i] < 0.0 { -1.0 } else { 1.0 };
        for j in 0..n {
            tab[i][j] = flip * lp.a[i][j];
        }
        tab[i][n + i] = 1.0;
        tab[i][ncols - 1] = flip * lp.b[i];
    }
    let mut basis: Vec<usize> = (n..n + m).collect();
    let mut pivots = 0usize;

    // Phase 1: minimize sum of artificials.
    {
        // Objective row: sum of artificial rows (so reduced costs start correct).
        for j in 0..ncols {
            let mut acc = 0.0;
            for i in 0..m {
                acc += tab[i][j];
            }
            tab[m][j] = -acc;
        }
        for i in 0..m {
            tab[m][n + i] = 0.0;
        }
        run_simplex(&mut tab, &mut basis, n + m, &mut pivots)?;
        let phase1 = -tab[m][ncols - 1];
        if phase1 > 1e-7 {
            return Err(LpError::Infeasible);
        }
        // Drive any artificial variables out of the basis.
        for i in 0..m {
            if basis[i] >= n {
                // Find a non-artificial column with a nonzero entry to pivot in.
                let mut found = None;
                for j in 0..n {
                    if tab[i][j].abs() > 1e-9 {
                        found = Some(j);
                        break;
                    }
                }
                if let Some(j) = found {
                    pivot(&mut tab, i, j);
                    basis[i] = j;
                    pivots += 1;
                }
                // If no pivot exists the row is redundant; leave the
                // artificial basic at value ~0.
            }
        }
    }

    // Phase 2: original objective. Rebuild the objective row with reduced costs.
    {
        let ncols = tab[0].len();
        for j in 0..ncols {
            tab[m][j] = 0.0;
        }
        for j in 0..n {
            tab[m][j] = lp.c[j];
        }
        // Zero out reduced costs of basic variables.
        for i in 0..m {
            let bj = basis[i];
            let cost = if bj < n { lp.c[bj] } else { 0.0 };
            if cost != 0.0 {
                for j in 0..ncols {
                    tab[m][j] -= cost * tab[i][j];
                }
            }
        }
        // Forbid artificial columns from re-entering.
        run_simplex(&mut tab, &mut basis, n, &mut pivots)?;
    }

    let mut x = vec![0.0; n];
    let rhs_col = tab[0].len() - 1;
    for i in 0..m {
        if basis[i] < n {
            x[basis[i]] = tab[i][rhs_col];
        }
    }
    Ok(x)
}

/// Run simplex pivots on the tableau until optimal. Only the first
/// `allowed_cols` columns may enter the basis.
fn run_simplex(
    tab: &mut [Vec<f64>],
    basis: &mut [usize],
    allowed_cols: usize,
    pivots: &mut usize,
) -> Result<()> {
    let m = basis.len();
    let rhs_col = tab[0].len() - 1;
    let max_pivots = 20_000 + 200 * (m + allowed_cols);
    loop {
        // Entering variable: Dantzig rule with Bland fallback on stall.
        let obj_row = &tab[m];
        let mut enter = None;
        let mut best = -1e-9;
        for (j, &rc) in obj_row.iter().take(allowed_cols).enumerate() {
            if rc < best {
                best = rc;
                enter = Some(j);
            }
        }
        let Some(e) = enter else {
            return Ok(());
        };
        // Leaving variable: minimum ratio test with Bland tie-break.
        let mut leave = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            let a = tab[i][e];
            if a > 1e-11 {
                let ratio = tab[i][rhs_col] / a;
                if ratio < best_ratio - 1e-12
                    || (ratio < best_ratio + 1e-12
                        && leave.is_none_or(|l: usize| basis[i] < basis[l]))
                {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(l) = leave else {
            return Err(LpError::Unbounded);
        };
        pivot(tab, l, e);
        basis[l] = e;
        *pivots += 1;
        if *pivots > max_pivots {
            return Err(LpError::NoConvergence);
        }
    }
}

/// Gauss-Jordan pivot on (row, col).
fn pivot(tab: &mut [Vec<f64>], row: usize, col: usize) {
    let ncols = tab[0].len();
    let p = tab[row][col];
    debug_assert!(p.abs() > 1e-300);
    let inv = 1.0 / p;
    for v in tab[row].iter_mut() {
        *v *= inv;
    }
    for i in 0..tab.len() {
        if i == row {
            continue;
        }
        let f = tab[i][col];
        if f == 0.0 {
            continue;
        }
        for j in 0..ncols {
            let v = tab[row][j];
            tab[i][j] -= f * v;
        }
        tab[i][col] = 0.0; // kill roundoff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn objective(lp: &StandardLp, x: &[f64]) -> f64 {
        numerics::dot(&lp.c, x)
    }

    #[test]
    fn simple_lp() {
        // min -x - 2y s.t. x + y + s1 = 4, x + 3y + s2 = 6, all >= 0.
        // Optimum at (3, 1): objective -5.
        let lp = StandardLp {
            a: vec![vec![1.0, 1.0, 1.0, 0.0], vec![1.0, 3.0, 0.0, 1.0]],
            b: vec![4.0, 6.0],
            c: vec![-1.0, -2.0, 0.0, 0.0],
        };
        let x = solve(&lp).unwrap();
        assert!((objective(&lp, &x) + 5.0).abs() < 1e-9);
        assert!((x[0] - 3.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn equality_constrained_distribution() {
        // Distribution on 3 points with mean 0.5 (points -1, 0, 1),
        // minimize mass at the middle point.
        // sum p = 1, -p0 + p2 = 0.5.
        let lp = StandardLp {
            a: vec![vec![1.0, 1.0, 1.0], vec![-1.0, 0.0, 1.0]],
            b: vec![1.0, 0.5],
            c: vec![0.0, 1.0, 0.0],
        };
        let x = solve(&lp).unwrap();
        assert!(objective(&lp, &x).abs() < 1e-9);
        assert!((x[0] - 0.25).abs() < 1e-9);
        assert!((x[2] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        // x >= 0 with x = -1 is infeasible.
        let lp = StandardLp { a: vec![vec![1.0]], b: vec![-1.0], c: vec![1.0] };
        assert!(matches!(solve(&lp), Err(LpError::Infeasible)));
    }

    #[test]
    fn unbounded_detected() {
        // min -x s.t. x - y = 1 (y can grow forever pushing x up).
        let lp = StandardLp { a: vec![vec![1.0, -1.0]], b: vec![1.0], c: vec![-1.0, 0.0] };
        assert!(matches!(solve(&lp), Err(LpError::Unbounded)));
    }

    #[test]
    fn negative_rhs_handled() {
        // -x = -2 -> x = 2, minimize x gives 2.
        let lp = StandardLp { a: vec![vec![-1.0]], b: vec![-2.0], c: vec![1.0] };
        let x = solve(&lp).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn minimax_density_shape() {
        // Tiny version of cvx-min: grid of 5 points on [-1,1], match mean 0,
        // minimize max density t: variables [p0..p4, t, slacks...]
        // p_i - t <= 0  ->  p_i - t + s_i = 0.
        let n = 5;
        let mut a = Vec::new();
        let mut b = Vec::new();
        // sum p = 1
        let mut row = vec![0.0; n + 1 + n];
        for j in 0..n {
            row[j] = 1.0;
        }
        a.push(row);
        b.push(1.0);
        // mean = 0 with grid -1,-0.5,0,0.5,1
        let grid = [-1.0, -0.5, 0.0, 0.5, 1.0];
        let mut row = vec![0.0; n + 1 + n];
        row[..n].copy_from_slice(&grid[..n]);
        a.push(row);
        b.push(0.0);
        // p_i - t + s_i = 0
        for i in 0..n {
            let mut row = vec![0.0; n + 1 + n];
            row[i] = 1.0;
            row[n] = -1.0;
            row[n + 1 + i] = 1.0;
            a.push(row);
            b.push(0.0);
        }
        let mut c = vec![0.0; n + 1 + n];
        c[n] = 1.0; // minimize t
        let lp = StandardLp { a, b, c };
        let x = solve(&lp).unwrap();
        // Optimal max density is 1/5 (uniform).
        assert!((objective(&lp, &x) - 0.2).abs() < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Simplex solutions are feasible and no worse than a uniform
        /// feasible point for random small distribution-matching LPs.
        #[test]
        fn simplex_feasible_and_optimal(c in prop::collection::vec(0.0f64..1.0, 6)) {
            // min c'p  s.t.  sum p = 1, p >= 0: optimum = min(c).
            let lp = StandardLp {
                a: vec![vec![1.0; 6]],
                b: vec![1.0],
                c: c.clone(),
            };
            let x = solve(&lp).unwrap();
            let min_c = c.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assert!((objective(&lp, &x) - min_c).abs() < 1e-9);
            let total: f64 = x.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            prop_assert!(x.iter().all(|&v| v >= -1e-12));
        }
    }
}
