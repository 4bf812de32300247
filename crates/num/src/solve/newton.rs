use crate::error::invalid;
use crate::NumError;

/// Options for [`newton_system`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Convergence threshold on the residual max-norm.
    pub f_tol: f64,
    /// Convergence threshold on the step max-norm.
    pub x_tol: f64,
    /// Maximum Newton iterations.
    pub max_iter: usize,
    /// Smallest admissible backtracking factor before the step is
    /// declared failed.
    pub min_step: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        Self {
            f_tol: 1e-10,
            x_tol: 1e-12,
            max_iter: 100,
            min_step: 1e-10,
        }
    }
}

/// Diagnostics returned by a successful [`newton_system`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonReport {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations actually used.
    pub iterations: usize,
    /// Final residual max-norm.
    pub residual: f64,
}

pub(super) fn max_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, x| m.max(x.abs()))
}

/// Solves the square non-linear system `F(x) = 0` by damped Newton
/// iteration with a backtracking line search on `‖F‖∞`.
///
/// * `f(x, out)` writes the residual vector into `out`.
/// * `solve_step(x, rhs)` overwrites `rhs = −F(x)` with the step `s` of
///   `J(x)·s = −F(x)` — for a dense Jacobian, by writing it and calling
///   [`solve_dense`](super::solve_dense).
///
/// This is the engine behind the paper's "numerical algorithm" for
/// data partitioning \[15\]: the equal-time conditions over Akima-spline
/// time functions form a smooth system whose Jacobian is available
/// analytically from the spline derivatives.
///
/// # Errors
///
/// * [`NumError::InvalidInput`] — empty starting point or non-finite
///   residual at the start.
/// * Whatever `solve_step` returns — [`NumError::SingularMatrix`] when
///   the Jacobian is singular at an iterate.
/// * [`NumError::NoConvergence`] — iteration budget exhausted or the
///   line search stalled.
pub fn newton_system(
    mut f: impl FnMut(&[f64], &mut [f64]),
    mut solve_step: impl FnMut(&[f64], &mut [f64]) -> Result<(), NumError>,
    x0: &[f64],
    opts: NewtonOptions,
) -> Result<NewtonReport, NumError> {
    let n = x0.len();
    if n == 0 {
        return Err(invalid("newton_system needs at least one variable"));
    }

    let mut x = x0.to_vec();
    let mut fx = vec![0.0; n];
    let mut step = vec![0.0; n];
    let mut trial = vec![0.0; n];
    let mut f_trial = vec![0.0; n];

    f(&x, &mut fx);
    if fx.iter().any(|v| !v.is_finite()) {
        return Err(invalid("residual is not finite at the starting point"));
    }
    let mut fnorm = max_norm(&fx);

    for iter in 0..=opts.max_iter {
        if fnorm <= opts.f_tol {
            return Ok(NewtonReport {
                x,
                iterations: iter,
                residual: fnorm,
            });
        }
        if iter == opts.max_iter {
            break;
        }

        // Newton step: J * step = -F.
        for (s, v) in step.iter_mut().zip(&fx) {
            *s = -v;
        }
        solve_step(&x, &mut step)?;

        // Backtracking line search: halve until the residual norm drops.
        let mut lambda = 1.0;
        loop {
            for i in 0..n {
                trial[i] = x[i] + lambda * step[i];
            }
            f(&trial, &mut f_trial);
            let trial_norm = if f_trial.iter().all(|v| v.is_finite()) {
                max_norm(&f_trial)
            } else {
                f64::INFINITY
            };
            if trial_norm < fnorm {
                x.copy_from_slice(&trial);
                fx.copy_from_slice(&f_trial);
                fnorm = trial_norm;
                break;
            }
            lambda *= 0.5;
            if lambda < opts.min_step {
                return Err(NumError::NoConvergence {
                    method: "newton_system (line search stalled)",
                    residual: fnorm,
                });
            }
        }

        if lambda * max_norm(&step) <= opts.x_tol && fnorm <= opts.f_tol.max(1e-8) {
            return Ok(NewtonReport {
                x,
                iterations: iter + 1,
                residual: fnorm,
            });
        }
    }

    Err(NumError::NoConvergence {
        method: "newton_system",
        residual: fnorm,
    })
}

/// Forward-difference Jacobian approximation, for systems whose
/// analytic Jacobian is unavailable. Writes row-major into `out`; a
/// [`newton_system`] step writes it into `j`, then calls
/// [`solve_dense`](super::solve_dense)`(&mut j, rhs)`.
pub fn finite_difference_jacobian(
    mut f: impl FnMut(&[f64], &mut [f64]),
    x: &[f64],
    out: &mut [f64],
) {
    let n = x.len();
    assert_eq!(out.len(), n * n, "Jacobian buffer has wrong size");
    let mut base = vec![0.0; n];
    let mut bumped = vec![0.0; n];
    let mut xp = x.to_vec();
    f(x, &mut base);
    for col in 0..n {
        let h = 1e-7 * x[col].abs().max(1e-7);
        xp[col] = x[col] + h;
        f(&xp, &mut bumped);
        xp[col] = x[col];
        for row in 0..n {
            out[row * n + col] = (bumped[row] - base[row]) / h;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::solve_dense;
    use super::*;

    /// The dense step: write the Jacobian `jac(x, out)`, eliminate.
    fn dense(
        mut jac: impl FnMut(&[f64], &mut [f64]),
    ) -> impl FnMut(&[f64], &mut [f64]) -> Result<(), NumError> {
        let mut j = Vec::new();
        move |x, rhs| {
            j.resize(rhs.len() * rhs.len(), 0.0);
            jac(x, &mut j);
            solve_dense(&mut j, rhs)
        }
    }

    #[test]
    fn scalar_square_root() {
        let report = newton_system(
            |x, out| out[0] = x[0] * x[0] - 2.0,
            dense(|x, out| out[0] = 2.0 * x[0]),
            &[1.0],
            NewtonOptions::default(),
        )
        .unwrap();
        assert!((report.x[0] - 2.0_f64.sqrt()).abs() < 1e-9);
        assert!(report.iterations < 10);
    }

    #[test]
    fn coupled_2d_system() {
        // x^2 + y^2 = 4, x*y = 1. One solution near (1.93, 0.52).
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = x[0] * x[0] + x[1] * x[1] - 4.0;
            out[1] = x[0] * x[1] - 1.0;
        };
        let jac = |x: &[f64], out: &mut [f64]| {
            out[0] = 2.0 * x[0];
            out[1] = 2.0 * x[1];
            out[2] = x[1];
            out[3] = x[0];
        };
        let report = newton_system(f, dense(jac), &[2.0, 0.6], NewtonOptions::default()).unwrap();
        let (x, y) = (report.x[0], report.x[1]);
        assert!((x * x + y * y - 4.0).abs() < 1e-8);
        assert!((x * y - 1.0).abs() < 1e-8);
    }

    #[test]
    fn works_with_finite_difference_jacobian() {
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = (x[0] - 3.0).powi(3) + x[1];
            out[1] = x[1] - 0.5 * x[0];
        };
        let jac = |x: &[f64], out: &mut [f64]| finite_difference_jacobian(f, x, out);
        let report = newton_system(f, dense(jac), &[1.0, 1.0], NewtonOptions::default()).unwrap();
        let mut res = vec![0.0; 2];
        f(&report.x, &mut res);
        assert!(max_norm(&res) < 1e-6);
    }

    #[test]
    fn detects_singular_jacobian() {
        let err = newton_system(
            |_, out| out[0] = 1.0,
            dense(|_, out| out[0] = 0.0),
            &[0.0],
            NewtonOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, NumError::SingularMatrix);
    }

    #[test]
    fn reports_no_convergence_when_rootless() {
        // f(x) = x^2 + 1 has no real root; line search must stall.
        let err = newton_system(
            |x, out| out[0] = x[0] * x[0] + 1.0,
            dense(|x, out| out[0] = 2.0 * x[0]),
            &[3.0],
            NewtonOptions {
                max_iter: 50,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, NumError::NoConvergence { .. }));
    }

    #[test]
    fn already_converged_start_returns_immediately() {
        let report = newton_system(
            |x, out| out[0] = x[0],
            dense(|_, out| out[0] = 1.0),
            &[0.0],
            NewtonOptions::default(),
        )
        .unwrap();
        assert_eq!(report.iterations, 0);
        assert_eq!(report.x, vec![0.0]);
    }
}
