use fupermod_num::solve::{
    newton_system, solve_dense, solve_diagonal_plus_constant, NewtonOptions,
};
use fupermod_num::NumError;

use super::{check_inputs, finalize, Distribution, Partitioner};
use crate::model::Model;
use crate::{telemetry, CoreError};

/// The numerical data-partitioning algorithm of Rychkov et al. \[15\]:
/// the optimal distribution is the solution of the non-linear system
///
/// ```text
/// tᵢ(dᵢ) = tₚ(dₚ),  i = 1..p-1        (equal finish times)
/// d₁ + … + dₚ = D                      (conservation)
/// ```
///
/// solved with a damped multidimensional Newton method. The Jacobian
/// comes from the models' analytic time derivatives — this is why the
/// algorithm is paired with the smooth
/// [`AkimaModel`](crate::model::AkimaModel), whose spline has a
/// continuous first derivative; any [`Model`] works as long as its
/// derivative is sane.
///
/// If Newton fails (e.g. on wildly non-monotone spline segments), a
/// multiplicative fixed-point iteration — repeatedly scaling each share
/// by `(mean time / own time)^γ` and renormalising — is used as a
/// fallback; it is slower but needs only time evaluations. Each failure
/// is counted in `fupermod_numerical_fallbacks_total{reason}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumericalPartitioner {
    /// Newton solver options.
    pub newton: NewtonOptions,
    /// Fallback relaxation exponent `γ` in `(0, 1]`.
    pub fallback_gamma: f64,
    /// Fallback iteration cap.
    pub fallback_iters: usize,
}

impl Default for NumericalPartitioner {
    fn default() -> Self {
        Self {
            newton: NewtonOptions {
                f_tol: 1e-9,
                x_tol: 1e-10,
                max_iter: 200,
                min_step: 1e-12,
            },
            fallback_gamma: 0.5,
            fallback_iters: 500,
        }
    }
}

impl NumericalPartitioner {
    /// The Newton solve, or `None` — its reason counted — on failure.
    fn solve_newton(&self, total: f64, models: &[&dyn Model]) -> Option<Vec<f64>> {
        let p = models.len();
        let n = p - 1; // free variables; d_p is eliminated

        let time = |i: usize, x: f64| models[i].time(x.max(0.0)).unwrap_or(f64::INFINITY);
        let deriv = |i: usize, x: f64| models[i].time_derivative(x.max(0.0)).unwrap_or(1.0);

        let residual = |x: &[f64], out: &mut [f64]| {
            let last = total - x.iter().sum::<f64>();
            let t_last = time(p - 1, last);
            for i in 0..n {
                out[i] = time(i, x[i]) - t_last;
            }
        };
        let (mut diag, mut work, mut dense) = (vec![0.0; n], Vec::new(), Vec::new());
        let solve_step = |x: &[f64], rhs: &mut [f64]| {
            let last = total - x.iter().sum::<f64>();
            let dt_last = deriv(p - 1, last);
            // ∂/∂xⱼ [tᵢ(xᵢ) - tₚ(D - Σx)] = δᵢⱼ tᵢ' + tₚ', off the
            // diagonal formed as `0.0 + tₚ'` like every other entry.
            for (i, a) in diag.iter_mut().enumerate() {
                *a = deriv(i, x[i]) + dt_last;
            }
            let off = 0.0 + dt_last;
            if solve_diagonal_plus_constant(&diag, off, rhs, &mut work)? {
                return Ok(());
            }
            telemetry::record_numerical_dense_step();
            dense.clear();
            dense.extend((0..n * n).map(|k| if k % (n + 1) == 0 { diag[k / n] } else { off }));
            solve_dense(&mut dense, rhs)
        };

        // Initial guess: proportional to speeds at the even share.
        let probe = (total / p as f64).max(1.0);
        let speeds: Vec<f64> = models
            .iter()
            .map(|m| m.speed(probe).unwrap_or(1.0).max(1e-12))
            .collect();
        let speed_sum: f64 = speeds.iter().sum();
        let x0: Vec<f64> = speeds[..n]
            .iter()
            .map(|s| s / speed_sum * total)
            .collect();

        let reason = match newton_system(residual, solve_step, &x0, self.newton) {
            Ok(report) => {
                let mut d = report.x;
                d.push(total - d.iter().sum::<f64>());
                if d.iter().all(|v| v.is_finite() && *v >= -0.01 * total) {
                    return Some(d.into_iter().map(|v| v.max(0.0)).collect());
                }
                "invalid"
            }
            Err(NumError::SingularMatrix) => "singular",
            Err(NumError::NoConvergence { .. }) => "no_convergence",
            Err(_) => "invalid",
        };
        telemetry::record_numerical_fallback(reason);
        None
    }

    fn solve_fallback(&self, total: f64, models: &[&dyn Model]) -> Result<Vec<f64>, CoreError> {
        let p = models.len();
        let mut d = vec![total / p as f64; p];
        for _ in 0..self.fallback_iters {
            let times: Vec<f64> = d
                .iter()
                .zip(models)
                .map(|(x, m)| m.time(x.max(1e-9)).unwrap_or(f64::INFINITY))
                .collect();
            let max = times.iter().fold(0.0_f64, |m, t| m.max(*t));
            let min = times.iter().fold(f64::INFINITY, |m, t| m.min(*t));
            if max <= 0.0 || !max.is_finite() {
                return Err(CoreError::Partition(
                    "fallback iteration saw invalid times".to_owned(),
                ));
            }
            if (max - min) / max < 1e-10 {
                break;
            }
            let mean = times.iter().sum::<f64>() / p as f64;
            for (x, t) in d.iter_mut().zip(&times) {
                *x *= (mean / t).powf(self.fallback_gamma);
            }
            let sum: f64 = d.iter().sum();
            for x in &mut d {
                *x *= total / sum;
            }
        }
        Ok(d)
    }
}

impl Partitioner for NumericalPartitioner {
    fn partition(&self, total: u64, models: &[&dyn Model]) -> Result<Distribution, CoreError> {
        check_inputs(models)?;
        if total == 0 || models.len() == 1 {
            let mut continuous = vec![0.0; models.len()];
            continuous[0] = total as f64;
            return finalize(total, &continuous, models);
        }
        let t = total as f64;
        let continuous = match self.solve_newton(t, models) {
            Some(d) => d,
            None => self.solve_fallback(t, models)?,
        };
        finalize(total, &continuous, models)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AkimaModel, Model};
    use crate::Point;

    fn akima(data: &[(u64, f64)]) -> AkimaModel {
        let mut m = AkimaModel::new();
        for &(d, t) in data {
            m.update(Point::single(d, t)).unwrap();
        }
        m
    }

    #[test]
    fn proportional_for_linear_time_functions() {
        let m1 = akima(&[(100, 1.0), (500, 5.0), (1000, 10.0)]); // 100 u/s
        let m2 = akima(&[(100, 4.0), (500, 20.0), (1000, 40.0)]); // 25 u/s
        let models: Vec<&dyn Model> = vec![&m1, &m2];
        let dist = NumericalPartitioner::default()
            .partition(1000, &models)
            .unwrap();
        assert_eq!(dist.sizes(), vec![800, 200]);
    }

    #[test]
    fn equalises_times_on_smooth_nonlinear_models() {
        // Superlinear time (speed decays with size) vs linear.
        let m1 = akima(&[(100, 1.0), (400, 8.0), (800, 40.0), (1600, 200.0)]);
        let m2 = akima(&[(100, 3.0), (800, 24.0), (1600, 48.0)]);
        let models: Vec<&dyn Model> = vec![&m1, &m2];
        let dist = NumericalPartitioner::default()
            .partition(1600, &models)
            .unwrap();
        let t1 = m1.time(dist.parts()[0].d as f64).unwrap();
        let t2 = m2.time(dist.parts()[1].d as f64).unwrap();
        assert!(
            (t1 - t2).abs() / t1.max(t2) < 0.02,
            "not equalised: {t1} vs {t2}"
        );
    }

    #[test]
    fn three_process_system_balances() {
        let m1 = akima(&[(100, 1.0), (1000, 11.0), (4000, 60.0)]);
        let m2 = akima(&[(100, 2.0), (1000, 19.0), (4000, 85.0)]);
        let m3 = akima(&[(100, 5.0), (1000, 52.0), (4000, 220.0)]);
        let models: Vec<&dyn Model> = vec![&m1, &m2, &m3];
        let dist = NumericalPartitioner::default()
            .partition(5000, &models)
            .unwrap();
        assert_eq!(dist.total_assigned(), 5000);
        let times: Vec<f64> = dist
            .parts()
            .iter()
            .zip(&models)
            .map(|(p, m)| m.time(p.d as f64).unwrap())
            .collect();
        let max = times.iter().cloned().fold(0.0, f64::max);
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((max - min) / max < 0.05, "times: {times:?}");
    }

    #[test]
    fn agrees_with_geometric_on_well_behaved_models() {
        use crate::partition::GeometricPartitioner;
        let m1 = akima(&[(100, 1.0), (500, 6.0), (2000, 30.0)]);
        let m2 = akima(&[(100, 2.5), (500, 14.0), (2000, 70.0)]);
        let models: Vec<&dyn Model> = vec![&m1, &m2];
        let num = NumericalPartitioner::default()
            .partition(2000, &models)
            .unwrap();
        let geo = GeometricPartitioner::default()
            .partition(2000, &models)
            .unwrap();
        let diff = (num.parts()[0].d as i64 - geo.parts()[0].d as i64).abs();
        assert!(diff < 60, "numerical {:?} vs geometric {:?}", num.sizes(), geo.sizes());
    }

    #[test]
    fn fallback_solves_when_newton_is_disabled() {
        let m1 = akima(&[(100, 1.0), (1000, 10.0)]);
        let m2 = akima(&[(100, 2.0), (1000, 20.0)]);
        let models: Vec<&dyn Model> = vec![&m1, &m2];
        let p = NumericalPartitioner {
            newton: NewtonOptions {
                max_iter: 0, // force fallback
                ..NewtonOptions::default()
            },
            ..NumericalPartitioner::default()
        };
        let dist = p.partition(900, &models).unwrap();
        assert_eq!(dist.sizes(), vec![600, 300]);
    }

    #[test]
    fn single_process_short_circuits() {
        let m = akima(&[(10, 1.0)]);
        let models: Vec<&dyn Model> = vec![&m];
        let dist = NumericalPartitioner::default()
            .partition(42, &models)
            .unwrap();
        assert_eq!(dist.sizes(), vec![42]);
    }

    #[test]
    fn handles_extreme_speed_ratio() {
        let fast = akima(&[(10_000, 1.0), (100_000, 10.0)]);
        let slow = akima(&[(10, 1.0), (100, 10.0)]);
        let models: Vec<&dyn Model> = vec![&fast, &slow];
        let dist = NumericalPartitioner::default()
            .partition(100_000, &models)
            .unwrap();
        assert_eq!(dist.total_assigned(), 100_000);
        assert!(dist.parts()[1].d < 200);
    }
}
