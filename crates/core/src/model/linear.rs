use serde::{Deserialize, Serialize};

use super::{insert_point, Model};
use crate::{CoreError, Point};

/// The linear performance model of Luk, Hong & Kim's Qilin \[12\], which
/// the paper discusses as the step between CPM and FPM: the execution
/// time is an affine function of problem size, `t(x) = a + b·x`, fitted
/// to the experimental points by least squares.
///
/// It captures a fixed startup overhead (the `a` term, important for
/// GPUs) but still assumes a constant marginal cost per unit — so it
/// shares the CPM's blindness to memory-hierarchy cliffs. Included
/// mainly as a comparison model and as a demonstration that
/// `fupermod_model` is open to new implementations.
///
/// With a single point the fit degenerates to a line through the
/// origin (the CPM). The fit enforces `a ≥ 0` (negative intercepts are
/// clamped and the slope refitted) so predicted times stay positive.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    points: Vec<Point>,
    /// Intercept `a` in seconds.
    intercept: f64,
    /// Slope `b` in seconds per unit.
    slope: f64,
}

impl LinearModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// The fitted `(intercept, slope)` of `t(x) = a + b·x`.
    #[cfg(test)]
    fn coefficients(&self) -> (f64, f64) {
        (self.intercept, self.slope)
    }

    fn refit(&mut self) {
        let n = self.points.len();
        if n == 0 {
            self.intercept = 0.0;
            self.slope = 0.0;
            return;
        }
        if n == 1 {
            self.intercept = 0.0;
            self.slope = self.points[0].t / self.points[0].d as f64;
            return;
        }
        let nf = n as f64;
        let sx: f64 = self.points.iter().map(|p| p.d as f64).sum();
        let sy: f64 = self.points.iter().map(|p| p.t).sum();
        let sxx: f64 = self.points.iter().map(|p| (p.d as f64).powi(2)).sum();
        let sxy: f64 = self.points.iter().map(|p| p.d as f64 * p.t).sum();
        let denom = nf * sxx - sx * sx;
        if denom.abs() < 1e-30 {
            // All sizes identical: fall back to the proportional fit.
            self.intercept = 0.0;
            self.slope = sy / sx;
            return;
        }
        let slope = (nf * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / nf;
        if intercept < 0.0 || slope <= 0.0 {
            // Clamp to the physically meaningful family: through-origin
            // least squares (b = Σxy/Σx²), which is always positive for
            // positive data.
            self.intercept = 0.0;
            self.slope = sxy / sxx;
        } else {
            self.intercept = intercept;
            self.slope = slope;
        }
    }
}

impl Model for LinearModel {
    fn points(&self) -> &[Point] {
        &self.points
    }

    fn update(&mut self, point: Point) -> Result<(), CoreError> {
        insert_point(&mut self.points, point)?;
        self.refit();
        Ok(())
    }

    fn time(&self, x: f64) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(if x <= 0.0 {
            0.0
        } else {
            self.intercept + self.slope * x
        })
    }

    fn time_derivative(&self, _x: f64) -> Option<f64> {
        if self.points.is_empty() {
            None
        } else {
            Some(self.slope)
        }
    }

    fn speed(&self, x: f64) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        if x <= 0.0 {
            // lim_{x→0} x/(a + bx): zero with an intercept, 1/b without.
            return Some(if self.intercept > 0.0 {
                0.0
            } else {
                1.0 / self.slope
            });
        }
        Some(x / (self.intercept + self.slope * x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_exact_affine_data() {
        let mut m = LinearModel::new();
        // t = 0.5 + 0.01 x
        for d in [100u64, 200, 400, 800] {
            m.update(Point::single(d, 0.5 + 0.01 * d as f64)).unwrap();
        }
        let (a, b) = m.coefficients();
        assert!((a - 0.5).abs() < 1e-9);
        assert!((b - 0.01).abs() < 1e-12);
        assert!((m.time(1000.0).unwrap() - 10.5).abs() < 1e-9);
    }

    #[test]
    fn single_point_is_proportional() {
        let mut m = LinearModel::new();
        m.update(Point::single(100, 2.0)).unwrap();
        assert_eq!(m.coefficients(), (0.0, 0.02));
        assert_eq!(m.speed(50.0), Some(50.0));
    }

    #[test]
    fn negative_intercepts_are_clamped() {
        let mut m = LinearModel::new();
        // Superlinear data pushes the LS intercept negative.
        m.update(Point::single(10, 0.1)).unwrap();
        m.update(Point::single(100, 2.0)).unwrap();
        m.update(Point::single(200, 8.0)).unwrap();
        let (a, b) = m.coefficients();
        assert!(a >= 0.0);
        assert!(b > 0.0);
        for x in [1.0, 50.0, 500.0] {
            assert!(m.time(x).unwrap() > 0.0);
        }
    }

    #[test]
    fn gpu_like_overhead_is_captured() {
        // Large fixed overhead, small per-unit cost — the case the CPM
        // gets badly wrong and the linear model gets right.
        let mut m = LinearModel::new();
        for d in [10u64, 100, 1000] {
            m.update(Point::single(d, 1.0 + 1e-4 * d as f64)).unwrap();
        }
        // Speed rises with size (amortised overhead).
        assert!(m.speed(1000.0).unwrap() > 5.0 * m.speed(10.0).unwrap());
    }

    #[test]
    fn speed_limits_are_consistent() {
        let mut m = LinearModel::new();
        for d in [100u64, 200] {
            m.update(Point::single(d, 0.2 + 0.001 * d as f64)).unwrap();
        }
        assert_eq!(m.speed(0.0), Some(0.0));
        assert_eq!(m.time(0.0), Some(0.0));
    }

    #[test]
    fn works_with_partitioners() {
        use crate::partition::{GeometricPartitioner, Partitioner};
        let mut m1 = LinearModel::new();
        let mut m2 = LinearModel::new();
        for d in [100u64, 400] {
            m1.update(Point::single(d, d as f64 / 100.0)).unwrap(); // 100 u/s
            m2.update(Point::single(d, d as f64 / 300.0)).unwrap(); // 300 u/s
        }
        let models: Vec<&dyn Model> = vec![&m1, &m2];
        let dist = GeometricPartitioner::default()
            .partition(400, &models)
            .unwrap();
        assert_eq!(dist.sizes(), vec![100, 300]);
    }
}
