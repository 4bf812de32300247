use serde::{Deserialize, Serialize};

use fupermod_num::interp::{Interpolation, PiecewiseLinear};

use super::{insert_point, Model};
use crate::{CoreError, Point};

/// The piecewise-linear functional performance model of
/// Lastovetsky–Reddy \[10\], with coarsening to the shape restrictions
/// that make the geometrical partitioning algorithm convergent.
///
/// The raw speed observations `s_i = d_i / t_i` are coarsened into a
/// *canonical* speed function (Fig. 2(a) of the paper):
///
/// 1. **unimodal envelope** — the speed function may increase up to a
///    single peak and must not increase after it; observations that
///    violate this are clamped *down* to the envelope (conservative:
///    the model never promises more speed than observed);
/// 2. **monotone time** — the time function `t(x) = x / s(x)` must be
///    non-decreasing, i.e. between consecutive sizes the speed may grow
///    at most proportionally to the size (`s_{i} ≤ s_{i-1}·d_i/d_{i-1}`).
///
/// Together these guarantee that any ray from the origin in the
/// (size, speed) plane crosses the speed function in a single connected
/// set, which is exactly what the bisection of the geometrical
/// algorithm needs.
///
/// Between data points the speed is linear; below the first and above
/// the last point it is constant (the paper's extension of speed
/// functions to the full size range).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PiecewiseModel {
    points: Vec<Point>,
    /// Coarsened canonical speed function over the point sizes.
    speed_fn: Option<PiecewiseLinear>,
}

impl PiecewiseModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// The coarsened (canonical) speed values at the experimental
    /// sizes, in units/s — exposed so experiments can plot the
    /// restricted approximation against the raw data (paper Fig. 2(a)).
    #[cfg(test)]
    fn canonical_speeds(&self) -> Option<(&[f64], &[f64])> {
        self.speed_fn.as_ref().map(|f| (f.xs(), f.ys()))
    }

    fn refresh(&mut self) -> Result<(), CoreError> {
        if self.points.is_empty() {
            self.speed_fn = None;
            return Ok(());
        }
        let xs: Vec<f64> = self.points.iter().map(|p| p.d as f64).collect();
        let raw: Vec<f64> = self.points.iter().map(|p| p.speed()).collect();
        let canon = coarsen(&xs, &raw);
        self.speed_fn = if xs.len() >= 2 {
            Some(PiecewiseLinear::new(&xs, &canon).map_err(CoreError::from)?)
        } else {
            // Single point: constant speed; represented without an
            // interpolant.
            None
        };
        Ok(())
    }

    /// Canonical speed at `x` (constant extension outside the data).
    fn canonical_speed(&self, x: f64) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        if let Some(f) = &self.speed_fn {
            let (lo, hi) = f.domain();
            let v = if x < lo {
                f.value(lo)
            } else if x > hi {
                f.value(hi)
            } else {
                f.value(x)
            };
            Some(v)
        } else {
            Some(self.points[0].speed())
        }
    }

    fn canonical_speed_slope(&self, x: f64) -> f64 {
        match &self.speed_fn {
            Some(f) => {
                let (lo, hi) = f.domain();
                if x < lo || x > hi {
                    0.0
                } else {
                    f.derivative(x)
                }
            }
            None => 0.0,
        }
    }
}

/// Coarsens raw speed observations to the canonical restricted shape.
/// Returns the clamped speeds (same length as the input).
fn coarsen(xs: &[f64], raw: &[f64]) -> Vec<f64> {
    let n = raw.len();
    let mut s = raw.to_vec();
    if n >= 2 {
        // Peak of the raw data.
        let peak = raw
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite speeds"))
            .map(|(i, _)| i)
            .expect("non-empty");
        // Ascending side: walking left from the peak, speeds must not
        // increase (so that left-to-right they are non-decreasing).
        for i in (0..peak).rev() {
            s[i] = s[i].min(s[i + 1]);
        }
        // Descending side: walking right from the peak, non-increasing.
        for i in peak + 1..n {
            s[i] = s[i].min(s[i - 1]);
        }
        // Monotone time: s_i ≤ s_{i-1} · x_i / x_{i-1}.
        for i in 1..n {
            let cap = s[i - 1] * xs[i] / xs[i - 1];
            s[i] = s[i].min(cap);
        }
    }
    s
}

impl Model for PiecewiseModel {
    fn points(&self) -> &[Point] {
        &self.points
    }

    fn update(&mut self, point: Point) -> Result<(), CoreError> {
        insert_point(&mut self.points, point)?;
        self.refresh()
    }

    fn time(&self, x: f64) -> Option<f64> {
        if x <= 0.0 {
            return self.canonical_speed(0.0).map(|_| 0.0);
        }
        self.canonical_speed(x).map(|s| x / s)
    }

    fn time_derivative(&self, x: f64) -> Option<f64> {
        let x = x.max(0.0);
        let s = self.canonical_speed(x)?;
        let ds = self.canonical_speed_slope(x);
        // d/dx (x / s(x)) = (s - x·s') / s².
        Some((s - x * ds) / (s * s))
    }

    fn speed(&self, x: f64) -> Option<f64> {
        self.canonical_speed(x.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_from(data: &[(u64, f64)]) -> PiecewiseModel {
        let mut m = PiecewiseModel::new();
        for &(d, t) in data {
            m.update(Point::single(d, t)).unwrap();
        }
        m
    }

    #[test]
    fn single_point_behaves_like_constant_model() {
        let m = model_from(&[(100, 2.0)]);
        assert_eq!(m.speed(10.0), Some(50.0));
        assert_eq!(m.speed(1e6), Some(50.0));
        assert_eq!(m.time(200.0), Some(4.0));
    }

    #[test]
    fn monotone_decreasing_speeds_pass_through() {
        // Speeds 10, 8, 5 — already canonical.
        let m = model_from(&[(10, 1.0), (80, 10.0), (500, 100.0)]);
        assert_eq!(m.speed(10.0), Some(10.0));
        assert_eq!(m.speed(80.0), Some(8.0));
        assert_eq!(m.speed(500.0), Some(5.0));
        // Linear interpolation in between.
        assert_eq!(m.speed(45.0), Some(9.0));
    }

    #[test]
    fn speed_bump_after_peak_is_flattened() {
        // Raw speeds: 10, 6, 9, 4 → the 9 violates unimodality (peak is
        // the first point) and is clamped to 6.
        let m = model_from(&[(10, 1.0), (60, 10.0), (900, 100.0), (4000, 1000.0)]);
        assert_eq!(m.speed(900.0), Some(6.0));
        assert_eq!(m.speed(4000.0), Some(4.0));
    }

    #[test]
    fn ascending_dip_is_clamped_down() {
        // Raw speeds: 5, 3, 10 (peak last) → ascending side must be
        // non-decreasing, so the 5 is clamped to 3.
        let m = model_from(&[(10, 2.0), (30, 10.0), (1000, 100.0)]);
        assert_eq!(m.speed(10.0), Some(3.0));
        assert_eq!(m.speed(30.0), Some(3.0));
        // Peak speed capped by the monotone-time rule:
        // s ≤ 3 · 1000/30 = 100 → untouched (10 < 100).
        assert_eq!(m.speed(1000.0), Some(10.0));
    }

    #[test]
    fn time_function_is_non_decreasing() {
        // Deliberately nasty raw data with bumps both sides of the peak.
        let m = model_from(&[
            (5, 1.0),
            (20, 1.5),
            (60, 8.0),
            (100, 9.0),
            (400, 90.0),
            (900, 100.0),
            (2000, 600.0),
        ]);
        let mut last = 0.0;
        for i in 0..=200 {
            let x = 10.0 * i as f64;
            let t = m.time(x).unwrap();
            assert!(t >= last - 1e-9, "time decreased at x={x}");
            last = t;
        }
    }

    #[test]
    fn canonical_speed_is_unimodal() {
        let m = model_from(&[
            (5, 1.0),
            (20, 1.5),
            (60, 8.0),
            (100, 9.0),
            (400, 90.0),
            (900, 100.0),
            (2000, 600.0),
        ]);
        let (_, speeds) = m.canonical_speeds().unwrap();
        let peak = speeds
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        for w in speeds[..=peak].windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "ascending side not monotone");
        }
        for w in speeds[peak..].windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "descending side not monotone");
        }
    }

    #[test]
    fn coarsened_never_exceeds_raw() {
        let data = [
            (5u64, 1.0),
            (20, 1.5),
            (60, 8.0),
            (100, 9.0),
            (400, 90.0),
            (900, 100.0),
        ];
        let m = model_from(&data);
        for &(d, t) in &data {
            let raw = d as f64 / t;
            assert!(
                m.speed(d as f64).unwrap() <= raw + 1e-12,
                "model optimistic at d={d}"
            );
        }
    }

    #[test]
    fn time_derivative_matches_finite_difference() {
        let m = model_from(&[(10, 1.0), (100, 12.0), (1000, 250.0)]);
        for &x in &[15.0, 50.0, 500.0, 2000.0] {
            let h = 1e-5 * x;
            let fd = (m.time(x + h).unwrap() - m.time(x - h).unwrap()) / (2.0 * h);
            let an = m.time_derivative(x).unwrap();
            assert!((an - fd).abs() < 1e-5 * fd.abs().max(1e-3), "x={x}");
        }
    }

    #[test]
    fn time_at_zero_is_zero() {
        let m = model_from(&[(10, 1.0), (100, 12.0)]);
        assert_eq!(m.time(0.0), Some(0.0));
        assert_eq!(m.time(-5.0), Some(0.0));
    }
}
