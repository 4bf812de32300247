//! Computation performance models (the paper's `fupermod_model`).
//!
//! A model accumulates experimental [`Point`]s for one process and
//! approximates that process's *time function* `t(x)` — the execution
//! time of `x` computation units — and the derived *speed function*
//! `s(x) = x / t(x)` in computation units per second. Three models are
//! provided, matching the paper:
//!
//! * [`ConstantModel`] — the CPM: speed does not depend on problem size
//!   (one point suffices; extra points are averaged, as in adaptive
//!   CPM \[17\]).
//! * [`PiecewiseModel`] — the FPM of Lastovetsky–Reddy \[10\]:
//!   piecewise-linear speed with the raw data *coarsened* so the speed
//!   function satisfies the shape restrictions that make the
//!   geometrical partitioning algorithm convergent (unimodal speed and
//!   a non-decreasing time function).
//! * [`AkimaModel`] — the FPM of Rychkov et al. \[15\]: Akima-spline
//!   interpolation of the time function, smooth with a continuous
//!   derivative, for the Newton-based numerical partitioner.

pub mod io;

mod akima;
mod constant;
mod cubic;
mod linear;
mod piecewise;

pub use akima::AkimaModel;
pub use constant::ConstantModel;
pub use cubic::CubicModel;
pub use linear::LinearModel;
pub use piecewise::PiecewiseModel;

use crate::{CoreError, Point};

/// How an incremental model update was absorbed — reported by
/// [`AkimaModel::absorb`] so callers (the model store's refresh
/// counters, benchmarks) can tell the O(1) patch path from the O(n)
/// rebuild path. Both paths produce bit-identical models; the variant
/// only describes the work done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refresh {
    /// An existing node's ordinate moved; only the affected spline
    /// window was recomputed.
    Patched,
    /// The approximation was rebuilt from scratch (new node inserted,
    /// or no approximation existed yet).
    Rebuilt,
}

/// A computation performance model of one process.
///
/// Implementations keep the experimental points sorted by problem size
/// and merge repeated measurements of the same size (weighted by their
/// repetition counts), so dynamic algorithms can keep feeding
/// observations in.
pub trait Model {
    /// The experimental points, sorted by `d`.
    fn points(&self) -> &[Point];

    /// Adds (or merges) an experimental point and refreshes the
    /// approximation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] if the point is invalid
    /// (non-finite or non-positive time for a non-zero size).
    fn update(&mut self, point: Point) -> Result<(), CoreError>;

    /// Predicted execution time of `x` computation units, or `None` if
    /// the model has no data yet. `time(0) = 0` for every model.
    ///
    /// Must be pure: between two [`Model::update`]s the same `x` gives
    /// the same bits, whatever was asked in between. The partitioners
    /// remember values across the steps of one solve
    /// ([`GeometricPartitioner`](crate::partition::GeometricPartitioner)
    /// evaluates each abscissa once) and would otherwise mix answers.
    fn time(&self, x: f64) -> Option<f64>;

    /// Derivative of the time function at `x`, if the model has data.
    fn time_derivative(&self, x: f64) -> Option<f64>;

    /// Predicted speed at `x` in computation units per second
    /// (`x / time(x)`, continuously extended at `x = 0`).
    fn speed(&self, x: f64) -> Option<f64>;

    /// Whether the model has enough data to answer queries.
    fn is_ready(&self) -> bool {
        !self.points().is_empty()
    }
}

/// Validates a point and inserts it into a sorted point list, merging
/// with an existing measurement of the same size (weighted by reps).
pub(crate) fn insert_point(points: &mut Vec<Point>, point: Point) -> Result<(), CoreError> {
    insert_point_indexed(points, point).map(|_| ())
}

/// [`insert_point`], reporting *where* the point landed: `Some((i,
/// replaced))` with the sorted index and, when it merged into an
/// existing size, the point that was there before; or `None` for an
/// ignored zero-size point. The index is what lets
/// [`AkimaModel::absorb`] patch the matching spline node instead of
/// rebuilding, the replaced point what lets it keep its floor rate.
pub(crate) fn insert_point_indexed(
    points: &mut Vec<Point>,
    point: Point,
) -> Result<Option<(usize, Option<Point>)>, CoreError> {
    if !point.t.is_finite() || (point.d > 0 && point.t <= 0.0) || point.t < 0.0 {
        return Err(CoreError::Model(format!(
            "invalid experimental point: d={}, t={}",
            point.d, point.t
        )));
    }
    if point.d == 0 {
        // Zero-size points carry no information: t(0) = 0 by definition.
        return Ok(None);
    }
    match points.binary_search_by(|p| p.d.cmp(&point.d)) {
        Ok(i) => {
            let old = points[i];
            let w_old = old.reps.max(1) as f64;
            let w_new = point.reps.max(1) as f64;
            points[i] = Point {
                d: point.d,
                t: (old.t * w_old + point.t * w_new) / (w_old + w_new),
                reps: old.reps.saturating_add(point.reps),
                ci: old.ci.max(point.ci),
            };
            Ok(Some((i, Some(old))))
        }
        Err(i) => {
            points.insert(i, point);
            Ok(Some((i, None)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keeps_points_sorted() {
        let mut pts = Vec::new();
        for d in [50u64, 10, 30, 20, 40] {
            insert_point(&mut pts, Point::single(d, d as f64)).unwrap();
        }
        let ds: Vec<u64> = pts.iter().map(|p| p.d).collect();
        assert_eq!(ds, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn insert_merges_same_size_weighted() {
        let mut pts = Vec::new();
        insert_point(
            &mut pts,
            Point {
                d: 10,
                t: 1.0,
                reps: 3,
                ci: 0.1,
            },
        )
        .unwrap();
        insert_point(
            &mut pts,
            Point {
                d: 10,
                t: 2.0,
                reps: 1,
                ci: 0.2,
            },
        )
        .unwrap();
        assert_eq!(pts.len(), 1);
        assert!((pts[0].t - 1.25).abs() < 1e-12);
        assert_eq!(pts[0].reps, 4);
        assert_eq!(pts[0].ci, 0.2);
    }

    #[test]
    fn insert_rejects_invalid_points() {
        let mut pts = Vec::new();
        assert!(insert_point(&mut pts, Point::single(10, 0.0)).is_err());
        assert!(insert_point(&mut pts, Point::single(10, -1.0)).is_err());
        assert!(insert_point(&mut pts, Point::single(10, f64::NAN)).is_err());
    }

    #[test]
    fn zero_size_points_are_ignored() {
        let mut pts = Vec::new();
        insert_point(&mut pts, Point::single(0, 0.0)).unwrap();
        assert!(pts.is_empty());
    }
}
