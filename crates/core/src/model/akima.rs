use serde::{Deserialize, Serialize};

use fupermod_num::interp::{AkimaSpline, Interpolation};

use super::{insert_point, insert_point_indexed, Model, Refresh};
use crate::{CoreError, Point};

/// The Akima-spline functional performance model of Rychkov et al.
/// \[15\]: the time function is interpolated by an Akima spline through
/// the experimental points, anchored at the origin (`t(0) = 0`).
///
/// Unlike [`PiecewiseModel`](super::PiecewiseModel) there are no shape
/// restrictions — real, non-canonical speed functions (Fig. 2(b) of the
/// paper) are represented faithfully — and the interpolant has a
/// continuous first derivative, which the Newton-based numerical
/// partitioner relies on.
///
/// With a single experimental point the model degenerates to the
/// constant model (a line through the origin).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AkimaModel {
    points: Vec<Point>,
    spline: Option<AkimaSpline>,
    /// The fastest observed per-unit time, `min(tᵢ / dᵢ)` over
    /// `points` (`+∞` while empty) — the rate behind the floor of
    /// [`Model::time`]. Kept here, and brought up to date by every
    /// method that changes `points`, so a prediction does not rescan
    /// the points. A minimum is exact in floating point, so the value
    /// is the same whichever order the points were seen in.
    floor_rate: f64,
}

impl Default for AkimaModel {
    fn default() -> Self {
        Self {
            points: Vec::new(),
            spline: None,
            floor_rate: f64::INFINITY,
        }
    }
}

/// A point's per-unit time, the quantity [`AkimaModel::floor_rate`]
/// minimises.
fn unit_time(p: &Point) -> f64 {
    p.t / p.d as f64
}

impl AkimaModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    fn rescan_floor_rate(&mut self) {
        self.floor_rate = self
            .points
            .iter()
            .map(unit_time)
            .fold(f64::INFINITY, f64::min);
    }

    fn refresh(&mut self) -> Result<(), CoreError> {
        self.rescan_floor_rate();
        if self.points.is_empty() {
            self.spline = None;
            return Ok(());
        }
        // Anchor the time function at the origin: zero units take zero
        // time. This both reflects reality and gives the spline (and
        // the solvers probing small sizes) sane behaviour below the
        // first measured point.
        let mut xs = Vec::with_capacity(self.points.len() + 1);
        let mut ys = Vec::with_capacity(self.points.len() + 1);
        xs.push(0.0);
        ys.push(0.0);
        for p in &self.points {
            xs.push(p.d as f64);
            ys.push(p.t);
        }
        self.spline = Some(AkimaSpline::new(&xs, &ys).map_err(CoreError::from)?);
        Ok(())
    }

    /// After the point at sorted index `i` changed from `old` (same
    /// size, new time), patch the matching spline node instead of
    /// rebuilding. Node `i + 1` because the spline is anchored at the
    /// origin. Bit-identical to [`Self::refresh`] by the
    /// `AkimaSpline::set_y` contract; falls back to a rebuild when no
    /// spline exists yet. The floor rate follows in O(1) unless the
    /// moved node held the minimum and moved up.
    fn patch_node(&mut self, i: usize, old: &Point) -> Result<Refresh, CoreError> {
        let rate = unit_time(&self.points[i]);
        if rate <= self.floor_rate {
            self.floor_rate = rate;
        } else if unit_time(old) == self.floor_rate {
            self.rescan_floor_rate();
        }
        match self.spline.as_mut() {
            Some(spline) if spline.xs().len() == self.points.len() + 1 => {
                spline
                    .set_y(i + 1, self.points[i].t)
                    .map_err(CoreError::from)?;
                Ok(Refresh::Patched)
            }
            _ => {
                self.refresh()?;
                Ok(Refresh::Rebuilt)
            }
        }
    }

    /// Adds (or merges) an experimental point exactly like
    /// [`Model::update`], but refreshes the approximation
    /// *incrementally* when it can: a measurement merging into an
    /// already-known size moves one spline node, so only the affected
    /// Akima window is recomputed (O(1)); a new size still rebuilds
    /// (O(n)). The resulting model is **bit-identical** to the
    /// `update` path either way — the returned [`Refresh`] only
    /// reports which path ran (the model store's refresh counters
    /// consume it).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] on an invalid point, like
    /// [`Model::update`].
    pub fn absorb(&mut self, point: Point) -> Result<Refresh, CoreError> {
        match insert_point_indexed(&mut self.points, point)? {
            None => Ok(Refresh::Patched), // zero-size: nothing moved
            Some((i, Some(old))) => self.patch_node(i, &old),
            Some((_, None)) => {
                self.refresh()?;
                Ok(Refresh::Rebuilt)
            }
        }
    }

    /// Replaces the experimental point for `point.d` wholesale (no
    /// weighted merge), inserting it if the size is new, and refreshes
    /// incrementally like [`Self::absorb`]. This is the entry point
    /// for maintainers that own the per-size statistics themselves —
    /// the model store recomputes each point from its
    /// `IncrementalStats` sample and pushes the *result* here, so the
    /// merge arithmetic must not run twice.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] on an invalid point.
    pub fn set_point(&mut self, point: Point) -> Result<Refresh, CoreError> {
        if !point.t.is_finite() || (point.d > 0 && point.t <= 0.0) || point.t < 0.0 {
            return Err(CoreError::Model(format!(
                "invalid experimental point: d={}, t={}",
                point.d, point.t
            )));
        }
        if point.d == 0 {
            return Ok(Refresh::Patched);
        }
        match self.points.binary_search_by(|p| p.d.cmp(&point.d)) {
            Ok(i) => {
                let old = std::mem::replace(&mut self.points[i], point);
                self.patch_node(i, &old)
            }
            Err(i) => {
                self.points.insert(i, point);
                self.refresh()?;
                Ok(Refresh::Rebuilt)
            }
        }
    }

    /// A floor for predicted times: a tiny fraction of the fastest
    /// observed per-unit time, so spline undershoot near the origin can
    /// never produce zero or negative times (which would blow up
    /// speeds).
    fn time_floor(&self, x: f64) -> f64 {
        1e-3 * self.floor_rate * x
    }
}

impl Model for AkimaModel {
    fn points(&self) -> &[Point] {
        &self.points
    }

    fn update(&mut self, point: Point) -> Result<(), CoreError> {
        insert_point(&mut self.points, point)?;
        self.refresh()
    }

    fn time(&self, x: f64) -> Option<f64> {
        let spline = self.spline.as_ref()?;
        if x <= 0.0 {
            return Some(0.0);
        }
        Some(spline.value(x).max(self.time_floor(x)))
    }

    fn time_derivative(&self, x: f64) -> Option<f64> {
        let spline = self.spline.as_ref()?;
        Some(spline.derivative(x.max(0.0)))
    }

    fn speed(&self, x: f64) -> Option<f64> {
        if x <= 0.0 {
            // Continuous extension: lim_{x→0} x / t(x) = 1 / t'(0).
            let d0 = self.time_derivative(0.0)?;
            return Some(if d0 > 0.0 { 1.0 / d0 } else { 0.0 });
        }
        let t = self.time(x)?;
        Some(x / t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_from(data: &[(u64, f64)]) -> AkimaModel {
        let mut m = AkimaModel::new();
        for &(d, t) in data {
            m.update(Point::single(d, t)).unwrap();
        }
        m
    }

    #[test]
    fn single_point_is_a_line_through_origin() {
        let m = model_from(&[(100, 2.0)]);
        assert!((m.time(50.0).unwrap() - 1.0).abs() < 1e-12);
        assert!((m.time(200.0).unwrap() - 4.0).abs() < 1e-12);
        assert!((m.speed(10.0).unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn interpolates_measured_points_exactly() {
        let data = [(10u64, 0.5), (50, 3.0), (200, 20.0), (800, 160.0)];
        let m = model_from(&data);
        for &(d, t) in &data {
            assert!(
                (m.time(d as f64).unwrap() - t).abs() < 1e-9,
                "mismatch at d={d}"
            );
        }
    }

    #[test]
    fn represents_non_canonical_speed_functions() {
        // A speed bump the piecewise model would flatten: the Akima
        // model reproduces it.
        let m = model_from(&[(10, 1.0), (60, 10.0), (900, 100.0), (4000, 1000.0)]);
        // Raw speed at 900 is 9 units/s; the spline passes through it.
        assert!((m.speed(900.0).unwrap() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn time_at_and_below_zero_is_zero() {
        let m = model_from(&[(10, 1.0), (100, 12.0)]);
        assert_eq!(m.time(0.0), Some(0.0));
        assert_eq!(m.time(-3.0), Some(0.0));
    }

    #[test]
    fn speed_at_zero_is_the_derivative_limit() {
        // Linear time t = 0.1 x → speed 10 everywhere, including 0.
        let m = model_from(&[(10, 1.0), (20, 2.0), (30, 3.0)]);
        assert!((m.speed(0.0).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn derivative_is_continuous_where_piecewise_is_not() {
        let m = model_from(&[(10, 1.0), (100, 15.0), (500, 120.0), (1000, 400.0)]);
        // Sample the derivative across a node; no jumps.
        let before = m.time_derivative(99.999).unwrap();
        let after = m.time_derivative(100.001).unwrap();
        assert!((before - after).abs() < 1e-3 * before.abs().max(1.0));
    }

    #[test]
    fn time_floor_prevents_nonpositive_predictions() {
        // Wild oscillation in measured times; floor keeps t(x) > 0 for
        // all positive x.
        let m = model_from(&[(10, 5.0), (11, 0.001), (12, 5.0), (100, 6.0)]);
        for i in 1..200 {
            let x = i as f64;
            assert!(m.time(x).unwrap() > 0.0, "non-positive time at {x}");
        }
    }

    /// The two models must agree bit-for-bit, not merely compare
    /// equal: probe times at many abscissas via `to_bits` — a coarse
    /// sweep plus the neighbourhood of every point, where a spike pulls
    /// the spline under the floor. The kept floor rate (part of the
    /// structural comparison) must also be what a scan of the points
    /// gives.
    fn assert_models_bitwise_eq(a: &AkimaModel, b: &AkimaModel, ctx: &str) {
        assert_eq!(a, b, "{ctx}: structural mismatch");
        let scanned = a.points.iter().map(unit_time).fold(f64::INFINITY, f64::min);
        assert_eq!(
            a.floor_rate.to_bits(),
            scanned.to_bits(),
            "{ctx}: floor rate"
        );
        let sweep = (0..200).map(|i| i as f64 * 7.3);
        let near_points = a
            .points
            .iter()
            .flat_map(|p| [-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75].map(|dx| p.d as f64 + dx));
        for x in sweep.chain(near_points) {
            let (ta, tb) = (a.time(x), b.time(x));
            match (ta, tb) {
                (Some(ta), Some(tb)) => {
                    assert_eq!(ta.to_bits(), tb.to_bits(), "{ctx}: time({x})");
                }
                (None, None) => {}
                _ => panic!("{ctx}: readiness mismatch at {x}"),
            }
        }
    }

    #[test]
    fn absorb_is_bitwise_identical_to_update_at_every_step() {
        // A stream mixing new sizes (rebuild path) and repeats of known
        // sizes (patch path), including first/last nodes where the
        // virtual-slope window moves.
        let stream = [
            (100u64, 2.0),
            (400, 9.0),
            (100, 2.4), // patch interior-near-left
            (900, 30.0),
            (50, 1.1),
            (900, 28.0), // patch last node
            (200, 4.5),
            (50, 0.9),  // patch first measured node
            (400, 8.0), // patch interior
        ];
        let mut inc = AkimaModel::new();
        let mut ref_model = AkimaModel::new();
        let mut patched = 0;
        for (step, &(d, t)) in stream.iter().enumerate() {
            let kind = inc.absorb(Point::single(d, t)).unwrap();
            ref_model.update(Point::single(d, t)).unwrap();
            if kind == Refresh::Patched {
                patched += 1;
            }
            assert_models_bitwise_eq(&inc, &ref_model, &format!("step {step}"));
        }
        assert!(patched >= 4, "patch path never exercised: {patched}");
    }

    /// The model `update` builds from scratch out of `m`'s points: the
    /// reference for every incremental path (its floor rate comes from
    /// a full scan).
    fn rebuilt(m: &AkimaModel) -> AkimaModel {
        let mut fresh = AkimaModel::new();
        for p in m.points() {
            fresh.update(*p).unwrap();
        }
        fresh
    }

    #[test]
    fn floor_rate_follows_every_way_the_points_change() {
        // `time_floor_prevents_nonpositive_predictions`'s data plus a
        // point at 14 that sends the spline far below zero on the way
        // to 100: the spike at 11 holds the minimum per-unit time, and
        // the floor it sets decides predictions.
        let spike = [(10u64, 5.0), (11, 0.001), (12, 5.0), (14, 1.0), (100, 6.0)];
        let mut m = AkimaModel::new();
        for (step, &(d, t)) in spike.iter().enumerate() {
            m.update(Point::single(d, t)).unwrap();
            assert_models_bitwise_eq(&m, &rebuilt(&m), &format!("update {step}"));
        }
        let binds = |m: &AkimaModel| {
            (1..400)
                .map(|i| i as f64 * 0.25)
                .any(|x| m.time(x).unwrap().to_bits() == (1e-3 * m.floor_rate * x).to_bits())
        };
        assert!(binds(&m), "the floor never decides a prediction");

        // absorb, patch path: the minimum-holding node merges upward
        // (the minimum stays there, larger), another node merges
        // (minimum untouched), then the holder moves above its
        // neighbours' rate so the minimum changes hands.
        for (step, (d, t)) in [(11u64, 0.003), (12, 4.0), (11, 400.0)]
            .into_iter()
            .enumerate()
        {
            assert_eq!(m.absorb(Point::single(d, t)).unwrap(), Refresh::Patched);
            assert_models_bitwise_eq(&m, &rebuilt(&m), &format!("absorb patch {step}"));
        }
        assert!(m.floor_rate > 0.001 / 11.0);
        // absorb, rebuild path: a new size with a new minimum.
        assert_eq!(
            m.absorb(Point::single(50, 0.002)).unwrap(),
            Refresh::Rebuilt
        );
        assert_models_bitwise_eq(&m, &rebuilt(&m), "absorb rebuild");
        assert_eq!(m.floor_rate.to_bits(), (0.002f64 / 50.0).to_bits());
        assert!(binds(&m));

        // set_point: replace the minimum-holding node downward, then
        // upward past every other node (a rescan), then a non-holder.
        for (step, (d, t)) in [(50u64, 0.0005), (50, 70.0), (100, 5.5)]
            .into_iter()
            .enumerate()
        {
            assert_eq!(m.set_point(Point::single(d, t)).unwrap(), Refresh::Patched);
            assert_models_bitwise_eq(&m, &rebuilt(&m), &format!("set_point {step}"));
        }
        assert_eq!(
            m.set_point(Point::single(9, 0.0009)).unwrap(),
            Refresh::Rebuilt
        );
        assert_models_bitwise_eq(&m, &rebuilt(&m), "set_point insert");

        // model::io: a saved and reloaded model is the same model.
        let mut file = Vec::new();
        crate::model::io::write_points(&mut file, m.points()).unwrap();
        let mut reloaded = AkimaModel::new();
        for p in crate::model::io::read_points(file.as_slice()).unwrap() {
            reloaded.update(p).unwrap();
        }
        assert_models_bitwise_eq(&reloaded, &m, "io reload");
    }

    #[test]
    fn an_empty_model_equals_a_new_one_whatever_it_was_offered() {
        // Zero-size points are ignored; the floor rate of "no points"
        // must be the same value on every path that can leave a model
        // empty.
        let mut m = AkimaModel::new();
        m.update(Point::single(0, 0.0)).unwrap();
        m.absorb(Point::single(0, 0.0)).unwrap();
        m.set_point(Point::single(0, 0.0)).unwrap();
        assert_eq!(m, AkimaModel::new());
    }

    #[test]
    fn set_point_replaces_without_merging() {
        let mut m = AkimaModel::new();
        m.set_point(Point::single(10, 1.0)).unwrap();
        m.set_point(Point::single(20, 3.0)).unwrap();
        let kind = m.set_point(Point::single(10, 2.0)).unwrap();
        assert_eq!(kind, Refresh::Patched);
        // Replacement, not a weighted merge: t(10) is exactly 2.
        let mut fresh = AkimaModel::new();
        fresh.update(Point::single(10, 2.0)).unwrap();
        fresh.update(Point::single(20, 3.0)).unwrap();
        assert_models_bitwise_eq(&m, &fresh, "after replace");
    }

    #[test]
    fn set_point_rejects_invalid_points() {
        let mut m = AkimaModel::new();
        assert!(m.set_point(Point::single(10, 0.0)).is_err());
        assert!(m.set_point(Point::single(10, f64::NAN)).is_err());
        assert!(m.set_point(Point::single(10, -1.0)).is_err());
        assert!(m.points().is_empty());
    }

    #[test]
    fn merges_repeated_measurements() {
        let mut m = AkimaModel::new();
        m.update(Point::single(10, 1.0)).unwrap();
        m.update(Point::single(10, 3.0)).unwrap();
        assert_eq!(m.points().len(), 1);
        assert!((m.time(10.0).unwrap() - 2.0).abs() < 1e-12);
    }
}
