use serde::{Deserialize, Serialize};

use super::{segment_index, validate_points, Interpolation};
use crate::NumError;

/// Akima (1970) local cubic spline interpolant.
///
/// Akima's method fits a cubic Hermite segment between each pair of
/// points, with node derivatives chosen from a weighted average of
/// neighbouring secant slopes. The weights suppress oscillation near
/// abrupt slope changes, which is exactly what empirical speed functions
/// of real kernels look like around memory-hierarchy boundaries — the
/// reason the paper's Akima FPM uses it (Fig. 2(b)).
///
/// End conditions follow Akima's original recipe: two virtual slopes are
/// added at each end by quadratic extrapolation.
///
/// # Examples
///
/// ```
/// use fupermod_num::interp::{AkimaSpline, Interpolation};
///
/// # fn main() -> Result<(), fupermod_num::NumError> {
/// // Akima interpolation reproduces straight lines exactly.
/// let xs = [0.0, 1.0, 3.0, 4.0, 7.0];
/// let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
/// let f = AkimaSpline::new(&xs, &ys)?;
/// assert!((f.value(2.2) - 5.4).abs() < 1e-12);
/// assert!((f.derivative(5.0) - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AkimaSpline {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Node derivatives, one per point.
    ds: Vec<f64>,
    /// Per-segment quadratic Hermite coefficients, one per segment,
    /// precomputed at construction. Evaluation used to re-derive these
    /// (two divisions each) on *every* `value()`/`derivative()` call —
    /// a measurable cost inside the Newton and bisection loops of the
    /// partitioners, which evaluate splines thousands of times per
    /// partition. See `hermite_from_nodes` for the derivation.
    c2: Vec<f64>,
    /// Per-segment cubic Hermite coefficients (see [`Self::c2`]).
    c3: Vec<f64>,
}

/// Hermite coefficients of the cubic through `(0, y0)`–`(h, y1)` with
/// end derivatives `d0`, `d1`, in the monomial basis relative to the
/// segment's left node: `y(t) = y0 + t (d0 + t (c2 + t c3))`.
///
/// This is the exact computation the evaluator used to repeat per
/// call; it now runs once per segment at construction, so cached and
/// recomputed evaluation are bit-identical.
pub(crate) fn hermite_from_nodes(h: f64, y0: f64, y1: f64, d0: f64, d1: f64) -> (f64, f64) {
    let m = (y1 - y0) / h;
    let c2 = (3.0 * m - 2.0 * d0 - d1) / h;
    let c3 = (d0 + d1 - 2.0 * m) / (h * h);
    (c2, c3)
}

/// Akima node derivative from the four surrounding secant slopes
/// `m[i-2], m[i-1], m[i], m[i+1]` — a weighted mean of the two central
/// slopes, weighted by the slope variation on the far sides. Factored
/// out so that [`AkimaSpline::new`] and the incremental
/// [`AkimaSpline::set_y`] patch use the *same* arithmetic and stay
/// bit-identical.
#[inline]
fn akima_derivative(m_im2: f64, m_im1: f64, m_i: f64, m_ip1: f64) -> f64 {
    let w1 = (m_ip1 - m_i).abs();
    let w2 = (m_im1 - m_im2).abs();
    if w1 + w2 == 0.0 {
        0.5 * (m_im1 + m_i)
    } else {
        (w1 * m_im1 + w2 * m_i) / (w1 + w2)
    }
}

impl AkimaSpline {
    /// Builds the spline.
    ///
    /// With exactly two points the spline degenerates to the straight
    /// line through them.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] under the same conditions as
    /// [`PiecewiseLinear::new`](super::PiecewiseLinear::new).
    pub fn new(xs: &[f64], ys: &[f64]) -> Result<Self, NumError> {
        validate_points(xs, ys)?;
        let n = xs.len();

        // Secant slopes with two virtual entries on each side
        // (quadratic extrapolation): m[-2], m[-1], m[0..n-1], m[n-1], m[n].
        // Stored shifted by 2: ext[i + 2] = m[i].
        let mut ext = vec![0.0; n + 3];
        for i in 0..n - 1 {
            ext[i + 2] = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]);
        }
        if n == 2 {
            // Straight line: all virtual slopes equal the single secant.
            let m = ext[2];
            ext.fill(m);
        } else {
            ext[1] = 2.0 * ext[2] - ext[3];
            ext[0] = 2.0 * ext[1] - ext[2];
            ext[n + 1] = 2.0 * ext[n] - ext[n - 1];
            ext[n + 2] = 2.0 * ext[n + 1] - ext[n];
        }

        // Akima node derivative: weighted mean of the two central
        // slopes, weighted by the slope variation on the far sides.
        let mut ds = vec![0.0; n];
        for (i, d) in ds.iter_mut().enumerate() {
            *d = akima_derivative(ext[i], ext[i + 1], ext[i + 2], ext[i + 3]);
        }

        // Precompute per-segment Hermite coefficients once. Evaluation
        // is now a segment lookup plus a fused polynomial — no
        // divisions on the hot path.
        let mut c2 = vec![0.0; n - 1];
        let mut c3 = vec![0.0; n - 1];
        for seg in 0..n - 1 {
            let h = xs[seg + 1] - xs[seg];
            let (a, b) = hermite_from_nodes(h, ys[seg], ys[seg + 1], ds[seg], ds[seg + 1]);
            c2[seg] = a;
            c3[seg] = b;
        }

        Ok(Self {
            xs: xs.to_vec(),
            ys: ys.to_vec(),
            ds,
            c2,
            c3,
        })
    }

    /// The interpolation nodes' abscissas.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The interpolation nodes' ordinates.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// The Akima node derivatives, one per point.
    #[cfg(test)]
    fn derivatives(&self) -> &[f64] {
        &self.ds
    }

    /// Hermite coefficients for segment `seg`, relative to `xs[seg]` —
    /// now a cache lookup instead of a re-derivation.
    #[inline]
    fn hermite(&self, seg: usize) -> (f64, f64, f64, f64) {
        (self.ys[seg], self.ds[seg], self.c2[seg], self.c3[seg])
    }

    /// Replaces node `i`'s ordinate and repairs the spline *locally*.
    ///
    /// A node ordinate only reaches the spline through the two secant
    /// slopes it touches, so the damage is bounded: the node
    /// derivatives `ds[i-2 ..= i+2]` and the segment coefficients of
    /// segments `i-3 ..= i+2` (clipped to the spline; slightly wider
    /// when `i` is near an end, where the virtual extrapolated slopes
    /// also move). `set_y` recomputes exactly that window with the
    /// same arithmetic [`Self::new`] uses, so the result is
    /// **bit-identical** to a from-scratch rebuild over the updated
    /// ordinates — the property the incremental model store's
    /// refresh path is pinned to (see `fupermod-store`). Cost is O(1)
    /// per call instead of the O(n) rebuild.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] when `y` is not finite.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn set_y(&mut self, i: usize, y: f64) -> Result<(), NumError> {
        if !y.is_finite() {
            return Err(NumError::InvalidInput(format!(
                "node ordinate must be finite, got {y}"
            )));
        }
        let n = self.xs.len();
        assert!(i < n, "node index {i} out of range for {n} nodes");
        self.ys[i] = y;
        if n == 2 {
            // Degenerate straight line: both derivatives are the
            // single secant, one segment.
            let m = (self.ys[1] - self.ys[0]) / (self.xs[1] - self.xs[0]);
            self.ds[0] = m;
            self.ds[1] = m;
            let h = self.xs[1] - self.xs[0];
            let (a, b) = hermite_from_nodes(h, self.ys[0], self.ys[1], m, m);
            self.c2[0] = a;
            self.c3[0] = b;
            return Ok(());
        }
        // Extended secant array entry `e` (`ext[e + 2] = m[e]` in
        // `new`'s indexing), recomputed on demand from the current
        // ordinates with the exact construction-time formulas.
        let m = |j: usize| (self.ys[j + 1] - self.ys[j]) / (self.xs[j + 1] - self.xs[j]);
        let ext = |e: usize| -> f64 {
            if (2..=n).contains(&e) {
                m(e - 2)
            } else if e == 1 {
                2.0 * m(0) - m(1)
            } else if e == 0 {
                let e1 = 2.0 * m(0) - m(1);
                2.0 * e1 - m(0)
            } else if e == n + 1 {
                2.0 * m(n - 2) - m(n - 3)
            } else {
                let enp1 = 2.0 * m(n - 2) - m(n - 3);
                2.0 * enp1 - m(n - 2)
            }
        };
        // Changed secants are m[i-1] and m[i] (ext entries i+1, i+2);
        // each ext entry e feeds derivatives e-3 ..= e, and the
        // virtual-end entries that may move are already inside this
        // window when i is near an end — so ds[i-2 ..= i+2] is a
        // (tight enough) superset of everything that can change.
        let d_lo = i.saturating_sub(2);
        let d_hi = (i + 2).min(n - 1);
        for j in d_lo..=d_hi {
            self.ds[j] = akima_derivative(ext(j), ext(j + 1), ext(j + 2), ext(j + 3));
        }
        // Segment seg reads ys/ds at seg and seg+1: patch i-3 ..= i+2.
        let s_lo = i.saturating_sub(3);
        let s_hi = (i + 2).min(n - 2);
        for seg in s_lo..=s_hi {
            let h = self.xs[seg + 1] - self.xs[seg];
            let (a, b) = hermite_from_nodes(
                h,
                self.ys[seg],
                self.ys[seg + 1],
                self.ds[seg],
                self.ds[seg + 1],
            );
            self.c2[seg] = a;
            self.c3[seg] = b;
        }
        Ok(())
    }
}

impl Interpolation for AkimaSpline {
    fn value(&self, x: f64) -> f64 {
        let (lo, hi) = self.domain();
        // Linear extension keeps solvers well-behaved outside the data.
        if x < lo {
            return self.ys[0] + self.ds[0] * (x - lo);
        }
        if x > hi {
            let last = self.ds.len() - 1;
            return self.ys[last] + self.ds[last] * (x - hi);
        }
        let seg = segment_index(&self.xs, x);
        let (c0, c1, c2, c3) = self.hermite(seg);
        let t = x - self.xs[seg];
        c0 + t * (c1 + t * (c2 + t * c3))
    }

    fn derivative(&self, x: f64) -> f64 {
        let (lo, hi) = self.domain();
        if x < lo {
            return self.ds[0];
        }
        if x > hi {
            return *self.ds.last().expect("non-empty by invariant");
        }
        let seg = segment_index(&self.xs, x);
        let (_, c1, c2, c3) = self.hermite(seg);
        let t = x - self.xs[seg];
        c1 + t * (2.0 * c2 + t * 3.0 * c3)
    }

    fn domain(&self) -> (f64, f64) {
        (self.xs[0], *self.xs.last().expect("non-empty by invariant"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(f: &AkimaSpline, g: impl Fn(f64) -> f64, lo: f64, hi: f64) -> f64 {
        (0..=200)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / 200.0;
                (f.value(x) - g(x)).abs()
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn passes_through_points() {
        let xs = [0.0, 0.7, 1.5, 2.2, 4.0, 5.5];
        let ys = [1.0, -0.3, 2.0, 2.0, -1.0, 0.4];
        let f = AkimaSpline::new(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            assert!((f.value(*x) - y).abs() < 1e-12, "at x={x}");
        }
    }

    #[test]
    fn exact_on_linear_data() {
        let xs = [0.0, 1.0, 2.5, 4.0, 8.0];
        let ys: Vec<f64> = xs.iter().map(|x| -3.0 * x + 0.5).collect();
        let f = AkimaSpline::new(&xs, &ys).unwrap();
        assert!(max_err(&f, |x| -3.0 * x + 0.5, 0.0, 8.0) < 1e-12);
    }

    #[test]
    fn exact_on_quadratic_interior() {
        // Akima reproduces quadratics away from the ends (where the
        // virtual-slope extrapolation is itself quadratic-exact).
        let xs: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x * x).collect();
        let f = AkimaSpline::new(&xs, &ys).unwrap();
        assert!(max_err(&f, |x| x * x, 1.0, 9.0) < 1e-9);
    }

    #[test]
    fn two_points_degenerate_to_line() {
        let f = AkimaSpline::new(&[1.0, 3.0], &[2.0, 6.0]).unwrap();
        assert!((f.value(2.0) - 4.0).abs() < 1e-12);
        assert!((f.derivative(1.5) - 2.0).abs() < 1e-12);
        // Extrapolation continues the line.
        assert!((f.value(0.0) - 0.0).abs() < 1e-12);
        assert!((f.value(4.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn flat_region_stays_flat() {
        // Akima's signature property: the interior of a run of identical
        // ordinates does not pick up oscillation from neighbouring
        // slopes. (The segment immediately adjacent to the rise is
        // allowed to bend — the weights there are both zero and the
        // tie-break averages the slopes, same as GSL.)
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let ys = [0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0];
        let f = AkimaSpline::new(&xs, &ys).unwrap();
        for i in 0..=20 {
            let x = i as f64 * 0.1;
            assert!(f.value(x).abs() < 1e-12, "flat region disturbed at {x}");
        }
    }

    #[test]
    fn derivative_is_consistent_with_value() {
        let xs = [0.0, 1.0, 2.0, 3.5, 5.0, 6.0];
        let ys = [0.0, 0.8, 0.9, 2.5, 2.4, 3.0];
        let f = AkimaSpline::new(&xs, &ys).unwrap();
        let h = 1e-6;
        for i in 1..60 {
            let x = i as f64 * 0.1;
            let fd = (f.value(x + h) - f.value(x - h)) / (2.0 * h);
            assert!(
                (f.derivative(x) - fd).abs() < 1e-5,
                "x={x}: analytic {} vs fd {fd}",
                f.derivative(x)
            );
        }
    }

    #[test]
    fn cached_coefficients_match_recomputation_bitwise() {
        // The cached c2/c3 must be exactly what the evaluator used to
        // derive per call, so caching cannot change any result.
        let xs = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0];
        let ys = [0.3, 1.9, -0.5, 2.2, 2.1, 5.0];
        let f = AkimaSpline::new(&xs, &ys).unwrap();
        let ds = f.derivatives();
        for seg in 0..xs.len() - 1 {
            let h = xs[seg + 1] - xs[seg];
            let (c2, c3) =
                hermite_from_nodes(h, ys[seg], ys[seg + 1], ds[seg], ds[seg + 1]);
            // Evaluate mid-segment through the public API and through
            // the reference polynomial; bit-identical.
            let x = xs[seg] + 0.37 * h;
            let t = x - xs[seg];
            let want = ys[seg] + t * (ds[seg] + t * (c2 + t * c3));
            assert_eq!(f.value(x).to_bits(), want.to_bits(), "segment {seg}");
            let want_d = ds[seg] + t * (2.0 * c2 + t * 3.0 * c3);
            assert_eq!(f.derivative(x).to_bits(), want_d.to_bits(), "segment {seg}");
        }
    }

    /// Bitwise equality of every stored coefficient array — stricter
    /// than `PartialEq` (which would conflate `0.0` and `-0.0`).
    fn assert_bitwise_eq(a: &AkimaSpline, b: &AkimaSpline, ctx: &str) {
        assert_eq!(a.xs().len(), b.xs().len(), "{ctx}: node count");
        for (i, (x, y)) in a.xs().iter().zip(b.xs()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: xs[{i}]");
        }
        for (i, (x, y)) in a.ys().iter().zip(b.ys()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: ys[{i}]");
        }
        for (i, (x, y)) in a.derivatives().iter().zip(b.derivatives()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: ds[{i}]");
        }
        for (i, (x, y)) in a.c2.iter().zip(&b.c2).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: c2[{i}]");
        }
        for (i, (x, y)) in a.c3.iter().zip(&b.c3).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: c3[{i}]");
        }
    }

    #[test]
    fn set_y_matches_rebuild_bitwise_at_every_node() {
        // Patch each node in turn (including both ends, where the
        // virtual extrapolated slopes move) and compare against a
        // from-scratch rebuild — every coefficient bit-identical.
        for n in [2usize, 3, 4, 5, 8, 13] {
            let xs: Vec<f64> = (0..n).map(|i| (i * i + i + 1) as f64 * 0.5).collect();
            let mut ys: Vec<f64> = xs.iter().map(|x| (x * 0.7).sin() + 0.1 * x).collect();
            let mut patched = AkimaSpline::new(&xs, &ys).unwrap();
            for i in 0..n {
                let y = ys[i] * 1.25 - 0.3;
                patched.set_y(i, y).unwrap();
                ys[i] = y;
                let rebuilt = AkimaSpline::new(&xs, &ys).unwrap();
                assert_bitwise_eq(&patched, &rebuilt, &format!("n={n} node {i}"));
            }
        }
    }

    #[test]
    fn set_y_rejects_non_finite() {
        let mut f = AkimaSpline::new(&[0.0, 1.0, 2.0], &[0.0, 1.0, 0.0]).unwrap();
        assert!(f.set_y(1, f64::NAN).is_err());
        assert!(f.set_y(1, f64::INFINITY).is_err());
        // The failed calls must not have corrupted the spline... but a
        // rejected ordinate is never written: ys is only assigned
        // after validation.
        let g = AkimaSpline::new(&[0.0, 1.0, 2.0], &[0.0, f.ys()[1], 0.0]).unwrap();
        assert_bitwise_eq(&f, &g, "after rejected set_y");
    }

    #[test]
    fn continuous_at_nodes() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [0.0, 2.0, 1.0, 3.0, 0.0];
        let f = AkimaSpline::new(&xs, &ys).unwrap();
        for &x in &xs[1..4] {
            let eps = 1e-9;
            assert!((f.value(x - eps) - f.value(x + eps)).abs() < 1e-6);
            assert!((f.derivative(x - eps) - f.derivative(x + eps)).abs() < 1e-4);
        }
    }
}
