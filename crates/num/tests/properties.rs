//! Property-based tests for the numerical substrate.

use fupermod_num::apportion::largest_remainder;
use fupermod_num::interp::{AkimaSpline, Interpolation, PiecewiseLinear};
use fupermod_num::solve::{bisect, brent, RootOptions};
use fupermod_num::stats::{student_t_cdf, student_t_quantile, OnlineStats};
use proptest::prelude::*;

/// Strictly increasing abscissas with matching ordinates.
fn points(max_len: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (2..max_len).prop_flat_map(|n| {
        (
            proptest::collection::vec(0.01f64..10.0, n),
            proptest::collection::vec(-100.0f64..100.0, n),
        )
            .prop_map(|(gaps, ys)| {
                let mut xs = Vec::with_capacity(gaps.len());
                let mut acc = 0.0;
                for g in gaps {
                    acc += g;
                    xs.push(acc);
                }
                (xs, ys)
            })
    })
}

proptest! {
    #[test]
    fn apportion_conserves_total(
        weights in proptest::collection::vec(0.0f64..1e6, 1..20),
        total in 0u64..100_000,
    ) {
        let shares = largest_remainder(&weights, total).unwrap();
        prop_assert_eq!(shares.iter().sum::<u64>(), total);
        prop_assert_eq!(shares.len(), weights.len());
    }

    #[test]
    fn apportion_is_near_proportional(
        weights in proptest::collection::vec(0.1f64..1e3, 1..20),
        total in 1u64..100_000,
    ) {
        let sum: f64 = weights.iter().sum();
        let shares = largest_remainder(&weights, total).unwrap();
        for (s, w) in shares.iter().zip(&weights) {
            let ideal = w / sum * total as f64;
            prop_assert!((*s as f64 - ideal).abs() <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn piecewise_passes_through_points((xs, ys) in points(12)) {
        let f = PiecewiseLinear::new(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            prop_assert!((f.value(*x) - y).abs() < 1e-9 * y.abs().max(1.0));
        }
    }

    #[test]
    fn piecewise_stays_within_segment_bounds((xs, ys) in points(12)) {
        let f = PiecewiseLinear::new(&xs, &ys).unwrap();
        for w in xs.windows(2).zip(ys.windows(2)) {
            let (xw, yw) = w;
            let mid = 0.5 * (xw[0] + xw[1]);
            let (lo, hi) = (yw[0].min(yw[1]), yw[0].max(yw[1]));
            let v = f.value(mid);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    #[test]
    fn akima_passes_through_points((xs, ys) in points(12)) {
        let f = AkimaSpline::new(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            prop_assert!((f.value(*x) - y).abs() < 1e-7 * y.abs().max(1.0));
        }
    }

    #[test]
    fn akima_reproduces_lines(
        (xs, _) in points(12),
        a in -10.0f64..10.0,
        b in -10.0f64..10.0,
    ) {
        let ys: Vec<f64> = xs.iter().map(|x| a * x + b).collect();
        let f = AkimaSpline::new(&xs, &ys).unwrap();
        let (lo, hi) = f.domain();
        for i in 0..=50 {
            let x = lo + (hi - lo) * i as f64 / 50.0;
            let expected = a * x + b;
            prop_assert!((f.value(x) - expected).abs() < 1e-6 * expected.abs().max(1.0));
        }
    }

    #[test]
    fn akima_derivative_matches_finite_difference((xs, ys) in points(10)) {
        let f = AkimaSpline::new(&xs, &ys).unwrap();
        let (lo, hi) = f.domain();
        let h = (hi - lo) * 1e-7;
        for i in 1..20 {
            let x = lo + (hi - lo) * i as f64 / 20.0;
            let fd = (f.value(x + h) - f.value(x - h)) / (2.0 * h);
            let scale = fd.abs().max(1.0);
            prop_assert!((f.derivative(x) - fd).abs() < 1e-3 * scale);
        }
    }

    #[test]
    fn bisect_and_brent_agree_on_monotone_cubics(
        root in -5.0f64..5.0,
        scale in 0.1f64..10.0,
    ) {
        let f = |x: f64| scale * (x - root) * (1.0 + (x - root).powi(2));
        let opts = RootOptions::default();
        let rb = bisect(f, -10.0, 10.0, opts).unwrap();
        let rr = brent(f, -10.0, 10.0, opts).unwrap();
        prop_assert!((rb - root).abs() < 1e-6);
        prop_assert!((rr - root).abs() < 1e-6);
    }

    #[test]
    fn t_quantile_round_trips(p in 0.001f64..0.999, df in 1.0f64..200.0) {
        let q = student_t_quantile(p, df);
        prop_assert!((student_t_cdf(q, df) - p).abs() < 1e-8);
    }

    #[test]
    fn online_stats_mean_in_data_range(
        data in proptest::collection::vec(-1e6f64..1e6, 1..100),
    ) {
        let s: OnlineStats = data.iter().copied().collect();
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(s.mean() >= lo - 1e-6 && s.mean() <= hi + 1e-6);
        prop_assert!(s.std_error() >= 0.0);
    }
}
