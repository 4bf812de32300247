//! Why the numerical partitioner left Newton, read back from the
//! process-wide registry: `fupermod_numerical_fallbacks_total{reason}`
//! for each reason, and `fupermod_numerical_dense_steps_total` for the
//! steps the structured solve declined. One test per file: the counters
//! are process-wide.

use fupermod_core::model::{AkimaModel, Model};
use fupermod_core::partition::{NumericalPartitioner, Partitioner};
use fupermod_core::telemetry::{self, SampleValue};
use fupermod_core::{CoreError, Point};
use fupermod_num::solve::NewtonOptions;

/// `t(x) = x / speed`, with a time derivative of `slope` whatever the
/// time does — the partitioner takes the Jacobian from it — and no
/// speed hint, so Newton starts from the even split.
struct Linear {
    points: Vec<Point>,
    speed: f64,
    slope: Option<f64>,
}

impl Linear {
    fn new(speed: f64, slope: Option<f64>) -> Self {
        Self {
            points: vec![Point::single(100, 100.0 / speed)],
            speed,
            slope,
        }
    }
}

impl Model for Linear {
    fn points(&self) -> &[Point] {
        &self.points
    }
    fn update(&mut self, _: Point) -> Result<(), CoreError> {
        unreachable!("the partitioner only reads")
    }
    fn time(&self, x: f64) -> Option<f64> {
        (self.speed > 0.0).then(|| x / self.speed)
    }
    fn time_derivative(&self, _: f64) -> Option<f64> {
        self.slope
    }
    fn speed(&self, _: f64) -> Option<f64> {
        None
    }
}

fn counter(name: &str, labels: &[(&str, &str)]) -> u64 {
    match telemetry::global().snapshot().find(name, labels) {
        Some(SampleValue::Counter(n)) => *n,
        None => 0,
        other => panic!("{name} is not a counter: {other:?}"),
    }
}

fn fallbacks(reason: &str) -> u64 {
    counter("fupermod_numerical_fallbacks_total", &[("reason", reason)])
}

fn dense_steps() -> u64 {
    counter("fupermod_numerical_dense_steps_total", &[])
}

#[test]
fn every_fallback_reason_and_declined_step_is_counted() {
    let numerical = NumericalPartitioner::default();
    let fast = Linear::new(4.0, Some(0.25));
    let slow = Linear::new(1.0, Some(1.0));
    let flat = Linear::new(2.0, Some(0.0));
    let flatter = Linear::new(1.0, Some(0.0));
    let dead = Linear::new(0.0, Some(1.0));
    // Falls where the others rise: |a₀| = |−0.75 + 1| < 1 = off, so
    // partial pivoting leaves the diagonal at the first step.
    let falling = Linear::new(2.0, Some(-0.75));

    // Disabled (the default): nothing is registered, let alone counted.
    assert!(numerical.partition(1000, &[&flat, &flatter]).is_ok());
    assert_eq!(fallbacks("singular"), 0);
    telemetry::global().set_enabled(true);

    // A zero Jacobian: Newton's first step is singular.
    let dist = numerical.partition(1000, &[&flat, &flatter]).unwrap();
    assert_eq!(dist.sizes(), vec![667, 333]);
    assert_eq!(fallbacks("singular"), 1);

    // No iterations allowed: Newton ends unconverged.
    let capped = NumericalPartitioner {
        newton: NewtonOptions {
            max_iter: 0,
            ..numerical.newton
        },
        ..numerical
    };
    assert_eq!(
        capped.partition(1000, &[&fast, &slow]).unwrap().sizes(),
        vec![800, 200]
    );
    assert_eq!(fallbacks("no_convergence"), 1);

    // A model with no time: the residual is not finite at the start,
    // and the fallback cannot recover either.
    assert!(numerical.partition(1000, &[&dead, &slow]).is_err());
    assert_eq!(fallbacks("invalid"), 1);

    // Monotone Akima models: every step structured, no fallback.
    let akima = |speed: f64| {
        let mut m = AkimaModel::new();
        for d in [100u64, 1000, 10_000] {
            m.update(Point::single(d, d as f64 / speed * (1.0 + d as f64 / 5e4)))
                .unwrap();
        }
        m
    };
    let (a, b, c) = (akima(10.0), akima(30.0), akima(70.0));
    numerical.partition(20_000, &[&a, &b, &c]).unwrap();
    assert_eq!(dense_steps(), 0);

    // A falling derivative declines the structured step to dense
    // elimination — and, the time being linear after all, leads the
    // line search astray: a second unconverged Newton.
    numerical
        .partition(1000, &[&falling, &fast, &slow])
        .unwrap();
    assert!(dense_steps() >= 1);
    assert_eq!(
        ["singular", "no_convergence", "invalid"].map(fallbacks),
        [1, 2, 1]
    );
}
