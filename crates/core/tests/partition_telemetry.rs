//! The geometric partitioner's live counters
//! (`partition_*_total{algorithm="geometric"}`, docs/OBSERVABILITY.md
//! §9), held against a counting [`Model`] wrapper and the calls. The counters live in
//! the process-wide registry, so this file has a single test: a test
//! binary of its own is a process of its own.

use std::cell::Cell;

use fupermod_core::model::{AkimaModel, Model, PiecewiseModel};
use fupermod_core::partition::{GeometricPartitioner, Partitioner};
use fupermod_core::telemetry::{self, SampleValue};
use fupermod_core::{CoreError, Point};

/// Counts every evaluation the partitioner makes through the trait.
struct Counting<'a> {
    inner: &'a dyn Model,
    evals: &'a Cell<u64>,
}

impl Counting<'_> {
    fn count(&self) {
        self.evals.set(self.evals.get() + 1);
    }
}

impl Model for Counting<'_> {
    fn points(&self) -> &[Point] {
        self.inner.points()
    }
    fn update(&mut self, _: Point) -> Result<(), CoreError> {
        unreachable!("the partitioner only reads")
    }
    fn time(&self, x: f64) -> Option<f64> {
        self.count();
        self.inner.time(x)
    }
    fn time_derivative(&self, x: f64) -> Option<f64> {
        self.count();
        self.inner.time_derivative(x)
    }
    fn speed(&self, x: f64) -> Option<f64> {
        self.count();
        self.inner.speed(x)
    }
}

/// A model whose time never grows: no bracket can be found for it.
struct Flat(Vec<Point>);

impl Model for Flat {
    fn points(&self) -> &[Point] {
        &self.0
    }
    fn update(&mut self, _: Point) -> Result<(), CoreError> {
        unreachable!("the partitioner only reads")
    }
    fn time(&self, x: f64) -> Option<f64> {
        Some(if x > 0.0 { 1.0 } else { 0.0 })
    }
    fn time_derivative(&self, _: f64) -> Option<f64> {
        None
    }
    fn speed(&self, _: f64) -> Option<f64> {
        None
    }
}

fn counter(name: &str) -> u64 {
    match telemetry::global()
        .snapshot()
        .find(name, &[("algorithm", "geometric")])
    {
        Some(SampleValue::Counter(n)) => *n,
        None => 0,
        other => panic!("{name} is not a counter: {other:?}"),
    }
}

fn fed<M: Model + Default>(data: &[(u64, f64)]) -> M {
    let mut m = M::default();
    for &(d, t) in data {
        m.update(Point::single(d, t)).unwrap();
    }
    m
}

#[test]
fn geometric_counters_match_a_counting_model() {
    let models: Vec<Box<dyn Model>> = vec![
        Box::new(fed::<PiecewiseModel>(&[
            (100, 1.0),
            (500, 5.0),
            (600, 30.0),
            (1000, 100.0),
        ])),
        Box::new(fed::<PiecewiseModel>(&[(100, 2.0), (1000, 20.0)])),
        Box::new(fed::<AkimaModel>(&[
            (50, 0.9),
            (100, 2.4),
            (200, 4.5),
            (400, 8.0),
            (900, 28.0),
        ])),
    ];
    let evals = Cell::new(0);
    let counted: Vec<Counting<'_>> = models
        .iter()
        .map(|m| Counting {
            inner: &**m,
            evals: &evals,
        })
        .collect();
    let refs: Vec<&dyn Model> = counted.iter().map(|m| m as &dyn Model).collect();
    let partitioner = GeometricPartitioner::default();

    // Disabled (the default): a call leaves no trace in the registry.
    partitioner.partition(1200, &refs).unwrap();
    assert_eq!(counter("partition_calls_total"), 0);
    assert_eq!(counter("partition_model_evals_total"), 0);
    assert_eq!(counter("partition_steps_total"), 0);

    telemetry::global().set_enabled(true);
    evals.set(0);
    let totals = [1200u64, 0, 7, 250_000, 1200];
    let mut steps = Vec::new();
    for total in totals {
        let before = counter("partition_steps_total");
        partitioner.partition(total, &refs).unwrap();
        steps.push(counter("partition_steps_total") - before);
    }
    assert_eq!(counter("partition_calls_total"), totals.len() as u64);
    // Each call publishes the levels it stepped, once: none without a
    // solve, the same again for the same solve, and — as most
    // evaluations are of a `time(mid)`, each made by a step, and a
    // descent resumes past the levels it remembers — within a factor
    // of two of the evaluations either way.
    assert_eq!(steps[1], 0, "a zero total stepped");
    assert_eq!(steps[0], steps[4], "the same call stepped differently");
    let stepped: u64 = steps.iter().sum();
    assert!(
        2 * stepped >= evals.get() && stepped <= 2 * evals.get(),
        "{stepped} steps for {} evaluations",
        evals.get()
    );
    assert_eq!(counter("partition_model_evals_total"), evals.get());
    let outer = counter("partition_outer_iterations_total");
    let early = counter("partition_decided_early_total");
    // Four real solves of ≈ 40 outer comparisons each (a zero total
    // makes none), most of them settled from the brackets, and the
    // whole lot from a few dozen evaluations per process and solve —
    // not the ≈ 1 300 of running every inner bisection to the end.
    assert!((80..=260).contains(&outer), "{outer} outer comparisons");
    assert!(
        early * 2 > outer && early < outer,
        "{early} of {outer} early"
    );
    assert!(evals.get() < 4 * 3 * 120, "{} evaluations", evals.get());

    // A failing call is a call too, and its evaluations are counted.
    let flat = Flat(vec![Point::single(10, 1.0)]);
    let counted_flat = Counting {
        inner: &flat,
        evals: &evals,
    };
    evals.set(0);
    let calls = counter("partition_calls_total");
    let before = counter("partition_model_evals_total");
    let stepped = counter("partition_steps_total");
    assert!(partitioner
        .partition(100, &[&counted_flat, &counted[1]])
        .is_err());
    assert_eq!(counter("partition_calls_total"), calls + 1);
    assert_eq!(counter("partition_model_evals_total"), before + evals.get());
    // It failed bracketing the flat model's size, before any level.
    assert_eq!(counter("partition_steps_total"), stepped);
}
