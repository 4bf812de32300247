//! EXP10 — The cost of the three partitioning algorithms, counted.
//!
//! §4.3 of the paper ranks the partitioning algorithms: the one based
//! on CPMs is the fastest and the least accurate. This row counts the
//! work instead of timing it, so that the table repeats bit for bit
//! and tier-1 can hold it byte for byte. On `p`
//! processes whose time functions each have a memory cliff at a
//! different size, it partitions `4000·p` units three ways:
//!
//! * constant — CPMs built from one point each;
//! * geometric — piecewise FPMs built from seven points;
//! * numerical — Akima FPMs built from the same seven points.
//!
//! `model_evals` counts every `time`, `time_derivative` and `speed`
//! query the partitioner makes, through a counting wrapper around each
//! model. For the geometric algorithm it must equal the registry's
//! `partition_model_evals_total`, or the row fails. The next columns
//! are the registry's own counts:
//! `outer_comparisons` is `partition_outer_iterations_total` (the
//! geometric algorithm's comparisons of `Σ dᵢ(T)` with `D`),
//! `dense_steps` is `fupermod_numerical_dense_steps_total` (Newton
//! steps the structured solve declined) and `fallbacks` is
//! `fupermod_numerical_fallbacks_total`. `imbalance` is the relative
//! imbalance of the true cliff times at the chosen sizes.
//!
//! Output: CSV `algorithm,p,model_evals,outer_comparisons,dense_steps,fallbacks,imbalance`.

use std::cell::Cell;

use fupermod_core::model::{AkimaModel, ConstantModel, Model, PiecewiseModel};
use fupermod_core::partition::{
    ConstantPartitioner, Distribution, GeometricPartitioner, NumericalPartitioner, Partitioner,
};
use fupermod_core::{telemetry, CoreError, Point};

use super::Trace;
use crate::cli::Args;

/// The sizes each model is built from.
const SIZES: [u64; 7] = [50, 200, 400, 800, 1600, 3200, 6400];

/// Process `rank`'s true time for `x` units: `100·base` units/s up to
/// its cliff, `20·base` beyond it.
fn truth(rank: usize, x: f64) -> f64 {
    let base = 1.0 + rank as f64 * 0.3;
    let cliff = 500.0 + (rank as f64 * 137.0) % 1500.0;
    if x <= cliff {
        x / (100.0 * base)
    } else {
        cliff / (100.0 * base) + (x - cliff) / (20.0 * base)
    }
}

/// A model that counts the queries made of it.
struct Counted<'m> {
    model: &'m dyn Model,
    queries: &'m Cell<u64>,
}

impl Counted<'_> {
    fn count<T>(&self, answer: T) -> T {
        self.queries.set(self.queries.get() + 1);
        answer
    }
}

impl Model for Counted<'_> {
    fn points(&self) -> &[Point] {
        self.model.points()
    }

    fn update(&mut self, _: Point) -> Result<(), CoreError> {
        unreachable!("the partitioners only query models")
    }

    fn time(&self, x: f64) -> Option<f64> {
        self.count(self.model.time(x))
    }

    fn time_derivative(&self, x: f64) -> Option<f64> {
        self.count(self.model.time_derivative(x))
    }

    fn speed(&self, x: f64) -> Option<f64> {
        self.count(self.model.speed(x))
    }
}

/// The registry's counters this row reads, summed over their labels.
fn registry_counts() -> [u64; 4] {
    let snapshot = telemetry::global().snapshot();
    [
        "partition_model_evals_total",
        "partition_outer_iterations_total",
        "fupermod_numerical_dense_steps_total",
        "fupermod_numerical_fallbacks_total",
    ]
    .map(|name| snapshot.counter_total(name))
}

/// `models` as the partitioners take them.
fn refs<M: Model>(models: &[M]) -> Vec<&dyn Model> {
    models.iter().map(|m| m as &dyn Model).collect()
}

/// Partitions `total` over `models` with `partitioner` and prints the
/// row of `name`.
fn row(name: &str, partitioner: &dyn Partitioner, models: &[&dyn Model], total: u64) {
    let queries = Cell::new(0);
    let counted: Vec<Counted> = models
        .iter()
        .map(|&model| Counted {
            model,
            queries: &queries,
        })
        .collect();
    let refs: Vec<&dyn Model> = counted.iter().map(|m| m as &dyn Model).collect();
    let before = registry_counts();
    let sizes = partitioner
        .partition(total, &refs)
        .expect("partition failed")
        .sizes();
    let after = registry_counts();
    let [evals, outer, dense, fallbacks] =
        std::array::from_fn::<u64, 4, _>(|i| after[i] - before[i]);
    let model_evals = queries.get();
    assert!(
        name != "geometric" || evals == model_evals,
        "partition_model_evals_total counted {evals}, the models answered {model_evals}"
    );
    let times: Vec<f64> = sizes
        .iter()
        .enumerate()
        .map(|(rank, &d)| truth(rank, d as f64))
        .collect();
    let imbalance = Distribution::imbalance_of(&times);
    let p = models.len();
    println!("{name},{p},{model_evals},{outer},{dense},{fallbacks},{imbalance:.4}");
}

pub fn run(_: &Args, _: &Trace) {
    // An untraced run leaves the registry off; this row reads it.
    telemetry::global().set_enabled(true);
    println!("algorithm,p,model_evals,outer_comparisons,dense_steps,fallbacks,imbalance");
    for p in [4usize, 16, 64, 256] {
        let mut cpms = Vec::new();
        let mut pwls = Vec::new();
        let mut akimas = Vec::new();
        for rank in 0..p {
            let points: Vec<Point> = SIZES
                .iter()
                .map(|&d| Point::single(d, truth(rank, d as f64)))
                .collect();
            let mut cpm = ConstantModel::new();
            cpm.update(points[3]).expect("valid point");
            let mut pwl = PiecewiseModel::new();
            let mut akima = AkimaModel::new();
            for &point in &points {
                pwl.update(point).expect("valid point");
                akima.update(point).expect("valid point");
            }
            cpms.push(cpm);
            pwls.push(pwl);
            akimas.push(akima);
        }
        let total = 4000 * p as u64;
        row("constant", &ConstantPartitioner, &refs(&cpms), total);
        row(
            "geometric",
            &GeometricPartitioner::default(),
            &refs(&pwls),
            total,
        );
        row(
            "numerical",
            &NumericalPartitioner::default(),
            &refs(&akimas),
            total,
        );
    }
}
