//! Layer probes shared by several workloads: counted loops over one
//! public function of a layer, on inputs the calling workload took
//! from its own run. Each sets the per-layer metric(s) it is named
//! after in the [`ProbeCtx`].

use std::cell::Cell;
use std::hint::black_box;

use fupermod_core::benchmark::Benchmark;
use fupermod_core::kernel::DeviceKernel;
use fupermod_core::model::{AkimaModel, Model, PiecewiseModel};
use fupermod_core::partition::{GeometricPartitioner, NumericalPartitioner, Partitioner};
use fupermod_core::{CoreError, Point, Precision};
use fupermod_num::interp::{AkimaSpline, Interpolation};
use fupermod_num::stats::IncrementalStats;
use fupermod_platform::{Device, WorkloadProfile};

use crate::workloads::{seconds_per_call, ProbeCtx, PROBE_BUDGET};

fn spline_of(points: &[Point]) -> (Vec<f64>, Vec<f64>) {
    (
        points.iter().map(|p| p.d as f64).collect(),
        points.iter().map(|p| p.t).collect(),
    )
}

/// `num.interp.akima_eval_ns`, `num.interp.akima_build_us` and
/// `num.interp.akima_set_y_ns` on the spline through `points`.
pub fn akima_spline(ctx: &mut ProbeCtx, points: &[Point]) {
    let (xs, ys) = spline_of(points);
    let build = seconds_per_call(PROBE_BUDGET, || {
        black_box(AkimaSpline::new(black_box(&xs), &ys).expect("model points make a spline"));
    });
    ctx.set("num.interp.akima_build_us", build * 1e6);

    let mut spline = AkimaSpline::new(&xs, &ys).expect("model points make a spline");
    let (lo, hi) = spline.domain();
    let probes: Vec<f64> = (0..64)
        .map(|i| lo + (hi - lo) * (i as f64 + 0.5) / 64.0)
        .collect();
    let eval = seconds_per_call(PROBE_BUDGET, || {
        for &x in &probes {
            black_box(spline.value(black_box(x)));
        }
    });
    ctx.set("num.interp.akima_eval_ns", eval / probes.len() as f64 * 1e9);

    let mid = xs.len() / 2;
    let mut flip = false;
    let set_y = seconds_per_call(PROBE_BUDGET, || {
        flip = !flip;
        let y = ys[mid] * if flip { 1.001 } else { 1.0 };
        spline.set_y(mid, black_box(y)).expect("finite ordinate");
    });
    ctx.set("num.interp.akima_set_y_ns", set_y * 1e9);
}

/// `num.stats.incremental_push_ns`: one push into a 30-sample stream
/// (a full default-precision measurement).
pub fn incremental_push(ctx: &mut ProbeCtx) {
    let samples: Vec<f64> = (0..30)
        .map(|i| 1.0 + 0.01 * f64::from((i * 37) % 17 - 8))
        .collect();
    let per_stream = seconds_per_call(PROBE_BUDGET, || {
        let mut stats = IncrementalStats::new();
        for &x in &samples {
            stats.push(black_box(x));
        }
        black_box(stats.count());
    });
    ctx.set(
        "num.stats.incremental_push_ns",
        per_stream / samples.len() as f64 * 1e9,
    );
}

/// `platform.device.measured_time_ns`.
pub fn measured_time(ctx: &mut ProbeCtx, device: &Device, profile: &WorkloadProfile, d: u64) {
    let mut run = 0u64;
    let per_call = seconds_per_call(PROBE_BUDGET, || {
        run += 1;
        black_box(device.measured_time(black_box(d), profile, run));
    });
    ctx.set("platform.device.measured_time_ns", per_call * 1e9);
}

/// `core.benchmark.measure_us`: one `Benchmark::measure` at size `d`.
pub fn benchmark_measure(
    ctx: &mut ProbeCtx,
    device: &Device,
    profile: &WorkloadProfile,
    precision: &Precision,
    d: u64,
) {
    let mut kernel = DeviceKernel::new(device.clone(), profile.clone());
    let per_call = seconds_per_call(PROBE_BUDGET, || {
        black_box(Benchmark::new(precision).measure(&mut kernel, black_box(d)))
            .expect("device measurement");
    });
    ctx.set("core.benchmark.measure_us", per_call * 1e6);
}

/// `core.model.akima_update_us`: one `AkimaModel::update`, averaged
/// over feeding `points` into an empty model in order.
pub fn akima_update(ctx: &mut ProbeCtx, points: &[Point]) {
    let per_model = seconds_per_call(PROBE_BUDGET, || {
        let mut m = AkimaModel::new();
        for &p in points {
            m.update(black_box(p)).expect("valid point");
        }
        black_box(m.points().len());
    });
    ctx.set(
        "core.model.akima_update_us",
        per_model / points.len() as f64 * 1e6,
    );
}

/// `core.model.piecewise_update_ns`, averaged the same way.
pub fn piecewise_update(ctx: &mut ProbeCtx, points: &[Point]) {
    let per_model = seconds_per_call(PROBE_BUDGET, || {
        let mut m = PiecewiseModel::new();
        for &p in points {
            m.update(black_box(p)).expect("valid point");
        }
        black_box(m.points().len());
    });
    ctx.set(
        "core.model.piecewise_update_ns",
        per_model / points.len() as f64 * 1e9,
    );
}

/// A read-only view of a model that counts evaluations.
struct Counting<'a> {
    inner: &'a dyn Model,
    evals: &'a Cell<u64>,
}

impl Model for Counting<'_> {
    fn points(&self) -> &[Point] {
        self.inner.points()
    }

    fn update(&mut self, _: Point) -> Result<(), CoreError> {
        Err(CoreError::Model("counting view is read-only".to_owned()))
    }

    fn time(&self, x: f64) -> Option<f64> {
        self.evals.set(self.evals.get() + 1);
        self.inner.time(x)
    }

    fn time_derivative(&self, x: f64) -> Option<f64> {
        self.evals.set(self.evals.get() + 1);
        self.inner.time_derivative(x)
    }

    fn speed(&self, x: f64) -> Option<f64> {
        self.evals.set(self.evals.get() + 1);
        self.inner.speed(x)
    }
}

/// Model evaluations one `partitioner` call makes over `models`.
pub fn model_evals(partitioner: &dyn Partitioner, models: &[&dyn Model], total: u64) -> f64 {
    let evals = Cell::new(0u64);
    let counted: Vec<Counting<'_>> = models
        .iter()
        .map(|&inner| Counting {
            inner,
            evals: &evals,
        })
        .collect();
    let refs: Vec<&dyn Model> = counted.iter().map(|m| m as &dyn Model).collect();
    partitioner
        .partition(total, &refs)
        .expect("counted partition");
    evals.get() as f64
}

/// `core.partition.geometric_us`, `core.partition.numerical_us` and
/// `core.partition.model_evals_per_call` over the p = 64 Akima models.
/// Returns the evaluations one query (both algorithms) makes.
pub fn partition_p64(ctx: &mut ProbeCtx, models: &[AkimaModel], total: u64) -> f64 {
    let refs: Vec<&dyn Model> = models.iter().map(|m| m as &dyn Model).collect();
    let geometric = GeometricPartitioner::default();
    let numerical = NumericalPartitioner::default();
    let geo = seconds_per_call(PROBE_BUDGET, || {
        black_box(geometric.partition(black_box(total), &refs)).expect("geometric partition");
    });
    let num = seconds_per_call(PROBE_BUDGET, || {
        black_box(numerical.partition(black_box(total), &refs)).expect("numerical partition");
    });
    ctx.set("core.partition.geometric_us", geo * 1e6);
    ctx.set("core.partition.numerical_us", num * 1e6);
    let geo_evals = model_evals(&geometric, &refs, total);
    ctx.set("core.partition.model_evals_per_call", geo_evals);
    geo_evals + model_evals(&numerical, &refs, total)
}
