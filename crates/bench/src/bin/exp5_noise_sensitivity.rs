//! EXP5 (ablation) — Sensitivity of partition quality to measurement
//! noise.
//!
//! The paper's benchmark machinery exists because "the use of wrong
//! estimates can fully destroy the resulting performance". This
//! ablation injects increasing relative noise into the devices and
//! compares the ground-truth imbalance of partitions computed (a) from
//! single-shot measurements and (b) from statistically controlled
//! measurements (Student-t stopping rule). The confidence-interval
//! machinery should hold quality roughly flat while single-shot
//! degrades.
//!
//! Output: CSV `noise,strategy,imbalance,mean_reps`.
//! With `--trace-dir DIR` (or `FUPERMOD_TRACE_DIR`), also writes
//! `DIR/exp5_noise_sensitivity.trace.jsonl` (see docs/OBSERVABILITY.md).

use fupermod_bench::cli::{self, Args};
use fupermod_bench::{
    ground_truth_imbalance, ground_truth_times, print_csv_row, sink_or_null, size_grid,
};
use fupermod_core::benchmark::Benchmark;
use fupermod_core::kernel::DeviceKernel;
use fupermod_core::model::{Model, PiecewiseModel};
use fupermod_core::partition::{GeometricPartitioner, Partitioner};
use fupermod_core::Precision;
use fupermod_platform::{cluster, Device, LinkModel, Platform, WorkloadProfile};

fn noisy_platform(noise: f64, seed: u64) -> Platform {
    let renoise = |d: Device, s: u64| Device::new(d.name().to_owned(), d.spec().clone(), noise, s);
    Platform::new(
        format!("noisy-{noise}"),
        vec![
            renoise(cluster::fast_cpu("f0", 0), seed),
            renoise(cluster::fast_cpu("f1", 0), seed + 1),
            renoise(cluster::slow_cpu("s0", 0), seed + 2),
            renoise(cluster::slow_cpu("s1", 0), seed + 3),
        ],
        LinkModel::ethernet(),
    )
}

fn main() {
    let args = Args::parse();
    let trace = cli::open_trace_sink(&args, None);
    let profile = WorkloadProfile::matrix_update(16);
    let total = 100_000u64;
    let sizes = size_grid(16, 50_000, 12);

    print_csv_row(&[
        "noise".into(),
        "strategy".into(),
        "imbalance".into(),
        "mean_reps".into(),
    ]);

    for noise in [0.0, 0.02, 0.05, 0.10, 0.20, 0.40] {
        let platform = noisy_platform(noise, 500);
        for (strategy, precision) in [
            (
                "single-shot",
                Precision {
                    reps_min: 1,
                    reps_max: 1,
                    cl: 0.95,
                    rel_err: 1.0,
                    max_seconds: 1e9,
                },
            ),
            (
                "student-t",
                Precision {
                    reps_min: 5,
                    reps_max: 100,
                    cl: 0.95,
                    rel_err: 0.02,
                    max_seconds: 1e9,
                },
            ),
        ] {
            let bench = Benchmark::new(&precision).with_trace(sink_or_null(&trace));
            let mut models = Vec::new();
            let mut total_reps = 0u64;
            let mut measurements = 0u64;
            for dev in platform.devices() {
                let mut kernel = DeviceKernel::new(dev.clone(), profile.clone());
                let mut model = PiecewiseModel::new();
                for &d in &sizes {
                    let point = bench.measure(&mut kernel, d).expect("benchmark failed");
                    total_reps += point.reps as u64;
                    measurements += 1;
                    model.update(point).expect("update failed");
                }
                models.push(model);
            }
            let refs: Vec<&dyn Model> = models.iter().map(|m| m as &dyn Model).collect();
            let dist = GeometricPartitioner::default()
                .partition_traced(total, &refs, sink_or_null(&trace))
                .expect("partition failed");
            let times = ground_truth_times(&platform, &profile, &dist.sizes());
            print_csv_row(&[
                format!("{noise:.2}"),
                strategy.to_owned(),
                format!("{:.4}", ground_truth_imbalance(&times)),
                format!("{:.1}", total_reps as f64 / measurements as f64),
            ]);
        }
    }
    cli::finish_trace(trace.as_ref());
}
