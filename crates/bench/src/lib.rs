#![warn(missing_docs)]

//! Shared harness for the figure/experiment regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one figure or experiment of
//! the paper (see DESIGN.md's experiment index) and prints CSV to
//! stdout, so results can be diffed, plotted, or recorded in
//! EXPERIMENTS.md. This library holds the pieces they share, and
//! [`cli`], the command line of every binary in the workspace.

pub mod cli;

use std::sync::Arc;

use fupermod_core::dynamic::DynamicContext;
use fupermod_core::model::{Model, PiecewiseModel};
use fupermod_core::partition::{GeometricPartitioner, Partitioner};
use fupermod_core::trace::{null_sink, TraceSink};
use fupermod_core::{CoreError, Point, Precision};
use fupermod_platform::{Platform, WorkloadProfile};
use fupermod_runtime::RuntimeConfig;

/// The sink to hand to `*_traced` helpers: the opened experiment sink,
/// or the no-op default.
pub fn sink_or_null(sink: &Option<Arc<dyn TraceSink>>) -> &dyn TraceSink {
    sink.as_deref().unwrap_or(null_sink())
}

/// A geometric grid of problem sizes from `lo` to `hi` (inclusive-ish)
/// with `n` points — the usual sampling for building full models.
pub fn size_grid(lo: u64, hi: u64, n: usize) -> Vec<u64> {
    assert!(lo >= 1 && hi > lo && n >= 2, "degenerate size grid");
    let ratio = (hi as f64 / lo as f64).powf(1.0 / (n as f64 - 1.0));
    let mut sizes: Vec<u64> = (0..n)
        .map(|i| (lo as f64 * ratio.powi(i as i32)).round() as u64)
        .collect();
    sizes.dedup();
    sizes
}

/// Benchmarks device `rank` of `platform` at the given sizes and feeds
/// the points into `model`, routing benchmark events and model updates
/// (tagged with the device `rank`) to `sink` — pass
/// [`fupermod_core::trace::null_sink`] when no tracing is wanted.
/// Returns the total (virtual) benchmarking cost in seconds — time ×
/// repetitions summed over all measurements, the cost metric EXP2
/// compares.
///
/// This is a thin wrapper over
/// [`fupermod_core::builder::build_one_model`], the single shared
/// measure→update→trace loop.
///
/// # Errors
///
/// Propagates benchmark/model errors.
#[allow(clippy::too_many_arguments)]
pub fn build_model_for_device(
    platform: &Platform,
    rank: usize,
    profile: &WorkloadProfile,
    sizes: &[u64],
    precision: &Precision,
    model: &mut dyn Model,
    sink: &dyn TraceSink,
) -> Result<f64, CoreError> {
    use fupermod_core::kernel::DeviceKernel;
    let mut kernel = DeviceKernel::new(platform.device(rank).clone(), profile.clone());
    fupermod_core::builder::build_one_model(rank, &mut kernel, sizes, precision, model, sink)
}

/// Ground-truth evaluation of a distribution: per-device ideal times
/// and their relative imbalance. This is what the paper would measure
/// on the real machine after partitioning.
pub fn ground_truth_times(
    platform: &Platform,
    profile: &WorkloadProfile,
    sizes: &[u64],
) -> Vec<f64> {
    sizes
        .iter()
        .enumerate()
        .map(|(rank, &d)| platform.device(rank).ideal_time(d, profile))
        .collect()
}

/// Max over min-style imbalance of ground-truth times (0 = perfect).
pub fn ground_truth_imbalance(times: &[f64]) -> f64 {
    fupermod_core::partition::Distribution::imbalance_of(times)
}

/// Partitions `total` with `partitioner` over `models` and returns
/// (sizes, ground-truth times, imbalance, makespan), recording the
/// resulting distribution as a one-shot `partition_step` trace event on
/// `sink` — pass [`fupermod_core::trace::null_sink`] when no tracing is
/// wanted.
///
/// # Errors
///
/// Propagates partitioning errors.
pub fn evaluate_partitioner(
    platform: &Platform,
    profile: &WorkloadProfile,
    total: u64,
    partitioner: &dyn Partitioner,
    models: &[&dyn Model],
    sink: &dyn TraceSink,
) -> Result<PartitionEvaluation, CoreError> {
    let dist = partitioner.partition_traced(total, models, sink)?;
    let sizes = dist.sizes();
    let times = ground_truth_times(platform, profile, &sizes);
    let imbalance = ground_truth_imbalance(&times);
    let makespan = times.iter().fold(0.0_f64, |m, t| m.max(*t));
    Ok(PartitionEvaluation {
        sizes,
        times,
        imbalance,
        makespan,
    })
}

/// Outcome of evaluating one partitioner against ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionEvaluation {
    /// Assigned sizes per device.
    pub sizes: Vec<u64>,
    /// Ground-truth times per device.
    pub times: Vec<f64>,
    /// Relative imbalance of those times.
    pub imbalance: f64,
    /// Max ground-truth time.
    pub makespan: f64,
}

/// Measures one device point for dynamic loops (quick precision),
/// routing benchmark events to `sink` — pass
/// [`fupermod_core::trace::null_sink`] when no tracing is wanted.
///
/// # Errors
///
/// Propagates benchmark errors.
pub fn quick_measure(
    platform: &Platform,
    rank: usize,
    profile: &WorkloadProfile,
    d: u64,
    sink: &dyn TraceSink,
) -> Result<Point, CoreError> {
    use fupermod_core::benchmark::Benchmark;
    use fupermod_core::kernel::DeviceKernel;
    let mut kernel = DeviceKernel::new(platform.device(rank).clone(), profile.clone());
    Benchmark::new(&Precision::quick())
        .with_trace(sink)
        .measure(&mut kernel, d)
}

/// The dynamic partial-estimation leg of EXP2 and EXP9: piecewise
/// partial models refined by the geometric partitioner (eps 0.05) from
/// [`quick_measure`] points, for at most `max_steps` steps. Without a
/// `config` it is the serial in-process loop, traced to `trace`; with
/// one (`--runtime thread|sim`, see [`cli::runtime_config`]) it runs
/// through the distributed executor, where every rank benchmarks its
/// own share and rank 0 repartitions — bit-identical on a fault-free
/// plan. Returns the virtual benchmarking cost (`t × reps` summed over
/// every measurement), the steps taken and the final sizes.
///
/// # Panics
///
/// When a step, or the distributed run's root rank, fails.
pub fn dynamic_leg(
    platform: &Platform,
    profile: &WorkloadProfile,
    total: u64,
    max_steps: usize,
    config: Option<RuntimeConfig>,
    trace: &Option<Arc<dyn TraceSink>>,
) -> (f64, usize, Vec<u64>) {
    let size = platform.size();
    let new_context = || {
        let models: Vec<Box<dyn Model>> = (0..size)
            .map(|_| Box::new(PiecewiseModel::new()) as Box<dyn Model>)
            .collect();
        DynamicContext::new(
            Box::new(GeometricPartitioner::default()),
            models,
            total,
            0.05,
        )
    };
    if let Some(config) = config {
        let outcome = fupermod_runtime::run_to_balance_distributed(
            config,
            size,
            new_context,
            |rank, d| quick_measure(platform, rank, profile, d, null_sink()),
            max_steps,
        )
        .expect("distributed dynamic run failed");
        let cost = outcome
            .steps
            .iter()
            .flat_map(|s| s.observed.iter())
            .map(|p| p.t * f64::from(p.reps))
            .sum();
        return (cost, outcome.steps.len(), outcome.final_sizes);
    }
    let mut ctx = new_context();
    if let Some(sink) = trace {
        ctx = ctx.with_trace(sink.clone());
    }
    let (mut cost, mut steps) = (0.0, 0);
    for _ in 0..max_steps {
        let step = ctx
            .partition_iterate(|rank, d| {
                let p = quick_measure(platform, rank, profile, d, sink_or_null(trace))?;
                cost += p.t * p.reps as f64;
                Ok(p)
            })
            .expect("dynamic step failed");
        steps += 1;
        if step.converged {
            break;
        }
    }
    (cost, steps, ctx.dist().sizes())
}

/// Prints a CSV header and rows through a tiny helper so every binary
/// formats identically.
pub fn print_csv_row(fields: &[String]) {
    println!("{}", fields.join(","));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_grid_is_geometric_and_bounded() {
        let grid = size_grid(10, 1000, 5);
        assert_eq!(grid.first(), Some(&10));
        assert_eq!(grid.last(), Some(&1000));
        for w in grid.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn imbalance_of_equal_times_is_zero() {
        assert_eq!(ground_truth_imbalance(&[2.0, 2.0]), 0.0);
    }
}
