#![warn(missing_docs)]

//! Shared harness for the figure/experiment regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one figure or experiment of
//! the paper (see DESIGN.md's experiment index) and prints CSV to
//! stdout, so results can be diffed, plotted, or recorded in
//! EXPERIMENTS.md. This library holds the pieces they share.

use std::path::PathBuf;
use std::sync::Arc;

use fupermod_core::model::Model;
use fupermod_core::partition::Partitioner;
use fupermod_core::telemetry;
use fupermod_core::trace::{null_sink, TraceSink};
use fupermod_core::{CoreError, Point, Precision};
use fupermod_platform::{Platform, WorkloadProfile};

/// Starts the run's observability for the experiment binary `name`
/// ([`telemetry::open_run_trace`] — the same open the `fupermod_*`
/// binaries use, so the process-wide registry is enabled either way)
/// and opens its structured trace sink when tracing was requested —
/// via `--trace PATH` (exact file, wins), `--trace-dir DIR` on the
/// command line, or the `FUPERMOD_TRACE_DIR` environment variable.
/// The directory forms write `DIR/<name>.trace.jsonl` next to the CSV
/// the binary prints to stdout (schema in `docs/OBSERVABILITY.md`);
/// [`finish_experiment_trace`] exports the registry into it at exit.
///
/// Returns `None` when tracing was not requested. Exits with status 1
/// when the requested directory/file cannot be created — a requested
/// trace that silently vanishes would be worse than no trace.
pub fn experiment_trace(name: &str) -> Option<Arc<dyn TraceSink>> {
    let path = flag_value("--trace").map(PathBuf::from).or_else(|| {
        let dir = flag_value("--trace-dir")
            .or_else(|| std::env::var("FUPERMOD_TRACE_DIR").ok())?;
        let dir = PathBuf::from(dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create trace directory {}: {e}", dir.display());
            std::process::exit(1);
        }
        Some(dir.join(format!("{name}.trace.jsonl")))
    });
    match telemetry::open_run_trace(path.as_deref()) {
        Ok(sink) => {
            if let Some(path) = &path {
                eprintln!("# trace -> {}", path.display());
            }
            sink
        }
        Err(e) => {
            let path = path.unwrap_or_default();
            eprintln!("cannot create trace file {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Model-build worker-thread count for the experiment binaries: the
/// value of `--parallelism N` on the command line, else the
/// `FUPERMOD_PARALLELISM` environment variable, else `1` (serial — the
/// reproducible default). `0` means one worker per available core.
/// Parallel and serial builds produce bit-identical models and traces
/// (see [`fupermod_core::builder::ModelBuilder`]), so this knob only
/// changes wall-clock time.
pub fn parallelism_from_args() -> usize {
    let mut args = std::env::args();
    let arg = loop {
        match args.next() {
            Some(a) if a == "--parallelism" => break args.next(),
            Some(_) => continue,
            None => break None,
        }
    };
    let raw = arg.or_else(|| std::env::var("FUPERMOD_PARALLELISM").ok());
    match raw {
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("invalid --parallelism value {s:?} (want a non-negative integer)");
            std::process::exit(2);
        }),
        None => 1,
    }
}

/// Ends the run ([`telemetry::finish_run_trace`]): exports the
/// process-wide telemetry registry as `metrics` events into the
/// experiment trace sink (if one was opened) and flushes it, then
/// prints the run-totals summary to stderr. Call once before exiting.
/// Exits with status 1 on a deferred trace write error.
pub fn finish_experiment_trace(sink: Option<&Arc<dyn TraceSink>>) {
    match telemetry::finish_run_trace(sink.map(|s| s.as_ref())) {
        Ok(summary) => eprintln!("# {summary}"),
        Err(e) => {
            eprintln!("trace write failed: {e}");
            std::process::exit(1);
        }
    }
}

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

/// Prints a CSV header and rows through a tiny helper so every binary
/// formats identically.
pub fn print_csv_row(fields: &[String]) {
    println!("{}", fields.join(","));
}

/// The value of `--NAME VALUE` on the command line, if present.
/// (`name` includes the leading dashes, e.g. `"--runtime"`.)
pub fn flag_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// Parses `--fault-plan SPEC` — inline JSON when SPEC starts with `{`,
/// otherwise a path to a JSON file (schema in `docs/RUNTIME.md`).
/// Returns the empty plan when the flag is absent; exits with status 2
/// on an invalid plan.
pub fn fault_plan_from_args() -> fupermod_runtime::FaultPlan {
    use fupermod_runtime::FaultPlan;
    match flag_value("--fault-plan") {
        None => FaultPlan::none(),
        Some(spec) => {
            let parsed = if spec.trim_start().starts_with('{') {
                FaultPlan::from_json(&spec)
            } else {
                FaultPlan::from_json_file(std::path::Path::new(&spec))
            };
            parsed.unwrap_or_else(|e| {
                eprintln!("invalid --fault-plan: {e}");
                std::process::exit(2);
            })
        }
    }
}

/// Parses `--collectives hub|ring|tree|auto` into an
/// [`fupermod_runtime::AlgorithmPolicy`] (default `hub`, the
/// compatibility schedule; see `docs/RUNTIME.md` §6). Exits with
/// status 2 on an unknown spelling.
pub fn collectives_from_args() -> fupermod_runtime::AlgorithmPolicy {
    use fupermod_runtime::AlgorithmPolicy;
    match flag_value("--collectives") {
        None => AlgorithmPolicy::default(),
        Some(s) => AlgorithmPolicy::parse(&s).unwrap_or_else(|| {
            eprintln!("--collectives must be hub, ring, tree or auto (got '{s}')");
            std::process::exit(2);
        }),
    }
}

/// Parses `--sim-engine thread|event` into a
/// [`fupermod_runtime::SimEngine`] (default `thread`). `event` selects
/// the single-threaded discrete-event interpreter — same virtual
/// clocks, `10⁴`–`10⁶` ranks (see `docs/RUNTIME.md` §9). Exits with
/// status 2 on an unknown spelling.
pub fn sim_engine_from_args() -> fupermod_runtime::SimEngine {
    use fupermod_runtime::SimEngine;
    match flag_value("--sim-engine") {
        None => SimEngine::default(),
        Some(s) => SimEngine::parse(&s).unwrap_or_else(|e| {
            eprintln!("--sim-engine: {e}");
            std::process::exit(2);
        }),
    }
}

/// Parses the `--ranks N` process-count override for the scale-sweep
/// experiment legs. Returns `None` when absent; exits with status 2 on
/// `--ranks 0` or a non-integer value.
pub fn ranks_from_args() -> Option<usize> {
    let s = flag_value("--ranks")?;
    match s.parse::<usize>() {
        Ok(0) => {
            eprintln!("--ranks must be at least 1 (got 0)");
            std::process::exit(2);
        }
        Ok(n) => Some(n),
        Err(_) => {
            eprintln!("invalid --ranks value {s:?} (want a positive integer)");
            std::process::exit(2);
        }
    }
}

/// Builds the runtime configuration selected by `--runtime thread|sim`
/// and `--sim-engine thread|event` for a distributed dynamic run on
/// `platform`, applying `--fault-plan` and the `--collectives`
/// algorithm policy, and routing runtime trace events to `trace` when
/// given. Returns `None` when the run stays serial (the classic
/// in-process loop): `--runtime` absent without `--sim-engine event`,
/// or an explicit `--runtime serial`.
///
/// `--sim-engine event` needs the virtual-clock backend, so it implies
/// `--runtime sim` when `--runtime` is absent and rejects an explicit
/// `--runtime thread`. The thread engine refuses more ranks than it
/// can sanely spawn threads for (512). Exits with status 2 on an
/// unknown backend or a rejected combination.
pub fn runtime_from_args(
    platform: &Platform,
    trace: Option<&Arc<dyn TraceSink>>,
) -> Option<fupermod_runtime::RuntimeConfig> {
    use fupermod_runtime::{RuntimeConfig, SimEngine};
    let engine = sim_engine_from_args();
    let backend = match flag_value("--runtime") {
        Some(b) => b,
        None if engine == SimEngine::Event => "sim".to_owned(),
        None => return None,
    };
    let config = match backend.as_str() {
        "serial" => return None,
        "thread" => {
            if engine == SimEngine::Event {
                eprintln!(
                    "--sim-engine event needs the virtual-clock backend: \
                     use --runtime sim (or drop --sim-engine)"
                );
                std::process::exit(2);
            }
            RuntimeConfig::thread()
        }
        "sim" => RuntimeConfig::sim(platform.size(), platform.link()),
        other => {
            eprintln!("--runtime must be serial, thread or sim (got '{other}')");
            std::process::exit(2);
        }
    };
    if engine == SimEngine::Thread && platform.size() > 512 {
        eprintln!(
            "the thread engine spawns one OS thread per rank and is capped \
             at 512 ranks (asked for {}); use --sim-engine event",
            platform.size()
        );
        std::process::exit(2);
    }
    let config = config
        .with_engine(engine)
        .with_plan(fault_plan_from_args())
        .with_algorithms(collectives_from_args());
    Some(match trace {
        Some(sink) => config.with_trace(sink.clone()),
        None => config,
    })
}

/// Runs the dynamic partitioning loop for `platform` through the
/// distributed runtime executor ([`fupermod_runtime`]): every rank
/// benchmarks its own share (quick precision, like
/// [`quick_measure`]), the observations are gathered onto rank 0,
/// and rank 0 repartitions. On a fault-free plan the result is
/// bit-identical to the serial `DynamicContext` loop.
///
/// # Errors
///
/// Propagates root-rank runtime failures.
pub fn distributed_dynamic(
    platform: &Platform,
    profile: &WorkloadProfile,
    total: u64,
    eps: f64,
    max_steps: usize,
    config: fupermod_runtime::RuntimeConfig,
) -> Result<fupermod_runtime::BalanceOutcome, fupermod_runtime::RuntimeError> {
    use fupermod_core::dynamic::DynamicContext;
    use fupermod_core::model::PiecewiseModel;
    use fupermod_core::partition::GeometricPartitioner;
    let size = platform.size();
    fupermod_runtime::run_to_balance_distributed(
        config,
        size,
        || {
            let models: Vec<Box<dyn Model>> = (0..size)
                .map(|_| Box::new(PiecewiseModel::new()) as Box<dyn Model>)
                .collect();
            DynamicContext::new(Box::new(GeometricPartitioner::default()), models, total, eps)
        },
        |rank, d| quick_measure(platform, rank, profile, d, null_sink()),
        max_steps,
    )
}

/// Virtual benchmarking cost of a distributed dynamic run: the sum of
/// `t × reps` over every observation absorbed into the models —
/// comparable to the cost the serial loops accumulate.
pub fn distributed_bench_cost(outcome: &fupermod_runtime::BalanceOutcome) -> f64 {
    outcome
        .steps
        .iter()
        .flat_map(|s| s.observed.iter())
        .map(|p| p.t * f64::from(p.reps))
        .sum()
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
