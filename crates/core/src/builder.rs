//! Parallel construction of device performance models — the
//! measurement engine behind `build_device_models`.
//!
//! The paper's central premise is that building the *full* functional
//! performance model is the expensive step ("the time of building the
//! full model is prohibitive"). On a dedicated heterogeneous platform
//! the devices are independent pieces of hardware, so their models can
//! be built **concurrently**: while the CPU model benchmarks size
//! `d_3`, the GPU model can already be at `d_7`. [`ModelBuilder`] runs
//! one build job per device on a pool of scoped worker threads and
//! guarantees that the outcome — models *and* trace-event stream — is
//! **bit-identical** to the serial build:
//!
//! * each device's kernel owns a deterministic measurement stream, so
//!   its samples do not depend on when the other devices run;
//! * each worker records its trace events into a private per-rank
//!   buffer; after all workers finish, the buffers are replayed into
//!   the caller's sink in rank order, reproducing the serial event
//!   sequence exactly;
//! * on error, events are forwarded for every rank up to and including
//!   the failing one, later ranks' events are dropped, and the error is
//!   returned — again exactly what the serial loop would have done.
//!
//! The only observable difference is the process-wide run totals
//! (`telemetry::run_summary`), which may include work from
//! ranks that a serial build would never have reached after an error;
//! they are diagnostic totals, not part of the event stream.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::benchmark::Benchmark;
use crate::kernel::Kernel;
use crate::model::Model;
use crate::trace::{null_sink, MemorySink, TraceEvent, TraceSink};
use crate::{CoreError, Precision};

/// Per-rank result slot for the parallel build: filled exactly once by
/// the worker that claims the rank.
type ResultSlot<M> = Mutex<Option<Result<BuiltModel<M>, CoreError>>>;

/// A model built for one device, together with the (virtual)
/// benchmarking cost that went into it.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltModel<M> {
    /// The constructed model.
    pub model: M,
    /// Total benchmarking cost in seconds: `time × repetitions` summed
    /// over all measured sizes — the model-construction cost metric
    /// the paper's experiments compare.
    pub cost: f64,
}

/// Measurement engine that builds one model per device kernel,
/// serially or across scoped worker threads.
///
/// # Examples
///
/// ```
/// use fupermod_core::builder::ModelBuilder;
/// use fupermod_core::kernel::{DeviceKernel, Kernel};
/// use fupermod_core::model::{AkimaModel, Model};
/// use fupermod_core::Precision;
/// use fupermod_platform::{cluster, WorkloadProfile};
///
/// # fn main() -> Result<(), fupermod_core::CoreError> {
/// let profile = WorkloadProfile::matrix_update(16);
/// let kernels: Vec<Box<dyn Kernel + Send>> = vec![
///     Box::new(DeviceKernel::new(cluster::fast_cpu("fast", 1), profile.clone())),
///     Box::new(DeviceKernel::new(cluster::slow_cpu("slow", 2), profile.clone())),
/// ];
/// let precision = Precision::quick();
/// let built = ModelBuilder::new(&precision)
///     .with_parallelism(0) // 0 = one worker per available core
///     .build::<AkimaModel>(kernels, &[50, 200, 800])?;
/// assert_eq!(built.len(), 2);
/// assert_eq!(built[0].model.points().len(), 3);
/// # Ok(())
/// # }
/// ```
pub struct ModelBuilder<'a> {
    precision: &'a Precision,
    parallelism: usize,
    trace: &'a dyn TraceSink,
}

impl std::fmt::Debug for ModelBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelBuilder")
            .field("precision", &self.precision)
            .field("parallelism", &self.parallelism)
            .finish_non_exhaustive()
    }
}

impl<'a> ModelBuilder<'a> {
    /// Creates a serial builder (`parallelism = 1`).
    ///
    /// # Panics
    ///
    /// Panics if the precision parameters are invalid
    /// (see [`Precision::validate`]).
    pub fn new(precision: &'a Precision) -> Self {
        precision.validate();
        Self {
            precision,
            parallelism: 1,
            trace: null_sink(),
        }
    }

    /// Sets the worker-thread count: `1` builds serially on the calling
    /// thread, `n > 1` uses up to `n` scoped workers, and `0` means
    /// *auto* — one worker per available core
    /// ([`std::thread::available_parallelism`]).
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Routes benchmark and model-update events to `sink`. The default
    /// is the no-op null sink.
    #[must_use]
    pub fn with_trace(mut self, sink: &'a dyn TraceSink) -> Self {
        self.trace = sink;
        self
    }

    /// The effective worker count for `n_jobs` jobs.
    fn effective_workers(&self, n_jobs: usize) -> usize {
        let cap = if self.parallelism == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.parallelism
        };
        cap.min(n_jobs).max(1)
    }

    /// Builds one model per kernel, benchmarking each kernel at every
    /// size in `sizes` (in order). Results are returned in input order
    /// and are bit-identical regardless of the worker count, provided
    /// the kernels measure independently (true for any dedicated
    /// platform, and for [`DeviceKernel`](crate::kernel::DeviceKernel)'s
    /// deterministic per-device noise streams).
    ///
    /// # Errors
    ///
    /// Returns the first error in rank order; trace events for ranks
    /// after the failing one are suppressed (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty.
    pub fn build<M: Model + Default + Send>(
        &self,
        kernels: Vec<Box<dyn Kernel + Send>>,
        sizes: &[u64],
    ) -> Result<Vec<BuiltModel<M>>, CoreError> {
        assert!(!kernels.is_empty(), "need at least one kernel");
        let n = kernels.len();
        let workers = self.effective_workers(n);

        if workers <= 1 {
            // Serial: record straight into the caller's sink.
            let mut out = Vec::with_capacity(n);
            for (rank, mut kernel) in kernels.into_iter().enumerate() {
                let mut model = M::default();
                let cost = build_one_model(
                    rank,
                    kernel.as_mut(),
                    sizes,
                    self.precision,
                    &mut model,
                    self.trace,
                )?;
                out.push(BuiltModel { model, cost });
            }
            return Ok(out);
        }

        // Parallel: one job slot per rank, claimed by workers through a
        // shared counter; per-rank trace buffers keep the event stream
        // reproducible.
        let jobs: Vec<Mutex<Option<Box<dyn Kernel + Send>>>> =
            kernels.into_iter().map(|k| Mutex::new(Some(k))).collect();
        let results: Vec<ResultSlot<M>> = (0..n).map(|_| Mutex::new(None)).collect();
        let buffers: Vec<MemorySink> = (0..n).map(|_| MemorySink::new()).collect();
        let next = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let rank = next.fetch_add(1, Ordering::Relaxed);
                    if rank >= n {
                        break;
                    }
                    let mut kernel = jobs[rank]
                        .lock()
                        .expect("job slot poisoned")
                        .take()
                        .expect("job claimed twice");
                    let mut model = M::default();
                    let outcome = build_one_model(
                        rank,
                        kernel.as_mut(),
                        sizes,
                        self.precision,
                        &mut model,
                        &buffers[rank],
                    )
                    .map(|cost| BuiltModel { model, cost });
                    *results[rank].lock().expect("result slot poisoned") = Some(outcome);
                });
            }
        });

        // Replay buffered events in rank order so the caller's sink
        // sees exactly the serial sequence; stop (dropping later
        // ranks' events) at the first error, as the serial loop would.
        let mut out = Vec::with_capacity(n);
        for (rank, result) in results.into_iter().enumerate() {
            for event in buffers[rank].take() {
                self.trace.record(&event);
            }
            let outcome = result
                .into_inner()
                .expect("result slot poisoned")
                .expect("worker skipped a job");
            out.push(outcome?);
        }
        Ok(out)
    }
}

/// Builds one device model: benchmarks `kernel` at every size, feeds
/// the points into `model`, and emits one
/// [`TraceEvent::ModelUpdate`] (tagged with `rank`) per point after the
/// benchmark's own sample/summary events. Returns the total (virtual)
/// benchmarking cost in seconds — `time × repetitions` summed over all
/// measurements.
///
/// This is the single shared implementation behind
/// `build_device_models`, the experiment harness's per-device builder,
/// and the `fupermod_builder` binary.
///
/// # Errors
///
/// Propagates benchmark and model errors.
pub fn build_one_model(
    rank: usize,
    kernel: &mut dyn Kernel,
    sizes: &[u64],
    precision: &Precision,
    model: &mut dyn Model,
    sink: &dyn TraceSink,
) -> Result<f64, CoreError> {
    let bench = Benchmark::new(precision).with_trace(sink);
    let mut cost = 0.0;
    for &d in sizes {
        let point = bench.measure(kernel, d)?;
        cost += point.t * f64::from(point.reps);
        model.update(point)?;
        sink.record(&TraceEvent::ModelUpdate {
            rank,
            d: point.d,
            t: point.t,
            reps: point.reps,
            points: model.points().len(),
        });
    }
    Ok(cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::DeviceKernel;
    use crate::model::AkimaModel;
    use crate::trace::MemorySink;
    use fupermod_platform::{Platform, WorkloadProfile};

    fn kernels_for(platform: &Platform) -> Vec<Box<dyn Kernel + Send>> {
        let profile = WorkloadProfile::matrix_update(16);
        platform
            .devices()
            .iter()
            .map(|dev| {
                Box::new(DeviceKernel::new(dev.clone(), profile.clone()))
                    as Box<dyn Kernel + Send>
            })
            .collect()
    }

    const SIZES: [u64; 4] = [32, 128, 512, 2048];

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        let platform = Platform::two_speed(2, 2, 77);
        let precision = Precision::quick();

        let serial_sink = MemorySink::new();
        let serial: Vec<BuiltModel<AkimaModel>> = ModelBuilder::new(&precision)
            .with_trace(&serial_sink)
            .build(kernels_for(&platform), &SIZES)
            .unwrap();

        for workers in [2, 3, 8, 0] {
            let par_sink = MemorySink::new();
            let parallel: Vec<BuiltModel<AkimaModel>> = ModelBuilder::new(&precision)
                .with_parallelism(workers)
                .with_trace(&par_sink)
                .build(kernels_for(&platform), &SIZES)
                .unwrap();
            // Models, costs and the *entire* trace stream must match
            // the serial build exactly — not approximately.
            assert_eq!(serial, parallel, "workers={workers}");
            assert_eq!(
                serial_sink.events(),
                par_sink.events(),
                "trace diverged at workers={workers}"
            );
        }
    }

    #[test]
    fn build_returns_models_in_input_order() {
        let platform = Platform::two_speed(2, 2, 78);
        let precision = Precision::quick();
        let built: Vec<BuiltModel<AkimaModel>> = ModelBuilder::new(&precision)
            .with_parallelism(4)
            .build(kernels_for(&platform), &[64, 256])
            .unwrap();
        assert_eq!(built.len(), platform.size());
        // The two fast devices are identical hardware but distinct
        // noise streams; every model holds every size in order.
        for b in &built {
            let ds: Vec<u64> = b.model.points().iter().map(|p| p.d).collect();
            assert_eq!(ds, vec![64, 256]);
            assert!(b.cost > 0.0);
        }
    }

    /// Kernel whose context fails on the first run — for error-path
    /// parity between serial and parallel builds.
    struct FailingKernel;
    impl Kernel for FailingKernel {
        fn complexity(&self, d: u64) -> f64 {
            d as f64
        }
        fn context(
            &mut self,
            _d: u64,
        ) -> Result<Box<dyn crate::kernel::KernelContext>, CoreError> {
            Err(CoreError::Kernel("device lost".to_owned()))
        }
    }

    #[test]
    fn error_surfaces_in_rank_order_and_drops_later_events() {
        let platform = Platform::two_speed(1, 2, 79);
        let precision = Precision::quick();

        let make_jobs = || -> Vec<Box<dyn Kernel + Send>> {
            let mut jobs = kernels_for(&platform);
            jobs[1] = Box::new(FailingKernel);
            jobs
        };

        let serial_sink = MemorySink::new();
        let serial_err = ModelBuilder::new(&precision)
            .with_trace(&serial_sink)
            .build::<AkimaModel>(make_jobs(), &SIZES)
            .unwrap_err();

        let par_sink = MemorySink::new();
        let par_err = ModelBuilder::new(&precision)
            .with_parallelism(3)
            .with_trace(&par_sink)
            .build::<AkimaModel>(make_jobs(), &SIZES)
            .unwrap_err();

        assert_eq!(format!("{serial_err}"), format!("{par_err}"));
        // Rank 2 may have *run* in the parallel build, but its events
        // must not leak past the rank-1 failure.
        assert_eq!(serial_sink.events(), par_sink.events());
    }

    #[test]
    fn effective_workers_clamps_sensibly() {
        let p = Precision::quick();
        let b = ModelBuilder::new(&p);
        assert_eq!(b.effective_workers(8), 1); // serial default
        assert_eq!(b.with_parallelism(4).effective_workers(2), 2);
        let b = ModelBuilder::new(&p).with_parallelism(0);
        assert!(b.effective_workers(16) >= 1); // auto never zero
    }

    #[test]
    #[should_panic(expected = "at least one kernel")]
    fn empty_job_list_is_rejected() {
        let p = Precision::quick();
        let _ = ModelBuilder::new(&p).build::<AkimaModel>(Vec::new(), &SIZES);
    }
}
