//! Statistically controlled performance measurement (the paper's
//! `fupermod_benchmark`).
//!
//! A measurement repeats a kernel until the Student-t confidence
//! interval of the mean time is tight enough (per [`Precision`]), then
//! reports a [`Point`]. Two modes are provided:
//!
//! * [`Benchmark::measure`] — a single process benchmarking its kernel.
//! * [`Benchmark::measure_group`] — several processes that *share
//!   resources* benchmarking in lockstep on worker threads with a
//!   barrier before every repetition. This reproduces the paper's
//!   measurement technique for multicore nodes \[18\]: processes are
//!   synchronised so resources are shared between the maximum number of
//!   processes, and processes that finish early keep executing so the
//!   contention level stays constant until everyone is done.

use std::fmt;
use std::sync::{Barrier, Mutex};

use fupermod_num::stats::{ConfidenceInterval, IncrementalStats, OnlineStats};

use crate::kernel::{Kernel, KernelContext};
use crate::telemetry::run_totals;
use crate::trace::{null_sink, TraceEvent, TraceSink};
use crate::{CoreError, Point, Precision};

/// Benchmark runner parameterised by a [`Precision`].
#[derive(Clone, Copy)]
pub struct Benchmark<'a> {
    precision: &'a Precision,
    /// Optional MAD-based outlier rejection threshold.
    outlier_k: Option<f64>,
    /// Structured-event sink; [`crate::trace::NullSink`] by default.
    trace: &'a dyn TraceSink,
}

impl fmt::Debug for Benchmark<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Benchmark")
            .field("precision", &self.precision)
            .field("outlier_k", &self.outlier_k)
            .finish_non_exhaustive()
    }
}

impl<'a> Benchmark<'a> {
    /// Creates a runner.
    ///
    /// # Panics
    ///
    /// Panics if the precision parameters are invalid
    /// (see [`Precision::validate`]).
    pub fn new(precision: &'a Precision) -> Self {
        precision.validate();
        Self {
            precision,
            outlier_k: None,
            trace: null_sink(),
        }
    }

    /// Routes structured measurement events ([`TraceEvent::BenchmarkSample`],
    /// [`TraceEvent::BenchmarkDone`]) to `sink`. The default is the
    /// no-op [`crate::trace::NullSink`], which costs nothing.
    pub fn with_trace(mut self, sink: &'a dyn TraceSink) -> Self {
        self.trace = sink;
        self
    }

    /// Enables robust outlier rejection: samples farther than `k`
    /// median absolute deviations from the median are dropped before
    /// the confidence interval is computed. `k = 5` is a common
    /// choice; one-off events (daemon wakeups, first-touch page
    /// faults) then cannot stall the stopping rule or skew the mean.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not positive.
    pub fn with_outlier_rejection(mut self, k: f64) -> Self {
        assert!(k > 0.0, "rejection threshold must be positive");
        self.outlier_k = Some(k);
        self
    }

    /// Summary statistics of the samples after the configured outlier
    /// filter (if any).
    ///
    /// Runs off the incrementally maintained sorted sample, so the
    /// per-repetition cost is O(log n) amortised (the running Welford
    /// accumulator is returned directly when no outlier is present or
    /// no filter is configured) instead of the former
    /// sort-and-reallocate recomputation on every repetition.
    fn effective_stats(&self, samples: &IncrementalStats) -> OnlineStats {
        match self.outlier_k {
            Some(k) => samples.filtered(k).0,
            None => samples.all(),
        }
    }

    /// Measures one kernel at size `d`.
    ///
    /// # Errors
    ///
    /// Propagates kernel initialisation/execution failures.
    pub fn measure(&self, kernel: &mut dyn Kernel, d: u64) -> Result<Point, CoreError> {
        let mut ctx = kernel.context(d)?;
        run_totals().kernels_executed.inc();
        let mut samples = IncrementalStats::new();
        let mut spent = 0.0;
        let p = self.precision;

        let mut stats = OnlineStats::new();
        let mut ci = None;
        for rep in 0..p.reps_max {
            let t = ctx.run()?.as_secs_f64();
            samples.push(t);
            spent += t;
            run_totals().bench_rep_seconds.record(t);
            stats = self.effective_stats(&samples);
            // The one interval of this repetition: the sample event,
            // the stopping rule and the final point all read it.
            ci = stats.confidence_interval(p.cl);
            self.trace.record(&TraceEvent::BenchmarkSample {
                rank: 0,
                d,
                rep,
                time: t,
                ci_rel: relative_ci(ci),
            });
            if rep + 1 >= p.reps_min && reliable(ci, p, spent) {
                break;
            }
        }
        let outliers = samples.count() - stats.count();
        run_totals().bench_reps.add(samples.count());
        run_totals().outliers_rejected.add(outliers);
        let point = point_from_stats(d, &stats, ci);
        self.trace.record(&TraceEvent::BenchmarkDone {
            rank: 0,
            d,
            reps: point.reps,
            mean: point.t,
            stderr: stats.std_error(),
            elapsed: spent,
            outliers_rejected: outliers as u32,
        });
        Ok(point)
    }

    /// Measures a group of resource-sharing kernels in lockstep, one
    /// worker thread per kernel, with a barrier before every
    /// repetition. All members run the same number of repetitions; the
    /// group stops once *every* member satisfies the stopping rule (or
    /// the caps are hit).
    ///
    /// Returns one [`Point`] per kernel, in input order.
    ///
    /// # Errors
    ///
    /// Returns the first kernel error encountered; remaining workers
    /// finish their current repetition and stop.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` and `sizes` have different lengths or are
    /// empty.
    pub fn measure_group(
        &self,
        kernels: &mut [&mut dyn Kernel],
        sizes: &[u64],
    ) -> Result<Vec<Point>, CoreError> {
        assert_eq!(
            kernels.len(),
            sizes.len(),
            "one problem size per group member"
        );
        assert!(!kernels.is_empty(), "group must not be empty");
        let n = kernels.len();
        let p = self.precision;

        // Contexts are created up front (the paper's `initialize`), so
        // every member's memory is resident before anyone starts timing.
        let mut contexts: Vec<Box<dyn KernelContext>> = Vec::with_capacity(n);
        for (k, &d) in kernels.iter_mut().zip(sizes) {
            contexts.push(k.context(d)?);
            run_totals().kernels_executed.inc();
        }

        let barrier = Barrier::new(n);
        let done = Mutex::new(vec![false; n]);
        let error: Mutex<Option<CoreError>> = Mutex::new(None);

        let this = *self;
        let points: Vec<Point> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (rank, mut ctx) in contexts.into_iter().enumerate() {
                let barrier = &barrier;
                let done = &done;
                let error = &error;
                let d = sizes[rank];
                handles.push(scope.spawn(move || {
                    let mut samples = IncrementalStats::new();
                    let mut stats = OnlineStats::new();
                    let mut ci = None;
                    let mut spent = 0.0;
                    for rep in 0..p.reps_max {
                        // Synchronised start: maximum resource sharing.
                        barrier.wait();
                        let mut rep_time = None;
                        match ctx.run() {
                            Ok(t) => {
                                let t = t.as_secs_f64();
                                samples.push(t);
                                spent += t;
                                rep_time = Some(t);
                            }
                            Err(e) => {
                                let mut slot = error.lock().expect("poisoned");
                                slot.get_or_insert(e);
                            }
                        }
                        stats = this.effective_stats(&samples);
                        ci = stats.confidence_interval(p.cl);
                        if let Some(t) = rep_time {
                            run_totals().bench_rep_seconds.record(t);
                            this.trace.record(&TraceEvent::BenchmarkSample {
                                rank,
                                d,
                                rep,
                                time: t,
                                ci_rel: relative_ci(ci),
                            });
                        }
                        // Publish own verdict, then synchronise so every
                        // worker reads the *same* set of flags and takes
                        // the same stop decision (a diverging decision
                        // would deadlock the next repetition's barrier).
                        {
                            let mut flags = done.lock().expect("poisoned");
                            flags[rank] = rep + 1 >= p.reps_min && reliable(ci, p, spent);
                        }
                        barrier.wait();
                        let all_done = done.lock().expect("poisoned").iter().all(|f| *f);
                        let failed = error.lock().expect("poisoned").is_some();
                        if all_done || failed {
                            break;
                        }
                    }
                    let outliers = samples.count() - stats.count();
                    run_totals().bench_reps.add(samples.count());
                    run_totals().outliers_rejected.add(outliers);
                    if error.lock().expect("poisoned").is_none() {
                        this.trace.record(&TraceEvent::BenchmarkDone {
                            rank,
                            d,
                            reps: stats.count() as u32,
                            mean: stats.mean(),
                            stderr: stats.std_error(),
                            elapsed: spent,
                            outliers_rejected: outliers as u32,
                        });
                    }
                    point_from_stats(d, &stats, ci)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("benchmark worker panicked"))
                .collect()
        });

        if let Some(e) = error.into_inner().expect("poisoned") {
            return Err(e);
        }
        Ok(points)
    }
}

/// Relative confidence-interval half-width of the mean, or `inf`
/// before enough samples exist to compute one.
fn relative_ci(ci: Option<ConfidenceInterval>) -> f64 {
    ci.map_or(f64::INFINITY, |ci| ci.relative_error())
}

/// Stopping rule: the confidence interval is tight enough, the data is
/// degenerate-but-stable (zero variance), or the time budget ran out.
fn reliable(ci: Option<ConfidenceInterval>, p: &Precision, spent: f64) -> bool {
    spent >= p.max_seconds || ci.is_some_and(|ci| ci.relative_error() <= p.rel_err)
}

/// The reported point: `ci` is the interval of `stats`, as computed
/// after the last repetition.
fn point_from_stats(d: u64, stats: &OnlineStats, ci: Option<ConfidenceInterval>) -> Point {
    Point {
        d,
        t: stats.mean(),
        reps: stats.count() as u32,
        ci: ci.map_or(0.0, |ci| ci.half_width),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::DeviceKernel;
    use fupermod_platform::{cluster, Device, WorkloadProfile};

    fn noisy_kernel(noise: f64, seed: u64) -> DeviceKernel {
        let base = cluster::fast_cpu("c", seed);
        let dev = Device::new("c", base.spec().clone(), noise, seed);
        DeviceKernel::new(dev, WorkloadProfile::matrix_update(16))
    }

    #[test]
    fn noiseless_kernel_stops_at_reps_min() {
        let mut k = noisy_kernel(0.0, 1);
        let p = Precision::default();
        let point = Benchmark::new(&p).measure(&mut k, 100).unwrap();
        assert_eq!(point.reps, p.reps_min);
        assert!(point.ci < 1e-12);
        assert_eq!(point.d, 100);
    }

    #[test]
    fn noisy_kernel_repeats_until_tight() {
        let mut k = noisy_kernel(0.10, 2);
        let p = Precision {
            reps_min: 3,
            reps_max: 200,
            cl: 0.95,
            rel_err: 0.02,
            max_seconds: 1e9,
        };
        let point = Benchmark::new(&p).measure(&mut k, 100).unwrap();
        assert!(point.reps > 3, "took only {} reps", point.reps);
        assert!(point.ci / point.t <= 0.02 * 1.01);
    }

    #[test]
    fn reps_max_caps_stubborn_noise() {
        let mut k = noisy_kernel(0.5, 3);
        let p = Precision {
            reps_min: 2,
            reps_max: 5,
            cl: 0.99,
            rel_err: 1e-6,
            max_seconds: 1e9,
        };
        let point = Benchmark::new(&p).measure(&mut k, 100).unwrap();
        assert_eq!(point.reps, 5);
    }

    #[test]
    fn time_budget_stops_long_measurements() {
        // Device takes ~seconds per run at this size; budget of one run.
        let mut k = noisy_kernel(0.1, 4);
        let one_run = k.device().ideal_time(200_000, k.profile());
        let p = Precision {
            reps_min: 2,
            reps_max: 1000,
            cl: 0.95,
            rel_err: 1e-9,
            max_seconds: one_run * 2.5,
        };
        let point = Benchmark::new(&p).measure(&mut k, 200_000).unwrap();
        assert!(point.reps <= 4, "budget ignored: {} reps", point.reps);
    }

    #[test]
    fn measured_mean_tracks_ideal_time() {
        let mut k = noisy_kernel(0.05, 5);
        let ideal = k.device().ideal_time(1000, k.profile());
        let p = Precision {
            reps_min: 20,
            reps_max: 100,
            cl: 0.95,
            rel_err: 0.005,
            max_seconds: 1e9,
        };
        let point = Benchmark::new(&p).measure(&mut k, 1000).unwrap();
        assert!((point.t / ideal - 1.0).abs() < 0.05);
    }

    #[test]
    fn group_measurement_returns_point_per_member() {
        let mut ks: Vec<DeviceKernel> = (0..4).map(|i| noisy_kernel(0.03, 10 + i)).collect();
        let mut refs: Vec<&mut dyn Kernel> =
            ks.iter_mut().map(|k| k as &mut dyn Kernel).collect();
        let p = Precision::default();
        let points = Benchmark::new(&p)
            .measure_group(&mut refs, &[100, 200, 300, 400])
            .unwrap();
        assert_eq!(points.len(), 4);
        for (i, pt) in points.iter().enumerate() {
            assert_eq!(pt.d, 100 * (i as u64 + 1));
            assert!(pt.t > 0.0);
        }
    }

    #[test]
    fn group_members_run_identical_rep_counts() {
        // One noisy member forces extra reps; all members must match,
        // since the group is barrier-synchronised every repetition.
        let mut quiet1 = noisy_kernel(0.0, 20);
        let mut noisy = noisy_kernel(0.2, 21);
        let mut quiet2 = noisy_kernel(0.0, 22);
        let mut refs: Vec<&mut dyn Kernel> = vec![&mut quiet1, &mut noisy, &mut quiet2];
        let p = Precision {
            reps_min: 3,
            reps_max: 50,
            cl: 0.95,
            rel_err: 0.02,
            max_seconds: 1e9,
        };
        let points = Benchmark::new(&p).measure_group(&mut refs, &[100, 100, 100]).unwrap();
        assert_eq!(points[0].reps, points[1].reps);
        assert_eq!(points[1].reps, points[2].reps);
        assert!(points[1].reps > 3);
    }

    /// A kernel that fails either at context creation or on the n-th
    /// execution — used to exercise the error paths.
    struct FailingKernel {
        fail_context: bool,
        fail_on_run: u32,
    }

    struct FailingContext {
        fail_on_run: u32,
        runs: u32,
    }

    impl Kernel for FailingKernel {
        fn complexity(&self, d: u64) -> f64 {
            d as f64
        }
        fn context(
            &mut self,
            _d: u64,
        ) -> Result<Box<dyn crate::kernel::KernelContext>, CoreError> {
            if self.fail_context {
                return Err(CoreError::Kernel("allocation refused".to_owned()));
            }
            Ok(Box::new(FailingContext {
                fail_on_run: self.fail_on_run,
                runs: 0,
            }))
        }
    }

    impl crate::kernel::KernelContext for FailingContext {
        fn run(&mut self) -> Result<std::time::Duration, CoreError> {
            self.runs += 1;
            if self.runs >= self.fail_on_run {
                Err(CoreError::Kernel("device lost".to_owned()))
            } else {
                Ok(std::time::Duration::from_millis(1))
            }
        }
    }

    /// A kernel with a stable 1 ms time plus a large spike every
    /// `spike_every`-th run — the daemon-wakeup scenario.
    struct SpikyKernel {
        spike_every: u32,
    }

    struct SpikyContext {
        spike_every: u32,
        runs: u32,
    }

    impl Kernel for SpikyKernel {
        fn complexity(&self, d: u64) -> f64 {
            d as f64
        }
        fn context(
            &mut self,
            _d: u64,
        ) -> Result<Box<dyn crate::kernel::KernelContext>, CoreError> {
            Ok(Box::new(SpikyContext {
                spike_every: self.spike_every,
                runs: 0,
            }))
        }
    }

    impl crate::kernel::KernelContext for SpikyContext {
        fn run(&mut self) -> Result<std::time::Duration, CoreError> {
            self.runs += 1;
            let ms = if self.runs.is_multiple_of(self.spike_every) {
                100.0
            } else {
                1.0 + 0.001 * f64::from(self.runs % 3)
            };
            Ok(std::time::Duration::from_secs_f64(ms * 1e-3))
        }
    }

    #[test]
    fn outlier_rejection_recovers_the_clean_mean() {
        let p = Precision {
            reps_min: 10,
            reps_max: 40,
            cl: 0.95,
            rel_err: 0.01,
            max_seconds: 1e9,
        };
        let mut spiky = SpikyKernel { spike_every: 7 };
        let robust = Benchmark::new(&p)
            .with_outlier_rejection(5.0)
            .measure(&mut spiky, 10)
            .unwrap();
        let mut spiky = SpikyKernel { spike_every: 7 };
        let naive = Benchmark::new(&p).measure(&mut spiky, 10).unwrap();
        // Robust mean ~1 ms; the naive mean is dragged up by the
        // 100 ms spikes.
        assert!(
            (robust.t - 1e-3).abs() < 1e-4,
            "robust mean {} not ~1 ms",
            robust.t
        );
        assert!(naive.t > 3.0 * robust.t, "naive {} vs robust {}", naive.t, robust.t);
    }

    #[test]
    fn outlier_rejection_converges_where_naive_stalls() {
        let p = Precision {
            reps_min: 5,
            reps_max: 60,
            cl: 0.95,
            rel_err: 0.02,
            max_seconds: 1e9,
        };
        // Spikes land inside the first reps_min window (runs 3, 6, ...),
        // so the naive stopping rule cannot converge early.
        let mut spiky = SpikyKernel { spike_every: 3 };
        let robust = Benchmark::new(&p)
            .with_outlier_rejection(5.0)
            .measure(&mut spiky, 10)
            .unwrap();
        let mut spiky = SpikyKernel { spike_every: 3 };
        let naive = Benchmark::new(&p).measure(&mut spiky, 10).unwrap();
        assert!(
            robust.reps < naive.reps,
            "robust {} reps vs naive {}",
            robust.reps,
            naive.reps
        );
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn rejects_nonpositive_outlier_threshold() {
        let p = Precision::default();
        let _ = Benchmark::new(&p).with_outlier_rejection(0.0);
    }

    #[test]
    fn measure_propagates_context_failure() {
        let mut k = FailingKernel {
            fail_context: true,
            fail_on_run: 0,
        };
        let err = Benchmark::new(&Precision::default())
            .measure(&mut k, 10)
            .unwrap_err();
        assert!(matches!(err, CoreError::Kernel(_)));
    }

    #[test]
    fn measure_propagates_mid_run_failure() {
        let mut k = FailingKernel {
            fail_context: false,
            fail_on_run: 2,
        };
        let err = Benchmark::new(&Precision::default())
            .measure(&mut k, 10)
            .unwrap_err();
        assert!(matches!(err, CoreError::Kernel(_)));
    }

    #[test]
    fn group_with_failing_member_errors_without_hanging() {
        let mut good1 = noisy_kernel(0.0, 30);
        let mut bad = FailingKernel {
            fail_context: false,
            fail_on_run: 3,
        };
        let mut good2 = noisy_kernel(0.0, 31);
        let mut refs: Vec<&mut dyn Kernel> = vec![&mut good1, &mut bad, &mut good2];
        let p = Precision {
            reps_min: 5,
            reps_max: 50,
            cl: 0.95,
            rel_err: 1e-9,
            max_seconds: 1e9,
        };
        let err = Benchmark::new(&p)
            .measure_group(&mut refs, &[10, 10, 10])
            .unwrap_err();
        assert!(matches!(err, CoreError::Kernel(_)));
    }

    #[test]
    fn group_context_failure_surfaces_before_threads_spawn() {
        let mut good = noisy_kernel(0.0, 32);
        let mut bad = FailingKernel {
            fail_context: true,
            fail_on_run: 0,
        };
        let mut refs: Vec<&mut dyn Kernel> = vec![&mut good, &mut bad];
        let err = Benchmark::new(&Precision::default())
            .measure_group(&mut refs, &[10, 10])
            .unwrap_err();
        assert!(matches!(err, CoreError::Kernel(_)));
    }

    #[test]
    #[should_panic(expected = "one problem size")]
    fn group_rejects_mismatched_sizes() {
        let mut k = noisy_kernel(0.0, 1);
        let mut refs: Vec<&mut dyn Kernel> = vec![&mut k];
        let _ = Benchmark::new(&Precision::default()).measure_group(&mut refs, &[1, 2]);
    }

    #[test]
    fn measure_emits_one_sample_per_rep_and_a_summary() {
        use crate::trace::{MemorySink, TraceEvent};
        let sink = MemorySink::new();
        let mut k = noisy_kernel(0.0, 7);
        let p = Precision::default();
        let point = Benchmark::new(&p)
            .with_trace(&sink)
            .measure(&mut k, 50)
            .unwrap();
        let events = sink.take();
        let samples = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::BenchmarkSample { .. }))
            .count();
        // No outlier filter configured: every repetition survives.
        assert_eq!(samples as u32, point.reps);
        match events.last().unwrap() {
            TraceEvent::BenchmarkDone {
                rank,
                d,
                reps,
                mean,
                outliers_rejected,
                ..
            } => {
                assert_eq!(*rank, 0);
                assert_eq!(*d, 50);
                assert_eq!(*reps, point.reps);
                assert!((mean - point.t).abs() < 1e-15);
                assert_eq!(*outliers_rejected, 0);
            }
            other => panic!("last event should be BenchmarkDone, got {other:?}"),
        }
    }

    #[test]
    fn group_trace_reports_every_rank() {
        use crate::trace::{MemorySink, TraceEvent};
        let sink = MemorySink::new();
        let mut ks: Vec<DeviceKernel> = (0..3).map(|i| noisy_kernel(0.0, 40 + i)).collect();
        let mut refs: Vec<&mut dyn Kernel> =
            ks.iter_mut().map(|k| k as &mut dyn Kernel).collect();
        let p = Precision::default();
        let points = Benchmark::new(&p)
            .with_trace(&sink)
            .measure_group(&mut refs, &[100, 200, 300])
            .unwrap();
        let events = sink.take();
        let mut done_ranks: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::BenchmarkDone { rank, d, reps, .. } => {
                    assert_eq!(*d, 100 * (*rank as u64 + 1));
                    assert_eq!(*reps, points[*rank].reps);
                    Some(*rank)
                }
                _ => None,
            })
            .collect();
        done_ranks.sort_unstable();
        assert_eq!(done_ranks, vec![0, 1, 2]);
    }
}
