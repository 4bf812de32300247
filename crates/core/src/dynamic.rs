//! Dynamic data partitioning and load balancing (the paper's
//! `fupermod_dynamic`, `fupermod_partition_iterate` and
//! `fupermod_balance_iterate`).
//!
//! Building a *full* functional performance model is expensive; the
//! dynamic algorithms instead build **partial estimates**: the models
//! only contain points at the sizes that turned out to be relevant,
//! refined iteratively while the distribution converges (\[11\] for
//! dynamic partitioning via kernel benchmarks, \[6\] for load balancing
//! via the application's own iteration times — Fig. 3 and Fig. 4 of the
//! paper).
//!
//! Both algorithms share one engine, [`DynamicContext`]:
//!
//! 1. observe the execution time of every process at its current size,
//! 2. feed the observations into the partial models,
//! 3. re-partition with the configured algorithm,
//! 4. declare convergence when the observed times are balanced within
//!    `eps` (or the distribution stops moving).

use std::sync::Arc;

use crate::model::Model;
use crate::partition::{Distribution, Part, Partitioner};
use crate::telemetry::run_totals;
use crate::trace::{NullSink, TraceEvent, TraceSink};
use crate::{CoreError, Point};

/// Outcome of one dynamic step.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicStep {
    /// The observations absorbed this step (one per process).
    pub observed: Vec<Point>,
    /// Relative imbalance `(t_max - t_min)/t_max` of the observations.
    pub imbalance: f64,
    /// Whether the loop may stop: balanced within `eps`, or the
    /// distribution did not change.
    pub converged: bool,
    /// Units that changed owner relative to the previous distribution.
    pub units_moved: u64,
}

/// Execution context for dynamic partitioning / load balancing.
pub struct DynamicContext {
    partitioner: Box<dyn Partitioner>,
    models: Vec<Box<dyn Model>>,
    dist: Distribution,
    eps: f64,
    trace: Arc<dyn TraceSink>,
    iter: u64,
    /// Which processes still participate. Deactivated (dead) ranks are
    /// excluded from partitioning and pinned to zero units — the
    /// graceful-degradation hook used by the distributed executor.
    active: Vec<bool>,
}

impl std::fmt::Debug for DynamicContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicContext")
            .field("size", &self.models.len())
            .field("dist", &self.dist)
            .field("eps", &self.eps)
            .field("iter", &self.iter)
            .finish_non_exhaustive()
    }
}

impl DynamicContext {
    /// Creates a context over `total` computation units with empty
    /// partial models and an even initial distribution.
    ///
    /// `eps` is the balance tolerance: the loop is converged when the
    /// relative imbalance of observed times drops below it.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty or `eps` is not positive.
    pub fn new(
        partitioner: Box<dyn Partitioner>,
        models: Vec<Box<dyn Model>>,
        total: u64,
        eps: f64,
    ) -> Self {
        assert!(!models.is_empty(), "need at least one process");
        assert!(eps > 0.0, "eps must be positive");
        let dist = Distribution::even(total, models.len());
        let active = vec![true; models.len()];
        Self {
            partitioner,
            models,
            dist,
            eps,
            trace: Arc::new(NullSink),
            iter: 0,
            active,
        }
    }

    /// Routes structured events ([`TraceEvent::ModelUpdate`],
    /// [`TraceEvent::PartitionStep`], [`TraceEvent::DynamicConverged`])
    /// to `sink`. The default is the no-op [`NullSink`].
    #[must_use]
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = sink;
        self
    }

    /// Dynamic-loop iterations absorbed so far.
    pub fn iterations(&self) -> u64 {
        self.iter
    }

    /// The current distribution.
    pub fn dist(&self) -> &Distribution {
        &self.dist
    }

    /// The partial models built so far.
    pub fn models(&self) -> &[Box<dyn Model>] {
        &self.models
    }

    /// Balance tolerance.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Which processes still participate (`active()[rank]`), see
    /// [`DynamicContext::deactivate`].
    pub fn active(&self) -> &[bool] {
        &self.active
    }

    /// Permanently removes a process from the computation — the
    /// graceful-degradation path for a dead rank. From the next
    /// absorb onwards the partitioner only sees the surviving models
    /// and the dead rank is pinned to zero units, so its load is
    /// repartitioned across survivors.
    ///
    /// Deactivating an already-inactive rank is a no-op; out-of-range
    /// ranks are ignored.
    pub fn deactivate(&mut self, rank: usize) {
        if let Some(slot) = self.active.get_mut(rank) {
            *slot = false;
        }
    }

    /// One step of **dynamic data partitioning** \[11\]: benchmark the
    /// kernel of every process at its current size (via `measure`),
    /// refine the partial models, and re-partition.
    ///
    /// `measure(rank, d)` must return the measured point for process
    /// `rank` at size `d`; zero-size shares are probed at one unit so
    /// an idle process still gains a model point.
    ///
    /// # Errors
    ///
    /// Propagates measurement, model and partitioning errors.
    pub fn partition_iterate(
        &mut self,
        mut measure: impl FnMut(usize, u64) -> Result<Point, CoreError>,
    ) -> Result<DynamicStep, CoreError> {
        let sizes = self.dist.sizes();
        let mut observed = Vec::with_capacity(sizes.len());
        for (rank, &d) in sizes.iter().enumerate() {
            if self.active[rank] {
                observed.push(measure(rank, d.max(1))?);
            } else {
                // Dead ranks are not probed; the placeholder is
                // skipped by `absorb` (d == 0 carries no information).
                observed.push(Point::single(0, 0.0));
            }
        }
        self.absorb(observed)
    }

    /// One step of **dynamic load balancing** \[6\]: the application has
    /// just executed one iteration with the current distribution;
    /// `times[i]` is process `i`'s measured compute time. Refines the
    /// models and re-partitions — the paper's `fupermod_balance_iterate`.
    ///
    /// Processes that held zero units this iteration contribute no
    /// model point (a zero-work observation carries no speed
    /// information) and are excluded from the imbalance metric.
    ///
    /// # Errors
    ///
    /// Propagates model and partitioning errors.
    ///
    /// # Panics
    ///
    /// Panics if `times.len()` differs from the process count.
    pub fn balance_iterate(&mut self, times: &[f64]) -> Result<DynamicStep, CoreError> {
        assert_eq!(times.len(), self.models.len(), "one time per process");
        let observed: Vec<Point> = self
            .dist
            .sizes()
            .iter()
            .zip(times)
            .map(|(&d, &t)| {
                if d == 0 {
                    Point::single(0, 0.0)
                } else {
                    Point::single(d, t.max(f64::MIN_POSITIVE))
                }
            })
            .collect();
        self.absorb(observed)
    }

    /// Absorbs one already-measured observation per process and
    /// re-partitions — the distributed executor's entry point, where
    /// each rank measured its own share and the points were gathered
    /// to the root. Identical semantics to one
    /// [`DynamicContext::partition_iterate`] step given the same
    /// observations.
    ///
    /// # Errors
    ///
    /// Propagates model and partitioning errors.
    ///
    /// # Panics
    ///
    /// Panics if `observed.len()` differs from the process count.
    pub fn absorb_observed(&mut self, observed: Vec<Point>) -> Result<DynamicStep, CoreError> {
        assert_eq!(
            observed.len(),
            self.models.len(),
            "one observation per process"
        );
        self.absorb(observed)
    }

    fn absorb(&mut self, observed: Vec<Point>) -> Result<DynamicStep, CoreError> {
        self.iter += 1;
        for (rank, (model, point)) in self.models.iter_mut().zip(&observed).enumerate() {
            // A zero-work observation carries no speed information:
            // `balance_iterate` reports idle ranks as `(0, 0.0)`
            // placeholders. Feeding those into the model would trigger
            // a wasted refresh, emit a spurious ModelUpdate event, and
            // pollute any `Model` implementation that does not itself
            // discard zero-size points.
            if point.d == 0 {
                continue;
            }
            model.update(*point)?;
            self.trace.record(&TraceEvent::ModelUpdate {
                rank,
                d: point.d,
                t: point.t,
                reps: point.reps,
                points: model.points().len(),
            });
        }
        let new_dist = if self.active.iter().all(|&a| a) {
            let refs: Vec<&dyn Model> = self.models.iter().map(|m| m.as_ref()).collect();
            self.partitioner.partition(self.dist.total(), &refs)?
        } else {
            // Graceful degradation: partition over the surviving
            // models only, then expand back to full size with dead
            // ranks pinned to zero units.
            let refs: Vec<&dyn Model> = self
                .models
                .iter()
                .zip(&self.active)
                .filter(|(_, &a)| a)
                .map(|(m, _)| m.as_ref())
                .collect();
            if refs.is_empty() {
                return Err(CoreError::Partition(
                    "no active processes remain".to_owned(),
                ));
            }
            let sub = self.partitioner.partition(self.dist.total(), &refs)?;
            let mut survivors = sub.parts().iter();
            let parts: Vec<Part> = self
                .active
                .iter()
                .map(|&a| {
                    if a {
                        *survivors
                            .next()
                            .expect("partitioner returned one part per model")
                    } else {
                        Part { d: 0, t: 0.0 }
                    }
                })
                .collect();
            Distribution::from_parts(self.dist.total(), parts)
        };

        // Idle (zero-unit) processes don't count towards imbalance.
        let times: Vec<f64> = observed
            .iter()
            .filter(|p| p.d > 0)
            .map(|p| p.t)
            .collect();
        // With fewer than two active processes there is nothing to
        // balance against: a lone process (or an all-idle round) is
        // balanced by definition. `imbalance_of` additionally guards
        // `t_max <= 0`, so degenerate zero-time observations can never
        // produce a NaN/negative imbalance.
        let imbalance = if times.len() < 2 {
            0.0
        } else {
            Distribution::imbalance_of(&times)
        };
        let units_moved: u64 = new_dist
            .sizes()
            .iter()
            .zip(self.dist.sizes())
            .map(|(&n, o)| n.abs_diff(o))
            .sum::<u64>()
            / 2;
        let converged = imbalance <= self.eps || units_moved == 0;
        run_totals().units_moved.add(units_moved);
        self.trace.record(&TraceEvent::PartitionStep {
            iter: self.iter,
            dist: new_dist.sizes(),
            imbalance,
            units_moved,
        });
        if converged {
            self.trace.record(&TraceEvent::DynamicConverged {
                steps: self.iter,
                imbalance,
            });
        }
        self.dist = new_dist;
        Ok(DynamicStep {
            observed,
            imbalance,
            converged,
            units_moved,
        })
    }

    /// Runs [`DynamicContext::partition_iterate`] until convergence or
    /// `max_steps`, returning all steps. Convenience driver for the
    /// experiments.
    ///
    /// # Errors
    ///
    /// Propagates the first failing step.
    pub fn run_to_balance(
        &mut self,
        mut measure: impl FnMut(usize, u64) -> Result<Point, CoreError>,
        max_steps: usize,
    ) -> Result<Vec<DynamicStep>, CoreError> {
        let mut steps = Vec::new();
        for _ in 0..max_steps {
            let step = self.partition_iterate(&mut measure)?;
            let done = step.converged;
            steps.push(step);
            if done {
                break;
            }
        }
        Ok(steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PiecewiseModel;
    use crate::partition::GeometricPartitioner;

    /// A two-speed synthetic platform: process 0 runs at `s0` units/s,
    /// process 1 at `s1`.
    fn measure_two(s0: f64, s1: f64) -> impl FnMut(usize, u64) -> Result<Point, CoreError> {
        move |rank, d| {
            let s = if rank == 0 { s0 } else { s1 };
            Ok(Point::single(d, d as f64 / s))
        }
    }

    fn context(total: u64, eps: f64, size: usize) -> DynamicContext {
        let models: Vec<Box<dyn Model>> = (0..size)
            .map(|_| Box::new(PiecewiseModel::new()) as Box<dyn Model>)
            .collect();
        DynamicContext::new(Box::new(GeometricPartitioner::default()), models, total, eps)
    }

    #[test]
    fn starts_even() {
        let ctx = context(100, 0.05, 4);
        assert_eq!(ctx.dist().sizes(), vec![25, 25, 25, 25]);
    }

    #[test]
    fn converges_in_few_steps_on_constant_speeds() {
        let mut ctx = context(1000, 0.05, 2);
        let steps = ctx.run_to_balance(measure_two(100.0, 25.0), 20).unwrap();
        assert!(steps.len() <= 3, "took {} steps", steps.len());
        assert!(steps.last().unwrap().converged);
        // Optimal split for 4:1 speeds.
        assert_eq!(ctx.dist().sizes(), vec![800, 200]);
    }

    #[test]
    fn first_step_reports_initial_imbalance() {
        let mut ctx = context(1000, 0.01, 2);
        let step = ctx.partition_iterate(measure_two(100.0, 25.0)).unwrap();
        // Even split on a 4:1 platform: times 5 s vs 20 s → imbalance 0.75.
        assert!((step.imbalance - 0.75).abs() < 1e-9);
        assert!(!step.converged);
        assert!(step.units_moved > 0);
    }

    #[test]
    fn balanced_platform_converges_immediately() {
        let mut ctx = context(1000, 0.05, 2);
        let steps = ctx.run_to_balance(measure_two(50.0, 50.0), 20).unwrap();
        assert_eq!(steps.len(), 1);
        assert_eq!(ctx.dist().sizes(), vec![500, 500]);
    }

    #[test]
    fn balance_iterate_uses_application_times() {
        let mut ctx = context(900, 0.05, 2);
        // The application observed 3:1 times on the even split: process
        // 0 is three times slower.
        let step = ctx.balance_iterate(&[3.0, 1.0]).unwrap();
        assert!(!step.converged);
        let sizes = ctx.dist().sizes();
        assert!(sizes[0] < sizes[1], "slower process must get less");
        // Next iteration with proportional times converges.
        let t0 = sizes[0] as f64 / 150.0;
        let t1 = sizes[1] as f64 / 450.0;
        let step = ctx.balance_iterate(&[t0, t1]).unwrap();
        assert!(step.imbalance < 0.1, "imbalance {}", step.imbalance);
    }

    #[test]
    fn nonlinear_speeds_still_converge() {
        // Process 0 slows down past 600 units (cliff), process 1 steady.
        let mut ctx = context(1500, 0.05, 2);
        let measure = |rank: usize, d: u64| -> Result<Point, CoreError> {
            let t = match rank {
                0 => {
                    let x = d as f64;
                    if x <= 600.0 {
                        x / 100.0
                    } else {
                        6.0 + (x - 600.0) / 10.0
                    }
                }
                _ => d as f64 / 50.0,
            };
            Ok(Point::single(d, t))
        };
        let mut ctx_steps = 0;
        for _ in 0..30 {
            let step = ctx.partition_iterate(measure).unwrap();
            ctx_steps += 1;
            if step.converged {
                break;
            }
        }
        // Converged to a split near the analytic optimum (exactly 700:
        // 6 + (x-600)/10 = (1500-x)/50 → x = 700).
        let sizes = ctx.dist().sizes();
        assert!(
            (600..=730).contains(&sizes[0]),
            "process 0 got {} after {ctx_steps} steps",
            sizes[0]
        );
    }

    #[test]
    fn units_moved_counts_churn() {
        let mut ctx = context(100, 1e-6, 2);
        let step = ctx.partition_iterate(measure_two(300.0, 100.0)).unwrap();
        // 50/50 → 75/25 moves 25 units.
        assert_eq!(step.units_moved, 25);
    }

    #[test]
    fn processes_driven_to_zero_units_do_not_poison_models() {
        // A tiny workload over many processes with a huge speed spread:
        // the slow ones end up with zero units and report zero time.
        // Regression test: such observations must not enter the models
        // (a (1, ~0) point means infinite speed and breaks the
        // geometric bisection).
        let mut ctx = context(16, 0.02, 8);
        // Process 0 is 1000x faster than the rest.
        let speeds: Vec<f64> = (0..8).map(|r| if r == 0 { 1000.0 } else { 1.0 }).collect();
        for _ in 0..10 {
            let times: Vec<f64> = ctx
                .dist()
                .sizes()
                .iter()
                .zip(&speeds)
                .map(|(&d, s)| d as f64 / s)
                .collect();
            let step = ctx.balance_iterate(&times).unwrap();
            if step.converged {
                break;
            }
        }
        // The fast process holds nearly everything; total conserved.
        assert_eq!(ctx.dist().total_assigned(), 16);
        assert!(ctx.dist().sizes()[0] >= 9, "sizes {:?}", ctx.dist().sizes());
    }

    #[test]
    fn zero_work_observations_are_not_absorbed() {
        use crate::trace::{MemorySink, TraceEvent};
        use std::sync::Arc;

        // Regression: `balance_iterate` reports idle ranks as
        // `(0, 0.0)` placeholder points. `absorb` used to feed those
        // into `model.update` anyway — a wasted refresh and a spurious
        // ModelUpdate trace event per idle rank per step, and outright
        // model pollution for `Model` impls that accept d == 0.
        let sink = Arc::new(MemorySink::new());
        let models: Vec<Box<dyn Model>> = (0..2)
            .map(|_| Box::new(PiecewiseModel::new()) as Box<dyn Model>)
            .collect();
        let mut ctx = DynamicContext::new(
            Box::new(GeometricPartitioner::default()),
            models,
            10,
            0.05,
        )
        .with_trace(sink.clone());

        // Drive everything onto process 0, then keep iterating with an
        // idle process 1.
        ctx.balance_iterate(&[0.0001, 1.0]).unwrap();
        for _ in 0..10 {
            if ctx.dist().sizes()[1] == 0 {
                break;
            }
            let times: Vec<f64> = ctx
                .dist()
                .sizes()
                .iter()
                .map(|&d| d as f64 * if d > 5 { 0.0001 } else { 1.0 })
                .collect();
            ctx.balance_iterate(&times).unwrap();
        }
        assert_eq!(ctx.dist().sizes(), vec![10, 0], "setup failed");
        sink.take(); // discard setup events

        let points_before = ctx.models()[1].points().len();
        ctx.balance_iterate(&[0.001, 0.0]).unwrap();

        // The idle rank gained no model point and produced no
        // ModelUpdate event; the active rank still traced one.
        assert_eq!(ctx.models()[1].points().len(), points_before);
        let update_ranks: Vec<usize> = sink
            .take()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ModelUpdate { rank, d, .. } => {
                    assert!(*d > 0, "zero-size update traced for rank {rank}");
                    Some(*rank)
                }
                _ => None,
            })
            .collect();
        assert_eq!(update_ranks, vec![0]);
    }

    #[test]
    fn deactivated_rank_is_rebalanced_away() {
        let mut ctx = context(1000, 0.05, 3);
        let measure = |rank: usize, d: u64| -> Result<Point, CoreError> {
            let s = [100.0, 100.0, 50.0][rank];
            Ok(Point::single(d, d as f64 / s))
        };
        ctx.run_to_balance(measure, 20).unwrap();
        assert!(ctx.dist().sizes().iter().all(|&d| d > 0));
        assert_eq!(ctx.active(), &[true, true, true]);

        // Rank 1 dies: its share must flow to the survivors.
        ctx.deactivate(1);
        ctx.deactivate(1); // idempotent
        ctx.deactivate(99); // out of range: ignored
        assert_eq!(ctx.active(), &[true, false, true]);
        let step = ctx.partition_iterate(measure).unwrap();
        let sizes = ctx.dist().sizes();
        assert_eq!(sizes[1], 0, "dead rank keeps units: {sizes:?}");
        assert_eq!(sizes.iter().sum::<u64>(), 1000);
        assert!(sizes[0] > sizes[2], "2:1 speeds among survivors");
        // The dead rank contributed a skip-placeholder observation.
        assert_eq!(step.observed[1].d, 0);
    }

    #[test]
    fn all_ranks_dead_is_an_error() {
        let mut ctx = context(100, 0.05, 2);
        ctx.deactivate(0);
        ctx.deactivate(1);
        let err = ctx
            .partition_iterate(|_, d| Ok(Point::single(d, 1.0)))
            .unwrap_err();
        assert!(matches!(err, CoreError::Partition(_)));
    }

    #[test]
    fn absorb_observed_matches_partition_iterate() {
        // The distributed executor's entry point must replay the exact
        // serial semantics: same observations in, same distribution out.
        let mut serial = context(1000, 0.05, 2);
        let mut distributed = context(1000, 0.05, 2);
        let mut measure = measure_two(100.0, 25.0);
        for _ in 0..5 {
            let sizes = distributed.dist().sizes();
            let s = serial.partition_iterate(&mut measure).unwrap();
            let observed: Vec<Point> = sizes
                .iter()
                .enumerate()
                .map(|(r, &d)| measure(r, d.max(1)).unwrap())
                .collect();
            let d = distributed.absorb_observed(observed).unwrap();
            assert_eq!(s, d);
            assert_eq!(serial.dist().sizes(), distributed.dist().sizes());
            if s.converged {
                break;
            }
        }
    }

    #[test]
    #[should_panic(expected = "one time per process")]
    fn balance_iterate_checks_arity() {
        let mut ctx = context(100, 0.05, 3);
        let _ = ctx.balance_iterate(&[1.0, 2.0]);
    }

    #[test]
    fn single_process_is_balanced_by_definition() {
        // Regression: one process means nothing to balance against —
        // imbalance must be exactly 0.0 (not NaN from a degenerate
        // spread) and the loop converged on the first step.
        let mut ctx = context(100, 0.05, 1);
        let step = ctx
            .partition_iterate(|_, d| Ok(Point::single(d, d as f64 / 10.0)))
            .unwrap();
        assert_eq!(step.imbalance, 0.0);
        assert!(step.converged);
        assert_eq!(ctx.dist().sizes(), vec![100]);
    }

    #[test]
    fn lone_active_process_reports_zero_imbalance() {
        // Regression: once every unit lives on one process, the other
        // contributes no observation — the single remaining time used
        // to feed `(max - min)/max` with min = max. Must be 0.0 and
        // converged, never NaN.
        let mut ctx = context(10, 0.05, 2);
        // Process 1 is ~10000x slower: everything migrates to 0.
        ctx.balance_iterate(&[0.0001, 1.0]).unwrap();
        for _ in 0..10 {
            if ctx.dist().sizes()[1] == 0 {
                break;
            }
            let times: Vec<f64> = ctx
                .dist()
                .sizes()
                .iter()
                .map(|&d| d as f64 * if d > 5 { 0.0001 } else { 1.0 })
                .collect();
            ctx.balance_iterate(&times).unwrap();
        }
        assert_eq!(ctx.dist().sizes(), vec![10, 0], "setup failed");
        let step = ctx.balance_iterate(&[0.001, 0.0]).unwrap();
        assert_eq!(step.imbalance, 0.0);
        assert!(step.imbalance.is_finite());
        assert!(step.converged);
    }

    #[test]
    fn dynamic_loop_emits_trace_events() {
        use crate::trace::{MemorySink, TraceEvent};
        use std::sync::Arc;

        let sink = Arc::new(MemorySink::new());
        let models: Vec<Box<dyn Model>> = (0..2)
            .map(|_| Box::new(PiecewiseModel::new()) as Box<dyn Model>)
            .collect();
        let mut ctx = DynamicContext::new(
            Box::new(GeometricPartitioner::default()),
            models,
            1000,
            0.05,
        )
        .with_trace(sink.clone());
        let steps = ctx.run_to_balance(measure_two(100.0, 25.0), 20).unwrap();

        let events = sink.take();
        let updates = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ModelUpdate { .. }))
            .count();
        let partitions: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::PartitionStep {
                    iter,
                    dist,
                    imbalance,
                    units_moved,
                } => Some((*iter, dist.clone(), *imbalance, *units_moved)),
                _ => None,
            })
            .collect();
        // One ModelUpdate per process per step, one PartitionStep per
        // step, exactly one DynamicConverged at the end.
        assert_eq!(updates, 2 * steps.len());
        assert_eq!(partitions.len(), steps.len());
        for (i, (step, part)) in steps.iter().zip(&partitions).enumerate() {
            assert_eq!(part.0, i as u64 + 1, "iter numbering");
            assert_eq!(part.2, step.imbalance);
            assert_eq!(part.3, step.units_moved);
        }
        let converged: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::DynamicConverged { .. }))
            .collect();
        assert_eq!(converged.len(), 1);
        if let TraceEvent::DynamicConverged { steps: n, .. } = converged[0] {
            assert_eq!(*n, steps.len() as u64);
        }
        assert_eq!(ctx.iterations(), steps.len() as u64);
    }
}
