//! The distributed dynamic-balancing executor: the paper's
//! `fupermod_dynamic` loop re-implemented as N communicating rank
//! closures.
//!
//! Each iteration follows the paper's *partition → measure →
//! rebalance* cycle, but the measurement happens **on the ranks**:
//!
//! 1. rank 0 `scatterv`s the current distribution (each rank learns
//!    its share),
//! 2. every rank benchmarks its own share locally (the `measure`
//!    closure),
//! 3. the measured [`Point`]s are gathered onto rank 0
//!    ([`Communicator::gather_available`], so a dead rank yields a
//!    gap instead of an error),
//! 4. rank 0 absorbs the observations into the partial models
//!    ([`DynamicContext::absorb_observed`]), re-partitions, and
//!    `scatterv`s the new shares plus a broadcast convergence flag.
//!
//! On a fault-free plan this is **observation-for-observation
//! identical** to the serial [`DynamicContext::run_to_balance`]: the
//! same model points are absorbed in the same rank order, so the
//! final [`Distribution`](fupermod_core::partition::Distribution) is
//! bit-identical (verified by an integration test). Under faults the
//! loop degrades gracefully: a straggler's inflated times shift load
//! away from it, and a dead rank is deactivated
//! ([`DynamicContext::deactivate`]) so its share is repartitioned
//! across the survivors, with `fault` trace events documenting every
//! injection.

use std::sync::Mutex;

use fupermod_core::dynamic::{DynamicContext, DynamicStep};
use fupermod_core::trace::TraceEvent;
use fupermod_core::{CoreError, Point};

use crate::comm::request::{RecvRequest, Request};
use crate::comm::{run_ranks, Communicator, RuntimeConfig, ThreadedComm};
use crate::error::RuntimeError;

/// How the balancing loop's redistribution phase communicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverlapMode {
    /// Blocking collectives: `scatterv` the shares, `gather_available`
    /// the measurements, `bcast` the convergence flag — three closing
    /// barriers per iteration.
    #[default]
    Blocking,
    /// Nonblocking requests: rank 0 posts `irecv`s for the workers'
    /// measurements *before* measuring its own share (their points
    /// arrive while it computes) and pushes refined shares with
    /// `isend` — redistribution stays in flight under rank 0's own
    /// measurement, and no iteration crosses a barrier. On fault-free
    /// plans the absorbed observations are identical to
    /// [`OverlapMode::Blocking`] point for point, so the steps and the
    /// final distribution are bit-identical.
    Overlapped,
}

/// Result of a distributed balancing run.
#[derive(Debug)]
pub struct BalanceOutcome {
    /// One entry per dynamic iteration, as produced on rank 0 —
    /// identical to the serial loop's steps on a fault-free plan.
    pub steps: Vec<DynamicStep>,
    /// The final distribution's sizes (rank 0's view).
    pub final_sizes: Vec<u64>,
    /// Ranks that died during the run, ascending.
    pub dead_ranks: Vec<usize>,
    /// Per-rank terminal errors (`None` for ranks that finished
    /// cleanly). Dead and timed-out ranks record their fail-stop
    /// error here.
    pub rank_errors: Vec<Option<RuntimeError>>,
    /// Virtual makespan of the run on the sim backend (`None` on the
    /// threaded backend) — the deterministic cost the overlap
    /// benchmarks compare across [`OverlapMode`]s.
    pub virtual_time: Option<f64>,
}

impl BalanceOutcome {
    /// Whether the final step reached the balance tolerance.
    pub fn converged(&self) -> bool {
        self.steps.last().is_some_and(|s| s.converged)
    }
}

pub(crate) fn app_err(e: CoreError) -> RuntimeError {
    RuntimeError::App(e.to_string())
}

/// Runs the dynamic partitioning loop distributed over `size` ranks.
///
/// * `config` selects the backend (thread or sim), fault plan, and
///   trace sink.
/// * `make_ctx` builds the [`DynamicContext`] — it is invoked once,
///   on rank 0's thread (partial models and the partitioner live
///   only there, exactly like the paper's root process).
/// * `measure(rank, d)` benchmarks `d` units on `rank`; it runs
///   concurrently on the rank threads and must be deterministic per
///   `(rank, d)` for reproducible runs.
/// * `max_steps` bounds the number of iterations.
///
/// # Errors
///
/// Returns rank 0's failure, if any: measurement/model errors
/// ([`RuntimeError::App`]) or communication failures. Non-root rank
/// failures are reported in [`BalanceOutcome::rank_errors`].
///
/// # Panics
///
/// Panics if the context built by `make_ctx` does not have `size`
/// processes, or if a rank thread panics.
pub fn run_to_balance_distributed<F, M>(
    config: RuntimeConfig,
    size: usize,
    make_ctx: F,
    measure: M,
    max_steps: usize,
) -> Result<BalanceOutcome, RuntimeError>
where
    F: FnOnce() -> DynamicContext + Send,
    M: Fn(usize, u64) -> Result<Point, CoreError> + Sync,
{
    run_to_balance_distributed_with(config, size, make_ctx, measure, max_steps, OverlapMode::default())
}

/// [`run_to_balance_distributed`] with an explicit [`OverlapMode`]:
/// `Blocking` is the collective path, `Overlapped` pipelines the
/// measurement gathers and share redistribution with nonblocking
/// requests. Both modes produce bit-identical steps and final sizes
/// on fault-free plans.
///
/// # Errors
///
/// Exactly those of [`run_to_balance_distributed`].
///
/// # Panics
///
/// Exactly those of [`run_to_balance_distributed`].
pub fn run_to_balance_distributed_with<F, M>(
    config: RuntimeConfig,
    size: usize,
    make_ctx: F,
    measure: M,
    max_steps: usize,
    mode: OverlapMode,
) -> Result<BalanceOutcome, RuntimeError>
where
    F: FnOnce() -> DynamicContext + Send,
    M: Fn(usize, u64) -> Result<Point, CoreError> + Sync,
{
    if config.engine() == crate::sim::SimEngine::Event {
        // The event engine runs the same per-rank programs as
        // resumable state machines on one thread — no rank threads,
        // no comms to build.
        return crate::sim::balance::run_event_balance(
            &config, size, make_ctx, measure, max_steps, mode,
        );
    }
    let plan = config.plan_ref().clone();
    let sink = config.sink_ref().clone();
    let (comms, handle) = config.build_with_handle(size);
    // `make_ctx` is FnOnce but the rank closure is shared: rank 0
    // takes it out of the slot.
    let ctx_slot = Mutex::new(Some(make_ctx));

    let results = run_ranks(comms, |mut comm: ThreadedComm| {
        let rank = comm.rank();
        let factor = plan.straggler_factor(rank);
        let ctx = (rank == 0).then(|| {
            let make = ctx_slot
                .lock()
                .expect("ctx slot poisoned")
                .take()
                .expect("make_ctx taken once");
            make()
        });
        run_balance_rank(&mut comm, ctx, &measure, max_steps, mode, factor, &sink)
            .map(|r| r.unwrap_or_default())
    });

    let mut rank_errors: Vec<Option<RuntimeError>> = Vec::with_capacity(size);
    let mut root_result: Option<(Vec<DynamicStep>, Vec<u64>)> = None;
    for (rank, result) in results.into_iter().enumerate() {
        match result {
            Ok(payload) => {
                if rank == 0 {
                    root_result = Some(payload);
                }
                rank_errors.push(None);
            }
            Err(e) => {
                if rank == 0 {
                    return Err(e);
                }
                rank_errors.push(Some(e));
            }
        }
    }
    let (steps, final_sizes) = root_result.expect("rank 0 returned Ok");
    Ok(BalanceOutcome {
        steps,
        final_sizes,
        dead_ranks: handle.dead_ranks(),
        rank_errors,
        virtual_time: handle.virtual_time(),
    })
}

/// One rank's whole side of the distributed balancing loop — the
/// per-rank entry point shared by [`run_to_balance_distributed_with`]
/// (which multiplexes all ranks as threads of this process) and the
/// multi-process TCP path (where each OS process drives exactly one
/// rank over [`crate::net::connect`] and calls this directly).
///
/// * `ctx` must be `Some` exactly on rank 0 (the models and the
///   partitioner live only there); workers pass `None`.
/// * `straggler_factor` is this rank's compute inflation
///   ([`crate::fault::FaultPlan::straggler_factor`]) — under TCP each
///   process evaluates its own plan, so the factor is passed in
///   rather than read from a shared plan.
///
/// Returns `Some((steps, final_sizes))` on rank 0, `None` on workers.
///
/// # Errors
///
/// This rank's failure: measurement/model errors
/// ([`RuntimeError::App`]) or communication failures.
///
/// # Panics
///
/// Panics if `ctx` presence does not match the rank, or if rank 0's
/// context does not have `comm.size()` processes.
#[allow(clippy::type_complexity)]
pub fn run_balance_rank<M>(
    comm: &mut ThreadedComm,
    ctx: Option<DynamicContext>,
    measure: &M,
    max_steps: usize,
    mode: OverlapMode,
    straggler_factor: f64,
    sink: &std::sync::Arc<dyn fupermod_core::trace::TraceSink>,
) -> Result<Option<(Vec<DynamicStep>, Vec<u64>)>, RuntimeError>
where
    M: Fn(usize, u64) -> Result<Point, CoreError> + Sync,
{
    let rank = comm.rank();
    let size = comm.size();
    if rank == 0 {
        // Route the context's partition_step/dynamic_converged events
        // into the run's trace sink, so a traced distributed run
        // records its full dynamic history (the report tool rebuilds
        // the imbalance table from it).
        let mut ctx = ctx.expect("rank 0 owns the context").with_trace(sink.clone());
        assert_eq!(
            ctx.dist().sizes().len(),
            size,
            "context size must match communicator size"
        );
        match mode {
            OverlapMode::Blocking => {
                root_loop(comm, &mut ctx, measure, straggler_factor, max_steps, sink)
            }
            OverlapMode::Overlapped => {
                root_loop_overlapped(comm, &mut ctx, measure, straggler_factor, max_steps, sink)
            }
        }
        .map(|steps| Some((steps, ctx.dist().sizes())))
    } else {
        assert!(ctx.is_none(), "only rank 0 owns the context");
        match mode {
            OverlapMode::Blocking => {
                worker_loop(comm, measure, straggler_factor, max_steps, sink)
            }
            OverlapMode::Overlapped => {
                worker_loop_overlapped(comm, measure, straggler_factor, max_steps, sink)
            }
        }
        .map(|()| None)
    }
}

/// Measures `rank`'s share, applying the straggler compute factor.
/// Shared with the event engine's balancing loop ([`crate::sim`]).
pub(crate) fn measure_share<M>(
    rank: usize,
    d: u64,
    measure: &M,
    factor: f64,
    sink: &std::sync::Arc<dyn fupermod_core::trace::TraceSink>,
) -> Result<Point, RuntimeError>
where
    M: Fn(usize, u64) -> Result<Point, CoreError>,
{
    let mut point = measure(rank, d.max(1)).map_err(app_err)?;
    if factor != 1.0 {
        let extra = point.t * (factor - 1.0);
        point.t *= factor;
        fupermod_core::telemetry::record_fault("straggler");
        sink.record(&TraceEvent::Fault {
            rank,
            kind: "straggler".to_owned(),
            peer: -1,
            attempt: 0,
            seconds: extra,
        });
    }
    Ok(point)
}

/// Turns one gathered slot into the observation rank 0 absorbs. A
/// dead rank (`None`) is deactivated the first time it is seen — its
/// load repartitioned across the survivors, with a `degraded` fault
/// event on rank 0 — and contributes an empty point from then on.
pub(crate) fn observation(
    ctx: &mut DynamicContext,
    rank: usize,
    slot: Option<Point>,
    sink: &std::sync::Arc<dyn fupermod_core::trace::TraceSink>,
) -> Point {
    slot.unwrap_or_else(|| {
        if ctx.active()[rank] {
            ctx.deactivate(rank);
            fupermod_core::telemetry::record_fault("degraded");
            sink.record(&TraceEvent::Fault {
                rank: 0,
                kind: "degraded".to_owned(),
                peer: rank as i64,
                attempt: 0,
                seconds: 0.0,
            });
        }
        Point::single(0, 0.0)
    })
}

/// The `[share, converged]` message the overlapped loops push to a
/// worker.
pub(crate) fn encode_share(share: u64, converged: bool) -> Vec<u64> {
    vec![share, u64::from(converged)]
}

/// Decodes an [`encode_share`] message.
pub(crate) fn decode_share(msg: &[u64]) -> Result<(u64, bool), RuntimeError> {
    match msg {
        [share, converged] => Ok((*share, *converged != 0)),
        _ => Err(RuntimeError::Decode {
            what: "share",
            detail: format!("share message has {} words, expected 2", msg.len()),
        }),
    }
}

fn root_loop<M>(
    comm: &mut ThreadedComm,
    ctx: &mut DynamicContext,
    measure: &M,
    factor: f64,
    max_steps: usize,
    sink: &std::sync::Arc<dyn fupermod_core::trace::TraceSink>,
) -> Result<Vec<DynamicStep>, RuntimeError>
where
    M: Fn(usize, u64) -> Result<Point, CoreError> + Sync,
{
    let mut steps = Vec::new();
    // Distribute the initial shares.
    let mut my_d = comm.scatterv(0, Some(&ctx.dist().sizes()))?;
    for _ in 0..max_steps {
        let point = measure_share(comm.rank(), my_d, measure, factor, sink)?;
        let gathered = comm
            .gather_available(0, &point)?
            .expect("root receives the gather");
        let observed = gathered
            .into_iter()
            .enumerate()
            .map(|(rank, slot)| observation(ctx, rank, slot, sink))
            .collect();
        let step = ctx.absorb_observed(observed).map_err(app_err)?;
        let converged = step.converged;
        steps.push(step);
        my_d = comm.scatterv(0, Some(&ctx.dist().sizes()))?;
        comm.bcast(0, Some(&converged))?;
        if converged {
            break;
        }
    }
    Ok(steps)
}

fn worker_loop<M>(
    comm: &mut ThreadedComm,
    measure: &M,
    factor: f64,
    max_steps: usize,
    sink: &std::sync::Arc<dyn fupermod_core::trace::TraceSink>,
) -> Result<(), RuntimeError>
where
    M: Fn(usize, u64) -> Result<Point, CoreError> + Sync,
{
    let mut my_d = comm.scatterv::<u64>(0, None)?;
    for _ in 0..max_steps {
        let point = measure_share(comm.rank(), my_d, measure, factor, sink)?;
        comm.gather_available(0, &point)?;
        my_d = comm.scatterv::<u64>(0, None)?;
        let converged = comm.bcast::<bool>(0, None)?;
        if converged {
            break;
        }
    }
    Ok(())
}

/// Sends `[share, converged]` to a worker, tolerating its death (the
/// survivors keep balancing over the remaining ranks).
fn send_share_tolerant(
    comm: &ThreadedComm,
    dst: usize,
    share: u64,
    converged: bool,
) -> Result<(), RuntimeError> {
    match comm.isend(dst, &encode_share(share, converged)) {
        Ok(req) => req.wait(),
        Err(RuntimeError::RankDead { rank, .. }) if rank == dst => Ok(()),
        Err(e) => Err(e),
    }
}

/// Overlapped root loop: shares go out as eager `isend`s (no closing
/// barrier), and the `irecv`s for the workers' next measurements are
/// posted *before* rank 0 measures its own share, so the workers'
/// points — and any fault-injected delivery latency on them — are in
/// flight under rank 0's compute. Observations are absorbed in the
/// same ascending rank order as the blocking gather.
fn root_loop_overlapped<M>(
    comm: &ThreadedComm,
    ctx: &mut DynamicContext,
    measure: &M,
    factor: f64,
    max_steps: usize,
    sink: &std::sync::Arc<dyn fupermod_core::trace::TraceSink>,
) -> Result<Vec<DynamicStep>, RuntimeError>
where
    M: Fn(usize, u64) -> Result<Point, CoreError> + Sync,
{
    let size = comm.size();
    let mut steps = Vec::new();
    // Distribute the initial shares.
    let sizes = ctx.dist().sizes();
    let mut my_d = sizes[0];
    for (dst, &share) in sizes.iter().enumerate().skip(1) {
        send_share_tolerant(comm, dst, share, false)?;
    }
    for _ in 0..max_steps {
        // Post the measurement receives first: worker points arrive
        // while rank 0 measures.
        let mut pending: Vec<Option<RecvRequest<'_, Point>>> = Vec::with_capacity(size - 1);
        for src in 1..size {
            match comm.irecv::<Point>(src) {
                Ok(req) => pending.push(Some(req)),
                Err(RuntimeError::RankDead { rank, .. }) if rank == src => pending.push(None),
                Err(e) => return Err(e),
            }
        }
        let own = measure_share(comm.rank(), my_d, measure, factor, sink)?;
        let mut observed = Vec::with_capacity(size);
        observed.push(own);
        for (i, req) in pending.into_iter().enumerate() {
            let src = i + 1;
            let slot = match req {
                None => None,
                Some(req) => match req.wait() {
                    Ok(point) => Some(point),
                    Err(RuntimeError::RankDead { rank, .. }) if rank == src => None,
                    Err(e) => return Err(e),
                },
            };
            observed.push(observation(ctx, src, slot, sink));
        }
        let step = ctx.absorb_observed(observed).map_err(app_err)?;
        let converged = step.converged;
        steps.push(step);
        let sizes = ctx.dist().sizes();
        my_d = sizes[0];
        for (dst, &share) in sizes.iter().enumerate().skip(1) {
            send_share_tolerant(comm, dst, share, converged)?;
        }
        if converged {
            break;
        }
    }
    Ok(steps)
}

/// Overlapped worker loop: receives `[share, converged]` messages and
/// pushes measurements back with eager `isend`s — no barrier crossing.
fn worker_loop_overlapped<M>(
    comm: &ThreadedComm,
    measure: &M,
    factor: f64,
    max_steps: usize,
    sink: &std::sync::Arc<dyn fupermod_core::trace::TraceSink>,
) -> Result<(), RuntimeError>
where
    M: Fn(usize, u64) -> Result<Point, CoreError> + Sync,
{
    let (mut my_d, _) = decode_share(&comm.irecv::<Vec<u64>>(0)?.wait()?)?;
    for _ in 0..max_steps {
        let point = measure_share(comm.rank(), my_d, measure, factor, sink)?;
        comm.isend(0, &point)?.wait()?;
        let (d, converged) = decode_share(&comm.irecv::<Vec<u64>>(0)?.wait()?)?;
        my_d = d;
        if converged {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fupermod_core::model::{Model, PiecewiseModel};
    use fupermod_core::partition::GeometricPartitioner;

    fn make_ctx(total: u64, eps: f64, size: usize) -> DynamicContext {
        let models: Vec<Box<dyn Model>> = (0..size)
            .map(|_| Box::new(PiecewiseModel::new()) as Box<dyn Model>)
            .collect();
        DynamicContext::new(Box::new(GeometricPartitioner::default()), models, total, eps)
    }

    fn measure(rank: usize, d: u64) -> Result<Point, CoreError> {
        let speed = [100.0, 25.0, 50.0][rank];
        Ok(Point::single(d, d as f64 / speed))
    }

    #[test]
    fn distributed_loop_balances_a_three_rank_platform() {
        let outcome = run_to_balance_distributed(
            RuntimeConfig::thread(),
            3,
            || make_ctx(700, 0.05, 3),
            measure,
            20,
        )
        .unwrap();
        assert!(outcome.converged());
        assert!(outcome.dead_ranks.is_empty());
        assert!(outcome.rank_errors.iter().all(Option::is_none));
        // 4:1:2 speeds over 700 units → 400/100/200.
        assert_eq!(outcome.final_sizes, vec![400, 100, 200]);
    }
}
