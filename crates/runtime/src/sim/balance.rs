//! The distributed balancing loop on the event engine: the exact
//! program from [`crate::executor`] — *partition → measure →
//! rebalance* — re-expressed as lockstep per-rank state machines over
//! [`EventSim`] instead of N rank threads.
//!
//! Every phase runs all live ranks in ascending rank order (the
//! deterministic serialisation of the thread backend's racy
//! interleaving, see `docs/RUNTIME.md` §9), so on a fault-free plan
//! the absorbed observations, the [`DynamicStep`]s, the final sizes
//! and the per-rank virtual clocks are bit-identical to
//! [`crate::run_to_balance_distributed_with`] on the thread-backed
//! sim — and the loop scales to `10⁴`–`10⁶` ranks because a rank is a
//! few vector slots, not an OS thread.

use std::sync::Arc;

use fupermod_core::dynamic::{DynamicContext, DynamicStep};
use fupermod_core::trace::TraceSink;
use fupermod_core::{CoreError, Point};

use crate::error::RuntimeError;
use crate::executor::{
    app_err, decode_share, encode_share, measure_share, observation, BalanceOutcome, OverlapMode,
};
use crate::fault::FaultPlan;

use super::engine::{EventSim, RankResults, RecvTicket};

/// Runs the dynamic partitioning loop on the event engine.
///
/// The mirror of [`crate::run_to_balance_distributed_with`] for
/// [`crate::SimEngine::Event`]: same arguments, same
/// [`BalanceOutcome`], same error contract — rank 0's failure is
/// returned, non-root failures land in
/// [`BalanceOutcome::rank_errors`].
///
/// # Errors
///
/// Rank 0's terminal error, or [`RuntimeError::App`] when `config`
/// is not the sim backend (the event engine has no wall clock to fall
/// back on).
///
/// # Panics
///
/// Panics if the context built by `make_ctx` does not have `size`
/// processes.
pub fn run_event_balance<F, M>(
    config: &crate::comm::RuntimeConfig,
    size: usize,
    make_ctx: F,
    measure: M,
    max_steps: usize,
    mode: OverlapMode,
) -> Result<BalanceOutcome, RuntimeError>
where
    F: FnOnce() -> DynamicContext,
    M: Fn(usize, u64) -> Result<Point, CoreError>,
{
    let plan = config.plan_ref().clone();
    let sink = config.sink_ref().clone();
    let mut sim = EventSim::from_config(config, size)?;
    let mut ctx = make_ctx().with_trace(sink.clone());
    assert_eq!(
        ctx.dist().sizes().len(),
        size,
        "context size must match communicator size"
    );
    let mut errors: Vec<Option<RuntimeError>> = (0..size).map(|_| None).collect();
    let steps = match mode {
        OverlapMode::Blocking => blocking_loop(
            &mut sim,
            &mut ctx,
            &measure,
            &plan,
            &sink,
            max_steps,
            &mut errors,
        ),
        OverlapMode::Overlapped => overlapped_loop(
            &mut sim,
            &mut ctx,
            &measure,
            &plan,
            &sink,
            max_steps,
            &mut errors,
        ),
    };
    if let Some(e) = errors[0].take() {
        return Err(e);
    }
    Ok(BalanceOutcome {
        steps,
        final_sizes: ctx.dist().sizes(),
        dead_ranks: sim.dead_ranks(),
        rank_errors: errors,
        virtual_time: Some(sim.max_time()),
    })
}

/// Folds a collective's per-rank outcomes: `Ok` payloads go to
/// `on_ok`, the first error each rank hits is kept (the engine has
/// already halted the erroring rank's program).
fn harvest<T>(
    res: RankResults<T>,
    mut on_ok: impl FnMut(usize, T),
    errors: &mut [Option<RuntimeError>],
) {
    for (rank, slot) in res.into_iter().enumerate() {
        match slot {
            None => {}
            Some(Ok(v)) => on_ok(rank, v),
            Some(Err(e)) => record(errors, rank, e),
        }
    }
}

fn record(errors: &mut [Option<RuntimeError>], rank: usize, e: RuntimeError) {
    if errors[rank].is_none() {
        errors[rank] = Some(e);
    }
}

/// Every live rank measures its share, ascending (straggler fault
/// events tick in rank order). A measurement failure halts that
/// rank's program, exactly as the rank closure returning `Err` does
/// on the thread backend.
fn measure_phase<M>(
    sim: &mut EventSim,
    measure: &M,
    plan: &FaultPlan,
    sink: &Arc<dyn TraceSink>,
    my_d: &[u64],
    errors: &mut [Option<RuntimeError>],
) -> Vec<Point>
where
    M: Fn(usize, u64) -> Result<Point, CoreError>,
{
    let mut points = Vec::with_capacity(my_d.len());
    for (rank, &d) in my_d.iter().enumerate() {
        if !sim.is_running(rank) {
            // Placeholder: a halted rank is not in any cohort, so its
            // slot is never read.
            points.push(Point::single(0, 0.0));
            continue;
        }
        match measure_share(rank, d, measure, plan.straggler_factor(rank), sink) {
            Ok(p) => points.push(p),
            Err(e) => {
                record(errors, rank, e);
                sim.halt(rank);
                points.push(Point::single(0, 0.0));
            }
        }
    }
    points
}

/// Rank 0 absorbs the gathered observations: dead ranks are
/// deactivated (their load repartitioned across survivors, with a
/// `degraded` fault event), then the context repartitions.
fn absorb_on_root(
    sim: &mut EventSim,
    ctx: &mut DynamicContext,
    slots: &[Option<Point>],
    sink: &Arc<dyn TraceSink>,
    steps: &mut Vec<DynamicStep>,
    errors: &mut [Option<RuntimeError>],
) -> bool {
    let observed = slots
        .iter()
        .enumerate()
        .map(|(rank, &slot)| observation(ctx, rank, slot, sink))
        .collect();
    match ctx.absorb_observed(observed) {
        Ok(step) => {
            let converged = step.converged;
            steps.push(step);
            converged
        }
        Err(e) => {
            record(errors, 0, app_err(e));
            sim.halt(0);
            false
        }
    }
}

/// The blocking loop: `scatterv` shares, measure, `gather_available`
/// onto rank 0, absorb, `scatterv` + `bcast` the convergence flag —
/// the collective sequence of the executor's `root_loop` and
/// `worker_loop`, run for all ranks at once.
fn blocking_loop<M>(
    sim: &mut EventSim,
    ctx: &mut DynamicContext,
    measure: &M,
    plan: &FaultPlan,
    sink: &Arc<dyn TraceSink>,
    max_steps: usize,
    errors: &mut [Option<RuntimeError>],
) -> Vec<DynamicStep>
where
    M: Fn(usize, u64) -> Result<Point, CoreError>,
{
    let size = sim.size();
    let mut steps = Vec::new();
    let mut my_d: Vec<u64> = vec![0; size];
    // Distribute the initial shares.
    let shares = ctx.dist().sizes();
    harvest(sim.scatterv(0, &shares), |r, d| my_d[r] = d, errors);
    for _ in 0..max_steps {
        if (0..size).all(|r| !sim.is_running(r)) {
            break;
        }
        let points = measure_phase(sim, measure, plan, sink, &my_d, errors);
        let mut gathered: Option<Arc<Vec<Option<Point>>>> = None;
        harvest(
            sim.gather_available(0, &points),
            |r, slots| {
                if r == 0 {
                    gathered = slots;
                }
            },
            errors,
        );
        let converged = match gathered {
            Some(slots) => absorb_on_root(sim, ctx, &slots, sink, &mut steps, errors),
            None => false,
        };
        // Redistribute and broadcast convergence — both run even on
        // the converged iteration, mirroring the thread loop.
        let shares = ctx.dist().sizes();
        harvest(sim.scatterv(0, &shares), |r, d| my_d[r] = d, errors);
        harvest(sim.bcast(0, &converged), |_, _| {}, errors);
        if converged {
            break;
        }
    }
    steps
}

/// Sends `[share, converged]` from rank 0 to a worker, tolerating its
/// death — the mirror of the executor's `send_share_tolerant`.
fn send_share_event(
    sim: &mut EventSim,
    dst: usize,
    share: u64,
    converged: bool,
) -> Result<(), RuntimeError> {
    match sim.isend(0, dst, &encode_share(share, converged)) {
        Ok(ticket) => {
            sim.isend_wait(ticket);
            Ok(())
        }
        Err(RuntimeError::RankDead { rank, .. }) if rank == dst => Ok(()),
        Err(e) => Err(e),
    }
}

/// Receives and decodes a `[share, converged]` message on a worker.
fn recv_share_event(sim: &mut EventSim, rank: usize) -> Result<(u64, bool), RuntimeError> {
    let ticket = sim.irecv_post(rank, 0)?;
    decode_share(&sim.irecv_wait::<Vec<u64>>(ticket)?)
}

/// The overlapped loop: rank 0 posts the measurement `irecv`s before
/// measuring its own share and pushes refined shares with eager
/// `isend`s; workers push points back with `isend` — the request
/// sequence of the executor's `root_loop_overlapped` and
/// `worker_loop_overlapped`. Phase order within an iteration (root
/// posts → measurements ascending → worker sends → root waits
/// ascending → absorb → share sends → worker receives) preserves the
/// thread backend's data dependencies; virtual-clock overlap comes
/// from the post-time snapshots, not from host concurrency.
fn overlapped_loop<M>(
    sim: &mut EventSim,
    ctx: &mut DynamicContext,
    measure: &M,
    plan: &FaultPlan,
    sink: &Arc<dyn TraceSink>,
    max_steps: usize,
    errors: &mut [Option<RuntimeError>],
) -> Vec<DynamicStep>
where
    M: Fn(usize, u64) -> Result<Point, CoreError>,
{
    let size = sim.size();
    let mut steps = Vec::new();
    let mut my_d: Vec<u64> = vec![0; size];
    // Distribute the initial shares.
    let sizes = ctx.dist().sizes();
    my_d[0] = sizes[0];
    for (dst, &share) in sizes.iter().enumerate().skip(1) {
        if !sim.is_running(0) {
            break;
        }
        if let Err(e) = send_share_event(sim, dst, share, false) {
            record(errors, 0, e);
            sim.halt(0);
        }
    }
    for (rank, slot) in my_d.iter_mut().enumerate().skip(1) {
        if !sim.is_running(rank) {
            continue;
        }
        match recv_share_event(sim, rank) {
            Ok((d, _)) => *slot = d,
            Err(e) => {
                record(errors, rank, e);
                sim.halt(rank);
            }
        }
    }
    for _ in 0..max_steps {
        if (0..size).all(|r| !sim.is_running(r)) {
            break;
        }
        // Rank 0 posts the measurement receives first: worker points
        // are in flight under its own measurement.
        let mut tickets: Vec<Option<RecvTicket>> = Vec::with_capacity(size.saturating_sub(1));
        for src in 1..size {
            if !sim.is_running(0) {
                tickets.push(None);
                continue;
            }
            match sim.irecv_post(0, src) {
                Ok(t) => tickets.push(Some(t)),
                Err(e) => {
                    record(errors, 0, e);
                    sim.halt(0);
                    tickets.push(None);
                }
            }
        }
        // Measurements, ascending rank order; workers push their
        // points to rank 0 as soon as they have them.
        let points = measure_phase(sim, measure, plan, sink, &my_d, errors);
        for (rank, point) in points.iter().enumerate().skip(1) {
            if !sim.is_running(rank) {
                continue;
            }
            let sent = sim
                .isend(rank, 0, point)
                .map(|ticket| sim.isend_wait(ticket));
            if let Err(e) = sent {
                record(errors, rank, e);
                sim.halt(rank);
            }
        }
        // Rank 0 completes its receives in ascending rank order — the
        // same order the blocking gather absorbs in.
        let mut slots: Vec<Option<Point>> = Vec::with_capacity(size);
        if sim.is_running(0) {
            slots.push(Some(points[0]));
        }
        for (i, ticket) in tickets.into_iter().enumerate() {
            if !sim.is_running(0) {
                break;
            }
            let src = i + 1;
            let slot = match ticket {
                None => None,
                Some(ticket) => match sim.irecv_wait::<Point>(ticket) {
                    Ok(point) => Some(point),
                    Err(RuntimeError::RankDead { rank, .. }) if rank == src => None,
                    Err(e) => {
                        record(errors, 0, e);
                        sim.halt(0);
                        break;
                    }
                },
            };
            slots.push(slot);
        }
        let converged = if sim.is_running(0) && slots.len() == size {
            absorb_on_root(sim, ctx, &slots, sink, &mut steps, errors)
        } else {
            false
        };
        // Push the refined shares (tolerating worker death), then the
        // workers pick them up.
        let sizes = ctx.dist().sizes();
        my_d[0] = sizes[0];
        for (dst, &share) in sizes.iter().enumerate().skip(1) {
            if !sim.is_running(0) {
                break;
            }
            if let Err(e) = send_share_event(sim, dst, share, converged) {
                record(errors, 0, e);
                sim.halt(0);
            }
        }
        for (rank, slot) in my_d.iter_mut().enumerate().skip(1) {
            if !sim.is_running(rank) {
                continue;
            }
            match recv_share_event(sim, rank) {
                Ok((d, _)) => *slot = d,
                Err(e) => {
                    record(errors, rank, e);
                    sim.halt(rank);
                }
            }
        }
        if converged {
            break;
        }
    }
    steps
}
