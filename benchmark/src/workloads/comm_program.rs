//! The two communication programs of `tcp_bulk` and `tcp_rounds`,
//! written once over [`Communicator`] so the very same code runs on
//! TCP (the workload), on threads (the reference the TCP outputs must
//! equal, and the `runtime.comm` baseline) and on the simulated
//! backend (`virtual_s`).

use std::time::Instant;

use fupermod_runtime::{
    run_ranks, Communicator, ReduceOp, RuntimeConfig, RuntimeError, ThreadedComm,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::Fnv;
use crate::stats::median;
use crate::tracer::Scope;

pub const RANKS: usize = 2;
/// Matmul pivot pattern at bandwidth-bound size.
pub const BULK_BCASTS: usize = 48;
pub const PANEL_F64: usize = (2 << 20) / 8;
/// Balancing-style rounds at latency-bound size.
pub const ROUNDS: usize = 3000;
pub const SHARE_F64: usize = 512 / 8;
pub const CONTRIB_F64: usize = 64 / 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Bulk,
    Rounds,
}

/// Seeded payloads; every rank holds all of them, so a receiver can
/// compare what arrived against what the root must have sent.
#[derive(Debug)]
pub struct Inputs {
    pub shape: Shape,
    /// `panels[r]` is what rank `r` broadcasts when it is root.
    pub panels: [Vec<f64>; RANKS],
    pub share: Vec<f64>,
    pub contribs: [Vec<f64>; RANKS],
}

impl Inputs {
    pub fn generate(shape: Shape, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0_11ec_71fe);
        let mut vec = |n: usize| -> Vec<f64> { (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect() };
        let panel_len = if shape == Shape::Bulk { PANEL_F64 } else { 0 };
        Self {
            shape,
            panels: [vec(panel_len), vec(panel_len)],
            share: vec(SHARE_F64),
            contribs: [vec(CONTRIB_F64), vec(CONTRIB_F64)],
        }
    }
}

/// What one rank saw: enough to compare two backends bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Seen {
    /// Received payloads that equalled the seeded data.
    pub payloads_ok: u64,
    pub payloads: u64,
    /// Hash over every reduction result's bits, in order.
    pub reductions: u64,
}

/// Runs the program of `inputs.shape` on rank `c.rank()`. Every
/// collective is one `layer` span; unit-op latencies (one bcast, or
/// one whole round) go to `op_us`.
pub fn run<C: Communicator>(
    c: &mut C,
    inputs: &Inputs,
    layer: &'static str,
    scope: &mut Scope<'_>,
    op_us: &mut Vec<f64>,
) -> Result<Seen, RuntimeError> {
    let rank = c.rank();
    let mut seen = Seen::default();
    let mut reductions = Fnv::default();
    match inputs.shape {
        Shape::Bulk => {
            for k in 0..BULK_BCASTS {
                let root = k % RANKS;
                let t0 = Instant::now();
                let got: Vec<f64> = scope.span(layer, |_| {
                    c.bcast(root, (rank == root).then_some(&inputs.panels[root]))
                })?;
                op_us.push(t0.elapsed().as_secs_f64() * 1e6);
                scope.span("bench.check", |_| {
                    seen.payloads += 1;
                    seen.payloads_ok += u64::from(got == inputs.panels[root]);
                });
            }
            let sum = scope.span(layer, |_| {
                c.allreduce(inputs.panels[rank][0], ReduceOp::Sum)
            })?;
            reductions.f64(sum);
        }
        Shape::Rounds => {
            for _ in 0..ROUNDS {
                let t0 = Instant::now();
                let Round { share, all, sum } = round(c, inputs, layer, scope)?;
                op_us.push(t0.elapsed().as_secs_f64() * 1e6);
                seen.payloads += 1 + RANKS as u64;
                seen.payloads_ok += u64::from(share == inputs.share)
                    + all
                        .iter()
                        .zip(&inputs.contribs)
                        .filter(|(a, b)| a == b)
                        .count() as u64;
                reductions.f64(sum);
            }
        }
    }
    seen.reductions = reductions.0;
    Ok(seen)
}

/// What one rank received in one round.
pub struct Round {
    pub share: Vec<f64>,
    pub all: Vec<Vec<f64>>,
    pub sum: f64,
}

/// One balancing-style round: share a root vector, gather everyone's
/// contribution, agree on a sum.
pub fn round<C: Communicator>(
    c: &mut C,
    inputs: &Inputs,
    layer: &'static str,
    scope: &mut Scope<'_>,
) -> Result<Round, RuntimeError> {
    let rank = c.rank();
    let share: Vec<f64> =
        scope.span(layer, |_| c.bcast(0, (rank == 0).then_some(&inputs.share)))?;
    let all = scope.span(layer, |_| c.allgatherv(&inputs.contribs[rank]))?;
    let sum = scope.span(layer, |_| {
        c.allreduce(share[0] + all[RANKS - 1 - rank][0], ReduceOp::Sum)
    })?;
    Ok(Round { share, all, sum })
}

const PROBE_OPS: usize = 200;

/// Median microseconds of `op` over a counted loop on one rank, after
/// an aligning barrier. `op` gets the iteration index.
pub fn timed_ops<C: Communicator>(
    c: &mut C,
    op: impl Fn(&mut C, usize) -> Result<(), RuntimeError>,
) -> Result<f64, RuntimeError> {
    c.barrier()?;
    let mut us = Vec::with_capacity(PROBE_OPS);
    for i in 0..PROBE_OPS {
        let t0 = Instant::now();
        op(c, i)?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&us))
}

/// Rank 0's median microseconds of `op` on two threaded ranks — the
/// in-process data plane a TCP number is read against.
pub fn threaded_op_us(
    op: impl Fn(&mut ThreadedComm, usize) -> Result<(), RuntimeError> + Sync,
) -> f64 {
    let comms = RuntimeConfig::thread().build(RANKS);
    let mut results = run_ranks(comms, |mut c| timed_ops(&mut c, &op));
    results.swap_remove(0).expect("threaded probe")
}

/// One 8-byte round trip between the two ranks.
pub fn ping_pong<C: Communicator>(c: &mut C, _: usize) -> Result<(), RuntimeError> {
    if c.rank() == 0 {
        c.send(1, &0.5f64)?;
        c.recv::<f64>(1).map(drop)
    } else {
        let token: f64 = c.recv(0)?;
        c.send(0, &token)
    }
}

/// Data frames rank 0 sends plus receives in one pass under the
/// default (hub) schedules on two ranks, and the payload bytes in
/// them — computed from the schedule, not measured.
pub fn frames_and_bytes(shape: Shape) -> (u64, u64) {
    use fupermod_runtime::collective::encoded_slots_len;
    let vec_bytes = |n: usize| 8 + 8 * n as u64;
    // allreduce: the leaf's value up, the fold back down.
    let allreduce = (2u64, 8 + 8);
    match shape {
        Shape::Bulk => (
            BULK_BCASTS as u64 + allreduce.0,
            BULK_BCASTS as u64 * vec_bytes(PANEL_F64) + allreduce.1,
        ),
        Shape::Rounds => {
            let contrib = vec_bytes(CONTRIB_F64);
            // allgatherv: the leaf's slot up, the full slot vector down.
            let gather = contrib + encoded_slots_len(RANKS, &[contrib; RANKS]);
            (
                ROUNDS as u64 * (1 + 2 + allreduce.0),
                ROUNDS as u64 * (vec_bytes(SHARE_F64) + gather + allreduce.1),
            )
        }
    }
}
