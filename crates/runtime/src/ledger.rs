//! The rank ledger: the per-rank state of an operation's lifecycle,
//! and the one definition of each rule over it.
//!
//! Every engine keeps the same books: who is dead, the membership the
//! last barrier generation agreed, Lamport clocks, op counts, the
//! generation counter, the fault-rule counters and the schedule charge
//! the collective in flight deposited. The threaded and TCP planes
//! hold a [`Ledger`] in their `PlaneState` and apply its rules under
//! the plane lock they already hold; the event engine holds one
//! outright. What an engine keeps beside it is only its own: condvars,
//! wall deadlines, sleeps and frames on the planes; the event count
//! and the cohort heap on the engine.
//!
//! The rules are op begin ([`Ledger::begin`]), the send verdict
//! ([`Ledger::send`]), delivery ([`Ledger::deliver`]), generation
//! close ([`Ledger::close_generation`]), the rank check
//! ([`check_rank`]) and the `fault` and `comm` trace events ([`fault`],
//! [`comm`]) with their metrics. A rule that injects latency traces
//! it and returns the seconds for the engine to charge on its own
//! clock (a virtual advance, or a wall sleep outside the lock).

use std::sync::Arc;

use fupermod_core::trace::{TraceEvent, TraceSink};
use fupermod_platform::comm::SimComm;

use crate::collective::Rounds;
use crate::error::RuntimeError;
use crate::fault::FaultPlan;

/// A collective's virtual-time charge, deposited during its data
/// phase by its root (or the lowest agreed-live rank) and applied when
/// its closing barrier generation completes, so the charges of a run
/// form one deterministic sequence.
pub(crate) enum Charge {
    /// The collective's hop schedule: the `(src, dst, bytes)` rounds
    /// the data phase ran, replayed through [`SimComm::schedule`] so
    /// the clocks pay the real per-hop, per-round cost of the chosen
    /// algorithm.
    Rounds(Vec<Vec<(usize, usize, f64)>>),
    /// Closed-form uniform ring from bit-identical clocks (the event
    /// engine's fast path, [`SimComm::charge_uniform_ring`]).
    UniformRing {
        /// Framed per-hop message size, bytes.
        bytes: f64,
        /// Number of ring rounds.
        rounds: usize,
    },
}

impl Charge {
    /// The charge of a pure [`crate::collective`] schedule.
    pub(crate) fn of(rounds: &Rounds) -> Self {
        Charge::Rounds(
            rounds
                .iter()
                .map(|r| r.iter().map(|&(s, d, b)| (s, d, b as f64)).collect())
                .collect(),
        )
    }

    /// Bills the charge to `sim`. With a `baseline` (a rank's clock
    /// when it posted the collective nonblocking) the hop plan starts
    /// there, so communication hidden under compute costs nothing.
    pub(crate) fn apply(self, sim: &mut SimComm, baseline: Option<&[f64]>) {
        match self {
            Charge::Rounds(rounds) => sim
                .schedule(baseline, &rounds)
                .expect("schedule hops use valid distinct ranks by construction"),
            Charge::UniformRing { bytes, rounds } => {
                debug_assert!(baseline.is_none(), "no overlap on the engine");
                sim.charge_uniform_ring(bytes, rounds);
            }
        }
    }
}

/// What [`Ledger::begin`] decided for one operation.
pub(crate) enum Begin {
    /// The operation runs: `gen` is the generation current at its
    /// start, and the rank is charged `straggle` seconds first.
    Run { gen: u64, straggle: f64 },
    /// The rank was dead already.
    Dead,
    /// The rank's scheduled death fires on this operation (traced):
    /// the engine marks it dead.
    Dies,
}

/// What [`Ledger::send`] decided for one attempt of a send.
pub(crate) enum Verdict {
    /// Deliver the message, stamped with the sender's Lamport clock
    /// and held `delay` injected seconds.
    Deliver { stamp: u64, delay: f64 },
    /// The attempt was dropped: charge the sender `backoff` seconds
    /// and try again.
    Retry { backoff: f64 },
    /// An endpoint is dead, or the drop rule exhausted its retries.
    Failed(RuntimeError),
}

/// The Hockney hop a point-to-point delivery pays itself: `bytes`
/// from `src`, or from `vready` on when an `isend` charged its sender
/// at post time. (A collective's edges are charged by its schedule.)
pub(crate) struct Hop {
    pub(crate) src: usize,
    pub(crate) bytes: usize,
    pub(crate) vready: Option<f64>,
}

/// The per-rank books of one communicator (see the module docs).
pub(crate) struct Ledger {
    pub(crate) plan: FaultPlan,
    pub(crate) sink: Arc<dyn TraceSink>,
    /// Fail-stop flags: a rank never comes back.
    pub(crate) dead: Vec<bool>,
    /// The membership recorded when the last generation closed,
    /// identical for every rank of the next one. Schedules are built
    /// over exactly this set, so a death that settled at a barrier
    /// re-shapes every schedule alike, while one landing mid-operation
    /// only degrades edges of the agreed structure.
    pub(crate) agreed_alive: Vec<bool>,
    /// Lamport clocks (schema v3): ticked by every op, merged at every
    /// delivery, joined at every closed generation — a
    /// schedule-independent function of the program's communication,
    /// identical on every engine.
    pub(crate) lamport: Vec<u64>,
    /// Closed barrier generations.
    pub(crate) generation: u64,
    /// Operations begun per rank: death rules count these.
    ops: Vec<u64>,
    /// One counter per drop rule and per delay rule of the plan.
    drop_counts: Vec<u64>,
    delay_counts: Vec<u64>,
    /// The charge of the collective in flight.
    pending_charge: Option<Charge>,
}

impl Ledger {
    /// The books of `size` fresh ranks under `plan`, tracing to `sink`.
    pub(crate) fn new(size: usize, plan: FaultPlan, sink: Arc<dyn TraceSink>) -> Self {
        Self {
            drop_counts: vec![0; plan.drops.len()],
            delay_counts: vec![0; plan.delays.len()],
            plan,
            sink,
            dead: vec![false; size],
            agreed_alive: vec![true; size],
            lamport: vec![0; size],
            generation: 0,
            ops: vec![0; size],
            pending_charge: None,
        }
    }

    /// Op begin: the self-death check, the op count, the Lamport tick
    /// (every operation is an event on its rank's clock), the
    /// scheduled death and the straggler latency.
    pub(crate) fn begin(&mut self, rank: usize) -> Begin {
        if self.dead[rank] {
            return Begin::Dead;
        }
        self.ops[rank] += 1;
        self.lamport[rank] = self.lamport[rank].wrapping_add(1);
        let ops = self.ops[rank];
        if self.plan.death_after(rank).is_some_and(|after| ops > after) {
            fault(&*self.sink, rank, "death", -1, 0, 0.0);
            return Begin::Dies;
        }
        let straggle = self.plan.straggler_comm_seconds(rank);
        if straggle > 0.0 {
            fault(&*self.sink, rank, "straggler", -1, 0, straggle);
        }
        Begin::Run {
            gen: self.generation,
            straggle,
        }
    }

    /// Marks `rank` dead; whether it was alive until now.
    pub(crate) fn kill(&mut self, rank: usize) -> bool {
        !std::mem::replace(&mut self.dead[rank], true)
    }

    /// Send verdict for attempt `attempt` (from 0) of `src → dst`:
    /// both endpoints alive, then the drop rules — each drop retried
    /// after a backoff that doubles per attempt, until the rule's
    /// budget runs out — then the delay rules, then the sender's
    /// stamp. Rule counters tick in call order, which the caller
    /// fixes (`docs/RUNTIME.md` §9).
    pub(crate) fn send(
        &mut self,
        op: &'static str,
        src: usize,
        dst: usize,
        attempt: u32,
    ) -> Verdict {
        if self.dead[src] {
            return Verdict::Failed(RuntimeError::RankDead { op, rank: src });
        }
        if self.dead[dst] {
            return Verdict::Failed(RuntimeError::RankDead { op, rank: dst });
        }
        let peer = dst as i64;
        let dropped = self
            .plan
            .drop_verdict(&mut self.drop_counts, src, dst, attempt);
        if let Some((max_retries, backoff)) = dropped {
            fault(&*self.sink, src, "drop", peer, attempt, 0.0);
            if attempt >= max_retries {
                return Verdict::Failed(RuntimeError::RetriesExhausted {
                    op,
                    src,
                    dst,
                    attempts: attempt + 1,
                });
            }
            fault(&*self.sink, src, "retry", peer, attempt + 1, backoff);
            return Verdict::Retry { backoff };
        }
        let delay = self.plan.delay_seconds(&mut self.delay_counts, src, dst);
        if delay > 0.0 {
            fault(&*self.sink, src, "delay", peer, 0, delay);
        }
        Verdict::Deliver {
            stamp: self.lamport[src],
            delay,
        }
    }

    /// Delivery at `dst` of a message stamped `stamp`: the Lamport
    /// merge (receipt happens after the send), then, on a virtual
    /// clock, the point-to-point `hop` and the injected `delay`.
    pub(crate) fn deliver(
        &mut self,
        sim: Option<&mut SimComm>,
        dst: usize,
        stamp: u64,
        delay: f64,
        hop: Option<Hop>,
    ) {
        self.lamport[dst] = self.lamport[dst].max(stamp.wrapping_add(1));
        let Some(sim) = sim else { return };
        if let Some(hop) = hop {
            match hop.vready {
                Some(ready) => sim.arrive(dst, ready),
                None => sim.send(hop.src, dst, hop.bytes as f64),
            }
        }
        if delay > 0.0 {
            sim.advance(dst, delay);
        }
    }

    /// Deposits the charge of the collective in flight.
    pub(crate) fn deposit(&mut self, charge: Charge) {
        self.pending_charge = Some(charge);
    }

    /// Deposits `charge` unless the collective in flight already did:
    /// a barrier's default, never an overwrite.
    pub(crate) fn offer(&mut self, charge: Charge) {
        self.pending_charge.get_or_insert(charge);
    }

    /// Generation close: the Lamport join — every live clock jumps to
    /// the maximum over all clocks plus one, symmetric in whichever
    /// rank closes —, the membership agreement and the deposited
    /// charge, which the engine applies. Returns the joined clock.
    pub(crate) fn close_generation(&mut self) -> (u64, Option<Charge>) {
        self.generation = self.generation.wrapping_add(1);
        let join = self.lamport.iter().max().map_or(1, |m| m.wrapping_add(1));
        for (r, &dead) in self.dead.iter().enumerate() {
            self.agreed_alive[r] = !dead;
            if !dead {
                self.lamport[r] = join;
            }
        }
        (join, self.pending_charge.take())
    }

    /// Liveness snapshot.
    pub(crate) fn alive(&self) -> Vec<bool> {
        self.dead.iter().map(|&d| !d).collect()
    }

    /// Ranks that have died, ascending.
    pub(crate) fn dead_ranks(&self) -> Vec<usize> {
        ranks_where(&self.dead)
    }

    /// Ranks agreed alive at the last closed generation, ascending.
    pub(crate) fn agreed_live(&self) -> Vec<usize> {
        ranks_where(&self.agreed_alive)
    }

    /// How many ranks are alive.
    pub(crate) fn live_count(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }
}

/// An operation's rank argument names a rank of the communicator.
pub(crate) fn check_rank(op: &'static str, rank: usize, size: usize) -> Result<(), RuntimeError> {
    if rank >= size {
        return Err(RuntimeError::InvalidRank { op, rank, size });
    }
    Ok(())
}

fn ranks_where(flags: &[bool]) -> Vec<usize> {
    flags
        .iter()
        .enumerate()
        .filter_map(|(r, &f)| f.then_some(r))
        .collect()
}

/// Records a `fault` trace event and counts it.
pub(crate) fn fault(
    sink: &dyn TraceSink,
    rank: usize,
    kind: &str,
    peer: i64,
    attempt: u32,
    seconds: f64,
) {
    fupermod_core::telemetry::record_fault(kind);
    sink.record(&TraceEvent::Fault {
        rank,
        kind: kind.to_owned(),
        peer,
        attempt,
        seconds,
    });
}

/// Records the `comm` trace event that closes an operation — the
/// schedule that carried it (`algorithm`, `rounds`) and its causal
/// stamps (`lamport`, `gen`) — and feeds the per-op latency histogram.
#[allow(clippy::too_many_arguments)] // one flat event beats a one-shot struct
pub(crate) fn comm(
    sink: &dyn TraceSink,
    rank: usize,
    op: &'static str,
    peer: i64,
    bytes: u64,
    seconds: f64,
    algorithm: &str,
    rounds: u64,
    lamport: u64,
    gen: u64,
) {
    fupermod_core::telemetry::record_comm(op, seconds);
    sink.record(&TraceEvent::Comm {
        rank,
        op: op.to_owned(),
        peer,
        bytes,
        seconds,
        algorithm: algorithm.to_owned(),
        rounds,
        lamport,
        gen,
    });
}
