//! The rank ledger: the per-rank state of an operation's lifecycle,
//! the virtual clocks, and the one definition of each rule over them.
//!
//! Every engine keeps the same books: who is dead, the membership the
//! last barrier generation agreed, Lamport clocks, op counts, the
//! generation counter, the fault-rule counters, the schedule charge
//! the collective in flight deposited and, on a simulated run, the
//! virtual clocks ([`SimComm`]) with the overlap baselines of a
//! nonblocking collective. The threaded and TCP planes hold a
//! [`Ledger`] in their `PlaneState` and apply its rules under the plane
//! lock they already hold, the thread plane's one lock; the event
//! engine holds one outright. What an engine keeps beside it is only
//! its own: condvars, wall deadlines, sleeps and frames on the planes;
//! the event count and the cohort heap on the engine.
//!
//! The rules are op begin ([`Ledger::begin`]), the send verdict
//! ([`Ledger::send`]), the point-to-point post charge ([`Ledger::post`]),
//! delivery ([`Ledger::deliver`]), compute ([`Ledger::compute`]),
//! generation close ([`Ledger::close_generation`]), the rank check
//! ([`check_rank`]) and the `fault` and `comm` trace events
//! ([`fault`], [`comm`]) with their metrics. A rule charges the clocks where it decides the
//! charge; only a wall-clock plane, which has no clocks, gets injected
//! latency back as the seconds for a wall sleep outside the lock.

use std::sync::Arc;

use fupermod_core::trace::{TraceEvent, TraceSink};
use fupermod_platform::comm::SimComm;

use crate::collective::Rounds;
use crate::error::RuntimeError;
use crate::fault::FaultPlan;

/// A collective's virtual-time charge, deposited during its data
/// phase by its root (or the lowest agreed-live rank) and applied by
/// [`Ledger::close_generation`] when its closing barrier generation
/// completes, so the charges of a run form one deterministic sequence.
pub(crate) enum Charge {
    /// The collective's hop schedule as its builder returned it: the
    /// `(src, dst, bytes)` rounds the data phase ran, replayed through
    /// [`SimComm::schedule`] so the clocks pay the real per-hop,
    /// per-round cost of the chosen algorithm.
    Rounds(Rounds),
    /// Closed-form uniform ring from bit-identical clocks (the event
    /// engine's fast path, [`SimComm::charge_uniform_ring`]).
    UniformRing {
        /// Framed per-hop message size, bytes.
        bytes: f64,
        /// Number of ring rounds.
        rounds: usize,
    },
}

/// What [`Ledger::begin`] decided for one operation.
pub(crate) enum Begin {
    /// The operation runs: `gen` is the generation current at its
    /// start. A wall-clock plane sleeps the straggler's `sleep`
    /// seconds first (0 on the clocks, which were charged).
    Run { gen: u64, sleep: f64 },
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
    /// The attempt was dropped: try again, on a wall-clock plane after
    /// sleeping the backoff's `sleep` seconds (0 on the clocks, which
    /// were charged).
    Retry { sleep: f64 },
    /// An endpoint is dead, or the drop rule exhausted its retries.
    Failed(RuntimeError),
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
    /// The virtual clocks: `Some` on the sim backend and the event
    /// engine, `None` on the wall-clock planes.
    clocks: Option<SimComm>,
    /// Per-rank clock snapshots taken when a rank posts a nonblocking
    /// collective ([`Ledger::note_overlap_base`]): the generation close
    /// charges the collective's schedule from them, so communication
    /// that fits under the compute between post and `wait` is hidden.
    /// Empty until a rank of the open generation posts one; a rank
    /// without a snapshot starts at its current clock.
    overlap_base: Vec<Option<f64>>,
    /// Per rank, the instant its nonblocking collective finishes, set
    /// by the generation close and charged by the rank itself at its
    /// completion ([`Ledger::settle`]).
    overlap_finish: Vec<Option<f64>>,
}

impl Ledger {
    /// The books of `size` fresh ranks under `plan`, tracing to `sink`,
    /// on the virtual `clocks` if given (of `size` ranks).
    pub(crate) fn new(
        size: usize,
        plan: FaultPlan,
        sink: Arc<dyn TraceSink>,
        clocks: Option<SimComm>,
    ) -> Self {
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
            clocks,
            overlap_base: Vec::new(),
            overlap_finish: Vec::new(),
        }
    }

    /// The virtual clocks, `None` on a wall-clock plane.
    pub(crate) fn clocks(&self) -> Option<&SimComm> {
        self.clocks.as_ref()
    }

    /// Charges `seconds` to `rank`'s clock, or, with no clocks,
    /// returns them for a wall sleep.
    fn charge(&mut self, rank: usize, seconds: f64) -> f64 {
        let Some(clocks) = &mut self.clocks else {
            return seconds;
        };
        if seconds > 0.0 {
            clocks.advance(rank, seconds);
        }
        0.0
    }

    /// Op begin: the self-death check, the op count, the Lamport tick
    /// (every operation is an event on its rank's clock), the
    /// scheduled death and the straggler latency, charged.
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
            sleep: self.charge(rank, straggle),
        }
    }

    /// Marks `rank` dead; whether it was alive until now.
    pub(crate) fn kill(&mut self, rank: usize) -> bool {
        !std::mem::replace(&mut self.dead[rank], true)
    }

    /// Send verdict for attempt `attempt` (from 0) of `src → dst`:
    /// both endpoints alive, then the drop rules — each drop retried
    /// after a backoff that doubles per attempt, charged to the sender,
    /// until the rule's budget runs out — then the delay rules, then
    /// the sender's stamp. Rule counters tick in call order, which the
    /// caller fixes (`docs/RUNTIME.md` §9).
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
            return Verdict::Retry {
                sleep: self.charge(src, backoff),
            };
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

    /// The post charge of a point-to-point send of `bytes` from `src`
    /// to `dst`, blocking or not: the sender pays one latency at its
    /// own send, and the message is ready at the returned instant, from
    /// which [`Ledger::deliver`] charges the receiver. `None` on a
    /// wall-clock plane.
    pub(crate) fn post(&mut self, src: usize, dst: usize, bytes: usize) -> Option<f64> {
        let clocks = self.clocks.as_mut()?;
        Some(clocks.post_send(src, dst, bytes as f64))
    }

    /// Delivery at `dst` of a message stamped `stamp`: the Lamport
    /// merge (receipt happens after the send), then, on the clocks, the
    /// receiver's half of a point-to-point hop — from the instant
    /// `ready` its send's [`Ledger::post`] returned — and the injected
    /// `delay` (a wall-clock plane held the message instead). A
    /// collective's edges carry no `ready`: its schedule is charged at
    /// generation close.
    pub(crate) fn deliver(&mut self, dst: usize, stamp: u64, delay: f64, ready: Option<f64>) {
        self.lamport[dst] = self.lamport[dst].max(stamp.wrapping_add(1));
        if let (Some(clocks), Some(ready)) = (&mut self.clocks, ready) {
            clocks.arrive(dst, ready);
        }
        self.charge(dst, delay);
    }

    /// Credits `seconds` of local computation to `rank`'s clock. A
    /// wall-clock plane computes for real, so it has nothing to credit.
    pub(crate) fn compute(&mut self, rank: usize, seconds: f64) {
        self.charge(rank, seconds);
    }

    /// Records `rank`'s clock as the baseline the collective it posts
    /// nonblocking is charged from (no-op without clocks).
    pub(crate) fn note_overlap_base(&mut self, rank: usize) {
        if let Some(clocks) = &self.clocks {
            if self.overlap_base.is_empty() {
                self.overlap_base = vec![None; clocks.size()];
            }
            self.overlap_base[rank] = Some(clocks.time(rank));
        }
    }

    /// Completion of `rank`'s nonblocking collective: its clock rises
    /// to the finish instant the generation close computed for it, so
    /// compute credited since its post hides the transfer whichever
    /// thread closed the generation, and when (no-op for a rank with
    /// no such instant).
    pub(crate) fn settle(&mut self, rank: usize) {
        let finish = self.overlap_finish.get_mut(rank).and_then(Option::take);
        if let (Some(clocks), Some(finish)) = (&mut self.clocks, finish) {
            clocks.arrive(rank, finish);
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
    /// charge, applied to the clocks. Returns the joined clock.
    pub(crate) fn close_generation(&mut self) -> u64 {
        self.generation = self.generation.wrapping_add(1);
        let join = self.lamport.iter().max().map_or(1, |m| m.wrapping_add(1));
        for (r, &dead) in self.dead.iter().enumerate() {
            self.agreed_alive[r] = !dead;
            if !dead {
                self.lamport[r] = join;
            }
        }
        // The baselines belong to the generation that closes here;
        // none leaks into the next collective's charge.
        let bases = std::mem::take(&mut self.overlap_base);
        let (Some(charge), Some(clocks)) = (self.pending_charge.take(), &mut self.clocks) else {
            return join;
        };
        const VALID: &str = "schedule hops use valid distinct ranks by construction";
        match charge {
            Charge::Rounds(rounds) if bases.is_empty() => {
                clocks.schedule(None, &rounds).expect(VALID)
            }
            // A rank that posted this collective nonblocking starts its
            // transfers at its post-time clock and settles its finish at
            // its own completion, so what it computed in between does
            // not depend on when this close runs; the others wait inside
            // the collective and are charged now, from their current
            // clocks. The finishes are the port model's on a world of
            // zero clocks, which it leaves at each rank's finish.
            Charge::Rounds(rounds) => {
                let at = |(r, b): (usize, &Option<f64>)| b.unwrap_or_else(|| clocks.time(r));
                let baseline: Vec<f64> = bases.iter().enumerate().map(at).collect();
                let mut world = SimComm::new(baseline.len(), clocks.link());
                world.schedule(Some(&baseline), &rounds).expect(VALID);
                self.overlap_finish = vec![None; baseline.len()];
                for (r, base) in bases.iter().enumerate() {
                    match base {
                        Some(_) => self.overlap_finish[r] = Some(world.time(r)),
                        None => clocks.arrive(r, world.time(r)),
                    }
                }
            }
            Charge::UniformRing { bytes, rounds } => {
                debug_assert!(bases.is_empty(), "no overlap on the engine");
                clocks.charge_uniform_ring(bytes, rounds);
            }
        }
        join
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

    /// How many ranks were agreed alive at the last closed generation:
    /// `agreed_live().len()`, counted in place.
    pub(crate) fn agreed_count(&self) -> usize {
        self.agreed_alive.iter().filter(|&&a| a).count()
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
