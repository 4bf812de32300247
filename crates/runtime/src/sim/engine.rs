//! The event interpreter: per-rank state machines and the
//! binary-heap dispatch queue over the op lifecycle every engine
//! shares ([`crate::ledger`]).
//!
//! Everything here is single-threaded: a "rank" is a handful of
//! vector slots, and the only dynamically sized state is the live
//! mailbox entries plus the per-collective scratch of the currently
//! dispatching cohort.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use fupermod_core::trace::TraceSink;
use fupermod_platform::comm::SimComm;

use crate::collective::AlgorithmPolicy;
use crate::comm::RuntimeConfig;
use crate::error::RuntimeError;
use crate::fault::FaultPlan;
use crate::ledger::{self, Begin, Ledger, Verdict};
use crate::sim::SimEngine;
use crate::wire::Wire;

/// Per-rank collective outcome: `None` = the rank was not
/// participating (it had already died or halted on an earlier error).
pub type RankResults<T> = Vec<Option<Result<T, RuntimeError>>>;

/// One undelivered message.
pub(super) struct Env {
    pub(super) bytes: Vec<u8>,
    /// Injected delivery delay charged to the receiver, seconds.
    pub(super) delay: f64,
    /// Sender's Lamport stamp at send time.
    pub(super) lamport: u64,
    /// Ready instant from the send's post charge (`send` or `isend`):
    /// delivery charges the receiver from it.
    pub(super) vready: Option<f64>,
}

/// Everything an op needs to finish: the start stamp for the
/// trace event and the generation current when the op began.
#[derive(Clone, Copy)]
pub struct OpStart {
    pub(super) virt: f64,
    pub(super) gen: u64,
}

/// A collective's cohort: the ranks that entered it, in `(clock,
/// rank)` dispatch order, each with its begin stamp.
pub(super) type Cohort = Vec<(usize, OpStart)>;

/// Pending nonblocking send: finish with [`EventSim::isend_wait`].
pub struct SendTicket {
    pub(super) rank: usize,
    pub(super) dst: usize,
    pub(super) bytes_len: u64,
    pub(super) start: OpStart,
}

/// Pending nonblocking receive: finish with [`EventSim::irecv_wait`].
pub struct RecvTicket {
    pub(super) rank: usize,
    pub(super) src: usize,
    pub(super) start: OpStart,
}

/// The discrete-event simulation engine: every rank of the simulated
/// communicator as a resumable state machine, dispatched from a
/// binary-heap event queue in `(virtual clock, rank)` order.
///
/// See the [module docs](crate::sim) for the parity contract and
/// `docs/RUNTIME.md` §9 for ordering/determinism details.
pub struct EventSim {
    pub(super) size: usize,
    pub(super) policy: AlgorithmPolicy,
    /// The books every engine keeps, the virtual clocks among them
    /// (see [`crate::ledger`]).
    pub(super) ledger: Ledger,
    /// Point-to-point mailboxes, FIFO per `(src, dst)` pair.
    pub(super) mail: HashMap<(usize, usize), VecDeque<Env>>,
    /// Which ranks are still executing their program (false once a
    /// rank's program returned an error — dead or halted).
    pub(super) running: Vec<bool>,
    /// Whether an operation of the rank has failed: returned any error
    /// but a peer's death (as `ThreadedComm`'s flag).
    pub(super) failed: Vec<bool>,
    /// Dispatched event counter (op begins/ends, deliveries,
    /// coalesced fast-path rounds) for events/sec reporting.
    pub(super) events: u64,
    /// Scratch heap for clock-ordered cohort dispatch.
    pub(super) heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl std::fmt::Debug for EventSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSim")
            .field("size", &self.size)
            .field("generation", &self.ledger.generation)
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

impl EventSim {
    /// Builds an engine over the virtual clocks of `sim` with a fault
    /// plan, trace sink and collective policy.
    pub fn new(
        sim: SimComm,
        plan: FaultPlan,
        sink: Arc<dyn TraceSink>,
        policy: AlgorithmPolicy,
    ) -> Self {
        let size = sim.size();
        Self {
            size,
            policy,
            ledger: Ledger::new(size, plan, sink, Some(sim)),
            mail: HashMap::new(),
            running: vec![true; size],
            failed: vec![false; size],
            events: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Builds an engine from a [`RuntimeConfig`] that selected the
    /// event engine and the sim backend.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::App`] when the config is thread-backed or its
    /// sim size disagrees with `size`.
    pub fn from_config(config: &RuntimeConfig, size: usize) -> Result<Self, RuntimeError> {
        debug_assert_eq!(config.engine(), SimEngine::Event);
        let Some(sim) = config.sim_ref() else {
            return Err(RuntimeError::App(
                "the event engine needs the sim backend; \
                 thread-clock runs must use --sim-engine thread"
                    .to_owned(),
            ));
        };
        if sim.size() != size {
            return Err(RuntimeError::App(format!(
                "sim size mismatch: the sim has {} ranks, run asked for {size}",
                sim.size()
            )));
        }
        Ok(Self::new(
            sim.clone(),
            config.plan_ref().clone(),
            Arc::clone(config.sink_ref()),
            config.policy_ref(),
        ))
    }

    // ----- inspection --------------------------------------------------

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The ledger's virtual clocks, which the engine always has.
    pub(super) fn clocks(&self) -> &SimComm {
        self.ledger.clocks().expect("the engine has clocks")
    }

    /// Per-rank virtual clocks, seconds.
    pub fn virtual_times(&self) -> Vec<f64> {
        let clocks = self.clocks();
        (0..self.size).map(|r| clocks.time(r)).collect()
    }

    /// Maximum virtual time across ranks.
    pub fn max_time(&self) -> f64 {
        self.clocks().max_time()
    }

    /// Liveness snapshot.
    pub fn alive(&self) -> Vec<bool> {
        self.ledger.alive()
    }

    /// Ranks that have died, ascending.
    pub fn dead_ranks(&self) -> Vec<usize> {
        self.ledger.dead_ranks()
    }

    /// Whether `rank`'s program is still executing (alive and no op
    /// has returned an error).
    pub fn is_running(&self, rank: usize) -> bool {
        self.running[rank]
    }

    /// Total dispatched events so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Stops dispatching ops for `rank` (its simulated program ended,
    /// normally or on error). A rank one of whose operations failed
    /// leaves as its program ends, as a thread rank does when its
    /// handle drops.
    pub fn halt(&mut self, rank: usize) {
        if self.failed[rank] {
            self.leave(rank);
        }
        self.running[rank] = false;
    }

    /// Passes the outcome of one of `rank`'s operations on, noting a
    /// failure — any error but a peer's death — for [`EventSim::halt`].
    pub(super) fn noted<T>(
        &mut self,
        rank: usize,
        result: Result<T, RuntimeError>,
    ) -> Result<T, RuntimeError> {
        if let Err(e) = &result {
            self.failed[rank] |= !matches!(e, RuntimeError::RankDead { rank: r, .. } if *r != rank);
        }
        result
    }

    // ----- op lifecycle ------------------------------------------------

    /// Common op prologue: the ledger's op begin, which charges the
    /// straggler latency.
    pub(super) fn op_begin(
        &mut self,
        op: &'static str,
        rank: usize,
    ) -> Result<OpStart, RuntimeError> {
        let gen = match self.ledger.begin(rank) {
            Begin::Run { gen, .. } => gen,
            Begin::Dead => return Err(RuntimeError::RankDead { op, rank }),
            Begin::Dies => {
                self.events += 1;
                self.mark_dead(rank);
                return Err(RuntimeError::RankDead { op, rank });
            }
        };
        self.events += 1;
        Ok(OpStart {
            virt: self.clocks().time(rank),
            gen,
        })
    }

    /// Common op epilogue: the `comm` trace event
    /// ([`ledger::comm`]) with the rank's post-op Lamport stamp.
    #[allow(clippy::too_many_arguments)] // one flat epilogue, as the thread backend's
    pub(super) fn op_end(
        &mut self,
        rank: usize,
        op: &'static str,
        peer: i64,
        bytes: u64,
        start: &OpStart,
        algorithm: &str,
        rounds: u64,
        gen: u64,
    ) {
        self.events += 1;
        let seconds = self.clocks().time(rank) - start.virt;
        let (sink, lamport) = (&*self.ledger.sink, self.ledger.lamport[rank]);
        ledger::comm(
            sink, rank, op, peer, bytes, seconds, algorithm, rounds, lamport, gen,
        );
    }

    /// Fail-stop. (The thread backend also completes a barrier the
    /// death unblocks; engine cohorts complete synchronously, so there
    /// is never a half-arrived barrier to finish here.)
    pub(super) fn mark_dead(&mut self, rank: usize) {
        self.ledger.kill(rank);
        self.running[rank] = false;
    }

    /// A failed rank leaves (`docs/RUNTIME.md` §3): it is marked dead
    /// and traces one `disconnect`, so every peer waiting on it takes
    /// the dead-sender path. A dead rank has nothing left to leave.
    pub(super) fn leave(&mut self, rank: usize) {
        if !self.ledger.dead[rank] {
            self.mark_dead(rank);
            ledger::fault(&*self.ledger.sink, rank, "disconnect", -1, 0, 0.0);
        }
    }

    /// Walks one send to the ledger's verdict, which charges each
    /// retry's backoff to the sender's clock: the sender's stamp and
    /// the injected delay, or the error. Does **not** enqueue — collective
    /// paths deliver through the ledger, the p2p paths enqueue a
    /// mailbox envelope.
    pub(super) fn send_walk(
        &mut self,
        op: &'static str,
        src: usize,
        dst: usize,
    ) -> Result<(u64, f64), RuntimeError> {
        let mut attempt: u32 = 0;
        loop {
            match self.ledger.send(op, src, dst, attempt) {
                Verdict::Deliver { stamp, delay } => return Ok((stamp, delay)),
                Verdict::Retry { .. } => attempt += 1,
                Verdict::Failed(e) => return Err(e),
            }
        }
    }

    // ----- point-to-point (mailbox) paths -----------------------------

    /// A send enqueued into the `(src, dst)` mailbox.
    pub(super) fn raw_send_at(
        &mut self,
        op: &'static str,
        src: usize,
        dst: usize,
        bytes: Vec<u8>,
        vready: Option<f64>,
    ) -> Result<(), RuntimeError> {
        let (stamp, delay) = self.send_walk(op, src, dst)?;
        self.events += 1;
        self.mail.entry((src, dst)).or_default().push_back(Env {
            bytes,
            delay,
            lamport: stamp,
            vready,
        });
        Ok(())
    }

    /// One receive attempt, FIFO per `(src, dst)` pair: the ledger's
    /// delivery with the point-to-point hop. `Ok(None)` means no mail
    /// yet with the sender still alive.
    pub(super) fn try_take(
        &mut self,
        op: &'static str,
        rank: usize,
        src: usize,
    ) -> Result<Option<Vec<u8>>, RuntimeError> {
        if self.ledger.dead[rank] {
            return Err(RuntimeError::RankDead { op, rank });
        }
        let mail = self.mail.get_mut(&(src, rank));
        if let Some(env) = mail.and_then(VecDeque::pop_front) {
            self.events += 1;
            self.ledger
                .deliver(rank, env.lamport, env.delay, env.vready);
            return Ok(Some(env.bytes));
        }
        if self.ledger.dead[src] {
            return Err(RuntimeError::RankDead { op, rank: src });
        }
        Ok(None)
    }

    /// Blocking receive. In virtual time a message that has not been
    /// produced by now never will be (the engine has already
    /// dispatched every event that could produce it), so "would
    /// block" resolves immediately to the thread backend's deadline
    /// outcome: the waiter times out and is marked dead.
    pub(super) fn blocking_take(
        &mut self,
        op: &'static str,
        rank: usize,
        src: usize,
    ) -> Result<Vec<u8>, RuntimeError> {
        match self.try_take(op, rank, src)? {
            Some(bytes) => Ok(bytes),
            None => {
                let deadline = self.ledger.plan.deadline;
                let deadline = deadline.unwrap_or(crate::comm::DEFAULT_DEADLINE_SECS);
                self.mark_dead(rank);
                // As on threads, the timeout fault event carries no
                // peer (the waiter only knows its own deadline fired).
                ledger::fault(&*self.ledger.sink, rank, "timeout", -1, 0, deadline);
                Err(RuntimeError::Timeout {
                    op,
                    rank,
                    deadline,
                })
            }
        }
    }

    // ----- public point-to-point API ----------------------------------

    /// Blocking typed send.
    ///
    /// # Errors
    ///
    /// As the thread backend: invalid rank, dead endpoint, exhausted
    /// drop retries.
    pub fn send<T: Wire>(&mut self, src: usize, dst: usize, value: &T) -> Result<(), RuntimeError> {
        const OP: &str = "send";
        let sent = ledger::check_rank(OP, dst, self.size).and_then(|()| {
            let start = self.op_begin(OP, src)?;
            let bytes = value.to_bytes();
            let n = bytes.len() as u64;
            let ready = self.ledger.post(src, dst, bytes.len());
            self.raw_send_at(OP, src, dst, bytes, ready)?;
            self.op_end(src, OP, dst as i64, n, &start, "direct", 1, start.gen);
            Ok(())
        });
        self.noted(src, sent)
    }

    /// Blocking typed receive (charges the Hockney hop cost).
    ///
    /// # Errors
    ///
    /// As the thread backend: invalid rank, dead endpoint, decode
    /// failure, or timeout when no matching message exists.
    pub fn recv<T: Wire>(&mut self, rank: usize, src: usize) -> Result<T, RuntimeError> {
        const OP: &str = "recv";
        let received = ledger::check_rank(OP, src, self.size).and_then(|()| {
            let start = self.op_begin(OP, rank)?;
            let bytes = self.blocking_take(OP, rank, src)?;
            let value = crate::wire::decode_as::<T>(OP, &bytes)?;
            let n = bytes.len() as u64;
            self.op_end(rank, OP, src as i64, n, &start, "direct", 1, start.gen);
            Ok(value)
        });
        self.noted(rank, received)
    }

    /// Nonblocking send: posts the message with a post-time
    /// clock snapshot (the receiver is charged `max(own clock, post
    /// snapshot + hop cost)` at completion, so overlapped compute
    /// hides communication exactly as on the thread backend).
    ///
    /// # Errors
    ///
    /// As [`EventSim::send`]. Note the sender's clock advances by the
    /// post cost even when the destination is already dead: the thread
    /// backend, too, posts before it checks for death.
    pub fn isend<T: Wire>(
        &mut self,
        src: usize,
        dst: usize,
        value: &T,
    ) -> Result<SendTicket, RuntimeError> {
        const OP: &str = "isend";
        let posted = ledger::check_rank(OP, dst, self.size).and_then(|()| {
            let start = self.op_begin(OP, src)?;
            let bytes = value.to_bytes();
            let n = bytes.len() as u64;
            let ready = self.ledger.post(src, dst, bytes.len());
            self.raw_send_at(OP, src, dst, bytes, ready)?;
            Ok(SendTicket {
                rank: src,
                dst,
                bytes_len: n,
                start,
            })
        });
        self.noted(src, posted)
    }

    /// Completes a posted send (emits the `isend` trace event).
    pub fn isend_wait(&mut self, ticket: SendTicket) {
        self.op_end(
            ticket.rank,
            "isend",
            ticket.dst as i64,
            ticket.bytes_len,
            &ticket.start,
            "direct",
            1,
            ticket.start.gen,
        );
    }

    /// Posts a nonblocking receive (posting never fails on a dead
    /// sender — death surfaces at the wait).
    ///
    /// # Errors
    ///
    /// Invalid rank, or the receiver itself is dead.
    pub fn irecv_post(&mut self, rank: usize, src: usize) -> Result<RecvTicket, RuntimeError> {
        const OP: &str = "irecv";
        let posted = ledger::check_rank(OP, src, self.size).and_then(|()| {
            let start = self.op_begin(OP, rank)?;
            Ok(RecvTicket { rank, src, start })
        });
        self.noted(rank, posted)
    }

    /// Completes a posted receive.
    ///
    /// # Errors
    ///
    /// Dead sender with no pending message, decode failure, or
    /// timeout.
    pub fn irecv_wait<T: Wire>(&mut self, ticket: RecvTicket) -> Result<T, RuntimeError> {
        const OP: &str = "irecv";
        let rank = ticket.rank;
        let received = self
            .blocking_take(OP, rank, ticket.src)
            .and_then(|bytes| {
                let value = crate::wire::decode_as::<T>(OP, &bytes)?;
                let n = bytes.len() as u64;
                let start = &ticket.start;
                self.op_end(
                    rank,
                    OP,
                    ticket.src as i64,
                    n,
                    start,
                    "direct",
                    1,
                    start.gen,
                );
                Ok(value)
            });
        self.noted(rank, received)
    }

    // ----- cohort dispatch --------------------------------------------

    /// Key for clock-ordered dispatch: finite non-negative `f64`
    /// clocks compare identically to their bit patterns, and the rank
    /// index breaks ties deterministically.
    pub(super) fn clock_key(&self, rank: usize) -> (u64, usize) {
        (self.clocks().time(rank).to_bits(), rank)
    }

    /// Dispatches `op_begin` for every running rank in `(clock,
    /// rank)` heap order. Returns the cohort (ranks that entered the
    /// collective, in dispatch order, with their start stamps) and
    /// the ranks whose begin failed (scheduled death).
    pub(super) fn begin_cohort(
        &mut self,
        op: &'static str,
    ) -> (Cohort, Vec<(usize, RuntimeError)>) {
        debug_assert!(self.heap.is_empty());
        for rank in 0..self.size {
            if self.running[rank] {
                self.heap.push(Reverse(self.clock_key(rank)));
            }
        }
        let mut cohort = Vec::new();
        let mut failed = Vec::new();
        while let Some(Reverse((_, rank))) = self.heap.pop() {
            match self.op_begin(op, rank) {
                Ok(start) => cohort.push((rank, start)),
                Err(e) => failed.push((rank, e)),
            }
        }
        (cohort, failed)
    }

    /// Sorts the cohort into final `(clock, rank)` order for epilogue
    /// dispatch.
    pub(super) fn cohort_end_order(&self, cohort: &mut Cohort) {
        cohort.sort_unstable_by_key(|&(rank, _)| self.clock_key(rank));
    }
}
