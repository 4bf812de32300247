//! MPI-style nonblocking requests: `isend`/`irecv`/`ibcast`/
//! `iallgatherv`, completed by `wait`/`test`/[`wait_all`].
//!
//! # Lifetime and scope rules
//!
//! A request borrows its [`ThreadedComm`] **shared** (`&ThreadedComm`)
//! for as long as it is outstanding, in the spirit of `rsmpi`'s
//! scope-based request pattern: the borrow checker statically
//! guarantees the communicator outlives every in-flight operation,
//! and because every *blocking* [`Communicator`](super::Communicator)
//! operation takes `&mut self`, blocking and nonblocking operations
//! cannot interleave on one handle while a request is outstanding.
//! Multiple requests (shared borrows) can be outstanding at once —
//! that is the point. Payload buffers are encoded eagerly at post
//! time, so no request ever aliases caller memory.
//!
//! # Completion semantics
//!
//! * [`SendRequest`] is **eager**: the message is enqueued (and, on
//!   the sim backend, the sender's virtual clock charged) at post.
//!   `wait` only emits the trace event. Dropping it without `wait`
//!   never loses the message.
//! * [`RecvRequest`] posts nothing; `wait` blocks for the message,
//!   `test` polls for it. Dropping it without `wait` **cancels** the
//!   receive: a matching message stays in the mailbox for the next
//!   `recv`/`irecv` from the same source.
//! * [`BcastRequest`] / [`AllgathervRequest`] are split collectives:
//!   the closing barrier of the underlying BSP collective is joined
//!   at post (root broadcast) or during `wait`/`test`, and the
//!   virtual-time hop plan is charged **from the post-time clocks**
//!   ([`SimComm::schedule_from`](fupermod_platform::comm::SimComm))
//!   when `wait` happens after intervening compute — communication
//!   that fits under the compute costs no virtual time. Dropping one
//!   without `wait` completes it silently (result discarded), so
//!   peers never deadlock at the closing barrier.
//!
//! # Faults and deadlines
//!
//! Fault-plan deaths and deadline violations surface as the same
//! typed [`RuntimeError`]s as the blocking operations, **at `wait`**
//! (or at post, for faults that strike the posting rank itself). The
//! per-operation deadline applies to time spent *inside* `wait` —
//! the interval between post and `wait` is the caller's compute time
//! and is not billed against the deadline. `test` never blocks and
//! never times out.
//!
//! Progress happens inside `wait` and `test` (there is no background
//! progress thread), matching MPI implementations without
//! asynchronous progress: a collective request makes message-passing
//! progress only while its owner drives it.

use std::marker::PhantomData;
use std::time::{Duration, Instant};

use crate::collective::{self, Resolved};
use crate::error::RuntimeError;
use crate::wire::Wire;

use super::{charge_of, OpStart, Slots, ThreadedComm};

use std::mem;

/// A nonblocking operation in flight. Consume it with
/// [`wait`](Request::wait) (block until complete) or
/// [`test`](Request::test) (poll without blocking).
pub trait Request: Sized {
    /// What the operation yields at completion.
    type Output;

    /// Blocks until the operation completes, returning its result.
    /// Fault-plan deaths and deadline violations surface here as
    /// typed [`RuntimeError`]s.
    fn wait(self) -> Result<Self::Output, RuntimeError>;

    /// Polls the operation without blocking: [`Progress::Ready`] with
    /// the result if it could complete, [`Progress::Pending`]
    /// returning the request otherwise.
    fn test(self) -> Result<Progress<Self>, RuntimeError>;
}

/// Outcome of a nonblocking [`Request::test`] poll.
pub enum Progress<R: Request> {
    /// The operation completed; here is its result.
    Ready(R::Output),
    /// The operation would block; the request is handed back to poll
    /// or [`wait`](Request::wait) later.
    Pending(R),
}

/// Completes every request, in order, returning their outputs — or
/// the **first** error encountered. Every request is driven to
/// completion even after an error (collective requests must reach
/// their closing barrier or peers would stall), so `wait_all` never
/// leaves an operation half-finished.
///
/// Completion order of the underlying operations is independent of
/// the vector order: each `wait` only blocks for its own operation,
/// so a message for request 3 arriving before request 0's does not
/// stall anything.
pub fn wait_all<R: Request>(requests: Vec<R>) -> Result<Vec<R::Output>, RuntimeError> {
    let mut outputs = Vec::with_capacity(requests.len());
    let mut first_err: Option<RuntimeError> = None;
    for request in requests {
        match request.wait() {
            Ok(v) => outputs.push(v),
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    match first_err {
        None => Ok(outputs),
        Some(e) => Err(e),
    }
}

/// An in-flight nonblocking send (see [`ThreadedComm::isend`]).
///
/// Eager: the message was enqueued at post time, so dropping this
/// request without `wait` does not lose it — only the trace event of
/// the operation is skipped.
#[must_use = "a request does nothing more unless waited or tested"]
pub struct SendRequest<'c> {
    comm: &'c ThreadedComm,
    start: OpStart,
    dst: usize,
    bytes_len: u64,
}

impl Request for SendRequest<'_> {
    type Output = ();

    fn wait(self) -> Result<(), RuntimeError> {
        self.comm.op_end(
            "isend",
            self.dst as i64,
            self.bytes_len,
            &self.start,
            "direct",
            1,
            self.start.gen,
        );
        Ok(())
    }

    fn test(self) -> Result<Progress<Self>, RuntimeError> {
        self.wait().map(Progress::Ready)
    }
}

/// An in-flight nonblocking receive (see [`ThreadedComm::irecv`]).
///
/// Dropping it without `wait` cancels the receive; a matching
/// message stays in the mailbox for the next `recv`/`irecv` from the
/// same source. Multiple outstanding `irecv`s from the same source
/// match incoming messages in the order they are completed, not the
/// order they were posted.
#[must_use = "a request does nothing more unless waited or tested"]
pub struct RecvRequest<'c, T: Wire> {
    comm: &'c ThreadedComm,
    start: OpStart,
    src: usize,
    _payload: PhantomData<fn() -> T>,
}

impl<T: Wire> RecvRequest<'_, T> {
    fn finish(&self, bytes: &[u8]) -> Result<T, RuntimeError> {
        const OP: &str = "irecv";
        let value = ThreadedComm::decode_as::<T>(OP, bytes)?;
        self.comm.op_end(
            OP,
            self.src as i64,
            bytes.len() as u64,
            &self.start,
            "direct",
            1,
            self.start.gen,
        );
        Ok(value)
    }
}

impl<T: Wire> Request for RecvRequest<'_, T> {
    type Output = T;

    fn wait(self) -> Result<T, RuntimeError> {
        const OP: &str = "irecv";
        let deadline_at = Instant::now() + self.comm.plane.deadline;
        let bytes = self
            .comm
            .raw_recv_deadline(OP, self.src, true, deadline_at)?;
        self.finish(&bytes)
    }

    fn test(self) -> Result<Progress<Self>, RuntimeError> {
        const OP: &str = "irecv";
        match self.comm.try_take(OP, self.src, true)? {
            Some(bytes) => self.finish(&bytes).map(Progress::Ready),
            None => Ok(Progress::Pending(self)),
        }
    }
}

/// How far a split collective has progressed.
enum StepProgress {
    /// Progress needs a message (or barrier completion) that has not
    /// arrived yet.
    Blocked,
    /// The stage completed.
    Done,
}

/// An in-flight nonblocking broadcast (see [`ThreadedComm::ibcast`]).
///
/// The root's data phase (its sends) runs at **post** time, so
/// children can receive the payload while the root computes;
/// non-root data phases run inside `wait`/`test`. Dropping the
/// request without `wait` completes the collective silently — peers
/// never deadlock at the closing barrier — discarding the value and
/// any error.
#[must_use = "a request does nothing more unless waited or tested"]
pub struct BcastRequest<'c, T: Wire> {
    comm: &'c ThreadedComm,
    inner: Option<BcastInner>,
    _payload: PhantomData<fn() -> T>,
}

struct BcastInner {
    start: OpStart,
    root: usize,
    resolved: Resolved,
    /// Bytes moved through this rank, for the trace event.
    moved: u64,
    /// The broadcast blob once this rank holds it.
    bytes: Option<Vec<u8>>,
    /// First data-phase error; takes precedence over barrier errors
    /// (the same rule as the blocking collectives' `close_op`).
    data_err: Option<RuntimeError>,
    /// Closing-barrier generation once this rank arrived.
    gen: Option<u64>,
    /// Data phase finished (successfully or not).
    data_done: bool,
}

impl<T: Wire> BcastRequest<'_, T> {
    const OP: &'static str = "ibcast";

    /// Nonblocking data-phase step for a non-root rank: take the
    /// parent/hub message if present, forward it down the tree.
    fn step_data(&mut self) -> Result<StepProgress, RuntimeError> {
        let inner = self.inner.as_mut().expect("request already completed");
        if inner.data_done {
            return Ok(StepProgress::Done);
        }
        let comm = self.comm;
        match inner.resolved {
            Resolved::Hub => match comm.try_take(Self::OP, inner.root, false) {
                Ok(Some(bytes)) => {
                    inner.moved = bytes.len() as u64;
                    inner.bytes = Some(bytes);
                }
                Ok(None) => return Ok(StepProgress::Blocked),
                Err(e) => inner.data_err = Some(e),
            },
            Resolved::Ring | Resolved::Tree => {
                let (live, vroot, vi) = match comm.bcast_position(Self::OP, inner.root) {
                    Ok(t) => t,
                    Err(e) => {
                        inner.data_err = Some(e);
                        inner.data_done = true;
                        return Ok(StepProgress::Done);
                    }
                };
                let parent_abs = ThreadedComm::pos_to_abs(
                    &live,
                    vroot,
                    collective::binomial_parent(vi).expect("non-root has a parent"),
                );
                let framed = match comm.try_take(Self::OP, parent_abs, false) {
                    Ok(Some(raw)) => {
                        match ThreadedComm::decode_as::<Option<Vec<u8>>>(Self::OP, &raw) {
                            Ok(f) => f,
                            Err(e) => {
                                inner.data_err = Some(e);
                                None
                            }
                        }
                    }
                    Ok(None) => return Ok(StepProgress::Blocked),
                    // A dead parent degrades this edge: the value
                    // never reaches this subtree.
                    Err(RuntimeError::RankDead { rank, .. }) if rank == parent_abs => None,
                    Err(e) => {
                        inner.data_err = Some(e);
                        None
                    }
                };
                // Forward down the tree even when the frame is empty,
                // so descendants degrade in one hop instead of
                // stalling to their deadline.
                let msg = framed.to_bytes();
                let q = live.len();
                for (_, child_vi) in collective::binomial_children(vi, q) {
                    let child_abs = ThreadedComm::pos_to_abs(&live, vroot, child_vi);
                    if let Err(e) = comm.send_tolerant(Self::OP, child_abs, &msg) {
                        if inner.data_err.is_none() {
                            inner.data_err = Some(e);
                        }
                    }
                }
                match framed {
                    Some(bytes) => {
                        inner.moved = msg.len() as u64;
                        inner.bytes = Some(bytes);
                    }
                    None => {
                        if inner.data_err.is_none() {
                            inner.data_err = Some(RuntimeError::RankDead {
                                op: Self::OP,
                                rank: inner.root,
                            });
                        }
                    }
                }
            }
        }
        inner.data_done = true;
        Ok(StepProgress::Done)
    }

    /// Arrives at the closing barrier once the data phase is done.
    fn arrive(&mut self) {
        let inner = self.inner.as_mut().expect("request already completed");
        if inner.gen.is_some() {
            return;
        }
        match self.comm.raw_barrier_arrive(Self::OP, None) {
            Ok(gen) => inner.gen = Some(gen),
            Err(e) => {
                if inner.data_err.is_none() {
                    inner.data_err = Some(e);
                }
            }
        }
    }

    /// Epilogue shared by `wait`, a ready `test` and `Drop`: release
    /// the per-rank collective slot, emit the trace event, surface
    /// the data error (with precedence) or the decoded value.
    fn finish(&mut self, fence: Result<u64, RuntimeError>) -> Result<T, RuntimeError> {
        let inner = self.inner.take().expect("request already completed");
        self.comm.coll_release();
        match (inner.data_err, fence) {
            (Some(e), _) => Err(e),
            (None, Err(e)) => Err(e),
            (None, Ok(gen)) => {
                self.comm.op_end(
                    Self::OP,
                    inner.root as i64,
                    inner.moved,
                    &inner.start,
                    inner.resolved.name(),
                    self.comm.rooted_rounds(inner.resolved),
                    gen,
                );
                let bytes = inner.bytes.expect("no data error implies a value");
                ThreadedComm::decode_as::<T>(Self::OP, &bytes)
            }
        }
    }

    fn complete_blocking(&mut self) -> Result<T, RuntimeError> {
        let deadline_at = Instant::now() + self.comm.plane.deadline;
        loop {
            match self.step_data()? {
                StepProgress::Done => break,
                StepProgress::Blocked => self.comm.park(Self::OP, deadline_at)?,
            }
        }
        self.arrive();
        let fence = match self.inner.as_ref().expect("not completed").gen {
            Some(gen) => self.comm.raw_barrier_wait(Self::OP, gen, deadline_at),
            // Never arrived (the arrival itself failed); the error is
            // already recorded as the data error.
            None => Err(RuntimeError::RankDead {
                op: Self::OP,
                rank: self.comm.rank,
            }),
        };
        self.finish(fence)
    }
}

impl<T: Wire> Request for BcastRequest<'_, T> {
    type Output = T;

    fn wait(mut self) -> Result<T, RuntimeError> {
        self.complete_blocking()
    }

    fn test(mut self) -> Result<Progress<Self>, RuntimeError> {
        match self.step_data()? {
            StepProgress::Blocked => return Ok(Progress::Pending(self)),
            StepProgress::Done => {}
        }
        self.arrive();
        match self.inner.as_ref().expect("not completed").gen {
            Some(gen) => {
                if self.comm.barrier_done(gen) {
                    self.finish(Ok(gen)).map(Progress::Ready)
                } else {
                    Ok(Progress::Pending(self))
                }
            }
            None => {
                let fence = Err(RuntimeError::RankDead {
                    op: Self::OP,
                    rank: self.comm.rank,
                });
                self.finish(fence).map(Progress::Ready)
            }
        }
    }
}

impl<T: Wire> Drop for BcastRequest<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() && !std::thread::panicking() {
            // Complete silently: peers must not be left one arrival
            // short at the closing barrier.
            let _ = self.complete_blocking();
        }
    }
}

/// An in-flight nonblocking all-gather (see
/// [`ThreadedComm::iallgatherv`]).
///
/// The data phase runs inside `wait`/`test` under the schedule the
/// [`AlgorithmPolicy`](crate::AlgorithmPolicy) resolves (hub, ring
/// or recursive-doubling butterfly), resumable message by message —
/// `test` makes exactly as much progress as arrived mail allows.
/// Dropping the request without `wait` completes the collective
/// silently, so peers never deadlock at the closing barrier.
#[must_use = "a request does nothing more unless waited or tested"]
pub struct AllgathervRequest<'c, T: Wire> {
    comm: &'c ThreadedComm,
    inner: Option<AgInner>,
    _payload: PhantomData<fn() -> T>,
}

struct AgInner {
    start: OpStart,
    resolved: Resolved,
    machine: AgMachine,
    moved: u64,
    slots: Option<Slots>,
    data_err: Option<RuntimeError>,
    gen: Option<u64>,
}

/// Resumable data-phase state for the three all-gather schedules.
/// Entry sends of each stage happen on the transition *into* the
/// stage; `step` re-polls only the receives.
enum AgMachine {
    /// Not started: entry sends happen on the first step.
    Start { own: Vec<u8> },
    /// Non-hub rank awaiting the hub's slot blob.
    HubLeaf { hub: usize, own_len: u64 },
    /// Hub rank collecting contributions in ascending rank order.
    HubCenter { held: Slots, next_src: usize },
    /// Ring rank inside round `k`, awaiting the block from `prev`.
    Ring { held: Slots, k: usize },
    /// Folded butterfly rank (`pos >= 2^⌊log p⌋`) awaiting the core
    /// result from its partner.
    BflyFold { held: Slots, partner: usize },
    /// Core butterfly rank: optional fold-in, then the mask rounds.
    BflyCore {
        held: Slots,
        /// Still awaiting the folded partner's contribution.
        fold_pending: bool,
        /// Current exchange mask; `0` means the round's send has not
        /// happened yet (set on entry).
        mask: usize,
        /// The current mask round's send has been posted.
        sent: bool,
        own_len: u64,
    },
    /// Data phase finished.
    Done,
}

impl<T: Wire> AllgathervRequest<'_, T> {
    const OP: &'static str = "iallgatherv";

    /// Nonblocking receive helper with the tolerant-degrade rule:
    /// `Ok(None)` = not yet, `Ok(Some(None))` = source dead (edge
    /// degraded), `Ok(Some(Some(bytes)))` = delivered.
    fn try_take_tolerant(
        comm: &ThreadedComm,
        src: usize,
    ) -> Result<Option<Option<Vec<u8>>>, RuntimeError> {
        match comm.try_take(Self::OP, src, false) {
            Ok(Some(bytes)) => Ok(Some(Some(bytes))),
            Ok(None) => Ok(None),
            Err(RuntimeError::RankDead { rank, .. }) if rank == src => Ok(Some(None)),
            Err(e) => Err(e),
        }
    }

    /// Drives the data phase as far as arrived mail allows. Mirrors
    /// the blocking `allgather_slots` schedules operation for
    /// operation, so the resulting slot vectors (and the deposited
    /// virtual-time charge) are identical to the blocking path's.
    #[allow(clippy::too_many_lines)] // one resumable machine per schedule
    fn step_data(&mut self) -> Result<StepProgress, RuntimeError> {
        let comm = self.comm;
        let size = comm.plane.size;
        let inner = self.inner.as_mut().expect("request already completed");
        loop {
            match &mut inner.machine {
                AgMachine::Done => return Ok(StepProgress::Done),
                AgMachine::Start { own } => {
                    let own = mem::take(own);
                    if size == 1 {
                        inner.slots = Some(vec![Some(own)]);
                        inner.machine = AgMachine::Done;
                        continue;
                    }
                    let live = comm.agreed_live();
                    let q = live.len();
                    let pos = match comm.agreed_pos(Self::OP, &live) {
                        Ok(p) => p,
                        Err(e) => {
                            inner.data_err = Some(e);
                            inner.machine = AgMachine::Done;
                            continue;
                        }
                    };
                    match inner.resolved {
                        Resolved::Hub => {
                            inner.moved = own.len() as u64;
                            let hub = live[0];
                            if comm.rank == hub {
                                let mut held: Slots = vec![None; size];
                                held[comm.rank] = Some(own);
                                inner.machine = AgMachine::HubCenter { held, next_src: 0 };
                            } else {
                                // Hub death is fatal for the hub
                                // schedule — single point of failure.
                                if let Err(e) = comm.raw_send(Self::OP, hub, &own) {
                                    inner.data_err = Some(e);
                                    inner.machine = AgMachine::Done;
                                    continue;
                                }
                                inner.machine = AgMachine::HubLeaf {
                                    hub,
                                    own_len: own.len() as u64,
                                };
                            }
                        }
                        Resolved::Ring => {
                            let mut held: Slots = vec![None; size];
                            held[comm.rank] = Some(own);
                            if q == 1 {
                                inner.slots = Some(held);
                                inner.machine = AgMachine::Done;
                                continue;
                            }
                            // Entry send of round 0: own block to the
                            // next ring neighbour.
                            let next = live[(pos + 1) % q];
                            let msg = held[comm.rank].to_bytes();
                            inner.moved += msg.len() as u64;
                            if let Err(e) = comm.send_tolerant(Self::OP, next, msg) {
                                inner.data_err = Some(e);
                                inner.machine = AgMachine::Done;
                                continue;
                            }
                            inner.machine = AgMachine::Ring { held, k: 0 };
                        }
                        Resolved::Tree => {
                            let q2 = collective::prev_pow2(q);
                            let own_len = own.len() as u64;
                            let mut held: Slots = vec![None; size];
                            held[comm.rank] = Some(own);
                            if q == 1 {
                                inner.slots = Some(held);
                                inner.machine = AgMachine::Done;
                                continue;
                            }
                            if pos >= q2 {
                                let partner = live[pos - q2];
                                let msg = held.to_bytes();
                                inner.moved += msg.len() as u64;
                                if let Err(e) = comm.send_tolerant(Self::OP, partner, msg) {
                                    inner.data_err = Some(e);
                                    inner.machine = AgMachine::Done;
                                    continue;
                                }
                                inner.machine = AgMachine::BflyFold { held, partner };
                            } else {
                                inner.machine = AgMachine::BflyCore {
                                    held,
                                    fold_pending: pos + q2 < q,
                                    mask: 1,
                                    sent: false,
                                    own_len,
                                };
                            }
                        }
                    }
                }
                AgMachine::HubLeaf { hub, own_len } => {
                    let hub = *hub;
                    let own_len = *own_len;
                    match comm.try_take(Self::OP, hub, false) {
                        Ok(None) => return Ok(StepProgress::Blocked),
                        Ok(Some(blob)) => {
                            inner.moved = own_len + blob.len() as u64;
                            match ThreadedComm::decode_as::<Slots>(Self::OP, &blob) {
                                Ok(slots) if slots.len() == size => inner.slots = Some(slots),
                                Ok(slots) => {
                                    inner.data_err = Some(RuntimeError::Decode {
                                        what: Self::OP,
                                        detail: format!(
                                            "hub blob has {} slots, communicator size is {}",
                                            slots.len(),
                                            size
                                        ),
                                    })
                                }
                                Err(e) => inner.data_err = Some(e),
                            }
                            inner.machine = AgMachine::Done;
                        }
                        Err(e) => {
                            inner.data_err = Some(e);
                            inner.machine = AgMachine::Done;
                        }
                    }
                }
                AgMachine::HubCenter { held, next_src } => {
                    while *next_src < size {
                        let src = *next_src;
                        if src == comm.rank {
                            *next_src += 1;
                            continue;
                        }
                        match Self::try_take_tolerant(comm, src)? {
                            None => return Ok(StepProgress::Blocked),
                            Some(slot) => {
                                held[src] = slot;
                                *next_src += 1;
                            }
                        }
                    }
                    // All contributions in: fan the blob out and
                    // deposit the star charge, as the blocking hub
                    // does.
                    let slots = mem::take(held);
                    let live = comm.agreed_live();
                    let hub = comm.rank;
                    let blob = slots.to_bytes();
                    for &dst in &live {
                        if dst == hub {
                            continue;
                        }
                        if let Err(e) = comm.send_tolerant(Self::OP, dst, &blob) {
                            if inner.data_err.is_none() {
                                inner.data_err = Some(e);
                            }
                        }
                        inner.moved += blob.len() as u64;
                    }
                    let in_lens: Vec<u64> = live
                        .iter()
                        .map(|&r| slots[r].as_ref().map_or(0, |b| b.len() as u64))
                        .collect();
                    let out_lens = vec![blob.len() as u64; live.len()];
                    let rounds = vec![
                        collective::star_gather_round(&live, hub, &in_lens),
                        collective::star_scatter_round(&live, hub, &out_lens),
                    ];
                    comm.deposit(charge_of(&rounds));
                    inner.slots = Some(slots);
                    inner.machine = AgMachine::Done;
                }
                AgMachine::Ring { held, k } => {
                    let live = comm.agreed_live();
                    let q = live.len();
                    let pos = comm.agreed_pos(Self::OP, &live)?;
                    let next = live[(pos + 1) % q];
                    let prev = live[(pos + q - 1) % q];
                    while *k < q - 1 {
                        let origin_recv = live[(pos + q - 1 - *k) % q];
                        match Self::try_take_tolerant(comm, prev)? {
                            None => return Ok(StepProgress::Blocked),
                            Some(Some(bytes)) => {
                                inner.moved += bytes.len() as u64;
                                held[origin_recv] = ThreadedComm::decode_as::<Option<Vec<u8>>>(
                                    Self::OP, &bytes,
                                )?;
                            }
                            Some(None) => {} // dead neighbour: hole stays
                        }
                        *k += 1;
                        if *k < q - 1 {
                            // Entry send of the next round.
                            let origin_send = live[(pos + q - *k) % q];
                            let msg = held[origin_send].to_bytes();
                            inner.moved += msg.len() as u64;
                            comm.send_tolerant(Self::OP, next, msg)?;
                        }
                    }
                    let held = mem::take(held);
                    if comm.rank == live[0] {
                        let lens: Vec<u64> = live
                            .iter()
                            .map(|&r| held[r].as_ref().map_or(1, |b| 9 + b.len() as u64))
                            .collect();
                        comm.deposit(charge_of(&collective::ring_rounds(&live, &lens)));
                    }
                    inner.slots = Some(held);
                    inner.machine = AgMachine::Done;
                }
                AgMachine::BflyFold { held, partner } => {
                    let partner = *partner;
                    match Self::try_take_tolerant(comm, partner)? {
                        None => return Ok(StepProgress::Blocked),
                        Some(Some(bytes)) => {
                            inner.moved += bytes.len() as u64;
                            let full: Slots = ThreadedComm::decode_as(Self::OP, &bytes)?;
                            if full.len() == size {
                                super::merge_slots(held, full);
                            }
                        }
                        Some(None) => {}
                    }
                    inner.slots = Some(mem::take(held));
                    inner.machine = AgMachine::Done;
                }
                AgMachine::BflyCore {
                    held,
                    fold_pending,
                    mask,
                    sent,
                    own_len,
                } => {
                    let live = comm.agreed_live();
                    let q = live.len();
                    let pos = comm.agreed_pos(Self::OP, &live)?;
                    let q2 = collective::prev_pow2(q);
                    if *fold_pending {
                        match Self::try_take_tolerant(comm, live[pos + q2])? {
                            None => return Ok(StepProgress::Blocked),
                            Some(Some(bytes)) => {
                                inner.moved += bytes.len() as u64;
                                let folded: Slots = ThreadedComm::decode_as(Self::OP, &bytes)?;
                                if folded.len() == size {
                                    super::merge_slots(held, folded);
                                }
                            }
                            Some(None) => {}
                        }
                        *fold_pending = false;
                    }
                    while *mask < q2 {
                        let partner = live[pos ^ *mask];
                        if !*sent {
                            let msg = held.to_bytes();
                            inner.moved += msg.len() as u64;
                            comm.send_tolerant(Self::OP, partner, msg)?;
                            *sent = true;
                        }
                        match Self::try_take_tolerant(comm, partner)? {
                            None => return Ok(StepProgress::Blocked),
                            Some(Some(bytes)) => {
                                inner.moved += bytes.len() as u64;
                                let theirs: Slots = ThreadedComm::decode_as(Self::OP, &bytes)?;
                                if theirs.len() == size {
                                    super::merge_slots(held, theirs);
                                }
                            }
                            Some(None) => {}
                        }
                        *mask <<= 1;
                        *sent = false;
                    }
                    if pos + q2 < q {
                        let msg = held.to_bytes();
                        inner.moved += msg.len() as u64;
                        comm.send_tolerant(Self::OP, live[pos + q2], msg)?;
                    }
                    let held = mem::take(held);
                    if comm.rank == live[0] {
                        let lens: Vec<u64> = live
                            .iter()
                            .map(|&r| held[r].as_ref().map_or(*own_len, |b| b.len() as u64))
                            .collect();
                        comm.deposit(charge_of(&collective::butterfly_rounds(
                            size, &live, &lens,
                        )));
                    }
                    inner.slots = Some(held);
                    inner.machine = AgMachine::Done;
                }
            }
        }
    }

    fn arrive(&mut self) {
        let inner = self.inner.as_mut().expect("request already completed");
        if inner.gen.is_some() {
            return;
        }
        match self.comm.raw_barrier_arrive(Self::OP, None) {
            Ok(gen) => inner.gen = Some(gen),
            Err(e) => {
                if inner.data_err.is_none() {
                    inner.data_err = Some(e);
                }
            }
        }
    }

    fn finish(&mut self, fence: Result<u64, RuntimeError>) -> Result<Vec<T>, RuntimeError> {
        let inner = self.inner.take().expect("request already completed");
        self.comm.coll_release();
        match (inner.data_err, fence) {
            (Some(e), _) => Err(e),
            (None, Err(e)) => Err(e),
            (None, Ok(gen)) => {
                self.comm.op_end(
                    Self::OP,
                    -1,
                    inner.moved,
                    &inner.start,
                    inner.resolved.name(),
                    self.comm.rootless_rounds(inner.resolved),
                    gen,
                );
                let slots = inner.slots.expect("no data error implies slots");
                let mut values = Vec::with_capacity(slots.len());
                for (rank, slot) in slots.into_iter().enumerate() {
                    match slot {
                        Some(bytes) => {
                            values.push(ThreadedComm::decode_as::<T>(Self::OP, &bytes)?)
                        }
                        None => return Err(RuntimeError::RankDead { op: Self::OP, rank }),
                    }
                }
                Ok(values)
            }
        }
    }

    fn complete_blocking(&mut self) -> Result<Vec<T>, RuntimeError> {
        let deadline_at = Instant::now() + self.comm.plane.deadline;
        loop {
            match self.step_data() {
                Ok(StepProgress::Done) => break,
                Ok(StepProgress::Blocked) => self.comm.park(Self::OP, deadline_at)?,
                Err(e) => {
                    let inner = self.inner.as_mut().expect("not completed");
                    if inner.data_err.is_none() {
                        inner.data_err = Some(e);
                    }
                    inner.machine = AgMachine::Done;
                    break;
                }
            }
        }
        self.arrive();
        let fence = match self.inner.as_ref().expect("not completed").gen {
            Some(gen) => self.comm.raw_barrier_wait(Self::OP, gen, deadline_at),
            None => Err(RuntimeError::RankDead {
                op: Self::OP,
                rank: self.comm.rank,
            }),
        };
        self.finish(fence)
    }
}

impl<T: Wire> Request for AllgathervRequest<'_, T> {
    type Output = Vec<T>;

    fn wait(mut self) -> Result<Vec<T>, RuntimeError> {
        self.complete_blocking()
    }

    fn test(mut self) -> Result<Progress<Self>, RuntimeError> {
        match self.step_data() {
            Ok(StepProgress::Blocked) => return Ok(Progress::Pending(self)),
            Ok(StepProgress::Done) => {}
            Err(e) => {
                let inner = self.inner.as_mut().expect("not completed");
                if inner.data_err.is_none() {
                    inner.data_err = Some(e);
                }
                inner.machine = AgMachine::Done;
            }
        }
        self.arrive();
        match self.inner.as_ref().expect("not completed").gen {
            Some(gen) => {
                if self.comm.barrier_done(gen) {
                    self.finish(Ok(gen)).map(Progress::Ready)
                } else {
                    Ok(Progress::Pending(self))
                }
            }
            None => {
                let fence = Err(RuntimeError::RankDead {
                    op: Self::OP,
                    rank: self.comm.rank,
                });
                self.finish(fence).map(Progress::Ready)
            }
        }
    }
}

impl<T: Wire> Drop for AllgathervRequest<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() && !std::thread::panicking() {
            let _ = self.complete_blocking();
        }
    }
}

impl ThreadedComm {
    /// Posts a nonblocking typed send to `dst` and returns the
    /// request. Eager: the message is enqueued (and, on the sim
    /// backend, the sender's virtual clock charged — one latency,
    /// with the Hockney transfer cost billed to the receiver at
    /// delivery) before this returns, so the value buffer is free to
    /// reuse immediately and dropping the request never loses the
    /// message. Fault-plan drop/delay rules apply exactly as for the
    /// blocking [`send`](super::Communicator::send).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidRank`], [`RuntimeError::RankDead`]
    /// (self or `dst`), or [`RuntimeError::RetriesExhausted`] — all
    /// at post time.
    pub fn isend<T: Wire>(&self, dst: usize, value: &T) -> Result<SendRequest<'_>, RuntimeError> {
        const OP: &str = "isend";
        self.check_rank(OP, dst)?;
        let start = self.op_begin(OP)?;
        let bytes = value.to_bytes();
        let bytes_len = bytes.len() as u64;
        // Charge the sender's virtual clock now (post time); the
        // receiver pays the rest at delivery via `SimComm::arrive`.
        let vready = self.plane.sim.as_ref().map(|s| {
            s.lock()
                .expect("sim poisoned")
                .post_send(self.rank, dst, bytes.len() as f64)
        });
        self.raw_send_at(OP, dst, bytes.into(), vready)?;
        Ok(SendRequest {
            comm: self,
            start,
            dst,
            bytes_len,
        })
    }

    /// Posts a nonblocking typed receive from `src` and returns the
    /// request. Nothing blocks until [`wait`](Request::wait) (or a
    /// [`test`](Request::test) poll); the per-operation deadline is
    /// measured from the entry to `wait`, so compute between post and
    /// `wait` is never billed against it.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidRank`] or [`RuntimeError::RankDead`]
    /// (self) at post time; source death, deadline and decode errors
    /// surface at `wait`.
    pub fn irecv<T: Wire>(&self, src: usize) -> Result<RecvRequest<'_, T>, RuntimeError> {
        const OP: &str = "irecv";
        self.check_rank(OP, src)?;
        let start = self.op_begin(OP)?;
        Ok(RecvRequest {
            comm: self,
            start,
            src,
            _payload: PhantomData,
        })
    }

    /// Posts a nonblocking broadcast from `root` (which must supply
    /// `Some(value)`; other ranks pass `None`, exactly as the
    /// blocking [`bcast`](super::Communicator::bcast)) and returns
    /// the request.
    ///
    /// The root's sends happen at post time — children can pick the
    /// payload up while the root computes. On the sim backend the
    /// schedule's hop plan is charged from each participant's
    /// post-time clock, so communication overlapped with
    /// [`advance_compute`](Self::advance_compute) costs no virtual
    /// time; with no intervening compute the charge is bit-identical
    /// to the blocking path's.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidRank`], [`RuntimeError::RankDead`]
    /// (self) and [`RuntimeError::RequestBusy`] (a collective request
    /// is already outstanding on this rank) at post time; everything
    /// else at `wait`.
    pub fn ibcast<T: Wire>(
        &self,
        root: usize,
        value: Option<&T>,
    ) -> Result<BcastRequest<'_, T>, RuntimeError> {
        const OP: &str = "ibcast";
        self.check_rank(OP, root)?;
        self.coll_acquire(OP)?;
        let start = match self.op_begin(OP) {
            Ok(s) => s,
            Err(e) => {
                self.coll_release();
                return Err(e);
            }
        };
        self.note_overlap_base();
        let resolved = self.plane.policy.bcast.resolve_rooted(self.plane.size);
        let mut inner = BcastInner {
            start,
            root,
            resolved,
            moved: 0,
            bytes: None,
            data_err: None,
            gen: None,
            data_done: self.rank == root,
        };
        if self.rank == root {
            match value {
                None => {
                    inner.data_err = Some(RuntimeError::App(
                        "ibcast: root must supply Some(value)".to_owned(),
                    ))
                }
                Some(value) => {
                    let bytes = value.to_bytes();
                    match self.ibcast_root_data(OP, resolved, bytes) {
                        Ok((bytes, moved)) => {
                            inner.bytes = Some(bytes);
                            inner.moved = moved;
                        }
                        Err(e) => inner.data_err = Some(e),
                    }
                }
            }
            // The root's data phase is done; join the closing barrier
            // now so a fast non-root `wait` can already complete it.
            match self.raw_barrier_arrive(OP, None) {
                Ok(gen) => inner.gen = Some(gen),
                Err(e) => {
                    if inner.data_err.is_none() {
                        inner.data_err = Some(e);
                    }
                }
            }
        }
        Ok(BcastRequest {
            comm: self,
            inner: Some(inner),
            _payload: PhantomData,
        })
    }

    /// Posts a nonblocking all-gather of this rank's `value` and
    /// returns the request; `wait` yields every rank's contribution
    /// in rank order, exactly as the blocking
    /// [`allgatherv`](super::Communicator::allgatherv). The data
    /// phase (under the policy-resolved hub/ring/butterfly schedule)
    /// runs inside `wait`/`test`; on the sim backend its hop plan is
    /// charged from each participant's post-time clock.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::RankDead`] (self) and
    /// [`RuntimeError::RequestBusy`] at post time; peer death,
    /// deadline and decode errors at `wait`.
    pub fn iallgatherv<T: Wire>(
        &self,
        value: &T,
    ) -> Result<AllgathervRequest<'_, T>, RuntimeError> {
        const OP: &str = "iallgatherv";
        self.coll_acquire(OP)?;
        let start = match self.op_begin(OP) {
            Ok(s) => s,
            Err(e) => {
                self.coll_release();
                return Err(e);
            }
        };
        self.note_overlap_base();
        let own = value.to_bytes();
        let resolved = self
            .plane
            .policy
            .allgatherv
            .resolve_allgatherv(self.plane.size, own.len() as u64);
        Ok(AllgathervRequest {
            comm: self,
            inner: Some(AgInner {
                start,
                resolved,
                machine: AgMachine::Start { own },
                moved: 0,
                slots: None,
                data_err: None,
                gen: None,
            }),
            _payload: PhantomData,
        })
    }

    /// Credits `seconds` of local computation to this rank's virtual
    /// clock (sim backend). On the thread backend compute is real
    /// wall time, so this is a no-op. Use it between posting a
    /// request and `wait` to model the compute the communication
    /// should hide under.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::App`] if `seconds` is negative or not finite.
    pub fn advance_compute(&self, seconds: f64) -> Result<(), RuntimeError> {
        if !seconds.is_finite() || seconds < 0.0 {
            return Err(RuntimeError::App(format!(
                "advance_compute: seconds must be finite and >= 0 (got {seconds})"
            )));
        }
        if let Some(sim) = &self.plane.sim {
            sim.lock().expect("sim poisoned").advance(self.rank, seconds);
        }
        Ok(())
    }

    /// Root-side `ibcast` data phase: run the sends (and deposit the
    /// virtual-time charge) immediately, returning the root's own
    /// copy of the payload.
    fn ibcast_root_data(
        &self,
        op: &'static str,
        resolved: Resolved,
        bytes: Vec<u8>,
    ) -> Result<(Vec<u8>, u64), RuntimeError> {
        match resolved {
            Resolved::Hub => {
                let live = self.agreed_live();
                for &dst in &live {
                    if dst == self.rank {
                        continue;
                    }
                    self.send_tolerant(op, dst, &bytes)?;
                }
                let lens = vec![bytes.len() as u64; live.len()];
                let rounds = vec![collective::star_scatter_round(&live, self.rank, &lens)];
                self.deposit(charge_of(&rounds));
                let n = bytes.len() as u64;
                Ok((bytes, n))
            }
            Resolved::Ring | Resolved::Tree => {
                let (blob, msg_len) = self.bcast_tree_data(op, self.rank, Some(bytes))?;
                let blob = blob.expect("the root always holds its own value");
                Ok((blob, msg_len))
            }
        }
    }

    /// Agreed-tree coordinates of this (non-root) rank for a rooted
    /// schedule: `(live list, virtual root position, virtual index)`.
    fn bcast_position(
        &self,
        op: &'static str,
        root: usize,
    ) -> Result<(Vec<usize>, usize, usize), RuntimeError> {
        let live = self.agreed_live();
        let q = live.len();
        let Some(vroot) = live.iter().position(|&r| r == root) else {
            return Err(RuntimeError::RankDead { op, rank: root });
        };
        let pos = self.agreed_pos(op, &live)?;
        Ok((live, vroot, (pos + q - vroot) % q))
    }

    /// Claims this rank's single outstanding-collective-request slot.
    fn coll_acquire(&self, op: &'static str) -> Result<(), RuntimeError> {
        let mut st = self.plane.lock();
        if st.coll_pending[self.rank] {
            return Err(RuntimeError::RequestBusy {
                op,
                rank: self.rank,
            });
        }
        st.coll_pending[self.rank] = true;
        Ok(())
    }

    /// Releases the outstanding-collective-request slot.
    fn coll_release(&self) {
        self.plane.lock().coll_pending[self.rank] = false;
    }

    /// Records this rank's post-time virtual clock as the overlap
    /// baseline the closing barrier's completer charges the
    /// collective schedule from (sim backend only).
    fn note_overlap_base(&self) {
        if let Some(sim) = &self.plane.sim {
            // Lock order: plane state, then sim — the same order the
            // barrier completer uses.
            let mut st = self.plane.lock();
            let t = sim.lock().expect("sim poisoned").time(self.rank);
            st.overlap_base[self.rank] = Some(t);
        }
    }

    /// Parks the calling rank until mail (or a barrier completion)
    /// may have arrived, or the deadline passes — the blocking glue
    /// between nonblocking `step` attempts.
    fn park(&self, op: &'static str, deadline_at: Instant) -> Result<(), RuntimeError> {
        let plane = &self.plane;
        let mut st = plane.lock();
        let now = Instant::now();
        if now >= deadline_at {
            return Err(self.timeout(op, &mut st));
        }
        let mut wait = (deadline_at - now).min(Duration::from_millis(50));
        if let Some(ready_in) = self.next_delay_wakeup(&st) {
            wait = wait.min(ready_in);
        }
        let _ = plane
            .cv
            .wait_timeout(st, wait)
            .expect("runtime plane poisoned");
        Ok(())
    }
}
