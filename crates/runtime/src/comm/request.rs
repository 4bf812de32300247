//! MPI-style nonblocking requests: `isend`/`irecv`/`ibcast`,
//! completed by `wait`/`test`/[`wait_all`].
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
//! * [`BcastRequest`] is a split collective: the closing barrier of
//!   the underlying BSP collective is joined at post (root
//!   broadcast) or during `wait`/`test`, and the
//!   virtual-time hop plan is charged **from the post-time clocks**,
//!   so communication that fits under compute between post and
//!   `wait` costs no virtual time. Dropping it
//!   without `wait` completes it silently (result discarded), so
//!   peers never deadlock at the closing barrier.
//!
//! # One definition per schedule
//!
//! A split collective is an untyped resumable data phase under one
//! driver (`Split`) that owns the post, the closing barrier, the
//! error precedence (data phase, then barrier, then decode), the
//! trace event and the completing `Drop`. There is one phase per
//! collective, and it is the only definition of that collective's
//! schedule on the mailbox plane:
//!
//! * `Bcast` (bytes in, bytes out) carries `bcast` and `ibcast`;
//! * `Scatter` (parts in, this rank's part out) carries `scatterv`;
//! * `Gather` (bytes in, the root's slots out) carries `gatherv` and
//!   `gather_available`;
//! * `Allgather` (bytes in, slots out) carries `allgatherv`,
//!   `allgatherv_available` and the ring/tree `allreduce`;
//! * `HubReduce` (a value in, the fold out) carries the hub
//!   `allreduce`.
//!
//! The payload type appears only in thin decoders applied to what the
//! machine yields. Every blocking collective of
//! [`Communicator`](super::Communicator) except `barrier` (a bare
//! barrier generation, with no data phase) posts its machine and
//! completes it in the same call. Where a request form exists, the two
//! differ in three arguments: the op tag carried by trace events and
//! errors, the deadline instant (anchored at `op_begin` instead of the
//! entry to `wait`) and whether the post-time clock is recorded as an
//! overlap base.
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
use std::mem;
use std::task::Poll;
use std::time::{Duration, Instant};

use crate::collective::{self, fold_slots, Resolved, Rounds, Slots};
use crate::error::RuntimeError;
use crate::wire::{decode_as, Wire};

use super::{OpStart, ReduceOp, ThreadedComm};
use crate::ledger::Charge;

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
        let value = self.comm.noted(decode_as::<T>(OP, bytes))?;
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
        let bytes = self.comm.noted(self.comm.raw_recv_deadline(OP, self.src, deadline_at))?;
        self.finish(&bytes)
    }

    fn test(self) -> Result<Progress<Self>, RuntimeError> {
        const OP: &str = "irecv";
        match self.comm.noted(self.comm.try_take(OP, self.src))? {
            Some(bytes) => self.finish(&bytes).map(Progress::Ready),
            None => Ok(Progress::Pending(self)),
        }
    }
}

/// The resumable, untyped data phase of one split collective:
/// everything between `op_begin` and the closing barrier, written as a
/// state machine over nonblocking receives so that `test` can poll it
/// and `wait` (or a blocking collective) can park between attempts.
/// This is the only definition of the schedule on the mailbox plane.
pub(super) trait DataPhase {
    /// What the phase yields: raw bytes or raw [`Slots`].
    type Output;

    /// Drives the phase as far as arrived mail allows. Sends tagged
    /// `op` happen on the way; `moved` accumulates the bytes through
    /// this rank for the trace event. An error ends the phase.
    fn step(
        &mut self,
        comm: &ThreadedComm,
        op: &'static str,
        moved: &mut u64,
    ) -> Result<Poll<Self::Output>, RuntimeError>;

    /// The trace addendum: `(peer, schedule, rounds)` over `live`
    /// agreed-live ranks.
    fn describe(&self, live: usize) -> (i64, Resolved, u64);
}

/// A split collective in flight: one [`DataPhase`] plus the closing
/// barrier of the BSP collective, driven to completion by
/// [`complete`](Self::complete) or polled by [`test`](Self::test).
/// The nonblocking requests wrap one; a blocking collective posts one
/// and completes it in the same call.
pub(super) struct Split<'c, P: DataPhase> {
    comm: &'c ThreadedComm,
    op: &'static str,
    start: OpStart,
    phase: P,
    moved: u64,
    /// How the data phase ended, once it has.
    data: Option<Result<P::Output, RuntimeError>>,
    /// The closing-barrier generation joined, once arrived.
    fence: Option<Result<u64, RuntimeError>>,
    /// Completed and released; nothing left for `Drop` to do.
    done: bool,
}

impl<'c, P: DataPhase> Split<'c, P> {
    /// Claims the rank's collective slot, runs the op prologue and
    /// builds the phase (after `op_begin`, so a payload is encoded
    /// inside the operation it belongs to). `overlap` records the
    /// post-time clock as the baseline the hop plan is charged from.
    pub(super) fn post(
        comm: &'c ThreadedComm,
        op: &'static str,
        overlap: bool,
        phase: impl FnOnce() -> P,
    ) -> Result<Self, RuntimeError> {
        comm.noted(comm.coll_acquire(op))?;
        let start = match comm.op_begin(op) {
            Ok(s) => s,
            Err(e) => {
                comm.coll_release();
                return Err(e);
            }
        };
        if overlap && comm.plane.clocked {
            comm.plane.lock().ledger.note_overlap_base(comm.rank);
        }
        Ok(Self {
            comm,
            op,
            start,
            phase: phase(),
            moved: 0,
            data: None,
            fence: None,
            done: false,
        })
    }

    /// One nonblocking attempt at the data phase. Once it has ended,
    /// this rank joins the closing barrier — exactly once, *even when
    /// the phase failed*, so a mid-collective error on one rank cannot
    /// leave the others' generation short. A phase that failed for any
    /// reason but a peer's death (a message lost, a root's part
    /// missing) may leave peers waiting for what this rank did not
    /// send, so the rank leaves the plane first. Returns whether the
    /// barrier has been joined.
    fn advance(&mut self) -> bool {
        if self.data.is_none() {
            match self.phase.step(self.comm, self.op, &mut self.moved) {
                Ok(Poll::Pending) => return false,
                Ok(Poll::Ready(out)) => self.data = Some(Ok(out)),
                Err(e) => {
                    if self.comm.failed_with(&e) {
                        self.comm.leave();
                    }
                    self.data = Some(Err(e));
                }
            }
        }
        if self.fence.is_none() {
            self.fence = Some(self.comm.raw_barrier_arrive(self.op, None));
        }
        true
    }

    /// Blocks until the collective completes or `deadline_at` passes
    /// (the caller fail-stops), then yields `decode` of the raw output.
    pub(super) fn complete<O>(
        &mut self,
        deadline_at: Instant,
        decode: impl FnOnce(P::Output) -> Result<O, RuntimeError>,
    ) -> Result<O, RuntimeError> {
        loop {
            let seen = self.comm.wake_seq();
            if self.advance() {
                break;
            }
            if let Err(e) = self.comm.park(self.op, deadline_at, seen) {
                self.data = Some(Err(e));
            }
        }
        let fence = match self.fence.take().expect("advance joined the barrier") {
            Ok(gen) => self.comm.raw_barrier_wait(self.op, gen, deadline_at),
            Err(e) => Err(e),
        };
        self.finish(fence, decode)
    }

    /// [`complete`](Self::complete) against the request deadline: the
    /// budget runs from the entry to `wait`, so compute between post
    /// and `wait` is never billed against it.
    fn wait<O>(
        &mut self,
        decode: impl FnOnce(P::Output) -> Result<O, RuntimeError>,
    ) -> Result<O, RuntimeError> {
        self.complete(Instant::now() + self.comm.plane.deadline, decode)
    }

    /// Polls without blocking: `None` while the collective is pending.
    fn test<O>(
        &mut self,
        decode: impl FnOnce(P::Output) -> Result<O, RuntimeError>,
    ) -> Option<Result<O, RuntimeError>> {
        if !self.advance() {
            return None;
        }
        if let Some(Ok(gen)) = self.fence {
            if !self.comm.barrier_done(gen) {
                return None;
            }
        }
        let fence = self.fence.take().expect("advance joined the barrier");
        Some(self.finish(fence, decode))
    }

    /// Epilogue: releases the rank's collective slot and surfaces, in
    /// this order of precedence, the data-phase error, the barrier
    /// error, the decode error — or emits the trace event and yields
    /// the decoded value.
    fn finish<O>(
        &mut self,
        fence: Result<u64, RuntimeError>,
        decode: impl FnOnce(P::Output) -> Result<O, RuntimeError>,
    ) -> Result<O, RuntimeError> {
        self.done = true;
        self.comm.coll_release();
        if self.comm.plane.clocked {
            self.comm.plane.lock().ledger.settle(self.comm.rank);
        }
        let raw = self.comm.noted(self.data.take().expect("the data phase has ended"))?;
        let gen = self.comm.noted(fence)?;
        let out = self.comm.noted(decode(raw))?;
        let (peer, resolved, rounds) = self.phase.describe(self.comm.agreed_count());
        self.comm.op_end(
            self.op,
            peer,
            self.moved,
            &self.start,
            resolved.name(),
            rounds,
            gen,
        );
        Ok(out)
    }
}

impl<P: DataPhase> Drop for Split<'_, P> {
    fn drop(&mut self) {
        if !self.done && !std::thread::panicking() {
            // Complete silently: peers must not be left one arrival
            // short at the closing barrier.
            let _ = self.wait(|_| Ok(()));
        }
    }
}

/// Broadcast data phase: the root's sends, or a non-root's one receive
/// (and, on the tree, its forwards).
pub(super) struct Bcast {
    root: usize,
    resolved: Resolved,
    /// The root's encoded value; `None` elsewhere, and on a root that
    /// supplied none.
    own: Option<Vec<u8>>,
}

impl DataPhase for Bcast {
    type Output = Vec<u8>;

    fn step(
        &mut self,
        comm: &ThreadedComm,
        op: &'static str,
        moved: &mut u64,
    ) -> Result<Poll<Vec<u8>>, RuntimeError> {
        let is_root = comm.rank == self.root;
        if is_root && self.own.is_none() {
            return Err(RuntimeError::App(format!(
                "{op}: root must supply Some(value)"
            )));
        }
        match self.resolved {
            Resolved::Hub if is_root => {
                let bytes = self.own.take().expect("checked above");
                let live = comm.agreed_live();
                for &dst in live.iter().filter(|&&dst| dst != comm.rank) {
                    comm.send_tolerant(op, dst, &bytes)?;
                }
                comm.deposit(|| {
                    let lens = vec![bytes.len() as u64; live.len()];
                    Charge::Rounds(vec![collective::star_scatter_round(&live, self.root, &lens)])
                });
                *moved = bytes.len() as u64;
                Ok(Poll::Ready(bytes))
            }
            Resolved::Hub => Ok(match comm.try_take(op, self.root)? {
                Some(bytes) => {
                    *moved = bytes.len() as u64;
                    Poll::Ready(bytes)
                }
                None => Poll::Pending,
            }),
            // The blob flows root-outward along the binomial tree,
            // `Option`-framed so an upstream death propagates as an
            // explicit `None` in one hop per level instead of
            // cascading deadline fail-stops through the subtree.
            Resolved::Ring | Resolved::Tree => {
                let (tree, vi) = comm.rooted_tree(op, self.root)?;
                let framed: Option<Vec<u8>> = match collective::binomial_parent(vi) {
                    None => self.own.take(),
                    Some(parent_vi) => match comm.try_recv_tolerant(op, tree[parent_vi])? {
                        Poll::Pending => return Ok(Poll::Pending),
                        Poll::Ready(Some(raw)) => decode_as(op, &raw)?,
                        Poll::Ready(None) => None,
                    },
                };
                let msg = framed.to_bytes();
                for (_, child_vi) in collective::binomial_children(vi, tree.len()) {
                    comm.send_tolerant(op, tree[child_vi], &msg)?;
                }
                if vi == 0 {
                    comm.deposit(|| {
                        Charge::Rounds(collective::bcast_rounds(&tree, 0, msg.len() as u64))
                    });
                }
                *moved = msg.len() as u64;
                // `None`: somewhere on the root-to-here path a rank
                // died. Surfaced as the root being unreachable.
                framed.map(Poll::Ready).ok_or(RuntimeError::RankDead {
                    op,
                    rank: self.root,
                })
            }
        }
    }

    fn describe(&self, live: usize) -> (i64, Resolved, u64) {
        let rounds = collective::rooted_rounds(self.resolved, live);
        (self.root as i64, self.resolved, rounds)
    }
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
    split: Split<'c, Bcast>,
    _payload: PhantomData<fn() -> T>,
}

impl<T: Wire> BcastRequest<'_, T> {
    fn decode(bytes: Vec<u8>) -> Result<T, RuntimeError> {
        decode_as::<T>("ibcast", &bytes)
    }
}

impl<T: Wire> Request for BcastRequest<'_, T> {
    type Output = T;

    fn wait(mut self) -> Result<T, RuntimeError> {
        self.split.wait(Self::decode)
    }

    fn test(mut self) -> Result<Progress<Self>, RuntimeError> {
        match self.split.test(Self::decode) {
            None => Ok(Progress::Pending(self)),
            Some(done) => done.map(Progress::Ready),
        }
    }
}

/// Scatter data phase: the root's sends, or a non-root's one receive
/// (and, on the tree, its forwards). Yields this rank's encoded part.
pub(super) struct Scatter {
    root: usize,
    resolved: Resolved,
    /// The root's encoded parts, or why it has none; `None` elsewhere.
    parts: Option<Result<Vec<Vec<u8>>, RuntimeError>>,
}

impl DataPhase for Scatter {
    type Output = Vec<u8>;

    fn step(
        &mut self,
        comm: &ThreadedComm,
        op: &'static str,
        moved: &mut u64,
    ) -> Result<Poll<Vec<u8>>, RuntimeError> {
        let size = comm.plane.size;
        // The root's `Some(parts)` and arity checks end its phase here.
        let parts = self.parts.take().transpose()?;
        match (self.resolved, parts) {
            (Resolved::Hub, Some(mut parts)) => {
                let live = comm.agreed_live();
                for &dst in live.iter().filter(|&&dst| dst != comm.rank) {
                    *moved += parts[dst].len() as u64;
                    comm.send_tolerant(op, dst, &parts[dst])?;
                }
                comm.deposit(|| {
                    let lens: Vec<u64> = live.iter().map(|&r| parts[r].len() as u64).collect();
                    Charge::Rounds(vec![collective::star_scatter_round(&live, self.root, &lens)])
                });
                Ok(Poll::Ready(mem::take(&mut parts[comm.rank])))
            }
            (Resolved::Hub, None) => Ok(match comm.try_take(op, self.root)? {
                Some(bytes) => {
                    *moved = bytes.len() as u64;
                    Poll::Ready(bytes)
                }
                None => Poll::Pending,
            }),
            // Each rank receives its subtree's slot bundle from its
            // parent and forwards every child the child's share of it.
            (Resolved::Ring | Resolved::Tree, parts) => {
                let (tree, vi) = comm.rooted_tree(op, self.root)?;
                let q = tree.len();
                let mut slots: Slots = match (parts, collective::binomial_parent(vi)) {
                    (Some(parts), _) => {
                        comm.deposit(|| {
                            let lens_by_vi: Vec<u64> =
                                tree.iter().map(|&r| parts[r].len() as u64).collect();
                            Charge::Rounds(collective::scatterv_rounds(size, &tree, 0, &lens_by_vi))
                        });
                        parts.into_iter().map(Some).collect()
                    }
                    (None, parent_vi) => {
                        let parent = tree[parent_vi.expect("a non-root has a parent")];
                        match comm.try_recv_tolerant(op, parent)? {
                            Poll::Pending => return Ok(Poll::Pending),
                            Poll::Ready(Some(bytes)) => {
                                *moved += bytes.len() as u64;
                                let bundle: Slots = decode_as(op, &bytes)?;
                                if bundle.len() == size {
                                    bundle
                                } else {
                                    vec![None; size]
                                }
                            }
                            // Dead parent: this subtree's parts are lost.
                            // Forward the poison bundle so descendants
                            // degrade in one hop instead of timing out.
                            Poll::Ready(None) => vec![None; size],
                        }
                    }
                };
                for (_, child_vi) in collective::binomial_children(vi, q) {
                    let mut bundle: Slots = vec![None; size];
                    for v in collective::binomial_subtree(child_vi, q) {
                        bundle[tree[v]] = slots[tree[v]].clone();
                    }
                    let msg = bundle.to_bytes();
                    *moved += msg.len() as u64;
                    comm.send_tolerant(op, tree[child_vi], msg)?;
                }
                slots[comm.rank]
                    .take()
                    .map(Poll::Ready)
                    .ok_or(RuntimeError::RankDead {
                        op,
                        rank: self.root,
                    })
            }
        }
    }

    fn describe(&self, live: usize) -> (i64, Resolved, u64) {
        let rounds = collective::rooted_rounds(self.resolved, live);
        (self.root as i64, self.resolved, rounds)
    }
}

/// Gather data phase, shared by `gatherv` and `gather_available`.
/// Yields the contribution slots on the root, `None` elsewhere.
pub(super) struct Gather {
    root: usize,
    resolved: Resolved,
    /// Contributions held so far, this rank's own included.
    held: Slots,
    /// The hub root's next fan-in source, or how many children a tree
    /// rank has heard from.
    next: usize,
}

impl DataPhase for Gather {
    type Output = Option<Slots>;

    fn step(
        &mut self,
        comm: &ThreadedComm,
        op: &'static str,
        moved: &mut u64,
    ) -> Result<Poll<Option<Slots>>, RuntimeError> {
        let own_len = slot_len(&self.held[comm.rank]);
        // Hub: one star fan-in round to the root.
        if self.resolved == Resolved::Hub {
            if comm.rank != self.root {
                // Root death is fatal for a gather.
                let own = self.held[comm.rank].take().expect("own contribution");
                *moved = own_len;
                comm.raw_send(op, self.root, own)?;
                return Ok(Poll::Ready(None));
            }
            let fanned_in = comm.fan_in(op, &mut self.held, &mut self.next)?;
            if fanned_in.is_pending() {
                return Ok(Poll::Pending);
            }
            let live = comm.agreed_live();
            let lens = || live.iter().map(|&r| slot_len(&self.held[r]));
            *moved = own_len + lens().sum::<u64>();
            comm.deposit(|| {
                let lens: Vec<u64> = lens().collect();
                Charge::Rounds(vec![collective::star_gather_round(&live, self.root, &lens)])
            });
            return Ok(Poll::Ready(Some(mem::take(&mut self.held))));
        }
        // Ring/tree: the reverse binomial tree. Every rank merges its
        // children's slot bundles (a dead child loses its whole
        // subtree's contributions — they stay `None`) and forwards the
        // merged bundle to its parent.
        let size = comm.plane.size;
        let (tree, vi) = comm.rooted_tree(op, self.root)?;
        // Children deliver in descending round order (the reverse of
        // the broadcast schedule): the child reached last sends first.
        let children = collective::binomial_children(vi, tree.len());
        for &(_, child_vi) in children.iter().rev().skip(self.next) {
            let Poll::Ready(mail) = comm.try_recv_tolerant(op, tree[child_vi])? else {
                return Ok(Poll::Pending);
            };
            absorb(&mut self.held, op, moved, mail)?;
            self.next += 1;
        }
        *moved += own_len;
        let Some(parent_vi) = collective::binomial_parent(vi) else {
            comm.deposit(|| {
                let lens_by_vi: Vec<u64> = tree.iter().map(|&r| slot_len(&self.held[r])).collect();
                Charge::Rounds(collective::gatherv_rounds(size, &tree, 0, &lens_by_vi))
            });
            return Ok(Poll::Ready(Some(mem::take(&mut self.held))));
        };
        let msg = self.held.to_bytes();
        *moved += msg.len() as u64;
        // A dead parent orphans this subtree's contributions — the
        // root degrades them to `None` slots.
        comm.send_tolerant(op, tree[parent_vi], msg)?;
        Ok(Poll::Ready(None))
    }

    fn describe(&self, live: usize) -> (i64, Resolved, u64) {
        let rounds = collective::rooted_rounds(self.resolved, live);
        (self.root as i64, self.resolved, rounds)
    }
}

/// All-gather data phase under the three rootless schedules (hub
/// star, pipelined ring, recursive-doubling butterfly), shared by
/// `allgatherv`, `allgatherv_available` and the ring/tree
/// `allreduce`. Yields the contribution slots,
/// absolute-rank-indexed; `None` = dead or lost.
pub(super) struct Allgather {
    resolved: Resolved,
    /// The agreed-live ranks the schedule runs over and this rank's
    /// position among them, fixed by the first step (the agreement
    /// cannot move before this rank reaches the closing barrier).
    live: Vec<usize>,
    pos: usize,
    /// Contributions held so far.
    held: Slots,
    own_len: u64,
    at: At,
}

/// Where an [`Allgather`] resumes. The sends of a stage happen on the
/// transition *into* it; a step re-polls only the receives.
enum At {
    /// Nothing sent yet.
    Start,
    /// Non-hub rank awaiting the hub's slot blob.
    HubLeaf,
    /// Hub collecting contributions in ascending rank order.
    HubCenter { next_src: usize },
    /// Ring rank inside round `k`, awaiting the block from `prev`.
    Ring { k: usize },
    /// Folded butterfly rank (`pos >= 2^⌊log q⌋`) awaiting the core's
    /// result from its partner.
    BflyFold,
    /// Core butterfly rank: optional fold-in, then the mask rounds.
    BflyCore {
        /// Still awaiting the folded partner's contribution.
        fold_pending: bool,
        mask: usize,
        /// The current mask round's send has been posted.
        sent: bool,
    },
}

/// Merges a partner's slot vector into `held`, counting it as moved. A
/// dead partner (`None`) or a wrong-sized vector leaves holes.
fn absorb(
    held: &mut Slots,
    op: &'static str,
    moved: &mut u64,
    mail: Option<Vec<u8>>,
) -> Result<(), RuntimeError> {
    if let Some(bytes) = mail {
        *moved += bytes.len() as u64;
        let theirs: Slots = decode_as(op, &bytes)?;
        if theirs.len() == held.len() {
            // A present slot is never overwritten, so the first copy
            // of a contribution wins — all copies are byte-identical
            // by construction.
            for (dst, src) in held.iter_mut().zip(theirs) {
                if dst.is_none() {
                    *dst = src;
                }
            }
        }
    }
    Ok(())
}

/// Encoded length of a held slot, 0 for a hole.
fn slot_len(slot: &Option<Vec<u8>>) -> u64 {
    slot.as_ref().map_or(0, |b| b.len() as u64)
}

impl Allgather {
    fn new(comm: &ThreadedComm, own: Vec<u8>, resolved: Resolved) -> Self {
        Self {
            resolved,
            live: Vec::new(),
            pos: 0,
            own_len: own.len() as u64,
            held: comm.own_slot(own),
            at: At::Start,
        }
    }

    /// Sends everything held so far to `dst`, counting it as moved.
    fn send_held(
        &self,
        comm: &ThreadedComm,
        op: &'static str,
        moved: &mut u64,
        dst: usize,
    ) -> Result<(), RuntimeError> {
        let msg = self.held.to_bytes();
        *moved += msg.len() as u64;
        comm.send_tolerant(op, dst, msg)
    }

    /// Sends the ring block that originated `back` positions upstream
    /// to the next neighbour, `Option`-framed so a hole in the ring
    /// degrades to `None` slots downstream instead of stalling the
    /// pipeline.
    fn send_block(
        &self,
        comm: &ThreadedComm,
        op: &'static str,
        moved: &mut u64,
        back: usize,
    ) -> Result<(), RuntimeError> {
        let q = self.live.len();
        let msg = self.held[self.live[(self.pos + q - back) % q]].to_bytes();
        *moved += msg.len() as u64;
        comm.send_tolerant(op, self.live[(self.pos + 1) % q], msg)
    }

    /// The schedule is over: the lowest agreed-live rank deposits its
    /// charge, every rank yields its slots.
    fn done(&mut self, comm: &ThreadedComm, rounds: impl FnOnce(&Self) -> Rounds) -> Poll<Slots> {
        if comm.rank == self.live[0] {
            comm.deposit(|| Charge::Rounds(rounds(self)));
        }
        Poll::Ready(mem::take(&mut self.held))
    }

    /// Per-position message lengths for the charge: `len` of each held
    /// contribution's payload length, `None` for a lost one.
    fn lens(&self, len: impl Fn(Option<u64>) -> u64) -> Vec<u64> {
        self.live
            .iter()
            .map(|&r| len(self.held[r].as_ref().map(|b| b.len() as u64)))
            .collect()
    }
}

impl DataPhase for Allgather {
    type Output = Slots;

    fn step(
        &mut self,
        comm: &ThreadedComm,
        op: &'static str,
        moved: &mut u64,
    ) -> Result<Poll<Slots>, RuntimeError> {
        let size = comm.plane.size;
        if let At::Start = self.at {
            if size == 1 {
                return Ok(Poll::Ready(mem::take(&mut self.held)));
            }
            self.live = comm.agreed_live();
            self.pos = comm.agreed_pos(op, &self.live)?;
            let (q, pos) = (self.live.len(), self.pos);
            if q == 1 && self.resolved != Resolved::Hub {
                return Ok(Poll::Ready(mem::take(&mut self.held)));
            }
            self.at = match self.resolved {
                // Star fan-in to the lowest agreed-live rank, then a
                // star fan-out of the full slot vector: two rounds,
                // both serialised at the hub's ports.
                Resolved::Hub => {
                    *moved = self.own_len;
                    let hub = self.live[0];
                    if comm.rank == hub {
                        At::HubCenter { next_src: 0 }
                    } else {
                        // Hub death is fatal for the hub schedule —
                        // the single point of failure `ring`/`tree`
                        // remove.
                        let own = self.held[comm.rank].take().expect("own contribution");
                        comm.raw_send(op, hub, own)?;
                        At::HubLeaf
                    }
                }
                // `q - 1` pipelined nearest-neighbour rounds; round 0
                // forwards the own block.
                Resolved::Ring => {
                    self.send_block(comm, op, moved, 0)?;
                    At::Ring { k: 0 }
                }
                // `ceil(log2 q)` pairwise exchange rounds, plus a
                // fold-in/fold-out pair when `q` is not a power of two.
                Resolved::Tree => {
                    let q2 = collective::prev_pow2(q);
                    if pos >= q2 {
                        self.send_held(comm, op, moved, self.live[pos - q2])?;
                        At::BflyFold
                    } else {
                        At::BflyCore {
                            fold_pending: pos + q2 < q,
                            mask: 1,
                            sent: false,
                        }
                    }
                }
            };
        }
        let (q, pos) = (self.live.len(), self.pos);
        match self.at {
            At::Start => unreachable!("left above"),
            At::HubLeaf => {
                let Some(blob) = comm.try_take(op, self.live[0])? else {
                    return Ok(Poll::Pending);
                };
                *moved += blob.len() as u64;
                let slots: Slots = decode_as(op, &blob)?;
                if slots.len() != size {
                    return Err(RuntimeError::Decode {
                        what: op,
                        detail: format!(
                            "hub blob has {} slots, communicator size is {size}",
                            slots.len()
                        ),
                    });
                }
                Ok(Poll::Ready(slots))
            }
            At::HubCenter { mut next_src } => {
                let fanned_in = comm.fan_in(op, &mut self.held, &mut next_src)?;
                if fanned_in.is_pending() {
                    self.at = At::HubCenter { next_src };
                    return Ok(Poll::Pending);
                }
                let blob = self.held.to_bytes();
                for &dst in &self.live[1..] {
                    comm.send_tolerant(op, dst, &blob)?;
                    *moved += blob.len() as u64;
                }
                Ok(self.done(comm, |ag| {
                    let hub = ag.live[0];
                    let out_lens = vec![blob.len() as u64; q];
                    vec![
                        collective::star_gather_round(&ag.live, hub, &ag.lens(|n| n.unwrap_or(0))),
                        collective::star_scatter_round(&ag.live, hub, &out_lens),
                    ]
                }))
            }
            At::Ring { mut k } => {
                let prev = self.live[(pos + q - 1) % q];
                while k < q - 1 {
                    let Poll::Ready(mail) = comm.try_recv_tolerant(op, prev)? else {
                        self.at = At::Ring { k };
                        return Ok(Poll::Pending);
                    };
                    if let Some(bytes) = mail {
                        *moved += bytes.len() as u64;
                        self.held[self.live[(pos + q - 1 - k) % q]] = decode_as(op, &bytes)?;
                    }
                    k += 1;
                    if k < q - 1 {
                        self.send_block(comm, op, moved, k)?;
                    }
                }
                // A ring block travels framed.
                Ok(self.done(comm, |ag| {
                    collective::ring_rounds(&ag.live, &ag.lens(collective::framed_len))
                }))
            }
            At::BflyFold => {
                let partner = self.live[pos - collective::prev_pow2(q)];
                let Poll::Ready(mail) = comm.try_recv_tolerant(op, partner)? else {
                    return Ok(Poll::Pending);
                };
                absorb(&mut self.held, op, moved, mail)?;
                Ok(Poll::Ready(mem::take(&mut self.held)))
            }
            // Messages are absolute-rank-indexed slot vectors, so a
            // partner's death degrades to `None` slots.
            At::BflyCore {
                fold_pending,
                mut mask,
                mut sent,
            } => {
                let q2 = collective::prev_pow2(q);
                if fold_pending {
                    let Poll::Ready(mail) = comm.try_recv_tolerant(op, self.live[pos + q2])? else {
                        return Ok(Poll::Pending);
                    };
                    absorb(&mut self.held, op, moved, mail)?;
                }
                while mask < q2 {
                    let partner = self.live[pos ^ mask];
                    if !sent {
                        self.send_held(comm, op, moved, partner)?;
                    }
                    let Poll::Ready(mail) = comm.try_recv_tolerant(op, partner)? else {
                        self.at = At::BflyCore {
                            fold_pending: false,
                            mask,
                            sent: true,
                        };
                        return Ok(Poll::Pending);
                    };
                    absorb(&mut self.held, op, moved, mail)?;
                    mask <<= 1;
                    sent = false;
                }
                if pos + q2 < q {
                    self.send_held(comm, op, moved, self.live[pos + q2])?;
                }
                let hole = self.own_len;
                Ok(self.done(comm, |ag| {
                    collective::butterfly_rounds(size, &ag.live, &ag.lens(|n| n.unwrap_or(hole)))
                }))
            }
        }
    }

    fn describe(&self, live: usize) -> (i64, Resolved, u64) {
        (
            -1,
            self.resolved,
            collective::rootless_rounds(self.resolved, live),
        )
    }
}

/// Hub all-reduce data phase: a star fan-in of the raw contributions
/// to the lowest agreed-live rank, the fold there ([`fold_slots`], the
/// pinned rank-ascending order) and a star fan-out of the 8-byte
/// result. The ring and tree schedules run [`Allgather`] instead.
pub(super) struct HubReduce {
    rop: ReduceOp,
    /// Contributions held so far; a leaf's own leaves at its first step.
    held: Slots,
    /// The hub's next fan-in source.
    next_src: usize,
}

impl DataPhase for HubReduce {
    type Output = f64;

    fn step(
        &mut self,
        comm: &ThreadedComm,
        op: &'static str,
        moved: &mut u64,
    ) -> Result<Poll<f64>, RuntimeError> {
        let live = comm.agreed_live();
        let hub = live[0];
        if comm.rank != hub {
            if let Some(own) = self.held[comm.rank].take() {
                comm.raw_send(op, hub, own)?;
            }
            let Some(bytes) = comm.try_take(op, hub)? else {
                return Ok(Poll::Pending);
            };
            *moved = 16;
            return decode_as::<f64>(op, &bytes).map(Poll::Ready);
        }
        let fanned_in = comm.fan_in(op, &mut self.held, &mut self.next_src)?;
        if fanned_in.is_pending() {
            return Ok(Poll::Pending);
        }
        let folded = fold_slots(op, &self.held, self.rop)?;
        let bytes = folded.to_bytes();
        for &dst in &live[1..] {
            comm.send_tolerant(op, dst, &bytes)?;
        }
        comm.deposit(|| {
            let lens = vec![8u64; live.len()];
            Charge::Rounds(vec![
                collective::star_gather_round(&live, hub, &lens),
                collective::star_scatter_round(&live, hub, &lens),
            ])
        });
        *moved = 8 * live.len() as u64;
        Ok(Poll::Ready(folded))
    }

    fn describe(&self, live: usize) -> (i64, Resolved, u64) {
        let rounds = collective::rootless_rounds(Resolved::Hub, live);
        (-1, Resolved::Hub, rounds)
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
        // The ledger charges the sender's virtual clock at post; the
        // receiver pays the rest at delivery.
        self.noted(self.raw_send_at(OP, dst, bytes.into(), true))?;
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
        let mut split = self.post_bcast("ibcast", root, value, true)?;
        if self.rank == root {
            // The root's data phase is its sends: run them, and join
            // the closing barrier, now — so children can pick the
            // payload up while the root computes and a fast non-root
            // `wait` can already complete the barrier.
            split.advance();
        }
        Ok(BcastRequest {
            split,
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
            return self.noted(Err(RuntimeError::App(format!(
                "advance_compute: seconds must be finite and >= 0 (got {seconds})"
            ))));
        }
        if self.plane.clocked {
            self.plane.lock().ledger.compute(self.rank, seconds);
        }
        Ok(())
    }

    /// Posts the broadcast split collective under the op tag `op`;
    /// only the root's `value` is read.
    pub(super) fn post_bcast<T: Wire>(
        &self,
        op: &'static str,
        root: usize,
        value: Option<&T>,
        overlap: bool,
    ) -> Result<Split<'_, Bcast>, RuntimeError> {
        self.check_rank(op, root)?;
        let resolved = self.plane.policy.algorithm.resolve_rooted(self.plane.size);
        Split::post(self, op, overlap, || Bcast {
            root,
            resolved,
            own: value.filter(|_| self.rank == root).map(Wire::to_bytes),
        })
    }

    /// Posts the scatter split collective under the op tag `op`; only
    /// the root's `parts` are read.
    pub(super) fn post_scatterv<T: Wire>(
        &self,
        op: &'static str,
        root: usize,
        parts: Option<&[T]>,
    ) -> Result<Split<'_, Scatter>, RuntimeError> {
        self.check_rank(op, root)?;
        let size = self.plane.size;
        let resolved = self.plane.policy.algorithm.resolve_rooted(size);
        Split::post(self, op, false, || Scatter {
            root,
            resolved,
            parts: (self.rank == root).then(|| match parts {
                None => Err(RuntimeError::App(format!(
                    "{op}: root must supply Some(parts)"
                ))),
                Some(parts) if parts.len() != size => Err(RuntimeError::SizeMismatch {
                    op,
                    expected: size,
                    got: parts.len(),
                }),
                Some(parts) => Ok(parts.iter().map(Wire::to_bytes).collect()),
            }),
        })
    }

    /// Posts the gather split collective under the op tag `op`.
    pub(super) fn post_gather<T: Wire>(
        &self,
        op: &'static str,
        root: usize,
        value: &T,
    ) -> Result<Split<'_, Gather>, RuntimeError> {
        self.check_rank(op, root)?;
        let resolved = self.plane.policy.algorithm.resolve_rooted(self.plane.size);
        Split::post(self, op, false, || Gather {
            root,
            resolved,
            held: self.own_slot(value.to_bytes()),
            next: 0,
        })
    }

    /// Posts the hub all-reduce split collective under the op tag `op`.
    pub(super) fn post_hub_reduce(
        &self,
        op: &'static str,
        value: f64,
        rop: ReduceOp,
    ) -> Result<Split<'_, HubReduce>, RuntimeError> {
        Split::post(self, op, false, || HubReduce {
            rop,
            held: self.own_slot(value.to_bytes()),
            next_src: 0,
        })
    }

    /// Posts the all-gather split collective under the op tag `op`,
    /// with the schedule `resolve` picks for the encoded length.
    pub(super) fn post_allgather<T: Wire>(
        &self,
        op: &'static str,
        value: &T,
        resolve: impl FnOnce(u64) -> Resolved,
    ) -> Result<Split<'_, Allgather>, RuntimeError> {
        Split::post(self, op, false, || {
            let own = value.to_bytes();
            let resolved = resolve(own.len() as u64);
            Allgather::new(self, own, resolved)
        })
    }

    /// The policy's all-gather schedule for a `len`-byte contribution.
    pub(super) fn allgatherv_schedule(&self, len: u64) -> Resolved {
        self.plane.policy.algorithm.resolve_allgatherv(self.plane.size, len)
    }

    /// A slot vector holding only this rank's contribution `own`.
    fn own_slot(&self, own: Vec<u8>) -> Slots {
        let mut held: Slots = vec![None; self.plane.size];
        held[self.rank] = Some(own);
        held
    }

    /// One nonblocking attempt at a schedule-internal receive, mapping
    /// a dead sender to `Ready(None)`: the data that edge carried is
    /// lost, and the schedule degrades instead of erroring.
    fn try_recv_tolerant(
        &self,
        op: &'static str,
        src: usize,
    ) -> Result<Poll<Option<Vec<u8>>>, RuntimeError> {
        match self.try_take(op, src) {
            Ok(Some(bytes)) => Ok(Poll::Ready(Some(bytes))),
            Ok(None) => Ok(Poll::Pending),
            Err(RuntimeError::RankDead { rank, .. }) if rank == src => Ok(Poll::Ready(None)),
            Err(e) => Err(e),
        }
    }

    /// The hub fan-in every hub schedule shares: receives from every
    /// other rank in ascending order, resuming at `*next_src`; a dead
    /// sender leaves a hole in `held`.
    fn fan_in(
        &self,
        op: &'static str,
        held: &mut Slots,
        next_src: &mut usize,
    ) -> Result<Poll<()>, RuntimeError> {
        while *next_src < held.len() {
            if *next_src != self.rank {
                let Poll::Ready(slot) = self.try_recv_tolerant(op, *next_src)? else {
                    return Ok(Poll::Pending);
                };
                held[*next_src] = slot;
            }
            *next_src += 1;
        }
        Ok(Poll::Ready(()))
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

    /// Delivers the next message from `src` (per-pair FIFO, the
    /// receiver's half of a p2p hop charged at delivery), waiting up
    /// to `deadline_at` the way the machines wait:
    /// [`try_take`](Self::try_take), then [`park`](Self::park).
    pub(super) fn raw_recv_deadline(
        &self,
        op: &'static str,
        src: usize,
        deadline_at: Instant,
    ) -> Result<Vec<u8>, RuntimeError> {
        loop {
            let seen = self.wake_seq();
            if let Some(bytes) = self.try_take(op, src)? {
                return Ok(bytes);
            }
            self.park(op, deadline_at, seen)?;
        }
    }

    /// The plane's wake-up count, read *before* a nonblocking attempt
    /// whose failure leads to [`park`](Self::park).
    fn wake_seq(&self) -> u64 {
        self.plane.lock().wake_seq
    }

    /// Parks the calling rank until mail (or a barrier completion)
    /// may have arrived, or the deadline passes — the blocking glue
    /// between nonblocking `step` attempts. `seen` is the
    /// [`wake_seq`](Self::wake_seq) read before the attempt that just
    /// failed: if a wake-up landed since, it may be the very one that
    /// attempt missed, so this returns at once instead of sleeping a
    /// full poll tick through it.
    fn park(&self, op: &'static str, deadline_at: Instant, seen: u64) -> Result<(), RuntimeError> {
        let plane = &self.plane;
        let mut st = plane.lock();
        let now = Instant::now();
        if now >= deadline_at {
            return Err(self.timeout(op, &mut st));
        }
        if st.wake_seq != seen {
            return Ok(());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::RuntimeConfig;

    /// The lost wake-up, forced: mail lands after a failed poll and
    /// before the rank parks, when nobody is on the condvar to hear the
    /// notification. `park` must notice that the wake count moved past
    /// what the poll saw instead of sleeping its 50 ms tick through it.
    #[test]
    fn park_returns_at_once_when_a_wakeup_raced_the_poll() {
        let comms = RuntimeConfig::thread().build(2);
        let (waiter, sender) = (&comms[0], &comms[1]);
        let deadline_at = Instant::now() + Duration::from_secs(5);
        // Best of up to twenty: a loaded host descheduling this thread
        // cannot fail a bound that a sleeping `park` misses tenfold on
        // every try.
        let mut best = Duration::MAX;
        for _ in 0..20 {
            let seen = waiter.wake_seq();
            assert_eq!(
                waiter.try_take("test", 1),
                Ok(None),
                "the failed poll"
            );
            sender
                .raw_send("test", 0, vec![7u8])
                .expect("the racing send");
            let parked = Instant::now();
            waiter
                .park("test", deadline_at, seen)
                .expect("deadline is far");
            best = best.min(parked.elapsed());
            assert_eq!(waiter.try_take("test", 1), Ok(Some(vec![7u8])));
            if best < Duration::from_millis(5) {
                break;
            }
        }
        assert!(
            best < Duration::from_millis(5),
            "park slept {best:?} through a wake-up"
        );
        // With nothing new since the poll it still sleeps its tick.
        let seen = waiter.wake_seq();
        let parked = Instant::now();
        waiter
            .park("test", deadline_at, seen)
            .expect("deadline is far");
        assert!(parked.elapsed() >= Duration::from_millis(45), "park spun");
    }
}
