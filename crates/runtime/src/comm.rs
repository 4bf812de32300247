//! The [`Communicator`] trait and its threaded/simulated backends.
//!
//! # Architecture
//!
//! Both backends run rank closures on real OS threads over one shared
//! **data plane** (per-rank mailboxes plus a death-aware
//! sense-reversing barrier). The difference is the clock:
//!
//! * the **thread** backend times operations with wall clocks — real
//!   in-process parallelism, the successor of the old
//!   `fupermod_platform::ThreadComm` (since removed);
//! * the **sim** backend additionally keeps Hockney-model virtual
//!   clocks ([`SimComm`], `α + m/β`) in the plane's rank ledger
//!   (`crate::ledger`), behind the plane's one lock: every collective
//!   is executed BSP-style (data phase, then a closing barrier) and
//!   the barrier *completer* has the ledger apply the collective's
//!   virtual-time charge as it closes the generation, so for
//!   collective-structured programs the virtual clocks are
//!   **deterministic** across runs and thread schedules.
//!
//! Point-to-point charges in the sim backend are applied by the
//! ledger at the receiver's delivery; concurrent transfers over
//! disjoint rank pairs commute, so p2p phases that only use disjoint
//! pairs (or that are separated by barriers) stay deterministic too.
//!
//! # Collective algorithms
//!
//! Every collective is carried by a schedule chosen by the
//! [`AlgorithmPolicy`] on [`RuntimeConfig`] (`hub | ring | tree |
//! auto`, see [`crate::collective`]): the star through one rank that
//! the original runtime hard-wired, a pipelined nearest-neighbour
//! ring, or a binomial tree / recursive-doubling butterfly. The data
//! plane executes the schedule's hops against real mailboxes and the
//! sim backend replays the *same* hop plan through
//! [`SimComm::schedule`], so virtual clocks pay the actual per-round
//! cost — the hub's `O(p·m)` serialisation at one rank versus the
//! tree's `O(log p)` rounds. Results are **bitwise identical across
//! schedules** on fault-free plans: `allreduce` always folds raw
//! contributions in pinned ascending rank order, and all other
//! collectives move opaque encoded payloads.
//!
//! Schedules are built over the **agreed membership**: the live-rank
//! list recorded by the completer of the last barrier generation
//! (the ledger's `agreed_alive`, internal), which is identical on every
//! rank — no extra agreement round is needed because every collective
//! already ends in a barrier. Deaths settled before the agreement are
//! excluded from the schedule on all ranks consistently; deaths that
//! land *mid-operation* degrade individual edges of the fixed
//! structure (`None` slots downstream) instead of re-shaping it
//! divergently. Rootless collectives therefore no longer die with
//! rank 0: the hub schedule routes through the lowest agreed-live
//! rank and the ring/tree schedules have no hub at all (see
//! [`Communicator::allgatherv_available`]).
//!
//! # Faults and deadlines
//!
//! A [`FaultPlan`] injects message delays, counted
//! message drops (with bounded exponential-backoff retry), straggler
//! latency, and rank death. Every blocking operation carries a
//! deadline ([`DEFAULT_DEADLINE_SECS`] unless the plan overrides it);
//! a rank that exceeds it **fail-stops**: it marks itself dead, wakes
//! every waiter, and returns [`RuntimeError::Timeout`] — the rest of
//! the job observes [`RuntimeError::RankDead`] instead of hanging.
//! Collectives skip dead receivers and deliver posthumous messages
//! (a rank that sent before dying still contributes).
//!
//! # Nonblocking requests, and the blocking collectives built on them
//!
//! The [`request`] submodule adds MPI-style nonblocking operations
//! (`isend`/`irecv`/`ibcast` returning scope-tied
//! request objects with `wait`/`wait_all`/`test`) for
//! compute/communication overlap. Requests borrow the communicator
//! shared, so the `&mut self` blocking operations are statically
//! excluded while any request is outstanding; on the sim backend a
//! request charges its hop plan at *completion* against a clock
//! snapshot taken at *post* time, so each step costs
//! `max(compute, communication)`. Contract and examples in
//! `docs/RUNTIME.md` §8.
//!
//! Every collective schedule is defined there and nowhere else, as one
//! data phase under one driver (`Split`): [`Communicator::bcast`],
//! [`Communicator::scatterv`], [`Communicator::gatherv`],
//! [`Communicator::gather_available`], [`Communicator::allgatherv`],
//! [`Communicator::allgatherv_available`] and
//! [`Communicator::allreduce`] (hub, ring and tree) on this backend are
//! each **a split collective posted and completed in one call**. Where
//! a request form exists (`ibcast`), what differs is
//! what the call passes — the op tag (`bcast`, not `ibcast`), the
//! deadline (anchored at operation entry, not at the entry to `wait`)
//! and no overlap base — so with nothing between post and `wait` the
//! two forms agree to the bit by construction. `barrier` is the bare
//! closing barrier generation, with no data phase.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use fupermod_core::trace::{null_sink, TraceSink};
use fupermod_platform::comm::{LinkModel, SimComm};

use crate::collective::{
    self, available_slots, fold_slots, strict_slots, AlgorithmPolicy, Resolved,
};
use crate::error::RuntimeError;
use crate::fault::FaultPlan;
use crate::ledger::{self, fault, Begin, Charge, Ledger, Verdict};
use crate::wire::{decode_as, Wire};

pub mod request;

/// Default per-operation deadline, seconds, when the fault plan does
/// not override it. Generous enough for real benchmarking workloads,
/// small enough that an accidental deadlock fails the test gate
/// instead of hanging it.
pub const DEFAULT_DEADLINE_SECS: f64 = 30.0;

/// Cap on any single injected wall-clock sleep (delay, backoff or
/// straggler latency), seconds. Virtual-clock charges are not capped.
const MAX_WALL_SLEEP_SECS: f64 = 1.0;

/// Reduction operator for [`Communicator::allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of contributions.
    Sum,
    /// Minimum contribution.
    Min,
    /// Maximum contribution.
    Max,
}

impl ReduceOp {
    pub(crate) fn fold(self, acc: f64, x: f64) -> f64 {
        match self {
            ReduceOp::Sum => acc + x,
            ReduceOp::Min => acc.min(x),
            ReduceOp::Max => acc.max(x),
        }
    }
}

/// An MPI-style communicator: rank/size, typed point-to-point
/// messaging, and the collectives the FuPerMod algorithms need.
///
/// The API shape follows `rsmpi`: `bcast`/`scatterv` take the payload
/// on the root only, `gatherv` returns it on the root only. All
/// operations return typed [`RuntimeError`]s — never panic, never
/// hang (a per-operation deadline fail-stops the violator).
pub trait Communicator {
    /// This process's rank, `0..size`.
    fn rank(&self) -> usize;

    /// Number of ranks in the communicator.
    fn size(&self) -> usize;

    /// Liveness snapshot: `alive()[r]` is `false` once rank `r` died.
    fn alive(&self) -> Vec<bool>;

    /// Sends `value` to rank `dst`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::RankDead`] if either endpoint is dead,
    /// [`RuntimeError::RetriesExhausted`] under an exhausting drop
    /// rule, [`RuntimeError::InvalidRank`] for `dst >= size`.
    fn send<T: Wire>(&mut self, dst: usize, value: &T) -> Result<(), RuntimeError>;

    /// Receives the next message from rank `src` (per-pair FIFO).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::RankDead`] if `src` died with no message
    /// pending, [`RuntimeError::Timeout`] past the deadline,
    /// [`RuntimeError::Decode`] on a type mismatch.
    fn recv<T: Wire>(&mut self, src: usize) -> Result<T, RuntimeError>;

    /// Synchronises all live ranks.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Timeout`] past the deadline (the caller
    /// fail-stops), [`RuntimeError::RankDead`] if called while dead.
    fn barrier(&mut self) -> Result<(), RuntimeError>;

    /// Broadcasts from `root`: the root passes `Some(value)` and every
    /// live rank (root included) receives it.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::RankDead`] if `root` is dead; `App` if the
    /// root passes `None`.
    fn bcast<T: Wire>(&mut self, root: usize, value: Option<&T>) -> Result<T, RuntimeError>;

    /// Scatters one part per rank from `root` (root passes
    /// `Some(parts)` with exactly `size` entries).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::SizeMismatch`] for a wrong arity on the root;
    /// otherwise as [`Communicator::bcast`].
    fn scatterv<T: Wire>(&mut self, root: usize, parts: Option<&[T]>) -> Result<T, RuntimeError>;

    /// Gathers one value per rank onto `root`; returns `Some(values)`
    /// on the root and `None` elsewhere. Strict: a dead contributor
    /// is an error (use [`Communicator::gather_available`] to
    /// degrade gracefully).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::RankDead`] on the root if a contributor died.
    fn gatherv<T: Wire>(&mut self, root: usize, value: &T)
        -> Result<Option<Vec<T>>, RuntimeError>;

    /// Fault-tolerant gather: like [`Communicator::gatherv`] but a
    /// dead contributor yields `None` in its slot instead of an
    /// error — the degradation hook the distributed executor uses.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Timeout`] / [`RuntimeError::RankDead`] for
    /// failures of the caller itself.
    fn gather_available<T: Wire>(
        &mut self,
        root: usize,
        value: &T,
    ) -> Result<Option<Vec<Option<T>>>, RuntimeError>;

    /// All ranks contribute one value and receive everyone's, in rank
    /// order. Strict like [`Communicator::gatherv`]: a dead or lost
    /// contribution is an error (use
    /// [`Communicator::allgatherv_available`] to degrade gracefully).
    ///
    /// # Errors
    ///
    /// As [`Communicator::gatherv`]; under the `hub` schedule the
    /// death of the hub (lowest agreed-live rank) is additionally fatal —
    /// the `ring`/`tree` schedules have no such single point of
    /// failure.
    fn allgatherv<T: Wire>(&mut self, value: &T) -> Result<Vec<T>, RuntimeError>;

    /// Fault-tolerant all-gather: like [`Communicator::allgatherv`]
    /// but a dead rank (or a contribution lost to one mid-schedule)
    /// yields `None` in its slot instead of an error — the rootless
    /// counterpart of [`Communicator::gather_available`]. Under the
    /// `ring`/`tree` schedules this is what makes a non-root death
    /// survivable for rootless collectives.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Timeout`] / [`RuntimeError::RankDead`] for
    /// failures of the caller itself.
    fn allgatherv_available<T: Wire>(
        &mut self,
        value: &T,
    ) -> Result<Vec<Option<T>>, RuntimeError>;

    /// Reduces one `f64` per live rank with `op`; every live rank
    /// receives the result. Dead ranks' contributions are omitted.
    ///
    /// # Errors
    ///
    /// As [`Communicator::allgatherv`].
    fn allreduce(&mut self, value: f64, op: ReduceOp) -> Result<f64, RuntimeError>;
}

/// Configuration for building a set of communicator handles.
///
/// ```
/// use fupermod_runtime::{RuntimeConfig, Communicator};
/// let comms = RuntimeConfig::thread().build(2);
/// assert_eq!(comms[1].rank(), 1);
/// ```
pub struct RuntimeConfig {
    plan: FaultPlan,
    sink: Arc<dyn TraceSink>,
    sim: Option<SimComm>,
    algorithms: AlgorithmPolicy,
    engine: crate::sim::SimEngine,
}

impl std::fmt::Debug for RuntimeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeConfig")
            .field("plan", &self.plan)
            .field("sim", &self.sim.is_some())
            .field("algorithms", &self.algorithms)
            .field("engine", &self.engine)
            .finish_non_exhaustive()
    }
}

impl RuntimeConfig {
    /// The threaded (wall-clock) backend.
    pub fn thread() -> Self {
        Self {
            plan: FaultPlan::none(),
            sink: Arc::new(*null_sink()),
            sim: None,
            algorithms: AlgorithmPolicy::default(),
            engine: crate::sim::SimEngine::Thread,
        }
    }

    /// The simulated backend: `size` ranks joined pairwise by `link`.
    pub fn sim(size: usize, link: LinkModel) -> Self {
        Self {
            plan: FaultPlan::none(),
            sink: Arc::new(*null_sink()),
            sim: Some(SimComm::new(size, link)),
            algorithms: AlgorithmPolicy::default(),
            engine: crate::sim::SimEngine::Thread,
        }
    }

    /// Selects the simulation engine (CLI: `--sim-engine`). The
    /// default [`crate::sim::SimEngine::Thread`] keeps one OS thread
    /// per rank; [`crate::sim::SimEngine::Event`] runs the
    /// discrete-event interpreter (sim backend only — see
    /// [`crate::sim`]).
    #[must_use]
    pub fn with_engine(mut self, engine: crate::sim::SimEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Attaches a fault plan.
    #[must_use]
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Routes `comm`/`fault` trace events to `sink`.
    #[must_use]
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Selects the collective schedules (CLI: `--collectives`).
    /// Defaults to [`AlgorithmPolicy::hub`], the pre-existing
    /// behaviour.
    #[must_use]
    pub fn with_algorithms(mut self, algorithms: AlgorithmPolicy) -> Self {
        self.algorithms = algorithms;
        self
    }

    pub(crate) fn plan_ref(&self) -> &FaultPlan {
        &self.plan
    }

    pub(crate) fn sink_ref(&self) -> &Arc<dyn TraceSink> {
        &self.sink
    }

    pub(crate) fn sim_ref(&self) -> Option<&SimComm> {
        self.sim.as_ref()
    }

    pub(crate) fn policy_ref(&self) -> AlgorithmPolicy {
        self.algorithms
    }

    /// The configured simulation engine.
    pub fn engine(&self) -> crate::sim::SimEngine {
        self.engine
    }

    /// Builds `size` connected rank handles.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or a sim backend of a different size
    /// was configured.
    pub fn build(self, size: usize) -> Vec<ThreadedComm> {
        self.build_with_handle(size).0
    }

    /// Builds rank handles plus a [`RuntimeHandle`] for inspecting the
    /// shared state (virtual clocks, liveness) after the run.
    ///
    /// # Panics
    ///
    /// As [`RuntimeConfig::build`].
    pub fn build_with_handle(self, size: usize) -> (Vec<ThreadedComm>, RuntimeHandle) {
        assert!(size > 0, "communicator needs at least one rank");
        if let Some(sim) = &self.sim {
            assert_eq!(sim.size(), size, "sim size mismatch");
        }
        let plane = new_plane(size, self.plan, self.sink, self.algorithms, self.sim, None);
        let comms = (0..size)
            .map(|rank| ThreadedComm {
                rank,
                plane: Arc::clone(&plane),
                failed: AtomicBool::new(false),
            })
            .collect();
        (comms, RuntimeHandle { plane })
    }
}

/// Builds the shared plane for one rank of a multi-process TCP run:
/// wall clocks, no sim, the transport half attached. Mail slots exist
/// for every global rank but only `mail[local]` is ever filled — the
/// per-peer reader threads (see [`crate::net`]) deliver into it.
pub(crate) fn build_net_plane(
    size: usize,
    plan: FaultPlan,
    sink: Arc<dyn TraceSink>,
    policy: AlgorithmPolicy,
    net: crate::net::NetPlane,
) -> Arc<Plane> {
    new_plane(size, plan, sink, policy, None, Some(net))
}

/// The one constructor of the shared plane: in process (`net` is
/// `None`, virtual clocks when `clocks` is given) or fronting one rank
/// of a TCP run (wall clocks).
fn new_plane(
    size: usize,
    plan: FaultPlan,
    sink: Arc<dyn TraceSink>,
    policy: AlgorithmPolicy,
    clocks: Option<SimComm>,
    net: Option<crate::net::NetPlane>,
) -> Arc<Plane> {
    let deadline = plan.deadline.unwrap_or(DEFAULT_DEADLINE_SECS);
    Arc::new(Plane {
        size,
        clocked: clocks.is_some(),
        state: Mutex::new(PlaneState {
            ledger: Ledger::new(size, plan, Arc::clone(&sink), clocks),
            mail: (0..size).map(|_| VecDeque::new()).collect(),
            arrived: 0,
            coll_pending: vec![false; size],
            op_deadline: vec![None; size],
            wake_seq: 0,
        }),
        cv: Condvar::new(),
        deadline: Duration::from_secs_f64(deadline),
        deadline_secs: deadline,
        sink,
        policy,
        net,
    })
}

/// Builds the local rank's handle onto a net-backed plane.
pub(crate) fn comm_for(plane: Arc<Plane>, rank: usize) -> ThreadedComm {
    ThreadedComm {
        rank,
        plane,
        failed: AtomicBool::new(false),
    }
}

/// Builds an inspection handle onto a net-backed plane.
pub(crate) fn handle_for(plane: Arc<Plane>) -> RuntimeHandle {
    RuntimeHandle { plane }
}

/// A view onto the shared runtime state that outlives the rank
/// handles — read the virtual clocks and liveness after a run.
#[derive(Clone)]
pub struct RuntimeHandle {
    plane: Arc<Plane>,
}

impl std::fmt::Debug for RuntimeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeHandle")
            .field("size", &self.plane.size)
            .finish_non_exhaustive()
    }
}

impl RuntimeHandle {
    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.plane.size
    }

    /// Liveness snapshot.
    pub fn alive(&self) -> Vec<bool> {
        self.plane.lock().ledger.alive()
    }

    /// Ranks that have died, ascending.
    pub fn dead_ranks(&self) -> Vec<usize> {
        self.plane.lock().ledger.dead_ranks()
    }

    /// Maximum virtual time across ranks (sim backend only).
    pub fn virtual_time(&self) -> Option<f64> {
        self.plane.read_clocks(SimComm::max_time)
    }

    /// Per-rank virtual clocks (sim backend only) — the quantity the
    /// event engine pins bit-identical in its parity tests.
    pub fn virtual_times(&self) -> Option<Vec<f64>> {
        self.plane
            .read_clocks(|c| (0..c.size()).map(|r| c.time(r)).collect())
    }
}

pub(crate) struct Envelope {
    pub(crate) src: usize,
    pub(crate) bytes: Vec<u8>,
    /// Injected delivery delay, seconds (0 = none). Wall mode holds
    /// the message until `sent_at + delay`; sim mode delivers
    /// immediately and the ledger charges the receiver's virtual clock.
    pub(crate) delay: f64,
    pub(crate) sent_at: Instant,
    /// Sender's Lamport clock at enqueue time (schema v3): the causal
    /// stamp piggybacked on every message, merged into the receiver's
    /// clock at delivery (`c := max(c, stamp + 1)`). Rides the
    /// envelope, not the payload, so every `Wire`-encoded message of
    /// every schedule carries it without touching the codec.
    pub(crate) lamport: u64,
    /// Virtual instant at which this point-to-point message is ready
    /// for delivery, returned by the ledger's post charge, which
    /// charged the sender's clock at its `send` or `isend`. Delivery
    /// charges only the receiver's clock, from this instant, keeping
    /// the sender's virtual timeline a function of its own program
    /// order regardless of when the receiver drains the mailbox.
    /// `None` on a wall-clock plane and for a collective's edges, whose
    /// schedule is charged at generation close.
    pub(crate) vready: Option<f64>,
}

pub(crate) struct PlaneState {
    /// The books every engine keeps (see [`crate::ledger`]).
    pub(crate) ledger: Ledger,
    pub(crate) mail: Vec<VecDeque<Envelope>>,
    pub(crate) arrived: usize,
    /// Per-rank "a collective request is outstanding" flags. The
    /// barrier generation can only carry one collective per rank at a
    /// time, so posting a second nonblocking collective before
    /// completing the first is a typed error
    /// ([`RuntimeError::RequestBusy`]) instead of a corrupted
    /// rendezvous.
    coll_pending: Vec<bool>,
    /// Per-rank wall-clock deadline of the operation in flight (see
    /// `ThreadedComm::op_deadline_at`).
    op_deadline: Vec<Option<Instant>>,
    /// Count of condvar notifications, bumped under this lock by
    /// [`Plane::notify`]. A waiter that cannot hold the lock from its
    /// failed poll to its sleep (a split collective's `step`, then
    /// `park`) reads it before polling and refuses to sleep if it
    /// moved — the wake-up it would otherwise lose.
    pub(crate) wake_seq: u64,
}

pub(crate) struct Plane {
    pub(crate) size: usize,
    pub(crate) state: Mutex<PlaneState>,
    pub(crate) cv: Condvar,
    /// Whether the ledger holds virtual clocks (the sim backend) —
    /// fixed when the plane is built, so a wall-clock path reads it
    /// without taking the lock.
    clocked: bool,
    pub(crate) deadline: Duration,
    pub(crate) deadline_secs: f64,
    pub(crate) sink: Arc<dyn TraceSink>,
    pub(crate) policy: AlgorithmPolicy,
    /// TCP transport half, present when this plane fronts one rank of
    /// a multi-process run (see [`crate::net`]). `None` keeps the
    /// in-process shared-memory fast path byte-for-byte unchanged.
    pub(crate) net: Option<crate::net::NetPlane>,
}

impl Plane {
    pub(crate) fn lock(&self) -> MutexGuard<'_, PlaneState> {
        self.state.lock().expect("runtime plane poisoned")
    }

    /// Reads the ledger's clocks; `None` on a wall-clock plane, which
    /// is not locked for it.
    fn read_clocks<T>(&self, read: impl FnOnce(&SimComm) -> T) -> Option<T> {
        if !self.clocked {
            return None;
        }
        self.lock().ledger.clocks().map(read)
    }

    /// Wakes every waiter: each change a blocked rank may be waiting
    /// for (mail, a completed generation, a death) goes through here,
    /// so [`PlaneState::wake_seq`] counts them all.
    pub(crate) fn notify(&self, st: &mut PlaneState) {
        st.wake_seq = st.wake_seq.wrapping_add(1);
        self.cv.notify_all();
    }

    /// Completes the current barrier generation: closes it in the
    /// ledger, which applies the deposited charge (under the state
    /// lock, so charges form one deterministic sequence), and wakes
    /// everyone. Over TCP, where only the hub completes, the joined
    /// clock uses the hub's per-rank Lamport views, which at completion
    /// time hold each live peer's clock as stamped on its ARRIVE frame
    /// — exactly the value the in-process join reads, so fault-free
    /// stamps stay identical across backends.
    fn complete_generation(&self, st: &mut PlaneState) {
        st.arrived = 0;
        let join = st.ledger.close_generation();
        if let Some(net) = &self.net {
            let l = &st.ledger;
            net.broadcast_release(l.generation, join, &l.agreed_alive, &l.dead);
        }
        self.notify(st);
    }

    /// Completes the current barrier generation if every live
    /// participant has arrived; returns whether it completed. In
    /// process, any rank may be the completer; over TCP only the hub
    /// (the lowest agreed-live rank — the only rank ARRIVE frames are
    /// addressed to, so the only one whose `arrived` counter grows)
    /// completes, and it announces the completion to every peer with
    /// a RELEASE frame carrying the joined Lamport clock and the new
    /// agreed membership.
    pub(crate) fn maybe_complete(&self, st: &mut PlaneState) -> bool {
        if st.arrived == 0 || st.arrived < st.ledger.live_count() {
            return false;
        }
        self.complete_generation(st);
        true
    }

    /// Marks `rank` dead (fail-stop), completes a barrier the death
    /// unblocks, and wakes every waiter.
    pub(crate) fn mark_dead(&self, st: &mut PlaneState, rank: usize) {
        if st.ledger.kill(rank) {
            self.maybe_complete(st);
            self.notify(st);
        }
    }
}

/// Sleeps the injected latency a wall-clock plane's ledger returned
/// (capped). Call without holding the state lock.
fn wall_sleep(seconds: f64) {
    if seconds > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(seconds.min(MAX_WALL_SLEEP_SECS)));
    }
}

/// A per-rank handle onto the shared threaded/simulated runtime.
///
/// Handles are built by [`RuntimeConfig::build`] and moved onto rank
/// threads (see [`run_ranks`]). All methods are available through the
/// [`Communicator`] trait.
///
/// A rank that fails leaves an in-process plane: it is marked dead and
/// a `disconnect` is traced, so its peers get
/// [`RuntimeError::RankDead`] instead of waiting out the deadline
/// (`docs/RUNTIME.md` §3). It leaves when its handle drops while its
/// thread is panicking or after one of its operations failed, and at
/// once when it cannot do its part of a collective. An operation fails
/// when it returns any error but a peer's death: a rank that learnt of
/// a death and carried on has not failed.
pub struct ThreadedComm {
    rank: usize,
    plane: Arc<Plane>,
    /// Whether an operation of this rank has failed.
    failed: AtomicBool,
}

impl Drop for ThreadedComm {
    fn drop(&mut self) {
        if std::thread::panicking() || self.failed.load(Ordering::Relaxed) {
            self.leave();
        }
    }
}

impl std::fmt::Debug for ThreadedComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedComm")
            .field("rank", &self.rank)
            .field("size", &self.plane.size)
            .finish_non_exhaustive()
    }
}

/// Everything an op needs to finish: start stamps for the trace event.
struct OpStart {
    wall: Instant,
    virt: f64,
    /// Barrier generation current when the op began — the `gen` a
    /// point-to-point event records (collectives record the
    /// generation their closing barrier completed instead).
    gen: u64,
}

impl ThreadedComm {
    /// This rank's current virtual time (sim backend; `None` on the
    /// thread backend).
    pub fn virtual_time(&self) -> Option<f64> {
        self.plane.read_clocks(|c| c.time(self.rank))
    }

    /// Marks this failed rank dead and traces a `disconnect`, unless it
    /// is dead already or the plane fronts a TCP rank, whose exit is
    /// already its death (see [`crate::net`]).
    fn leave(&self) {
        if self.plane.net.is_some() {
            return;
        }
        // A panic while the plane was locked leaves nothing to trust.
        let Ok(mut st) = self.plane.state.lock() else {
            return;
        };
        if st.ledger.dead[self.rank] {
            return;
        }
        self.plane.mark_dead(&mut st, self.rank);
        drop(st);
        fault(&*self.plane.sink, self.rank, "disconnect", -1, 0, 0.0);
    }

    /// Whether `error` is this rank's failure: anything but a peer's
    /// death.
    fn failed_with(&self, error: &RuntimeError) -> bool {
        !matches!(error, RuntimeError::RankDead { rank, .. } if *rank != self.rank)
    }

    /// Passes an operation's `result` on, noting a failure for the
    /// handle's drop. Every error an operation can fail with goes
    /// through here; `op_begin` fails only a rank already dead.
    fn noted<T>(&self, result: Result<T, RuntimeError>) -> Result<T, RuntimeError> {
        if result.as_ref().is_err_and(|e| self.failed_with(e)) {
            self.failed.store(true, Ordering::Relaxed);
        }
        result
    }

    fn check_rank(&self, op: &'static str, rank: usize) -> Result<(), RuntimeError> {
        self.noted(ledger::check_rank(op, rank, self.plane.size))
    }

    /// Common op prologue: the ledger's op begin under the lock (the
    /// straggler latency charged, or slept outside the lock on wall
    /// clocks). Returns the start stamps.
    fn op_begin(&self, op: &'static str) -> Result<OpStart, RuntimeError> {
        let (plane, rank) = (&self.plane, self.rank);
        let mut st = plane.lock();
        let (gen, sleep) = match st.ledger.begin(rank) {
            Begin::Run { gen, sleep } => (gen, sleep),
            Begin::Dead => return Err(RuntimeError::RankDead { op, rank }),
            Begin::Dies => {
                plane.mark_dead(&mut st, rank);
                return Err(RuntimeError::RankDead { op, rank });
            }
        };
        if sleep > 0.0 {
            drop(st);
            wall_sleep(sleep);
            st = plane.lock();
        }
        // Anchor the operation's one wall-clock deadline *after* the
        // straggler latency, so injected latency does not eat into the
        // budget the operation's blocking waits share.
        let wall = Instant::now();
        st.op_deadline[rank] = Some(wall + plane.deadline);
        Ok(OpStart {
            wall,
            virt: st.ledger.clocks().map_or(0.0, |c| c.time(rank)),
            gen,
        })
    }

    /// Wall-clock instant at which the operation currently in flight
    /// times out — anchored once per operation in
    /// [`op_begin`](Self::op_begin), so a collective whose data phase
    /// performs several sequential blocking waits spends one shared
    /// budget instead of restarting the clock per wait. This is the
    /// same anchoring `docs/RUNTIME.md` §8 pins for nonblocking
    /// requests, and it is shared verbatim by the threaded and TCP
    /// backends.
    fn op_deadline_at(&self) -> Instant {
        self.plane.lock().op_deadline[self.rank]
            .unwrap_or_else(|| Instant::now() + self.plane.deadline)
    }

    /// Common op epilogue: the `comm` trace event of the schedule that
    /// carried the operation ([`ledger::comm`]).
    #[allow(clippy::too_many_arguments)] // one flat epilogue beats a one-shot struct
    fn op_end(
        &self,
        op: &'static str,
        peer: i64,
        bytes: u64,
        start: &OpStart,
        algorithm: &str,
        rounds: u64,
        gen: u64,
    ) {
        let wall = start.wall.elapsed().as_secs_f64();
        let st = self.plane.lock();
        let now = st.ledger.clocks().map(|c| c.time(self.rank));
        let seconds = now.map_or(wall, |now| now - start.virt);
        let lamport = st.ledger.lamport[self.rank];
        drop(st);
        let sink = &*self.plane.sink;
        ledger::comm(
            sink, self.rank, op, peer, bytes, seconds, algorithm, rounds, lamport, gen,
        );
    }

    /// Fail-stop on a deadline violation. Over TCP the dying rank
    /// additionally announces itself with best-effort BYE frames, so
    /// peers map the fail-stop onto the same death path a graceful
    /// shutdown takes instead of waiting for a socket error.
    fn timeout(&self, op: &'static str, st: &mut PlaneState) -> RuntimeError {
        self.plane.mark_dead(st, self.rank);
        if let Some(net) = &self.plane.net {
            net.send_bye_all();
        }
        let deadline = self.plane.deadline_secs;
        fault(&*self.plane.sink, self.rank, "timeout", -1, 0, deadline);
        RuntimeError::Timeout {
            op,
            rank: self.rank,
            deadline,
        }
    }

    /// Enqueues a collective edge's `bytes` to `dst` under the ledger's
    /// send verdict, which charges any retry backoff. Charges no hop:
    /// collective data phases are charged by their closing barrier.
    ///
    /// `bytes` may be borrowed: a socket only reads it, so a fan-out
    /// passes `&msg` once per destination without cloning. A mailbox
    /// needs an owned buffer and copies a borrowed one at the push.
    fn raw_send<'a>(
        &self,
        op: &'static str,
        dst: usize,
        bytes: impl Into<Cow<'a, [u8]>>,
    ) -> Result<(), RuntimeError> {
        self.raw_send_at(op, dst, bytes.into(), false)
    }

    /// [`raw_send`](Self::raw_send), with the ledger's point-to-point
    /// post charge first when `post` is set (`send` and
    /// [`isend`](Self::isend); see [`Envelope::vready`]).
    fn raw_send_at(
        &self,
        op: &'static str,
        dst: usize,
        bytes: Cow<'_, [u8]>,
        post: bool,
    ) -> Result<(), RuntimeError> {
        let plane = &self.plane;
        let mut attempt: u32 = 0;
        let mut vready = None;
        let (mut st, stamp, delay) = loop {
            let mut st = plane.lock();
            if post && attempt == 0 {
                vready = st.ledger.post(self.rank, dst, bytes.len());
            }
            match st.ledger.send(op, self.rank, dst, attempt) {
                Verdict::Deliver { stamp, delay } => break (st, stamp, delay),
                Verdict::Retry { sleep } => {
                    drop(st);
                    wall_sleep(sleep);
                    attempt += 1;
                }
                Verdict::Failed(e) => return Err(e),
            }
        };
        // Remote destination: the envelope travels as a DATA frame
        // (stamp and generation in the header) and the peer's reader
        // thread re-materialises it in the destination mailbox. Fault
        // rules were already evaluated — injection is sender-side over
        // TCP.
        if let Some(net) = plane.net.as_ref().filter(|_| dst != self.rank) {
            let gen = st.ledger.generation;
            drop(st);
            return net.send_data(dst, stamp, gen, delay, &bytes).map_err(|_| {
                let mut st = plane.lock();
                plane.mark_dead(&mut st, dst);
                drop(st);
                fault(&*plane.sink, self.rank, "disconnect", dst as i64, 0, 0.0);
                RuntimeError::RankDead { op, rank: dst }
            });
        }
        st.mail[dst].push_back(Envelope {
            src: self.rank,
            bytes: bytes.into_owned(),
            delay,
            sent_at: Instant::now(),
            lamport: stamp,
            vready,
        });
        plane.notify(&mut st);
        Ok(())
    }

    /// Earliest remaining time until a delay-held message for this
    /// rank becomes deliverable — the extra bound every condvar sleep
    /// takes so a sub-50 ms injected delay wakes its receiver when it
    /// expires instead of on the next 50 ms poll tick. `None` when no
    /// held message is pending (sim mode delivers immediately, so it
    /// never holds any).
    fn next_delay_wakeup(&self, st: &PlaneState) -> Option<Duration> {
        if self.plane.clocked {
            return None;
        }
        st.mail[self.rank]
            .iter()
            .filter(|e| e.delay > 0.0)
            .filter_map(|e| {
                let remaining = e.delay - e.sent_at.elapsed().as_secs_f64();
                (remaining > 0.0).then(|| Duration::from_secs_f64(remaining))
            })
            .min()
            // Floor the wake-up so a just-expiring delay cannot turn
            // the wait into a zero-duration busy spin.
            .map(|d| d.max(Duration::from_micros(50)))
    }

    /// One nonblocking delivery attempt for the next message from
    /// `src` (per-pair FIFO): `Ok(Some(bytes))` delivers it (Lamport
    /// merge, virtual-clock charge), `Ok(None)` means nothing is
    /// deliverable *yet* — no message, or a fault-injected delivery
    /// delay still running. A point-to-point message charges its
    /// receiver from its [`Envelope::vready`]. A message already
    /// enqueued by a now-dead sender is still delivered (posthumous
    /// delivery).
    fn try_take(&self, op: &'static str, src: usize) -> Result<Option<Vec<u8>>, RuntimeError> {
        let plane = &self.plane;
        let mut st = plane.lock();
        if st.ledger.dead[self.rank] {
            return Err(RuntimeError::RankDead {
                op,
                rank: self.rank,
            });
        }
        if let Some(idx) = st.mail[self.rank].iter().position(|e| e.src == src) {
            let env = &st.mail[self.rank][idx];
            let held = env.delay > 0.0 && env.sent_at.elapsed().as_secs_f64() < env.delay;
            if held && !plane.clocked {
                return Ok(None);
            }
            let env = st.mail[self.rank].remove(idx).expect("index just found");
            st.ledger.deliver(self.rank, env.lamport, env.delay, env.vready);
            return Ok(Some(env.bytes));
        }
        if st.ledger.dead[src] {
            return Err(RuntimeError::RankDead { op, rank: src });
        }
        Ok(None)
    }

    /// Sense-reversing, death-aware barrier. `default_charge` is
    /// deposited if no collective already deposited one (used by the
    /// public `barrier`). Returns the generation this barrier
    /// *completed* — captured before the increment, so every
    /// participant of the same rendezvous reports the same value
    /// (this is the `gen` stamp collective `comm` events record;
    /// reading `st.generation` after the fact would race with the
    /// next generation).
    fn raw_barrier(
        &self,
        op: &'static str,
        default_charge: Option<Charge>,
    ) -> Result<u64, RuntimeError> {
        let gen = self.raw_barrier_arrive(op, default_charge)?;
        self.raw_barrier_wait(op, gen, self.op_deadline_at())
    }

    /// Arrival half of [`raw_barrier`](Self::raw_barrier): joins the
    /// current generation (completing it if this arrival is the last)
    /// and returns the generation joined *without* waiting — the
    /// split nonblocking collectives use to arrive at their closing
    /// barrier at post time and finish it at `wait`.
    fn raw_barrier_arrive(
        &self,
        op: &'static str,
        default_charge: Option<Charge>,
    ) -> Result<u64, RuntimeError> {
        let plane = &self.plane;
        let mut st = plane.lock();
        if st.ledger.dead[self.rank] {
            return Err(RuntimeError::RankDead {
                op,
                rank: self.rank,
            });
        }
        if let Some(charge) = default_charge {
            st.ledger.offer(charge);
        }
        let gen = st.ledger.generation;
        if let Some(net) = &plane.net {
            // TCP barrier: arrivals rendezvous at the hub (the lowest
            // agreed-live rank — the same rank the hub collective
            // schedules route through). The hub counts its own
            // arrival locally; everyone else announces theirs with an
            // ARRIVE frame stamped with the current Lamport clock.
            let hub = crate::net::hub_of(&st.ledger.agreed_alive);
            if self.rank == hub {
                st.arrived += 1;
                plane.maybe_complete(&mut st);
            } else {
                let stamp = st.ledger.lamport[self.rank];
                net.send_arrive(hub, gen, stamp);
            }
        } else {
            st.arrived += 1;
            if st.arrived >= st.ledger.live_count() {
                plane.complete_generation(&mut st);
            }
        }
        Ok(gen)
    }

    /// Completion half of [`raw_barrier`](Self::raw_barrier): blocks
    /// until generation `gen` (already joined via
    /// [`raw_barrier_arrive`](Self::raw_barrier_arrive)) completes,
    /// against a caller-supplied deadline.
    fn raw_barrier_wait(
        &self,
        op: &'static str,
        gen: u64,
        deadline_at: Instant,
    ) -> Result<u64, RuntimeError> {
        let plane = &self.plane;
        let mut st = plane.lock();
        loop {
            if st.ledger.generation != gen {
                return Ok(gen);
            }
            if plane.maybe_complete(&mut st) {
                return Ok(gen);
            }
            let now = Instant::now();
            if now >= deadline_at {
                st.arrived = st.arrived.saturating_sub(1);
                return Err(self.timeout(op, &mut st));
            }
            let wait = (deadline_at - now).min(Duration::from_millis(50));
            let (guard, _) = plane
                .cv
                .wait_timeout(st, wait)
                .expect("runtime plane poisoned");
            st = guard;
        }
    }

    /// Nonblocking poll of barrier generation `gen`: `true` once it
    /// has completed (completing it here if every live rank has
    /// already arrived).
    fn barrier_done(&self, gen: u64) -> bool {
        let plane = &self.plane;
        let mut st = plane.lock();
        if st.ledger.generation != gen {
            return true;
        }
        plane.maybe_complete(&mut st)
    }

    /// Deposits a virtual-time charge for the closing barrier's
    /// completer to apply. The wall-clock backend has no clocks, so it
    /// never builds the charge.
    fn deposit(&self, charge: impl FnOnce() -> Charge) {
        if self.plane.clocked {
            let charge = charge();
            self.plane.lock().ledger.deposit(charge);
        }
    }

    /// Sends a schedule-internal message, tolerating a dead receiver
    /// (its edge of the schedule simply drops).
    fn send_tolerant<'a>(
        &self,
        op: &'static str,
        dst: usize,
        bytes: impl Into<Cow<'a, [u8]>>,
    ) -> Result<(), RuntimeError> {
        match self.raw_send(op, dst, bytes) {
            Ok(()) => Ok(()),
            Err(RuntimeError::RankDead { rank, .. }) if rank == dst => Ok(()),
            Err(other) => Err(other),
        }
    }

    /// The rank list every schedule of the current barrier generation
    /// is built over: the membership recorded at the last completed
    /// generation (see [`Ledger::agreed_alive`]). Ascending, and
    /// identical on every rank of the generation — deaths that land
    /// *after* the agreement degrade edges of this fixed structure
    /// instead of re-shaping it divergently.
    fn agreed_live(&self) -> Vec<usize> {
        self.plane.lock().ledger.agreed_live()
    }

    /// `agreed_live().len()`, without building the list.
    fn agreed_count(&self) -> usize {
        self.plane.lock().ledger.agreed_count()
    }

    /// Position of this rank in the agreed live list. A rank that
    /// reaches a collective data phase passed its `op_begin` liveness
    /// check, and fail-stop death is permanent, so it was alive at
    /// every earlier agreement point.
    fn agreed_pos(&self, op: &'static str, live: &[usize]) -> Result<usize, RuntimeError> {
        live.iter()
            .position(|&r| r == self.rank)
            .ok_or(RuntimeError::RankDead {
                op,
                rank: self.rank,
            })
    }

    /// The binomial tree of a rooted schedule over the agreed live
    /// list, `tree[vi]` being the rank at virtual index `vi` (the root
    /// at 0, so the `collective` round builders take it with
    /// `vroot = 0`), and this rank's virtual index. A root that died
    /// before the agreement is consistently unreachable for every
    /// remaining rank.
    fn rooted_tree(
        &self,
        op: &'static str,
        root: usize,
    ) -> Result<(Vec<usize>, usize), RuntimeError> {
        let mut tree = self.agreed_live();
        let Some(vroot) = tree.iter().position(|&r| r == root) else {
            return Err(RuntimeError::RankDead { op, rank: root });
        };
        tree.rotate_left(vroot);
        let vi = self.agreed_pos(op, &tree)?;
        Ok((tree, vi))
    }
}

impl Communicator for ThreadedComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.plane.size
    }

    fn alive(&self) -> Vec<bool> {
        self.plane.lock().ledger.alive()
    }

    fn send<T: Wire>(&mut self, dst: usize, value: &T) -> Result<(), RuntimeError> {
        const OP: &str = "send";
        self.check_rank(OP, dst)?;
        let start = self.op_begin(OP)?;
        let bytes = value.to_bytes();
        let n = bytes.len() as u64;
        self.noted(self.raw_send_at(OP, dst, bytes.into(), true))?;
        self.op_end(OP, dst as i64, n, &start, "direct", 1, start.gen);
        Ok(())
    }

    fn recv<T: Wire>(&mut self, src: usize) -> Result<T, RuntimeError> {
        const OP: &str = "recv";
        self.check_rank(OP, src)?;
        let start = self.op_begin(OP)?;
        let bytes = self.noted(self.raw_recv_deadline(OP, src, self.op_deadline_at()))?;
        let value = self.noted(decode_as::<T>(OP, &bytes))?;
        self.op_end(
            OP,
            src as i64,
            bytes.len() as u64,
            &start,
            "direct",
            1,
            start.gen,
        );
        Ok(value)
    }

    fn barrier(&mut self) -> Result<(), RuntimeError> {
        const OP: &str = "barrier";
        let start = self.op_begin(OP)?;
        let resolved = self.plane.policy.algorithm.resolve_rooted(self.plane.size);
        // The data-plane barrier is the sense-reversing generation
        // itself; the *charge* models the message schedule a real
        // barrier would run (star fan-in/fan-out for the hub,
        // zero-byte binomial fan-in/fan-out for the tree). On a clocked
        // plane every arriving rank offers its charge; the first
        // deposit wins — built over the agreed membership, so it is
        // identical on every rank of the generation.
        let n_rounds = collective::barrier_round_count(resolved, self.agreed_count());
        let charge = self
            .plane
            .clocked
            .then(|| Charge::Rounds(collective::barrier_rounds(resolved, &self.agreed_live())));
        let gen = self.noted(self.raw_barrier(OP, charge))?;
        self.op_end(OP, -1, 0, &start, resolved.name(), n_rounds, gen);
        Ok(())
    }

    // Every collective below is a split collective (see [`request`]),
    // posted and completed in one call. Where a request form exists
    // (`ibcast`), the op tag, the deadline anchor
    // (`op_begin`, not the entry to `wait`) and the absent overlap base
    // are all that differ from it.

    fn bcast<T: Wire>(&mut self, root: usize, value: Option<&T>) -> Result<T, RuntimeError> {
        const OP: &str = "bcast";
        let mut split = self.post_bcast(OP, root, value, false)?;
        split.complete(self.op_deadline_at(), |bytes| decode_as::<T>(OP, &bytes))
    }

    fn scatterv<T: Wire>(&mut self, root: usize, parts: Option<&[T]>) -> Result<T, RuntimeError> {
        const OP: &str = "scatterv";
        let mut split = self.post_scatterv(OP, root, parts)?;
        split.complete(self.op_deadline_at(), |bytes| decode_as::<T>(OP, &bytes))
    }

    fn gatherv<T: Wire>(
        &mut self,
        root: usize,
        value: &T,
    ) -> Result<Option<Vec<T>>, RuntimeError> {
        const OP: &str = "gatherv";
        // The strict check is a scan of what `gather_available`
        // returned, after its `comm` event.
        let Some(slots) = self.gather_available(root, value)? else {
            return Ok(None);
        };
        let mut out = Vec::with_capacity(slots.len());
        for (rank, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(v) => out.push(v),
                None => return self.noted(Err(RuntimeError::RankDead { op: OP, rank })),
            }
        }
        Ok(Some(out))
    }

    fn gather_available<T: Wire>(
        &mut self,
        root: usize,
        value: &T,
    ) -> Result<Option<Vec<Option<T>>>, RuntimeError> {
        const OP: &str = "gatherv";
        let mut split = self.post_gather(OP, root, value)?;
        split.complete(self.op_deadline_at(), |slots| {
            slots.map(|s| available_slots::<T>(OP, &s)).transpose()
        })
    }

    fn allgatherv<T: Wire>(&mut self, value: &T) -> Result<Vec<T>, RuntimeError> {
        const OP: &str = "allgatherv";
        let mut split =
            self.post_allgather(OP, value, |len| self.allgatherv_schedule(len))?;
        split.complete(self.op_deadline_at(), |slots| strict_slots::<T>(OP, &slots))
    }

    fn allgatherv_available<T: Wire>(
        &mut self,
        value: &T,
    ) -> Result<Vec<Option<T>>, RuntimeError> {
        const OP: &str = "allgatherv";
        let mut split =
            self.post_allgather(OP, value, |len| self.allgatherv_schedule(len))?;
        split.complete(self.op_deadline_at(), |slots| {
            available_slots::<T>(OP, &slots)
        })
    }

    fn allreduce(&mut self, value: f64, op: ReduceOp) -> Result<f64, RuntimeError> {
        const OP: &str = "allreduce";
        let resolved = self.plane.policy.algorithm.resolve_allreduce(self.plane.size);
        // Every schedule gathers the raw contributions and folds them
        // through [`fold_slots`] — the pinned rank-ascending order that
        // keeps results bitwise identical across hub, ring and tree
        // (see the module docs of `collective` and `wire`).
        if resolved == Resolved::Hub {
            let mut split = self.post_hub_reduce(OP, value, op)?;
            return split.complete(self.op_deadline_at(), Ok);
        }
        let mut split = self.post_allgather(OP, &value, |_| resolved)?;
        split.complete(self.op_deadline_at(), |slots| fold_slots(OP, &slots, op))
    }
}

/// Runs one closure per rank on scoped threads and returns their
/// results in rank order. The closure receives the rank's
/// communicator handle by value.
///
/// # Panics
///
/// Propagates a panicking rank closure.
pub fn run_ranks<R, F>(comms: Vec<ThreadedComm>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(ThreadedComm) -> R + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                let f = &f;
                scope.spawn(move || f(comm))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(json: &str) -> FaultPlan {
        FaultPlan::from_json(json).unwrap()
    }

    fn fast_plan() -> FaultPlan {
        plan(r#"{"deadline": 5.0}"#)
    }

    #[test]
    fn send_recv_round_trip() {
        let comms = RuntimeConfig::thread()
            .with_plan(fast_plan())
            .build(2);
        let out = run_ranks(comms, |mut c| -> Result<Option<Vec<f64>>, RuntimeError> {
            if c.rank() == 0 {
                c.send(1, &vec![1.0f64, 2.0, 3.0])?;
                Ok(None)
            } else {
                Ok(Some(c.recv::<Vec<f64>>(0)?))
            }
        });
        assert_eq!(out[1].as_ref().unwrap().as_ref().unwrap(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn per_pair_fifo_ordering() {
        let comms = RuntimeConfig::thread().with_plan(fast_plan()).build(2);
        let out = run_ranks(comms, |mut c| -> Result<Vec<u64>, RuntimeError> {
            if c.rank() == 0 {
                for i in 0..10u64 {
                    c.send(1, &i)?;
                }
                Ok(vec![])
            } else {
                (0..10).map(|_| c.recv::<u64>(0)).collect()
            }
        });
        assert_eq!(out[1].as_ref().unwrap(), &(0..10).collect::<Vec<_>>());
    }

    #[test]
    fn collectives_on_thread_backend() {
        let comms = RuntimeConfig::thread().with_plan(fast_plan()).build(4);
        let out = run_ranks(comms, |mut c| -> Result<(), RuntimeError> {
            let r = c.rank();
            // bcast from a non-zero root.
            let v = c.bcast(2, (r == 2).then_some(&42u64))?;
            assert_eq!(v, 42);
            // scatterv: rank r receives r * 10.
            let parts: Option<Vec<u64>> = (r == 1).then(|| (0..4).map(|i| i * 10).collect());
            let mine = c.scatterv(1, parts.as_deref())?;
            assert_eq!(mine, r as u64 * 10);
            // gatherv back onto 3.
            let gathered = c.gatherv(3, &mine)?;
            if r == 3 {
                assert_eq!(gathered.unwrap(), vec![0, 10, 20, 30]);
            } else {
                assert!(gathered.is_none());
            }
            // allgatherv.
            let all = c.allgatherv(&(r as u64))?;
            assert_eq!(all, vec![0, 1, 2, 3]);
            // allreduce.
            assert_eq!(c.allreduce(r as f64, ReduceOp::Sum)?, 6.0);
            assert_eq!(c.allreduce(r as f64, ReduceOp::Max)?, 3.0);
            assert_eq!(c.allreduce(r as f64, ReduceOp::Min)?, 0.0);
            c.barrier()?;
            Ok(())
        });
        for r in out {
            r.unwrap();
        }
    }

    #[test]
    fn sim_backend_charges_virtual_time_deterministically() {
        let run = || {
            let (comms, handle) = RuntimeConfig::sim(4, LinkModel::ethernet())
                .with_plan(fast_plan())
                .build_with_handle(4);
            let out = run_ranks(comms, |mut c| -> Result<f64, RuntimeError> {
                let r = c.rank();
                let _ = c.bcast(0, (r == 0).then_some(&vec![0.0f64; 128]))?;
                let all = c.allgatherv(&vec![r as f64; 64])?;
                assert_eq!(all.len(), 4, "one contribution per rank");
                assert!(all.iter().all(|v| v.len() == 64));
                let parts: Option<Vec<Vec<f64>>> =
                    (r == 0).then(|| (0..4).map(|i| vec![0.0; 32 * (i + 1)]).collect());
                let mine = c.scatterv(0, parts.as_deref())?;
                assert_eq!(mine.len(), 32 * (r + 1));
                c.barrier()?;
                c.allreduce(1.0, ReduceOp::Sum)
            });
            for r in out {
                assert_eq!(r.unwrap(), 4.0);
            }
            handle.virtual_time().unwrap()
        };
        let t1 = run();
        let t2 = run();
        assert!(t1 > 0.0, "virtual time must advance: {t1}");
        assert_eq!(t1.to_bits(), t2.to_bits(), "sim clocks must be deterministic");
    }

    #[test]
    fn p2p_sim_charge_at_delivery() {
        let (comms, handle) = RuntimeConfig::sim(2, LinkModel::ethernet())
            .with_plan(fast_plan())
            .build_with_handle(2);
        let out = run_ranks(comms, |mut c| -> Result<(), RuntimeError> {
            if c.rank() == 0 {
                c.send(1, &vec![1.0f64; 1000])?;
            } else {
                let v: Vec<f64> = c.recv(0)?;
                assert_eq!(v.len(), 1000);
                assert!(c.virtual_time().unwrap() > 0.0);
            }
            Ok(())
        });
        for r in out {
            r.unwrap();
        }
        assert!(handle.virtual_time().unwrap() > 0.0);
    }

    #[test]
    fn invalid_ranks_are_rejected() {
        let comms = RuntimeConfig::thread().with_plan(fast_plan()).build(2);
        let out = run_ranks(comms, |mut c| {
            let send = c.send(5, &1u64);
            let bcast = c.bcast::<u64>(9, None);
            (send, bcast)
        });
        for (send, bcast) in out {
            assert!(matches!(send, Err(RuntimeError::InvalidRank { rank: 5, .. })));
            assert!(matches!(bcast, Err(RuntimeError::InvalidRank { rank: 9, .. })));
        }
    }

    #[test]
    fn scatterv_arity_is_checked() {
        let comms = RuntimeConfig::thread().with_plan(fast_plan()).build(1);
        let out = run_ranks(comms, |mut c| {
            c.scatterv(0, Some(&[1u64, 2, 3]))
        });
        assert!(matches!(
            out.into_iter().next().unwrap(),
            Err(RuntimeError::SizeMismatch {
                expected: 1,
                got: 3,
                ..
            })
        ));
    }

    #[test]
    fn recv_deadline_fails_instead_of_hanging() {
        let comms = RuntimeConfig::thread()
            .with_plan(plan(r#"{"deadline": 0.2}"#))
            .build(2);
        let out = run_ranks(comms, |mut c| {
            if c.rank() == 0 {
                // Never sends: rank 1 must time out, not hang.
                Ok(0u64)
            } else {
                c.recv::<u64>(0)
            }
        });
        assert!(matches!(
            out[1],
            Err(RuntimeError::Timeout { rank: 1, .. })
        ));
    }
}
