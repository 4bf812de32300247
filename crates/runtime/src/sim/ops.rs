//! Cohort collectives for the event engine: every collective runs as
//! one synchronous dispatch over the ranks still executing, mirroring
//! the thread backend's data phases instruction for instruction —
//! same sends (and therefore the same fault-rule counter ticks), same
//! Lamport merges, same `moved` byte accounting, same deposited
//! schedule charges — so virtual clocks and schema-v3 trace streams
//! stay bit-identical at small `p` while closed-form fast paths keep
//! `p = 10⁵` collectives in milliseconds.
//!
//! Dispatch order is deterministic: `op_begin` fires in `(clock
//! bits, rank)` order, data-phase sends in ascending rank (or
//! schedule-position) order, epilogues in final `(clock bits, rank)`
//! order — see `docs/RUNTIME.md` §9 for the full ordering contract
//! and the places where the thread backend is inherently racy (drop
//! cascades, mid-operation starvation) and the engine's order is
//! canonical.

use std::collections::HashMap;
use std::sync::Arc;

use crate::collective::{self, available_slots, fold_slots, strict_slots, Resolved, Slots};
use crate::comm::ReduceOp;
use crate::error::RuntimeError;
use crate::wire::{decode_as, Wire};

use super::engine::{ChargeSpec, Cohort, EventSim, OpStart, RankResults, SendFate};

/// Per-abs-rank data-phase outcome for the cohort: the payload plus
/// the rank's `moved` byte count for its `comm` trace event.
type PhaseResults<T> = Vec<Option<Result<(T, u64), RuntimeError>>>;

/// `vec![None; n]` for slot types whose payload is not `Clone`
/// (`RuntimeError` isn't).
fn blanks<T>(n: usize) -> Vec<Option<T>> {
    (0..n).map(|_| None).collect()
}

/// Converts a pure [`collective`] schedule into a deposit-ready
/// charge (mirror of the thread backend's `charge_of`).
fn charge_rounds(rounds: &collective::Rounds) -> ChargeSpec {
    ChargeSpec::Rounds(
        rounds
            .iter()
            .map(|r| r.iter().map(|&(s, d, b)| (s, d, b as f64)).collect())
            .collect(),
    )
}

/// Encoded length of an `Option<Vec<u8>>` frame: 1 tag byte, plus
/// length prefix and payload when present.
fn framed_len(present: bool, payload_len: u64) -> u64 {
    if present {
        9 + payload_len
    } else {
        1
    }
}

/// Encoded length of a [`Slots`] bundle with the given present-slot
/// payload lengths (`Vec` length prefix + one tag byte per slot +
/// length prefix and payload per present slot).
fn bundle_len(size: usize, present: impl Iterator<Item = u64>) -> u64 {
    8 + size as u64 + present.map(|n| 8 + n).sum::<u64>()
}

/// Lifecycle of one schedule position while a general (fault-aware)
/// data phase replays the thread backend's per-rank programs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PState {
    /// Dead before the data phase (agreed-live hole or `op_begin`
    /// death): every edge touching it degrades.
    Hole,
    /// Executing its per-rank program normally.
    Active,
    /// Its program returned an error (exhausted drop retries) but the
    /// rank is alive — receivers waiting on it starve.
    Failed,
    /// Fail-stopped mid-phase by a deadline starvation.
    Starved,
}

/// One pending schedule-edge delivery captured in a send pass and
/// consumed in the matching receive pass.
#[derive(Clone, Copy)]
struct Inflight {
    /// Whether the frame carries a payload (`Option` framing) or, for
    /// bundle edges, whether the sender's bundle was good.
    present: bool,
    /// Sender's Lamport stamp at send time.
    stamp: u64,
    /// Injected delivery delay, seconds.
    delay: f64,
    /// Framed message length, bytes.
    msg_len: u64,
}

impl EventSim {
    // ----- shared driver plumbing -------------------------------------

    /// Mirror of the thread backend's deadline starvation: a rank
    /// blocked on a sender that is alive but no longer sending hits
    /// the plan deadline and fail-stops.
    fn starve(&mut self, op: &'static str, rank: usize) -> RuntimeError {
        let deadline = self
            .plan
            .deadline
            .unwrap_or(crate::comm::DEFAULT_DEADLINE_SECS);
        self.mark_dead(rank);
        self.fault(rank, "timeout", -1, 0, deadline);
        RuntimeError::Timeout { op, rank, deadline }
    }

    /// Pass 2 of a star fan-in: the collector's `ThreadedComm::fan_in`,
    /// consuming leaf send fates in ascending src order. Delivered
    /// contributions are marked `present`; the first exhausted sender
    /// starves the collector (later fates are left unconsumed, as the
    /// collector's program has ended).
    fn collect_fan_in(
        &mut self,
        op: &'static str,
        collector: usize,
        fates: &[Option<SendFate>],
        present: &mut [bool],
    ) -> Option<RuntimeError> {
        let mut err: Option<RuntimeError> = None;
        for (src, fate) in fates.iter().enumerate() {
            match fate {
                Some(SendFate::Delivered { stamp, delay }) if err.is_none() => {
                    self.deliver(collector, *stamp, *delay);
                    present[src] = true;
                }
                Some(SendFate::Exhausted(_)) if err.is_none() => {
                    err = Some(self.starve(op, collector));
                }
                Some(SendFate::DeadDst) => unreachable!("collector checked alive above"),
                _ => {}
            }
        }
        err
    }

    /// Begins a collective: `op_begin` for every running rank in
    /// `(clock, rank)` order, scheduled deaths surfaced into `out`,
    /// and the agreed-liveness abandonment check (a rank that is
    /// agreed-alive but no longer running would deadline-stall the
    /// thread backend; the engine surfaces a typed error instead —
    /// docs/RUNTIME.md §9). Returns `None` when there is no cohort to
    /// run.
    fn collective_prologue<T>(
        &mut self,
        op: &'static str,
        out: &mut RankResults<T>,
    ) -> Option<(Cohort, Vec<bool>)> {
        let (members, failed) = self.begin_cohort(op);
        for (rank, e) in failed {
            out[rank] = Some(Err(e));
        }
        if members.is_empty() {
            return None;
        }
        let mut in_cohort = vec![false; self.size];
        for &(r, _) in &members {
            in_cohort[r] = true;
        }
        let ghost = (0..self.size).find(|&r| self.agreed_alive[r] && !self.dead[r] && !in_cohort[r]);
        if let Some(ghost) = ghost {
            for &(r, _) in &members {
                self.halt(r);
                out[r] = Some(Err(RuntimeError::App(format!(
                    "{op}: rank {ghost} is agreed-alive but no longer participating; \
                     the thread backend would deadline-stall here (docs/RUNTIME.md §9)"
                ))));
            }
            return None;
        }
        Some((members, in_cohort))
    }

    /// Completes the collective's closing barrier generation exactly
    /// as the thread backend would: the generation completes (Lamport
    /// join, membership agreement, deposited charge) iff at least one
    /// cohort rank is still alive to arrive. Returns the `gen` stamp
    /// every arriving rank records.
    fn close_cohort(&mut self, members: &[(usize, OpStart)]) -> u64 {
        let gen = self.generation;
        if members.iter().any(|&(r, _)| !self.dead[r]) {
            self.complete_generation();
        }
        gen
    }

    /// Finishes a collective: epilogues dispatch in final `(clock,
    /// rank)` order; a successful rank emits its `comm` trace event,
    /// an errored rank halts (the mirror of `?`-propagation ending
    /// the thread backend's rank closure) without one.
    #[allow(clippy::too_many_arguments)] // one flat epilogue, mirroring the thread backend's
    fn collective_epilogue<T>(
        &mut self,
        op: &'static str,
        peer: i64,
        algorithm: &'static str,
        rounds: u64,
        gen: u64,
        members: &[(usize, OpStart)],
        mut phase: PhaseResults<T>,
        out: &mut RankResults<T>,
    ) {
        let order = self.cohort_end_order(members);
        let starts: HashMap<usize, OpStart> = members.iter().copied().collect();
        for rank in order {
            match phase[rank]
                .take()
                .expect("every cohort rank has a data-phase outcome")
            {
                Ok((value, moved)) => {
                    let start = starts[&rank];
                    self.op_end(rank, op, peer, moved, &start, algorithm, rounds, gen);
                    out[rank] = Some(Ok(value));
                }
                Err(e) => {
                    self.halt(rank);
                    out[rank] = Some(Err(e));
                }
            }
        }
    }

    /// Rejects an out-of-range root exactly as the thread backend's
    /// `check_rank` does — before any op accounting, for every
    /// running rank.
    fn reject_invalid_root<T>(
        &mut self,
        op: &'static str,
        root: usize,
        out: &mut RankResults<T>,
    ) -> bool {
        if root < self.size {
            return false;
        }
        let size = self.size;
        for (rank, slot) in out.iter_mut().enumerate() {
            if self.running[rank] {
                self.halt(rank);
                *slot = Some(Err(RuntimeError::InvalidRank {
                    op,
                    rank: root,
                    size,
                }));
            }
        }
        true
    }

    // ----- barrier ----------------------------------------------------

    /// Collective barrier across all running ranks (mirror of
    /// [`crate::Communicator::barrier`]).
    pub fn barrier(&mut self) -> RankResults<()> {
        const OP: &str = "barrier";
        let mut out: RankResults<()> = blanks(self.size);
        let Some((members, _)) = self.collective_prologue(OP, &mut out) else {
            return out;
        };
        let resolved = self.policy.barrier.resolve_rooted(self.size);
        let live = self.agreed_live();
        let rounds = match resolved {
            Resolved::Hub => {
                let hub = live[0];
                let zeros = vec![0u64; live.len()];
                vec![
                    collective::star_gather_round(&live, hub, &zeros),
                    collective::star_scatter_round(&live, hub, &zeros),
                ]
            }
            Resolved::Ring | Resolved::Tree => collective::barrier_tree_rounds(&live),
        };
        let n_rounds = rounds.len() as u64;
        // The barrier's charge is a first-deposit-wins default, never
        // an overwrite (raw_barrier_arrive mirror).
        if self.pending_charge.is_none() {
            self.pending_charge = Some(charge_rounds(&rounds));
        }
        let gen = self.close_cohort(&members);
        let mut phase: PhaseResults<()> = blanks(self.size);
        for &(r, _) in &members {
            phase[r] = Some(Ok(((), 0)));
        }
        self.collective_epilogue(OP, -1, resolved.name(), n_rounds, gen, &members, phase, &mut out);
        out
    }

    // ----- rootless all-gather core -----------------------------------

    /// Data phase shared by `allgatherv`, `allgatherv_available` and
    /// the ring/tree `allreduce` (mirror of the thread backend's
    /// `allgather_slots`). `own` holds each cohort rank's encoded
    /// contribution, absolute-rank-indexed.
    fn allgather_phase(
        &mut self,
        op: &'static str,
        resolved: Resolved,
        own: &[Option<Vec<u8>>],
        in_cohort: &[bool],
    ) -> PhaseResults<Arc<Slots>> {
        let mut phase: PhaseResults<Arc<Slots>> = blanks(self.size);
        if self.size == 1 {
            // Size-1 communicator shortcut: the thread backend returns
            // the caller's own slot with zero bytes moved and no
            // schedule deposit, before the resolution dispatch.
            if in_cohort[0] {
                if let Some(bytes) = own[0].clone() {
                    phase[0] = Some(Ok((Arc::new(vec![Some(bytes)]), 0)));
                }
            }
            return phase;
        }
        match resolved {
            Resolved::Hub => self.allgather_hub_phase(op, own, in_cohort, &mut phase),
            Resolved::Ring => self.allgather_ring_phase(op, own, in_cohort, &mut phase),
            Resolved::Tree => self.allgather_butterfly_phase(op, own, in_cohort, &mut phase),
        }
        phase
    }

    /// Hub all-gather mirror: star fan-in of contributions to the
    /// lowest agreed-live rank, star fan-out of the full slot vector.
    /// Every receiving rank decodes the identical blob, so one shared
    /// `Arc` stands in for all the per-rank copies.
    fn allgather_hub_phase(
        &mut self,
        op: &'static str,
        own: &[Option<Vec<u8>>],
        in_cohort: &[bool],
        phase: &mut PhaseResults<Arc<Slots>>,
    ) {
        let size = self.size;
        let live = self.agreed_live();
        let hub = live[0];
        if self.dead[hub] {
            // Hub death is fatal for the hub schedule: every leaf's
            // non-tolerant send to it fails.
            for r in 0..size {
                if in_cohort[r] {
                    phase[r] = Some(Err(RuntimeError::RankDead { op, rank: hub }));
                }
            }
            return;
        }
        // Pass 1 — leaf sends, ascending (each leaf's program sends
        // immediately; the hub consumes later).
        let mut fates: Vec<Option<SendFate>> = (0..size).map(|_| None).collect();
        for src in 0..size {
            if src != hub && in_cohort[src] {
                fates[src] = Some(self.send_eval(op, src, hub));
            }
        }
        // Pass 2 — the hub's `ThreadedComm::fan_in`, ascending src order.
        let mut present = vec![false; size];
        present[hub] = true;
        let hub_err = self.collect_fan_in(op, hub, &fates, &mut present);
        for (src, fate) in fates.into_iter().enumerate() {
            if let Some(SendFate::Exhausted(e)) = fate {
                phase[src] = Some(Err(e));
            }
        }
        if let Some(e) = hub_err {
            // The hub fail-stopped mid-collect: every leaf still
            // waiting for the blob sees a dead sender.
            phase[hub] = Some(Err(e));
            for r in 0..size {
                if r != hub && in_cohort[r] && phase[r].is_none() {
                    phase[r] = Some(Err(RuntimeError::RankDead { op, rank: hub }));
                }
            }
            return;
        }
        // Blob fan-out. The blob bytes are never materialised — only
        // their encoded length matters for clocks and accounting.
        let own_len = |r: usize| own[r].as_ref().map_or(0, |b| b.len() as u64);
        let blob_len = bundle_len(
            size,
            (0..size).filter(|&r| present[r]).map(own_len),
        );
        let hub_own_len = own_len(hub);
        let mut hub_moved = hub_own_len;
        let mut fanout_err: Option<RuntimeError> = None;
        let mut delivered = vec![false; size];
        for &dst in &live {
            if dst == hub {
                continue;
            }
            if self.dead[dst] {
                // send_tolerant: a dead destination's edge drops, but
                // the hub still counts the bytes it pushed.
                hub_moved += blob_len;
                continue;
            }
            match self.send_eval(op, hub, dst) {
                SendFate::Delivered { stamp, delay } => {
                    hub_moved += blob_len;
                    self.deliver(dst, stamp, delay);
                    delivered[dst] = true;
                }
                SendFate::DeadDst => {
                    hub_moved += blob_len;
                }
                SendFate::Exhausted(e) => {
                    fanout_err = Some(e);
                    break;
                }
            }
        }
        let slots: Slots = (0..size)
            .map(|r| if present[r] { own[r].clone() } else { None })
            .collect();
        let shared = Arc::new(slots);
        if let Some(e) = fanout_err {
            phase[hub] = Some(Err(e));
        } else {
            let in_lens: Vec<u64> = live
                .iter()
                .map(|&r| if present[r] { own_len(r) } else { 0 })
                .collect();
            let out_lens = vec![blob_len; live.len()];
            let rounds = vec![
                collective::star_gather_round(&live, hub, &in_lens),
                collective::star_scatter_round(&live, hub, &out_lens),
            ];
            self.pending_charge = Some(charge_rounds(&rounds));
            phase[hub] = Some(Ok((Arc::clone(&shared), hub_moved)));
        }
        for r in 0..size {
            if r == hub || !in_cohort[r] || phase[r].is_some() {
                continue;
            }
            if delivered[r] {
                phase[r] = Some(Ok((Arc::clone(&shared), own_len(r) + blob_len)));
            } else {
                // The hub's program erred before reaching this leaf:
                // it waits on an alive-but-silent sender and starves.
                phase[r] = Some(Err(self.starve(op, r)));
            }
        }
    }

    /// Ring all-gather mirror. Takes the closed-form fast path when
    /// the round structure is provably uniform (fault-free, no holes,
    /// equal contributions, uniform link, bit-identical clocks);
    /// otherwise replays the `q - 1` pipelined rounds with per-rank
    /// presence tracking, exactly as the thread ranks would run them.
    fn allgather_ring_phase(
        &mut self,
        op: &'static str,
        own: &[Option<Vec<u8>>],
        in_cohort: &[bool],
        phase: &mut PhaseResults<Arc<Slots>>,
    ) {
        let size = self.size;
        let live = self.agreed_live();
        let q = live.len();
        if q == 1 {
            // One agreed rank: its held vector is just its own slot,
            // and the thread backend deposits nothing.
            let r = live[0];
            if in_cohort[r] {
                let mut slots: Slots = vec![None; size];
                slots[r] = own[r].clone();
                phase[r] = Some(Ok((Arc::new(slots), 0)));
            }
            return;
        }
        let own_len: Vec<u64> = live
            .iter()
            .map(|&r| own[r].as_ref().map_or(0, |b| b.len() as u64))
            .collect();

        // Fast path: every round moves the same framed block between
        // clock-synchronised neighbours, so Lamports, moved bytes and
        // the deposited charge all have closed forms.
        let uniform = self.plan.drops.is_empty()
            && self.plan.delays.is_empty()
            && q == size
            && own_len.windows(2).all(|w| w[0] == w[1])
            && {
                let t0 = self.sim.time(0).to_bits();
                (1..size).all(|r| self.sim.time(r).to_bits() == t0)
            }
            && self.lamport.windows(2).all(|w| w[0] == w[1]);
        if uniform {
            let msg = 9 + own_len[0];
            let rounds = q - 1;
            let joined = self.lamport[0].wrapping_add(rounds as u64);
            for c in &mut self.lamport {
                *c = joined;
            }
            self.events += rounds as u64;
            let moved = rounds as u64 * 2 * msg;
            let slots: Slots = (0..size).map(|r| own[r].clone()).collect();
            let shared = Arc::new(slots);
            self.pending_charge = Some(ChargeSpec::UniformRing {
                bytes: msg as f64,
                rounds,
            });
            for slot in phase.iter_mut() {
                *slot = Some(Ok((Arc::clone(&shared), moved)));
            }
            return;
        }

        // General path: O(q²) presence replay (the fault/hole cases
        // the parity and survivor tests pin; large-p runs stay on the
        // fast path above).
        let mut st: Vec<PState> = live
            .iter()
            .map(|&r| if in_cohort[r] { PState::Active } else { PState::Hole })
            .collect();
        let mut errs: Vec<Option<RuntimeError>> = (0..q).map(|_| None).collect();
        let mut has = vec![vec![false; q]; q];
        let mut moved = vec![0u64; q];
        for (pos, row) in has.iter_mut().enumerate() {
            if st[pos] == PState::Active {
                row[pos] = true;
            }
        }
        for k in 0..q - 1 {
            // Pass 1 — every active rank sends its round-k block.
            let mut inbox: Vec<Option<Inflight>> = (0..q).map(|_| None).collect();
            for pos in 0..q {
                if st[pos] != PState::Active {
                    continue;
                }
                let opos = (pos + q - k) % q;
                let present = has[pos][opos];
                let msg_len = framed_len(present, own_len[opos]);
                moved[pos] += msg_len;
                let next = (pos + 1) % q;
                match self.send_eval(op, live[pos], live[next]) {
                    SendFate::Delivered { stamp, delay } => {
                        inbox[next] = Some(Inflight {
                            present,
                            stamp,
                            delay,
                            msg_len,
                        });
                    }
                    SendFate::DeadDst => {}
                    SendFate::Exhausted(e) => {
                        st[pos] = PState::Failed;
                        errs[pos] = Some(e);
                    }
                }
            }
            // Pass 2 — receives: a dead predecessor degrades, an
            // alive-but-failed one starves the receiver.
            for pos in 0..q {
                if st[pos] != PState::Active {
                    continue;
                }
                let prev = (pos + q - 1) % q;
                let orecv = (pos + q - 1 - k) % q;
                match st[prev] {
                    PState::Hole | PState::Starved => {}
                    PState::Failed => {
                        errs[pos] = Some(self.starve(op, live[pos]));
                        st[pos] = PState::Starved;
                    }
                    PState::Active => {
                        let m = inbox[pos].take().expect("active predecessor delivered");
                        self.deliver(live[pos], m.stamp, m.delay);
                        moved[pos] += m.msg_len;
                        if m.present {
                            has[pos][orecv] = true;
                        }
                    }
                }
            }
        }
        if st[0] == PState::Active {
            let lens: Vec<u64> = (0..q)
                .map(|opos| framed_len(has[0][opos], own_len[opos]))
                .collect();
            self.pending_charge = Some(charge_rounds(&collective::ring_rounds(&live, &lens)));
        }
        for pos in 0..q {
            match st[pos] {
                PState::Hole => {}
                PState::Active => {
                    let mut slots: Slots = vec![None; size];
                    for opos in 0..q {
                        if has[pos][opos] {
                            slots[live[opos]] = own[live[opos]].clone();
                        }
                    }
                    phase[live[pos]] = Some(Ok((Arc::new(slots), moved[pos])));
                }
                PState::Failed | PState::Starved => {
                    phase[live[pos]] = Some(Err(errs[pos].take().expect("failure recorded")));
                }
            }
        }
    }

    /// Recursive-doubling all-gather mirror: fold-in from the extras,
    /// `log2 q2` pairwise exchange rounds in the power-of-two core,
    /// fold-out back to the extras. The fault-free/no-hole case takes
    /// an `O(q log q)` fast path (Lamport and slot-count arrays plus
    /// the uniform schedule builder); everything else replays the
    /// full presence-tracked exchange.
    fn allgather_butterfly_phase(
        &mut self,
        op: &'static str,
        own: &[Option<Vec<u8>>],
        in_cohort: &[bool],
        phase: &mut PhaseResults<Arc<Slots>>,
    ) {
        let size = self.size;
        let live = self.agreed_live();
        let q = live.len();
        if q == 1 {
            let r = live[0];
            if in_cohort[r] {
                let mut slots: Slots = vec![None; size];
                slots[r] = own[r].clone();
                phase[r] = Some(Ok((Arc::new(slots), 0)));
            }
            return;
        }
        let q2 = collective::prev_pow2(q);
        let own_len: Vec<u64> = live
            .iter()
            .map(|&r| own[r].as_ref().map_or(0, |b| b.len() as u64))
            .collect();

        let uniform = self.plan.drops.is_empty()
            && self.plan.delays.is_empty()
            && q == size
            && own_len.windows(2).all(|w| w[0] == w[1]);
        if uniform {
            self.butterfly_fast(own, &live, q2, own_len[0], phase);
            return;
        }

        // General path: presence rows over schedule positions,
        // replayed phase by phase in the thread ranks' program order.
        let mut st: Vec<PState> = live
            .iter()
            .map(|&r| if in_cohort[r] { PState::Active } else { PState::Hole })
            .collect();
        let mut errs: Vec<Option<RuntimeError>> = (0..q).map(|_| None).collect();
        let mut has = vec![vec![false; q]; q];
        let mut moved = vec![0u64; q];
        for (pos, row) in has.iter_mut().enumerate() {
            if st[pos] == PState::Active {
                row[pos] = true;
            }
        }
        let row_len = |row: &[bool], own_len: &[u64]| {
            bundle_len(
                size,
                row.iter()
                    .enumerate()
                    .filter(|&(_, &p)| p)
                    .map(|(o, _)| own_len[o]),
            )
        };
        // Phase A — extras fold their single slot into the core.
        let mut inbox: Vec<Option<Inflight>> = (0..q).map(|_| None).collect();
        for e in q2..q {
            if st[e] != PState::Active {
                continue;
            }
            let msg_len = row_len(&has[e], &own_len);
            moved[e] += msg_len;
            match self.send_eval(op, live[e], live[e - q2]) {
                SendFate::Delivered { stamp, delay } => {
                    inbox[e - q2] = Some(Inflight {
                        present: true,
                        stamp,
                        delay,
                        msg_len,
                    });
                }
                SendFate::DeadDst => {}
                SendFate::Exhausted(err) => {
                    st[e] = PState::Failed;
                    errs[e] = Some(err);
                }
            }
        }
        for pos in 0..q.min(q2) {
            if st[pos] != PState::Active || pos + q2 >= q {
                continue;
            }
            let e = pos + q2;
            match st[e] {
                PState::Hole | PState::Starved => {}
                PState::Failed => {
                    errs[pos] = Some(self.starve(op, live[pos]));
                    st[pos] = PState::Starved;
                }
                PState::Active => {
                    let m = inbox[pos].take().expect("active extra delivered");
                    self.deliver(live[pos], m.stamp, m.delay);
                    moved[pos] += m.msg_len;
                    let (head, tail) = has.split_at_mut(e);
                    for (mine, theirs) in head[pos].iter_mut().zip(&tail[0]) {
                        *mine |= *theirs;
                    }
                }
            }
        }
        // Phase B — pairwise exchange rounds inside the core.
        let mut mask = 1usize;
        while mask < q2 {
            let snap = has.clone();
            let mut inbox: Vec<Option<Inflight>> = (0..q).map(|_| None).collect();
            for pos in 0..q2 {
                if st[pos] != PState::Active {
                    continue;
                }
                let partner = pos ^ mask;
                let msg_len = row_len(&snap[pos], &own_len);
                moved[pos] += msg_len;
                match self.send_eval(op, live[pos], live[partner]) {
                    SendFate::Delivered { stamp, delay } => {
                        inbox[partner] = Some(Inflight {
                            present: true,
                            stamp,
                            delay,
                            msg_len,
                        });
                    }
                    SendFate::DeadDst => {}
                    SendFate::Exhausted(err) => {
                        st[pos] = PState::Failed;
                        errs[pos] = Some(err);
                    }
                }
            }
            for pos in 0..q2 {
                if st[pos] != PState::Active {
                    continue;
                }
                let partner = pos ^ mask;
                match st[partner] {
                    PState::Hole | PState::Starved => {}
                    PState::Failed => {
                        errs[pos] = Some(self.starve(op, live[pos]));
                        st[pos] = PState::Starved;
                    }
                    PState::Active => {
                        let m = inbox[pos].take().expect("active partner delivered");
                        self.deliver(live[pos], m.stamp, m.delay);
                        moved[pos] += m.msg_len;
                        for (o, theirs) in snap[partner].iter().enumerate() {
                            if *theirs {
                                has[pos][o] = true;
                            }
                        }
                    }
                }
            }
            mask <<= 1;
        }
        // Phase C — fold the full result back out to the extras.
        let mut inbox: Vec<Option<Inflight>> = (0..q).map(|_| None).collect();
        for pos in 0..q.min(q2) {
            if st[pos] != PState::Active || pos + q2 >= q {
                continue;
            }
            let msg_len = row_len(&has[pos], &own_len);
            moved[pos] += msg_len;
            match self.send_eval(op, live[pos], live[pos + q2]) {
                SendFate::Delivered { stamp, delay } => {
                    inbox[pos + q2] = Some(Inflight {
                        present: true,
                        stamp,
                        delay,
                        msg_len,
                    });
                }
                SendFate::DeadDst => {}
                SendFate::Exhausted(err) => {
                    st[pos] = PState::Failed;
                    errs[pos] = Some(err);
                }
            }
        }
        for e in q2..q {
            if st[e] != PState::Active {
                continue;
            }
            let core = e - q2;
            match st[core] {
                PState::Hole | PState::Starved => {}
                PState::Failed => {
                    errs[e] = Some(self.starve(op, live[e]));
                    st[e] = PState::Starved;
                }
                PState::Active => {
                    let m = inbox[e].take().expect("active core delivered");
                    self.deliver(live[e], m.stamp, m.delay);
                    moved[e] += m.msg_len;
                    let (head, tail) = has.split_at_mut(e);
                    for (theirs, mine) in head[core].iter().zip(tail[0].iter_mut()) {
                        *mine |= *theirs;
                    }
                }
            }
        }
        if st[0] == PState::Active {
            // Mirror: absent slots are charged at live[0]'s own
            // contribution length.
            let lens: Vec<u64> = (0..q)
                .map(|o| if has[0][o] { own_len[o] } else { own_len[0] })
                .collect();
            self.pending_charge = Some(charge_rounds(&collective::butterfly_rounds(
                size, &live, &lens,
            )));
        }
        for pos in 0..q {
            match st[pos] {
                PState::Hole => {}
                PState::Active => {
                    let mut slots: Slots = vec![None; size];
                    for opos in 0..q {
                        if has[pos][opos] {
                            slots[live[opos]] = own[live[opos]].clone();
                        }
                    }
                    phase[live[pos]] = Some(Ok((Arc::new(slots), moved[pos])));
                }
                PState::Failed | PState::Starved => {
                    phase[live[pos]] = Some(Err(errs[pos].take().expect("failure recorded")));
                }
            }
        }
    }

    /// Fault-free butterfly fast path: Lamports and per-position slot
    /// counts evolve by the same `O(q log q)` recurrences the message
    /// exchange would produce, and the charge comes from the uniform
    /// schedule builder.
    fn butterfly_fast(
        &mut self,
        own: &[Option<Vec<u8>>],
        live: &[usize],
        q2: usize,
        m: u64,
        phase: &mut PhaseResults<Arc<Slots>>,
    ) {
        let size = self.size;
        let q = live.len();
        let esl = |c: u64| 8 + size as u64 + c * (8 + m);
        let mut lam: Vec<u64> = live.iter().map(|&r| self.lamport[r]).collect();
        let mut cnt = vec![1u64; q];
        let mut moved = vec![0u64; q];
        // Fold-in.
        for e in q2..q {
            let core = e - q2;
            moved[e] += esl(1);
            lam[core] = lam[core].max(lam[e].wrapping_add(1));
            moved[core] += esl(1);
            cnt[core] += 1;
        }
        // Pairwise exchange rounds.
        let mut mask = 1usize;
        while mask < q2 {
            let lam_snap = lam.clone();
            let cnt_snap = cnt.clone();
            for pos in 0..q2 {
                let partner = pos ^ mask;
                moved[pos] += esl(cnt_snap[pos]) + esl(cnt_snap[partner]);
                lam[pos] = lam_snap[pos].max(lam_snap[partner].wrapping_add(1));
                cnt[pos] = cnt_snap[pos] + cnt_snap[partner];
            }
            mask <<= 1;
        }
        // Fold-out.
        for e in q2..q {
            let core = e - q2;
            moved[core] += esl(cnt[core]);
            moved[e] += esl(cnt[core]);
            lam[e] = lam[e].max(lam[core].wrapping_add(1));
        }
        for (pos, &r) in live.iter().enumerate() {
            self.lamport[r] = lam[pos];
        }
        self.events += u64::from(collective::ceil_log2(q2)) + if q > q2 { 2 } else { 0 };
        let slots: Slots = (0..size).map(|r| own[r].clone()).collect();
        let shared = Arc::new(slots);
        self.pending_charge = Some(charge_rounds(&collective::butterfly_rounds_uniform(
            size, live, m,
        )));
        for (pos, &r) in live.iter().enumerate() {
            phase[r] = Some(Ok((Arc::clone(&shared), moved[pos])));
        }
    }

    // ----- rootless public ops ----------------------------------------

    /// Shared prologue + data phase of the `allgatherv` variants:
    /// encodes contributions, resolves the schedule (every cohort rank
    /// must agree — mixed per-rank resolutions would deadlock the
    /// thread backend and are rejected with a typed error), runs the
    /// slot phase and closes the generation.
    #[allow(clippy::type_complexity)] // internal plumbing tuple
    fn allgatherv_slots<T: Wire, U>(
        &mut self,
        op: &'static str,
        values: &[T],
        out: &mut RankResults<U>,
    ) -> Option<(
        Vec<(usize, OpStart)>,
        Resolved,
        PhaseResults<Arc<Slots>>,
        u64,
        u64,
    )> {
        assert_eq!(values.len(), self.size, "one input value per rank");
        let (members, in_cohort) = self.collective_prologue(op, out)?;
        let mut own: Vec<Option<Vec<u8>>> = vec![None; self.size];
        for &(r, _) in &members {
            own[r] = Some(values[r].to_bytes());
        }
        let mut resolved: Option<Resolved> = None;
        let mut mixed = false;
        for &(r, _) in &members {
            let len = own[r].as_ref().expect("cohort rank encoded").len() as u64;
            let rr = self.policy.allgatherv.resolve_allgatherv(self.size, len);
            match resolved {
                None => resolved = Some(rr),
                Some(prev) if prev.name() == rr.name() => {}
                Some(_) => mixed = true,
            }
        }
        if mixed {
            for &(r, _) in &members {
                self.halt(r);
                out[r] = Some(Err(RuntimeError::App(format!(
                    "{op}: contribution sizes straddle the auto ring/tree crossover, so \
                     ranks resolve different schedules; the thread backend would deadlock \
                     here (docs/RUNTIME.md §9)"
                ))));
            }
            return None;
        }
        let resolved = resolved.expect("non-empty cohort");
        let phase = self.allgather_phase(op, resolved, &own, &in_cohort);
        let gen = self.close_cohort(&members);
        let rounds = collective::rootless_rounds(resolved, self.agreed_live().len());
        Some((members, resolved, phase, gen, rounds))
    }

    /// Strict all-gather (mirror of
    /// [`crate::Communicator::allgatherv`]): a `None` hole — a
    /// contribution lost to a dead rank — is a [`RuntimeError::RankDead`]
    /// error on every rank that sees it. `values` is absolute-rank
    /// indexed; entries of non-running ranks are ignored.
    pub fn allgatherv<T: Wire>(&mut self, values: &[T]) -> RankResults<Arc<Vec<T>>> {
        const OP: &str = "allgatherv";
        let mut out: RankResults<Arc<Vec<T>>> = blanks(self.size);
        let Some((members, resolved, mut phase, gen, rounds)) =
            self.allgatherv_slots(OP, values, &mut out)
        else {
            return out;
        };
        // Decode each distinct shared slot vector once (memoised by
        // Arc identity); failure paths re-derive the exact per-rank
        // error by replaying the ascending scan.
        let mut memo: HashMap<*const Slots, Option<Arc<Vec<T>>>> = HashMap::new();
        let mut decoded: PhaseResults<Arc<Vec<T>>> = blanks(self.size);
        for r in 0..self.size {
            let Some(entry) = phase[r].take() else { continue };
            decoded[r] = Some(match entry {
                Err(e) => Err(e),
                Ok((slots, moved)) => {
                    let good = memo
                        .entry(Arc::as_ptr(&slots))
                        .or_insert_with(|| strict_slots::<T>(OP, &slots).ok().map(Arc::new))
                        .clone();
                    match good {
                        Some(arc) => Ok((arc, moved)),
                        None => Err(strict_slots::<T>(OP, &slots)
                            .err()
                            .expect("memoised decode failure replays")),
                    }
                }
            });
        }
        self.collective_epilogue(OP, -1, resolved.name(), rounds, gen, &members, decoded, &mut out);
        out
    }

    /// Degradation-tolerant all-gather (mirror of
    /// [`crate::Communicator::allgatherv_available`]): holes come back
    /// as `None` instead of erroring.
    pub fn allgatherv_available<T: Wire>(
        &mut self,
        values: &[T],
    ) -> RankResults<Arc<Vec<Option<T>>>> {
        const OP: &str = "allgatherv";
        let mut out: RankResults<Arc<Vec<Option<T>>>> = blanks(self.size);
        let Some((members, resolved, mut phase, gen, rounds)) =
            self.allgatherv_slots(OP, values, &mut out)
        else {
            return out;
        };
        let mut memo: HashMap<*const Slots, Option<Arc<Vec<Option<T>>>>> = HashMap::new();
        let mut decoded: PhaseResults<Arc<Vec<Option<T>>>> = blanks(self.size);
        for r in 0..self.size {
            let Some(entry) = phase[r].take() else { continue };
            decoded[r] = Some(match entry {
                Err(e) => Err(e),
                Ok((slots, moved)) => {
                    let good = memo
                        .entry(Arc::as_ptr(&slots))
                        .or_insert_with(|| available_slots::<T>(OP, &slots).ok().map(Arc::new))
                        .clone();
                    match good {
                        Some(arc) => Ok((arc, moved)),
                        None => Err(available_slots::<T>(OP, &slots)
                            .err()
                            .expect("memoised decode failure replays")),
                    }
                }
            });
        }
        self.collective_epilogue(OP, -1, resolved.name(), rounds, gen, &members, decoded, &mut out);
        out
    }

    /// All-reduce (mirror of [`crate::Communicator::allreduce`]):
    /// every schedule gathers raw contributions and folds them in the
    /// pinned ascending-rank, left-associated order, so hub, ring and
    /// tree stay bitwise identical.
    pub fn allreduce(&mut self, values: &[f64], rop: ReduceOp) -> RankResults<f64> {
        const OP: &str = "allreduce";
        assert_eq!(values.len(), self.size, "one input value per rank");
        let mut out: RankResults<f64> = blanks(self.size);
        let Some((members, in_cohort)) = self.collective_prologue(OP, &mut out) else {
            return out;
        };
        let mut own: Vec<Option<Vec<u8>>> = vec![None; self.size];
        for &(r, _) in &members {
            own[r] = Some(values[r].to_bytes());
        }
        let resolved = self.policy.allreduce.resolve_allreduce(self.size);
        let phase: PhaseResults<f64> = match resolved {
            Resolved::Hub => self.allreduce_hub_phase(OP, &own, &in_cohort, rop),
            Resolved::Ring | Resolved::Tree => {
                let mut slots_phase = self.allgather_phase(OP, resolved, &own, &in_cohort);
                let mut memo: HashMap<*const Slots, Option<f64>> = HashMap::new();
                let mut folded: PhaseResults<f64> = blanks(self.size);
                for r in 0..self.size {
                    let Some(entry) = slots_phase[r].take() else {
                        continue;
                    };
                    folded[r] = Some(match entry {
                        Err(e) => Err(e),
                        Ok((slots, moved)) => {
                            let hit = *memo
                                .entry(Arc::as_ptr(&slots))
                                .or_insert_with(|| fold_slots(OP, &slots, rop).ok());
                            match hit {
                                Some(v) => Ok((v, moved)),
                                None => Err(fold_slots(OP, &slots, rop)
                                    .expect_err("memoised fold failure replays")),
                            }
                        }
                    });
                }
                folded
            }
        };
        let gen = self.close_cohort(&members);
        let rounds = collective::rootless_rounds(resolved, self.agreed_live().len());
        self.collective_epilogue(OP, -1, resolved.name(), rounds, gen, &members, phase, &mut out);
        out
    }

    /// Hub all-reduce mirror: star fan-in of raw contributions, fold
    /// at the hub, star fan-out of the 8-byte folded value.
    fn allreduce_hub_phase(
        &mut self,
        op: &'static str,
        own: &[Option<Vec<u8>>],
        in_cohort: &[bool],
        rop: ReduceOp,
    ) -> PhaseResults<f64> {
        let size = self.size;
        let mut phase: PhaseResults<f64> = blanks(size);
        let live = self.agreed_live();
        let hub = live[0];
        if self.dead[hub] {
            for r in 0..size {
                if in_cohort[r] {
                    phase[r] = Some(Err(RuntimeError::RankDead { op, rank: hub }));
                }
            }
            return phase;
        }
        // Pass 1 — leaf sends, ascending.
        let mut fates: Vec<Option<SendFate>> = (0..size).map(|_| None).collect();
        for src in 0..size {
            if src != hub && in_cohort[src] {
                fates[src] = Some(self.send_eval(op, src, hub));
            }
        }
        // Pass 2 — the hub's `ThreadedComm::fan_in`, ascending src order.
        let mut present = vec![false; size];
        present[hub] = true;
        let hub_err = self.collect_fan_in(op, hub, &fates, &mut present);
        for (src, fate) in fates.into_iter().enumerate() {
            if let Some(SendFate::Exhausted(e)) = fate {
                phase[src] = Some(Err(e));
            }
        }
        let hub_err = hub_err.or_else(|| {
            // The hub folds before fanning out; a fold error ends its
            // program and every waiting leaf starves.
            let slots: Slots = (0..size)
                .map(|r| if present[r] { own[r].clone() } else { None })
                .collect();
            fold_slots(op, &slots, rop).err()
        });
        if let Some(e) = hub_err {
            phase[hub] = Some(Err(e));
            for r in 0..size {
                if r != hub && in_cohort[r] && phase[r].is_none() {
                    phase[r] = Some(Err(self.starve(op, r)));
                }
            }
            return phase;
        }
        let slots: Slots = (0..size)
            .map(|r| if present[r] { own[r].clone() } else { None })
            .collect();
        let folded = fold_slots(op, &slots, rop).expect("fold checked above");
        // Fan-out of the 8-byte folded value, tolerant of dead
        // destinations.
        let mut fanout_err: Option<RuntimeError> = None;
        let mut delivered = vec![false; size];
        for &dst in &live {
            if dst == hub || self.dead[dst] {
                continue;
            }
            match self.send_eval(op, hub, dst) {
                SendFate::Delivered { stamp, delay } => {
                    self.deliver(dst, stamp, delay);
                    delivered[dst] = true;
                }
                SendFate::DeadDst => {}
                SendFate::Exhausted(e) => {
                    fanout_err = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = fanout_err {
            phase[hub] = Some(Err(e));
        } else {
            let lens = vec![8u64; live.len()];
            let rounds = vec![
                collective::star_gather_round(&live, hub, &lens),
                collective::star_scatter_round(&live, hub, &lens),
            ];
            self.pending_charge = Some(charge_rounds(&rounds));
            phase[hub] = Some(Ok((folded, 8 * live.len() as u64)));
        }
        for r in 0..size {
            if r == hub || !in_cohort[r] || phase[r].is_some() {
                continue;
            }
            if delivered[r] {
                phase[r] = Some(Ok((folded, 16)));
            } else {
                phase[r] = Some(Err(self.starve(op, r)));
            }
        }
        phase
    }

    // ----- rooted ops -------------------------------------------------

    /// Degradation-tolerant gather (mirror of
    /// [`crate::Communicator::gather_available`]): the root receives
    /// `Some` slot vector with holes where contributions died,
    /// everyone else `None`.
    pub fn gather_available<T: Wire>(
        &mut self,
        root: usize,
        values: &[T],
    ) -> RankResults<Option<Arc<Vec<Option<T>>>>> {
        const OP: &str = "gatherv";
        assert_eq!(values.len(), self.size, "one input value per rank");
        let mut out: RankResults<Option<Arc<Vec<Option<T>>>>> = blanks(self.size);
        if self.reject_invalid_root(OP, root, &mut out) {
            return out;
        }
        let Some((members, in_cohort)) = self.collective_prologue(OP, &mut out) else {
            return out;
        };
        let resolved = self.policy.gatherv.resolve_rooted(self.size);
        let mut own: Vec<Option<Vec<u8>>> = vec![None; self.size];
        for &(r, _) in &members {
            own[r] = Some(values[r].to_bytes());
        }
        let mut raw: PhaseResults<Option<Slots>> = match resolved {
            Resolved::Hub => self.gather_hub_phase(OP, root, &own, &in_cohort),
            Resolved::Ring | Resolved::Tree => self.gather_tree_phase(OP, root, &own, &in_cohort),
        };
        let gen = self.close_cohort(&members);
        let rounds = collective::rooted_rounds(resolved, self.agreed_live().len());
        let mut decoded: PhaseResults<Option<Arc<Vec<Option<T>>>>> = blanks(self.size);
        for r in 0..self.size {
            let Some(entry) = raw[r].take() else { continue };
            decoded[r] = Some(match entry {
                Err(e) => Err(e),
                Ok((None, moved)) => Ok((None, moved)),
                Ok((Some(slots), moved)) => match available_slots::<T>(OP, &slots) {
                    Ok(v) => Ok((Some(Arc::new(v)), moved)),
                    Err(e) => Err(e),
                },
            });
        }
        self.collective_epilogue(
            OP,
            root as i64,
            resolved.name(),
            rounds,
            gen,
            &members,
            decoded,
            &mut out,
        );
        out
    }

    /// Strict gather (mirror of [`crate::Communicator::gatherv`]):
    /// the root additionally rejects any hole — after its `comm`
    /// trace event, exactly like the thread backend's `gatherv`, whose
    /// hole scan runs over what `gather_available` returned.
    pub fn gatherv<T: Wire + Clone>(
        &mut self,
        root: usize,
        values: &[T],
    ) -> RankResults<Option<Arc<Vec<T>>>> {
        const OP: &str = "gatherv";
        let avail = self.gather_available::<T>(root, values);
        let mut out: RankResults<Option<Arc<Vec<T>>>> = blanks(self.size);
        for (r, entry) in avail.into_iter().enumerate() {
            let Some(res) = entry else { continue };
            out[r] = Some(match res {
                Err(e) => Err(e),
                Ok(None) => Ok(None),
                Ok(Some(slots)) => match slots.iter().position(Option::is_none) {
                    Some(rank) => {
                        self.halt(r);
                        Err(RuntimeError::RankDead { op: OP, rank })
                    }
                    None => Ok(Some(Arc::new(
                        slots
                            .iter()
                            .map(|s| s.clone().expect("no holes checked"))
                            .collect(),
                    ))),
                },
            });
        }
        out
    }

    /// Hub gather mirror: one star fan-in round to the op's root (not
    /// the agreed hub). Leaves send non-tolerantly and finish; only
    /// the root collects.
    fn gather_hub_phase(
        &mut self,
        op: &'static str,
        root: usize,
        own: &[Option<Vec<u8>>],
        in_cohort: &[bool],
    ) -> PhaseResults<Option<Slots>> {
        let size = self.size;
        let mut phase: PhaseResults<Option<Slots>> = blanks(size);
        if self.dead[root] {
            for r in 0..size {
                if in_cohort[r] {
                    phase[r] = Some(Err(RuntimeError::RankDead { op, rank: root }));
                }
            }
            return phase;
        }
        let own_len = |r: usize| own[r].as_ref().map_or(0, |b| b.len() as u64);
        // Pass 1 — leaf sends, ascending.
        let mut fates: Vec<Option<SendFate>> = (0..size).map(|_| None).collect();
        for src in 0..size {
            if src != root && in_cohort[src] {
                fates[src] = Some(self.send_eval(op, src, root));
            }
        }
        // Pass 2 — the root's `ThreadedComm::fan_in`, ascending src order.
        let mut present = vec![false; size];
        present[root] = true;
        let root_err = self.collect_fan_in(op, root, &fates, &mut present);
        for (src, fate) in fates.into_iter().enumerate() {
            if let Some(SendFate::Exhausted(e)) = fate {
                phase[src] = Some(Err(e));
            }
        }
        // Leaves are done the moment their send returns — a gather
        // has no fan-out for them to wait on.
        for r in 0..size {
            if r != root && in_cohort[r] && phase[r].is_none() {
                phase[r] = Some(Ok((None, own_len(r))));
            }
        }
        match root_err {
            Some(e) => phase[root] = Some(Err(e)),
            None => {
                let live = self.agreed_live();
                let lens: Vec<u64> = live
                    .iter()
                    .map(|&r| if present[r] { own_len(r) } else { 0 })
                    .collect();
                let moved = own_len(root) + lens.iter().sum::<u64>();
                let slots: Slots = (0..size)
                    .map(|r| if present[r] { own[r].clone() } else { None })
                    .collect();
                let rounds = vec![collective::star_gather_round(&live, root, &lens)];
                self.pending_charge = Some(charge_rounds(&rounds));
                phase[root] = Some(Ok((Some(slots), moved)));
            }
        }
        phase
    }

    /// Tree gather mirror: the reverse binomial tree, replayed
    /// children-before-parents. Per-subtree member lists are *moved*
    /// into the parent on delivery, so the whole phase is `O(q)` in
    /// memory and only the root ever materialises a slot vector.
    fn gather_tree_phase(
        &mut self,
        op: &'static str,
        root: usize,
        own: &[Option<Vec<u8>>],
        in_cohort: &[bool],
    ) -> PhaseResults<Option<Slots>> {
        let size = self.size;
        let mut phase: PhaseResults<Option<Slots>> = blanks(size);
        let live = self.agreed_live();
        let q = live.len();
        let Some(vroot) = live.iter().position(|&r| r == root) else {
            for r in 0..size {
                if in_cohort[r] {
                    phase[r] = Some(Err(RuntimeError::RankDead { op, rank: root }));
                }
            }
            return phase;
        };
        let abs = |v: usize| live[(v + vroot) % q];
        let own_len = |r: usize| own[r].as_ref().map_or(0, |b| b.len() as u64);
        let mut members_of: Vec<Vec<usize>> = (0..q).map(|v| vec![abs(v)]).collect();
        let mut cnt: Vec<u64> = vec![1; q];
        let mut sum: Vec<u64> = (0..q).map(|v| own_len(abs(v))).collect();
        let mut st: Vec<PState> = (0..q)
            .map(|v| {
                if in_cohort[abs(v)] {
                    PState::Active
                } else {
                    PState::Hole
                }
            })
            .collect();
        let mut errs: Vec<Option<RuntimeError>> = (0..q).map(|_| None).collect();
        let mut moved: Vec<u64> = (0..q).map(|v| own_len(abs(v))).collect();
        let mut inbox: Vec<Option<Inflight>> = (0..q).map(|_| None).collect();
        // Children have higher virtual indices, so one descending pass
        // sees every child's send before its parent consumes it.
        for vi in (0..q).rev() {
            if st[vi] != PState::Active {
                continue;
            }
            for &(_, child_vi) in collective::binomial_children(vi, q).iter().rev() {
                match st[child_vi] {
                    PState::Hole | PState::Starved => {}
                    PState::Failed => {
                        errs[vi] = Some(self.starve(op, abs(vi)));
                        st[vi] = PState::Starved;
                        break;
                    }
                    PState::Active => {
                        let m = inbox[child_vi].take().expect("active child sent");
                        self.deliver(abs(vi), m.stamp, m.delay);
                        moved[vi] += m.msg_len;
                        let kids = std::mem::take(&mut members_of[child_vi]);
                        members_of[vi].extend(kids);
                        let (c, s) = (cnt[child_vi], sum[child_vi]);
                        cnt[vi] += c;
                        sum[vi] += s;
                    }
                }
            }
            if st[vi] != PState::Active || vi == 0 {
                continue;
            }
            let parent = collective::binomial_parent(vi).expect("vi > 0 has a parent");
            let msg_len = 8 + size as u64 + 8 * cnt[vi] + sum[vi];
            moved[vi] += msg_len;
            match self.send_eval(op, abs(vi), abs(parent)) {
                SendFate::Delivered { stamp, delay } => {
                    inbox[vi] = Some(Inflight {
                        present: true,
                        stamp,
                        delay,
                        msg_len,
                    });
                }
                SendFate::DeadDst => {}
                SendFate::Exhausted(e) => {
                    st[vi] = PState::Failed;
                    errs[vi] = Some(e);
                }
            }
        }
        for vi in 0..q {
            let r = abs(vi);
            match st[vi] {
                PState::Hole => {}
                PState::Active => {
                    if vi == 0 {
                        let mut slots: Slots = vec![None; size];
                        for &m in &members_of[0] {
                            slots[m] = own[m].clone();
                        }
                        let lens_by_vi: Vec<u64> = (0..q)
                            .map(|v| slots[abs(v)].as_ref().map_or(0, |b| b.len() as u64))
                            .collect();
                        self.pending_charge =
                            Some(charge_rounds(&collective::gatherv_rounds(
                                size, &live, vroot, &lens_by_vi,
                            )));
                        phase[r] = Some(Ok((Some(slots), moved[0])));
                    } else {
                        phase[r] = Some(Ok((None, moved[vi])));
                    }
                }
                PState::Failed | PState::Starved => {
                    phase[r] = Some(Err(errs[vi].take().expect("failure recorded")));
                }
            }
        }
        phase
    }

    /// Broadcast (mirror of [`crate::Communicator::bcast`] with the
    /// root's value supplied): every surviving rank decodes the
    /// root's payload; a rank the payload never reached errs
    /// `RankDead { rank: root }`.
    pub fn bcast<T: Wire>(&mut self, root: usize, value: &T) -> RankResults<T> {
        const OP: &str = "bcast";
        let mut out: RankResults<T> = blanks(self.size);
        if self.reject_invalid_root(OP, root, &mut out) {
            return out;
        }
        let Some((members, in_cohort)) = self.collective_prologue(OP, &mut out) else {
            return out;
        };
        let resolved = self.policy.bcast.resolve_rooted(self.size);
        let bytes = value.to_bytes();
        let phase: PhaseResults<T> = match resolved {
            Resolved::Hub => self.bcast_hub_phase(OP, root, &bytes, &in_cohort),
            Resolved::Ring | Resolved::Tree => self.bcast_tree_phase(OP, root, &bytes, &in_cohort),
        };
        let gen = self.close_cohort(&members);
        let rounds = collective::rooted_rounds(resolved, self.agreed_live().len());
        self.collective_epilogue(
            OP,
            root as i64,
            resolved.name(),
            rounds,
            gen,
            &members,
            phase,
            &mut out,
        );
        out
    }

    /// Hub broadcast mirror: the root fans the raw payload out to
    /// every live rank.
    fn bcast_hub_phase<T: Wire>(
        &mut self,
        op: &'static str,
        root: usize,
        bytes: &[u8],
        in_cohort: &[bool],
    ) -> PhaseResults<T> {
        let size = self.size;
        let mut phase: PhaseResults<T> = blanks(size);
        if self.dead[root] {
            for r in 0..size {
                if in_cohort[r] {
                    phase[r] = Some(Err(RuntimeError::RankDead { op, rank: root }));
                }
            }
            return phase;
        }
        let live = self.agreed_live();
        let blob_len = bytes.len() as u64;
        let mut root_err: Option<RuntimeError> = None;
        let mut delivered = vec![false; size];
        for &dst in &live {
            if dst == root || self.dead[dst] {
                continue;
            }
            match self.send_eval(op, root, dst) {
                SendFate::Delivered { stamp, delay } => {
                    self.deliver(dst, stamp, delay);
                    delivered[dst] = true;
                }
                SendFate::DeadDst => {}
                SendFate::Exhausted(e) => {
                    root_err = Some(e);
                    break;
                }
            }
        }
        match root_err {
            Some(e) => phase[root] = Some(Err(e)),
            None => {
                let lens = vec![blob_len; live.len()];
                let rounds = vec![collective::star_scatter_round(&live, root, &lens)];
                self.pending_charge = Some(charge_rounds(&rounds));
                phase[root] = Some(match decode_as::<T>(op, bytes) {
                    Ok(v) => Ok((v, blob_len)),
                    Err(e) => Err(e),
                });
            }
        }
        for r in 0..size {
            if r == root || !in_cohort[r] || phase[r].is_some() {
                continue;
            }
            if delivered[r] {
                phase[r] = Some(match decode_as::<T>(op, bytes) {
                    Ok(v) => Ok((v, blob_len)),
                    Err(e) => Err(e),
                });
            } else {
                phase[r] = Some(Err(self.starve(op, r)));
            }
        }
        phase
    }

    /// Tree broadcast mirror: the framed payload flows root-outward
    /// down the binomial tree; a dead hop degrades its whole subtree
    /// to the poison (`None`) frame.
    fn bcast_tree_phase<T: Wire>(
        &mut self,
        op: &'static str,
        root: usize,
        bytes: &[u8],
        in_cohort: &[bool],
    ) -> PhaseResults<T> {
        let size = self.size;
        let mut phase: PhaseResults<T> = blanks(size);
        let live = self.agreed_live();
        let q = live.len();
        let Some(vroot) = live.iter().position(|&r| r == root) else {
            for r in 0..size {
                if in_cohort[r] {
                    phase[r] = Some(Err(RuntimeError::RankDead { op, rank: root }));
                }
            }
            return phase;
        };
        let abs = |v: usize| live[(v + vroot) % q];
        let blob_len = bytes.len() as u64;
        let mut inbox: Vec<TreeMail> = vec![TreeMail::Degrade; q];
        // Parents have lower virtual indices, so one ascending pass
        // sees every parent's send before its child consumes it.
        for vi in 0..q {
            let r = abs(vi);
            if !in_cohort[r] {
                continue;
            }
            let present = if vi == 0 {
                true
            } else {
                match inbox[vi] {
                    TreeMail::Got {
                        present,
                        stamp,
                        delay,
                        ..
                    } => {
                        // A broadcast rank's `moved` counts only the
                        // frame it forwards, never what it received.
                        self.deliver(r, stamp, delay);
                        present
                    }
                    TreeMail::Degrade => false,
                    TreeMail::Starve => {
                        phase[r] = Some(Err(self.starve(op, r)));
                        continue;
                    }
                }
            };
            let msg_len = framed_len(present, blob_len);
            let mut err: Option<RuntimeError> = None;
            let children = collective::binomial_children(vi, q);
            for (i, &(_, child_vi)) in children.iter().enumerate() {
                match self.send_eval(op, r, abs(child_vi)) {
                    SendFate::Delivered { stamp, delay } => {
                        inbox[child_vi] = TreeMail::Got {
                            present,
                            stamp,
                            delay,
                            msg_len,
                        };
                    }
                    SendFate::DeadDst => {}
                    SendFate::Exhausted(e) => {
                        err = Some(e);
                        for &(_, rest) in &children[i + 1..] {
                            inbox[rest] = TreeMail::Starve;
                        }
                        break;
                    }
                }
            }
            if let Some(e) = err {
                phase[r] = Some(Err(e));
                continue;
            }
            if vi == 0 {
                self.pending_charge = Some(charge_rounds(&collective::bcast_rounds(
                    &live, vroot, msg_len,
                )));
            }
            phase[r] = Some(if present {
                match decode_as::<T>(op, bytes) {
                    Ok(v) => Ok((v, msg_len)),
                    Err(e) => Err(e),
                }
            } else {
                Err(RuntimeError::RankDead { op, rank: root })
            });
        }
        phase
    }

    /// Scatter (mirror of [`crate::Communicator::scatterv`] with the
    /// root's parts supplied): rank `r` receives `parts[r]`. A
    /// wrong-arity `parts` is rejected by the root with
    /// [`RuntimeError::SizeMismatch`] while everyone else starves,
    /// exactly as the thread backend behaves.
    pub fn scatterv<T: Wire>(&mut self, root: usize, parts: &[T]) -> RankResults<T> {
        const OP: &str = "scatterv";
        let mut out: RankResults<T> = blanks(self.size);
        if self.reject_invalid_root(OP, root, &mut out) {
            return out;
        }
        let Some((members, in_cohort)) = self.collective_prologue(OP, &mut out) else {
            return out;
        };
        let resolved = self.policy.scatterv.resolve_rooted(self.size);
        let phase: PhaseResults<T> = if in_cohort[root] && parts.len() != self.size {
            // The root rejects the arity before any data moves; every
            // other cohort rank waits on it and starves.
            let mut phase: PhaseResults<T> = blanks(self.size);
            phase[root] = Some(Err(RuntimeError::SizeMismatch {
                op: OP,
                expected: self.size,
                got: parts.len(),
            }));
            for r in 0..self.size {
                if r != root && in_cohort[r] {
                    phase[r] = Some(Err(self.starve(OP, r)));
                }
            }
            phase
        } else {
            let encoded: Vec<Vec<u8>> = parts.iter().map(Wire::to_bytes).collect();
            match resolved {
                Resolved::Hub => self.scatterv_hub_phase(OP, root, &encoded, &in_cohort),
                Resolved::Ring | Resolved::Tree => {
                    self.scatterv_tree_phase(OP, root, &encoded, &in_cohort)
                }
            }
        };
        let gen = self.close_cohort(&members);
        let rounds = collective::rooted_rounds(resolved, self.agreed_live().len());
        self.collective_epilogue(
            OP,
            root as i64,
            resolved.name(),
            rounds,
            gen,
            &members,
            phase,
            &mut out,
        );
        out
    }

    /// Hub scatter mirror: the root pushes each live rank its own
    /// encoded part.
    fn scatterv_hub_phase<T: Wire>(
        &mut self,
        op: &'static str,
        root: usize,
        encoded: &[Vec<u8>],
        in_cohort: &[bool],
    ) -> PhaseResults<T> {
        let size = self.size;
        let mut phase: PhaseResults<T> = blanks(size);
        if self.dead[root] {
            for r in 0..size {
                if in_cohort[r] {
                    phase[r] = Some(Err(RuntimeError::RankDead { op, rank: root }));
                }
            }
            return phase;
        }
        let live = self.agreed_live();
        let mut sent = 0u64;
        let mut root_err: Option<RuntimeError> = None;
        let mut delivered = vec![false; size];
        for &dst in &live {
            if dst == root {
                continue;
            }
            // The root counts the bytes it pushed whether or not the
            // destination survived to take them.
            sent += encoded[dst].len() as u64;
            if self.dead[dst] {
                continue;
            }
            match self.send_eval(op, root, dst) {
                SendFate::Delivered { stamp, delay } => {
                    self.deliver(dst, stamp, delay);
                    delivered[dst] = true;
                }
                SendFate::DeadDst => {}
                SendFate::Exhausted(e) => {
                    root_err = Some(e);
                    break;
                }
            }
        }
        match root_err {
            Some(e) => phase[root] = Some(Err(e)),
            None => {
                let lens: Vec<u64> = live.iter().map(|&r| encoded[r].len() as u64).collect();
                let rounds = vec![collective::star_scatter_round(&live, root, &lens)];
                self.pending_charge = Some(charge_rounds(&rounds));
                phase[root] = Some(match decode_as::<T>(op, &encoded[root]) {
                    Ok(v) => Ok((v, sent)),
                    Err(e) => Err(e),
                });
            }
        }
        for r in 0..size {
            if r == root || !in_cohort[r] || phase[r].is_some() {
                continue;
            }
            if delivered[r] {
                phase[r] = Some(match decode_as::<T>(op, &encoded[r]) {
                    Ok(v) => Ok((v, encoded[r].len() as u64)),
                    Err(e) => Err(e),
                });
            } else {
                phase[r] = Some(Err(self.starve(op, r)));
            }
        }
        phase
    }

    /// Tree scatter mirror: sub-bundles flow root-outward down the
    /// binomial tree; a dead hop poisons its whole subtree, which
    /// keeps forwarding the empty bundle so descendants degrade in
    /// one hop instead of timing out.
    fn scatterv_tree_phase<T: Wire>(
        &mut self,
        op: &'static str,
        root: usize,
        encoded: &[Vec<u8>],
        in_cohort: &[bool],
    ) -> PhaseResults<T> {
        let size = self.size;
        let mut phase: PhaseResults<T> = blanks(size);
        let live = self.agreed_live();
        let q = live.len();
        let Some(vroot) = live.iter().position(|&r| r == root) else {
            for r in 0..size {
                if in_cohort[r] {
                    phase[r] = Some(Err(RuntimeError::RankDead { op, rank: root }));
                }
            }
            return phase;
        };
        let abs = |v: usize| live[(v + vroot) % q];
        // Subtree (slot count, payload bytes) per virtual index gives
        // every good bundle's encoded length in closed form; children
        // have higher vi, so one descending pass suffices.
        let mut cnt: Vec<u64> = vec![1; q];
        let mut sum: Vec<u64> = (0..q)
            .map(|v| encoded.get(abs(v)).map_or(0, |b| b.len() as u64))
            .collect();
        for vi in (0..q).rev() {
            for (_, c) in collective::binomial_children(vi, q) {
                let (ac, asum) = (cnt[c], sum[c]);
                cnt[vi] += ac;
                sum[vi] += asum;
            }
        }
        let mut inbox: Vec<TreeMail> = vec![TreeMail::Degrade; q];
        for vi in 0..q {
            let r = abs(vi);
            if !in_cohort[r] {
                continue;
            }
            let mut moved = 0u64;
            let good = if vi == 0 {
                // The root deposits at bundle-obtain time, before its
                // first child send (thread mirror).
                let lens_by_vi: Vec<u64> =
                    (0..q).map(|v| encoded[abs(v)].len() as u64).collect();
                self.pending_charge = Some(charge_rounds(&collective::scatterv_rounds(
                    size, &live, vroot, &lens_by_vi,
                )));
                true
            } else {
                match inbox[vi] {
                    TreeMail::Got {
                        present,
                        stamp,
                        delay,
                        msg_len,
                    } => {
                        self.deliver(r, stamp, delay);
                        moved += msg_len;
                        present
                    }
                    TreeMail::Degrade => false,
                    TreeMail::Starve => {
                        phase[r] = Some(Err(self.starve(op, r)));
                        continue;
                    }
                }
            };
            let mut err: Option<RuntimeError> = None;
            let children = collective::binomial_children(vi, q);
            for (i, &(_, child_vi)) in children.iter().enumerate() {
                let msg_len = if good {
                    8 + size as u64 + 8 * cnt[child_vi] + sum[child_vi]
                } else {
                    8 + size as u64
                };
                moved += msg_len;
                match self.send_eval(op, r, abs(child_vi)) {
                    SendFate::Delivered { stamp, delay } => {
                        inbox[child_vi] = TreeMail::Got {
                            present: good,
                            stamp,
                            delay,
                            msg_len,
                        };
                    }
                    SendFate::DeadDst => {}
                    SendFate::Exhausted(e) => {
                        err = Some(e);
                        for &(_, rest) in &children[i + 1..] {
                            inbox[rest] = TreeMail::Starve;
                        }
                        break;
                    }
                }
            }
            if let Some(e) = err {
                phase[r] = Some(Err(e));
                continue;
            }
            phase[r] = Some(if good {
                match decode_as::<T>(op, &encoded[r]) {
                    Ok(v) => Ok((v, moved)),
                    Err(e) => Err(e),
                }
            } else {
                Err(RuntimeError::RankDead { op, rank: root })
            });
        }
        phase
    }
}

/// What one rooted-tree rank finds in its parent slot when its turn
/// comes.
#[derive(Clone, Copy)]
enum TreeMail {
    /// Delivered frame/bundle from the parent.
    Got {
        /// Whether the payload survived the root-to-here path.
        present: bool,
        /// Sender's Lamport stamp at send time.
        stamp: u64,
        /// Injected delivery delay, seconds.
        delay: f64,
        /// Framed message length, bytes.
        msg_len: u64,
    },
    /// The parent died before sending: degrade to the poison frame.
    Degrade,
    /// The parent is alive but its program ended in an error: the
    /// waiter hits the deadline and fail-stops.
    Starve,
}
