//! Cohort collectives for the event engine: every collective runs as
//! one synchronous dispatch over the ranks still executing, mirroring
//! the thread backend's data phases instruction for instruction —
//! same sends (and therefore the same fault-rule counter ticks), same
//! Lamport merges, same `moved` byte accounting, same deposited
//! schedule charges — so virtual clocks and schema-v3 trace streams
//! stay bit-identical at small `p` while closed-form fast paths keep
//! `p = 10⁵` collectives in milliseconds.
//!
//! A rank fails as a thread rank does: when its own send runs out of
//! retries (or, for a root, its part is missing) it leaves the plane
//! at once, and every rank waiting on it takes the dead-sender path —
//! a hole, the poison frame, or `RankDead` naming it.
//!
//! Dispatch order is deterministic: `op_begin` fires in `(clock
//! bits, rank)` order, data-phase sends in ascending rank (or
//! schedule-position) order, epilogues in final `(clock bits, rank)`
//! order — see `docs/RUNTIME.md` §9 for the full ordering contract
//! and the places where the thread backend is inherently racy and the
//! engine's order is canonical.

use std::collections::HashMap;
use std::sync::Arc;

use crate::collective::{
    self, available_slots, encoded_slots_len, fold_slots, framed_len, strict_slots, Resolved, Slots,
};
use crate::comm::ReduceOp;
use crate::error::RuntimeError;
use crate::wire::{decode_as, Wire};

use super::engine::{EventSim, RankResults};
use crate::ledger::{self, Charge};

/// Per-abs-rank data-phase outcome for the cohort: the payload plus
/// the rank's `moved` byte count for its `comm` trace event.
type PhaseResults<T> = Vec<Option<Result<(T, u64), RuntimeError>>>;

/// `vec![None; n]` for slot types whose payload is not `Clone`.
fn blanks<T>(n: usize) -> Vec<Option<T>> {
    (0..n).map(|_| None).collect()
}

/// Each cohort rank's encoded contribution, absolute-rank-indexed.
fn encode<T: Wire>(values: &[T], in_cohort: &[bool]) -> Vec<Option<Vec<u8>>> {
    values
        .iter()
        .zip(in_cohort)
        .map(|(v, &member)| member.then(|| v.to_bytes()))
        .collect()
}

/// Every cohort rank but `center` that has no outcome yet gets
/// `RankDead` naming `center`: it was waiting on a sender that died
/// before the phase or left inside it.
fn cut_off<T>(op: &'static str, center: usize, in_cohort: &[bool], phase: &mut PhaseResults<T>) {
    for (r, slot) in phase.iter_mut().enumerate() {
        if r != center && in_cohort[r] && slot.is_none() {
            *slot = Some(Err(RuntimeError::RankDead { op, rank: center }));
        }
    }
}

/// Decodes each distinct shared slot vector once — memoised by `Arc`
/// identity, since the fast paths hand every rank the same one.
fn decode_shared<X: Clone>(
    phase: PhaseResults<Arc<Slots>>,
    decode: impl Fn(&Slots) -> Result<X, RuntimeError>,
) -> PhaseResults<X> {
    let mut memo: HashMap<*const Slots, Result<X, RuntimeError>> = HashMap::new();
    phase
        .into_iter()
        .map(|entry| {
            entry.map(|res| {
                res.and_then(|(slots, moved)| {
                    let decoded = memo
                        .entry(Arc::as_ptr(&slots))
                        .or_insert_with(|| decode(&slots));
                    decoded.clone().map(|x| (x, moved))
                })
            })
        })
        .collect()
}

/// One schedule-edge delivery, captured when it is sent and consumed
/// when its receiver's turn comes.
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

/// The schedule positions of a general data phase while it replays
/// the thread ranks' programs: whether each still runs its part, and
/// the error that ended a failed one. A position that is not active
/// sends nothing more, so whoever waits on it finds no mail — the
/// dead-sender path.
struct Positions {
    active: Vec<bool>,
    errs: Vec<Option<RuntimeError>>,
}

impl Positions {
    fn new(active: Vec<bool>) -> Self {
        let errs = blanks(active.len());
        Self { active, errs }
    }

    fn fail(&mut self, pos: usize, e: RuntimeError) {
        self.active[pos] = false;
        self.errs[pos] = Some(e);
    }
}

/// What a rooted tree fan-out did at one rank: whether the root's
/// payload reached it, and the bytes it took and forwarded.
struct Reach {
    present: bool,
    received: u64,
    sent: u64,
}

impl EventSim {
    // ----- shared driver plumbing -------------------------------------

    /// The frame of every collective: an out-of-range root is rejected
    /// by the ledger's rank check, as on the thread backend, before any
    /// op accounting; `op_begin` fires for every running rank in `(clock,
    /// rank)` order; `phase` runs the data phase over the cohort and
    /// returns the schedule it ran (or `None` once it has settled every
    /// cohort rank's outcome in `out`); the closing generation
    /// completes; epilogues dispatch. `rounds` counts the schedule's
    /// rounds over the membership the generation agreed.
    fn collective<T>(
        &mut self,
        op: &'static str,
        root: Option<usize>,
        rounds: impl FnOnce(Resolved, usize) -> u64,
        phase: impl FnOnce(
            &mut Self,
            &[bool],
            &mut RankResults<T>,
        ) -> Option<(Resolved, PhaseResults<T>)>,
    ) -> RankResults<T> {
        let size = self.size;
        let mut out: RankResults<T> = blanks(size);
        if let Some(Err(invalid)) = root.map(|root| ledger::check_rank(op, root, size)) {
            for (rank, slot) in out.iter_mut().enumerate() {
                if self.running[rank] {
                    *slot = Some(self.noted(rank, Err(invalid.clone())));
                    self.halt(rank);
                }
            }
            return out;
        }
        let (mut members, failed) = self.begin_cohort(op);
        for (rank, e) in failed {
            out[rank] = Some(Err(e));
        }
        if members.is_empty() {
            return out;
        }
        let mut in_cohort = vec![false; size];
        for &(r, _) in &members {
            in_cohort[r] = true;
        }
        // A rank that is agreed-alive but no longer running would
        // deadline-stall the thread backend; the engine surfaces a
        // typed error instead (docs/RUNTIME.md §9).
        let ghost = (0..size)
            .find(|&r| self.ledger.agreed_alive[r] && !self.ledger.dead[r] && !in_cohort[r]);
        if let Some(ghost) = ghost {
            for &(r, _) in &members {
                self.halt(r);
                out[r] = Some(Err(RuntimeError::App(format!(
                    "{op}: rank {ghost} is agreed-alive but no longer participating; \
                     the thread backend would deadline-stall here (docs/RUNTIME.md §9)"
                ))));
            }
            return out;
        }
        let Some((resolved, mut results)) = phase(self, &in_cohort, &mut out) else {
            return out;
        };
        // The generation completes iff at least one cohort rank is
        // still alive to arrive at the closing barrier.
        let gen = self.ledger.generation;
        if members.iter().any(|&(r, _)| !self.ledger.dead[r]) {
            self.ledger.close_generation();
        }
        let rounds = rounds(resolved, self.ledger.agreed_count());
        let peer = root.map_or(-1, |r| r as i64);
        // Epilogues in final `(clock, rank)` order: a successful rank
        // emits its `comm` trace event, an errored one ends its
        // program (the mirror of `?`-propagation ending a rank
        // closure) without one.
        self.cohort_end_order(&mut members);
        for (rank, start) in members {
            match results[rank]
                .take()
                .expect("every cohort rank has a data-phase outcome")
            {
                Ok((value, moved)) => {
                    self.op_end(rank, op, peer, moved, &start, resolved.name(), rounds, gen);
                    out[rank] = Some(Ok(value));
                }
                Err(e) => {
                    out[rank] = Some(self.noted(rank, Err(e)));
                    self.halt(rank);
                }
            }
        }
        out
    }

    /// One schedule edge `src → dst` carrying `msg_len` bytes: the
    /// message in flight, or `None` when `dst` is dead (the edge
    /// drops). A send that runs out of retries ends the sender's part:
    /// it leaves, and its error is returned.
    fn hop(
        &mut self,
        op: &'static str,
        src: usize,
        dst: usize,
        present: bool,
        msg_len: u64,
    ) -> Result<Option<Inflight>, RuntimeError> {
        match self.send_walk(op, src, dst) {
            Ok((stamp, delay)) => Ok(Some(Inflight {
                present,
                stamp,
                delay,
                msg_len,
            })),
            Err(RuntimeError::RankDead { rank, .. }) if rank == dst => Ok(None),
            Err(e) => {
                self.leave(src);
                Err(e)
            }
        }
    }

    /// `rank` takes what an edge brought it, if anything: the Lamport
    /// merge and delay charge, with the frame counted in `moved`.
    /// Returns whether the frame carried the payload, or `None` when
    /// no mail came (the sender died or left first).
    fn receive(&mut self, rank: usize, mail: Option<Inflight>, moved: &mut u64) -> Option<bool> {
        let m = mail?;
        self.events += 1;
        self.ledger.deliver(rank, m.stamp, m.delay, None);
        *moved += m.msg_len;
        Some(m.present)
    }

    /// The star fan-in of every hub schedule: each other cohort rank
    /// sends its part to `center` in ascending rank order, which is
    /// also the order the center's `fan_in` takes them in. A part
    /// whose send runs out of retries is a hole, and its sender's
    /// outcome is the error. Returns whose parts reached the center
    /// (its own included).
    fn star_fan_in<T>(
        &mut self,
        op: &'static str,
        center: usize,
        in_cohort: &[bool],
        phase: &mut PhaseResults<T>,
    ) -> Vec<bool> {
        let mut present = vec![false; self.size];
        present[center] = true;
        for src in 0..self.size {
            if src == center || !in_cohort[src] {
                continue;
            }
            match self.hop(op, src, center, true, 0) {
                Ok(mail) => present[src] = self.receive(center, mail, &mut 0).is_some(),
                Err(e) => phase[src] = Some(Err(e)),
            }
        }
        present
    }

    /// The star fan-out every hub schedule ends with: `center` sends to
    /// each other agreed-live rank in ascending order, skipping dead
    /// ones, and a rank it reaches gets `reached(rank)`. If a send runs
    /// out of retries the center leaves, every rank it had not reached
    /// gets `RankDead` naming it, and the error is returned.
    fn star_fan_out<T>(
        &mut self,
        op: &'static str,
        center: usize,
        live: &[usize],
        in_cohort: &[bool],
        phase: &mut PhaseResults<T>,
        mut reached: impl FnMut(usize) -> Result<(T, u64), RuntimeError>,
    ) -> Result<(), RuntimeError> {
        for &dst in live {
            if dst == center || self.ledger.dead[dst] {
                continue;
            }
            match self.hop(op, center, dst, true, 0) {
                Ok(mail) => {
                    if self.receive(dst, mail, &mut 0).is_some() {
                        phase[dst] = Some(reached(dst));
                    }
                }
                Err(e) => {
                    cut_off(op, center, in_cohort, phase);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// The rooted binomial fan-out `bcast` and `scatterv` share on the
    /// ring/tree schedules, parents before children (ascending virtual
    /// index): every cohort rank forwards `frame(present, child_vi)`
    /// bytes to each child, `present` being whether the root's payload
    /// reached it. A parent that died or left before sending degrades
    /// its subtree to the poison frame. Outcomes are indexed by
    /// virtual index.
    fn tree_fan_out(
        &mut self,
        op: &'static str,
        live: &[usize],
        vroot: usize,
        in_cohort: &[bool],
        frame: impl Fn(bool, usize) -> u64,
    ) -> Vec<Option<Result<Reach, RuntimeError>>> {
        let q = live.len();
        let abs = |v: usize| live[(v + vroot) % q];
        let mut inbox: Vec<Option<Inflight>> = blanks(q);
        let mut out = blanks(q);
        for vi in 0..q {
            let r = abs(vi);
            if !in_cohort[r] {
                continue;
            }
            let mut received = 0;
            let present = vi == 0 || self.receive(r, inbox[vi].take(), &mut received) == Some(true);
            let mut sent = 0;
            let mut reach = Ok(());
            for (_, child_vi) in collective::binomial_children(vi, q) {
                let msg_len = frame(present, child_vi);
                sent += msg_len;
                match self.hop(op, r, abs(child_vi), present, msg_len) {
                    Ok(mail) => inbox[child_vi] = mail,
                    Err(e) => {
                        reach = Err(e);
                        break;
                    }
                }
            }
            out[vi] = Some(reach.map(|()| Reach {
                present,
                received,
                sent,
            }));
        }
        out
    }

    // ----- barrier ----------------------------------------------------

    /// Collective barrier across all running ranks (as
    /// [`crate::Communicator::barrier`]).
    pub fn barrier(&mut self) -> RankResults<()> {
        let resolved = self.policy.algorithm.resolve_rooted(self.size);
        let live = self.ledger.agreed_live();
        let n_rounds = collective::barrier_round_count(resolved, live.len());
        let rounds = collective::barrier_rounds(resolved, &live);
        self.collective(
            "barrier",
            None,
            |_, _| n_rounds,
            |sim, in_cohort, _| {
                sim.ledger.offer(Charge::Rounds(rounds));
                let phase = in_cohort
                    .iter()
                    .map(|&m| m.then_some(Ok(((), 0))))
                    .collect();
                Some((resolved, phase))
            },
        )
    }

    // ----- rootless all-gather core -----------------------------------

    /// Data phase shared by `allgatherv`, `allgatherv_available` and
    /// the ring/tree `allreduce` (mirror of the thread backend's
    /// `Allgather` machine). `own` holds each cohort rank's encoded
    /// contribution, absolute-rank-indexed.
    fn allgather_phase(
        &mut self,
        op: &'static str,
        resolved: Resolved,
        own: &[Option<Vec<u8>>],
        in_cohort: &[bool],
    ) -> PhaseResults<Arc<Slots>> {
        let mut phase: PhaseResults<Arc<Slots>> = blanks(self.size);
        let live = self.ledger.agreed_live();
        if self.size == 1 || (live.len() == 1 && resolved != Resolved::Hub) {
            // A size-1 communicator, or one agreed rank on the ring or
            // tree: the rank's held vector is just its own slot, with
            // zero bytes moved and no schedule deposit.
            let r = live[0];
            if in_cohort[r] {
                let mut slots: Slots = vec![None; self.size];
                slots[r] = own[r].clone();
                phase[r] = Some(Ok((Arc::new(slots), 0)));
            }
            return phase;
        }
        match resolved {
            Resolved::Hub => self.allgather_hub_phase(op, &live, own, in_cohort, &mut phase),
            Resolved::Ring => self.allgather_ring_phase(op, &live, own, in_cohort, &mut phase),
            Resolved::Tree => self.allgather_butterfly_phase(op, &live, own, in_cohort, &mut phase),
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
        live: &[usize],
        own: &[Option<Vec<u8>>],
        in_cohort: &[bool],
        phase: &mut PhaseResults<Arc<Slots>>,
    ) {
        let size = self.size;
        let hub = live[0];
        if self.ledger.dead[hub] {
            // Hub death is fatal for the hub schedule: every leaf's
            // non-tolerant send to it fails.
            cut_off(op, hub, in_cohort, phase);
            return;
        }
        let present = self.star_fan_in(op, hub, in_cohort, phase);
        // The blob bytes are never materialised — only their encoded
        // length matters for clocks and accounting.
        let own_len = |r: usize| own[r].as_ref().map_or(0, |b| b.len() as u64);
        let blob_len = encoded_slots_len(size, (0..size).filter(|&r| present[r]).map(own_len));
        let slots: Slots = (0..size)
            .map(|r| if present[r] { own[r].clone() } else { None })
            .collect();
        let shared = Arc::new(slots);
        let sent = self.star_fan_out(op, hub, live, in_cohort, phase, |r| {
            Ok((Arc::clone(&shared), own_len(r) + blob_len))
        });
        phase[hub] = Some(sent.map(|()| {
            let in_lens: Vec<u64> = live
                .iter()
                .map(|&r| if present[r] { own_len(r) } else { 0 })
                .collect();
            let out_lens = vec![blob_len; live.len()];
            let rounds = vec![
                collective::star_gather_round(live, hub, &in_lens),
                collective::star_scatter_round(live, hub, &out_lens),
            ];
            self.ledger.deposit(Charge::Rounds(rounds));
            (shared, own_len(hub) + blob_len * (live.len() as u64 - 1))
        }));
    }

    /// Ring all-gather mirror. Takes the closed-form fast path when
    /// the round structure is provably uniform (fault-free, no holes,
    /// equal contributions, uniform link, bit-identical clocks);
    /// otherwise replays the `q - 1` pipelined rounds with per-rank
    /// presence tracking, exactly as the thread ranks would run them.
    fn allgather_ring_phase(
        &mut self,
        op: &'static str,
        live: &[usize],
        own: &[Option<Vec<u8>>],
        in_cohort: &[bool],
        phase: &mut PhaseResults<Arc<Slots>>,
    ) {
        let size = self.size;
        let q = live.len();
        let own_len: Vec<u64> = live
            .iter()
            .map(|&r| own[r].as_ref().map_or(0, |b| b.len() as u64))
            .collect();

        // Fast path: every round moves the same framed block between
        // clock-synchronised neighbours, so Lamports, moved bytes and
        // the deposited charge all have closed forms.
        let uniform = self.ledger.plan.drops.is_empty()
            && self.ledger.plan.delays.is_empty()
            && q == size
            && own_len.windows(2).all(|w| w[0] == w[1])
            && {
                let clocks = self.clocks();
                let t0 = clocks.time(0).to_bits();
                (1..size).all(|r| clocks.time(r).to_bits() == t0)
            }
            && self.ledger.lamport.windows(2).all(|w| w[0] == w[1]);
        if uniform {
            let msg = framed_len(Some(own_len[0]));
            let rounds = q - 1;
            let joined = self.ledger.lamport[0].wrapping_add(rounds as u64);
            for c in &mut self.ledger.lamport {
                *c = joined;
            }
            self.events += rounds as u64;
            let moved = rounds as u64 * 2 * msg;
            let slots: Slots = (0..size).map(|r| own[r].clone()).collect();
            let shared = Arc::new(slots);
            self.ledger.deposit(Charge::UniformRing {
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
        let mut parts = Positions::new(live.iter().map(|&r| in_cohort[r]).collect());
        let mut has = vec![vec![false; q]; q];
        let mut moved = vec![0u64; q];
        for (pos, row) in has.iter_mut().enumerate() {
            row[pos] = parts.active[pos];
        }
        for k in 0..q - 1 {
            // Every active rank sends its round-k block, then every
            // active rank takes what its predecessor sent, if anything.
            let mut inbox: Vec<Option<Inflight>> = blanks(q);
            for pos in 0..q {
                if !parts.active[pos] {
                    continue;
                }
                let opos = (pos + q - k) % q;
                let present = has[pos][opos];
                let msg_len = framed_len(present.then_some(own_len[opos]));
                moved[pos] += msg_len;
                let next = (pos + 1) % q;
                match self.hop(op, live[pos], live[next], present, msg_len) {
                    Ok(mail) => inbox[next] = mail,
                    Err(e) => parts.fail(pos, e),
                }
            }
            for pos in 0..q {
                if parts.active[pos]
                    && self.receive(live[pos], inbox[pos].take(), &mut moved[pos]) == Some(true)
                {
                    has[pos][(pos + q - 1 - k) % q] = true;
                }
            }
        }
        if parts.active[0] {
            let lens: Vec<u64> = (0..q)
                .map(|opos| framed_len(has[0][opos].then_some(own_len[opos])))
                .collect();
            self.ledger
                .deposit(Charge::Rounds(collective::ring_rounds(live, &lens)));
        }
        presence_outcomes(size, live, own, parts, &has, &moved, phase);
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
        live: &[usize],
        own: &[Option<Vec<u8>>],
        in_cohort: &[bool],
        phase: &mut PhaseResults<Arc<Slots>>,
    ) {
        let size = self.size;
        let q = live.len();
        let q2 = collective::prev_pow2(q);
        let own_len: Vec<u64> = live
            .iter()
            .map(|&r| own[r].as_ref().map_or(0, |b| b.len() as u64))
            .collect();

        let uniform = self.ledger.plan.drops.is_empty()
            && self.ledger.plan.delays.is_empty()
            && q == size
            && own_len.windows(2).all(|w| w[0] == w[1]);
        if uniform {
            self.butterfly_fast(own, live, q2, own_len[0], phase);
            return;
        }

        // General path: presence rows over schedule positions,
        // replayed phase by phase in the thread ranks' program order.
        // Each exchange is a send pass over `(src, dst)` position pairs
        // followed by a receive pass that merges the rows sent.
        let mut parts = Positions::new(live.iter().map(|&r| in_cohort[r]).collect());
        let mut has = vec![vec![false; q]; q];
        let mut moved = vec![0u64; q];
        for (pos, row) in has.iter_mut().enumerate() {
            row[pos] = parts.active[pos];
        }
        let mut exchange = |sim: &mut Self, pairs: &[(usize, usize)]| {
            let sent = has.clone();
            let mut inbox: Vec<Option<Inflight>> = blanks(q);
            for &(src, dst) in pairs {
                if !parts.active[src] {
                    continue;
                }
                let msg_len =
                    encoded_slots_len(size, (0..q).filter(|&o| sent[src][o]).map(|o| own_len[o]));
                moved[src] += msg_len;
                match sim.hop(op, live[src], live[dst], true, msg_len) {
                    Ok(mail) => inbox[dst] = mail,
                    Err(e) => parts.fail(src, e),
                }
            }
            for &(src, dst) in pairs {
                if parts.active[dst]
                    && sim
                        .receive(live[dst], inbox[dst].take(), &mut moved[dst])
                        .is_some()
                {
                    for (mine, theirs) in has[dst].iter_mut().zip(&sent[src]) {
                        *mine |= *theirs;
                    }
                }
            }
        };
        // Fold-in: the extras hand their slot to the core.
        let folds: Vec<(usize, usize)> = (q2..q).map(|e| (e, e - q2)).collect();
        exchange(self, &folds);
        // Pairwise exchange rounds inside the core.
        let mut mask = 1usize;
        while mask < q2 {
            let pairs: Vec<(usize, usize)> = (0..q2).map(|pos| (pos, pos ^ mask)).collect();
            exchange(self, &pairs);
            mask <<= 1;
        }
        // Fold-out: the core hands the full result back to the extras.
        let unfolds: Vec<(usize, usize)> = (q2..q).map(|e| (e - q2, e)).collect();
        exchange(self, &unfolds);
        if parts.active[0] {
            // Mirror: absent slots are charged at live[0]'s own
            // contribution length.
            let lens: Vec<u64> = (0..q)
                .map(|o| if has[0][o] { own_len[o] } else { own_len[0] })
                .collect();
            self.ledger
                .deposit(Charge::Rounds(collective::butterfly_rounds(size, live, &lens)));
        }
        presence_outcomes(size, live, own, parts, &has, &moved, phase);
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
        let esl = |c: u64| collective::bundle_len(size, c, c * m);
        let mut lam: Vec<u64> = live.iter().map(|&r| self.ledger.lamport[r]).collect();
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
            self.ledger.lamport[r] = lam[pos];
        }
        self.events += u64::from(collective::ceil_log2(q2)) + if q > q2 { 2 } else { 0 };
        let slots: Slots = (0..size).map(|r| own[r].clone()).collect();
        let shared = Arc::new(slots);
        self.ledger
            .deposit(Charge::Rounds(collective::butterfly_rounds_uniform(
                size, live, m,
            )));
        for (pos, &r) in live.iter().enumerate() {
            phase[r] = Some(Ok((Arc::clone(&shared), moved[pos])));
        }
    }

    // ----- rootless public ops ----------------------------------------

    /// The `allgatherv` variants: encodes contributions, resolves the
    /// schedule (every cohort rank must agree — mixed per-rank
    /// resolutions would deadlock the thread backend and are rejected
    /// with a typed error), runs the slot phase and `decode`s its
    /// result.
    fn allgather_decoded<T: Wire, X: Clone>(
        &mut self,
        op: &'static str,
        values: &[T],
        decode: impl Fn(&Slots) -> Result<X, RuntimeError>,
    ) -> RankResults<X> {
        assert_eq!(values.len(), self.size, "one input value per rank");
        self.collective(
            op,
            None,
            collective::rootless_rounds,
            |sim, in_cohort, out| {
                let own = encode(values, in_cohort);
                let algorithm = sim.policy.algorithm;
                let mut resolutions = own
                    .iter()
                    .flatten()
                    .map(|bytes| algorithm.resolve_allgatherv(sim.size, bytes.len() as u64));
                let resolved = resolutions.next().expect("non-empty cohort");
                if resolutions.any(|rr| rr != resolved) {
                    for r in (0..sim.size).filter(|&r| in_cohort[r]) {
                        sim.halt(r);
                        out[r] = Some(Err(RuntimeError::App(format!(
                            "{op}: contribution sizes straddle the auto ring/tree crossover, so \
                             ranks resolve different schedules; the thread backend would deadlock \
                             here (docs/RUNTIME.md §9)"
                        ))));
                    }
                    return None;
                }
                let slots = sim.allgather_phase(op, resolved, &own, in_cohort);
                Some((resolved, decode_shared(slots, decode)))
            },
        )
    }

    /// Strict all-gather (mirror of
    /// [`crate::Communicator::allgatherv`]): a `None` hole — a
    /// contribution lost to a dead rank — is a [`RuntimeError::RankDead`]
    /// error on every rank that sees it. `values` is absolute-rank
    /// indexed; entries of non-running ranks are ignored.
    pub fn allgatherv<T: Wire>(&mut self, values: &[T]) -> RankResults<Arc<Vec<T>>> {
        const OP: &str = "allgatherv";
        self.allgather_decoded(OP, values, |slots| {
            strict_slots::<T>(OP, slots).map(Arc::new)
        })
    }

    /// Degradation-tolerant all-gather (mirror of
    /// [`crate::Communicator::allgatherv_available`]): holes come back
    /// as `None` instead of erroring.
    pub fn allgatherv_available<T: Wire>(
        &mut self,
        values: &[T],
    ) -> RankResults<Arc<Vec<Option<T>>>> {
        const OP: &str = "allgatherv";
        self.allgather_decoded(OP, values, |slots| {
            available_slots::<T>(OP, slots).map(Arc::new)
        })
    }

    /// All-reduce (mirror of [`crate::Communicator::allreduce`]):
    /// every schedule gathers raw contributions and folds them in the
    /// pinned ascending-rank, left-associated order, so hub, ring and
    /// tree stay bitwise identical.
    pub fn allreduce(&mut self, values: &[f64], rop: ReduceOp) -> RankResults<f64> {
        const OP: &str = "allreduce";
        assert_eq!(values.len(), self.size, "one input value per rank");
        self.collective(
            OP,
            None,
            collective::rootless_rounds,
            |sim, in_cohort, _| {
                let own = encode(values, in_cohort);
                let resolved = sim.policy.algorithm.resolve_allreduce(sim.size);
                let phase = match resolved {
                    Resolved::Hub => sim.allreduce_hub_phase(OP, &own, in_cohort, rop),
                    Resolved::Ring | Resolved::Tree => decode_shared(
                        sim.allgather_phase(OP, resolved, &own, in_cohort),
                        |slots| fold_slots(OP, slots, rop),
                    ),
                };
                Some((resolved, phase))
            },
        )
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
        let live = self.ledger.agreed_live();
        let hub = live[0];
        if self.ledger.dead[hub] {
            cut_off(op, hub, in_cohort, &mut phase);
            return phase;
        }
        let present = self.star_fan_in(op, hub, in_cohort, &mut phase);
        let slots: Slots = (0..size)
            .map(|r| if present[r] { own[r].clone() } else { None })
            .collect();
        // The hub folds before fanning out; a fold error ends its part.
        let folded = fold_slots(op, &slots, rop).and_then(|folded| {
            self.star_fan_out(op, hub, &live, in_cohort, &mut phase, |_| Ok((folded, 16)))?;
            let lens = vec![8u64; live.len()];
            let rounds = vec![
                collective::star_gather_round(&live, hub, &lens),
                collective::star_scatter_round(&live, hub, &lens),
            ];
            self.ledger.deposit(Charge::Rounds(rounds));
            Ok((folded, 8 * live.len() as u64))
        });
        if folded.is_err() {
            self.leave(hub);
            cut_off(op, hub, in_cohort, &mut phase);
        }
        phase[hub] = Some(folded);
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
        self.collective(
            OP,
            Some(root),
            collective::rooted_rounds,
            |sim, in_cohort, _| {
                let resolved = sim.policy.algorithm.resolve_rooted(sim.size);
                let own = encode(values, in_cohort);
                let raw = match resolved {
                    Resolved::Hub => sim.gather_hub_phase(OP, root, &own, in_cohort),
                    Resolved::Ring | Resolved::Tree => {
                        sim.gather_tree_phase(OP, root, &own, in_cohort)
                    }
                };
                let decoded = raw
                    .into_iter()
                    .map(|entry| {
                        entry.map(|res| {
                            res.and_then(|(slots, moved)| match slots {
                                None => Ok((None, moved)),
                                Some(slots) => available_slots::<T>(OP, &slots)
                                    .map(|v| (Some(Arc::new(v)), moved)),
                            })
                        })
                    })
                    .collect();
                Some((resolved, decoded))
            },
        )
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
        if self.ledger.dead[root] {
            cut_off(op, root, in_cohort, &mut phase);
            return phase;
        }
        let own_len = |r: usize| own[r].as_ref().map_or(0, |b| b.len() as u64);
        let present = self.star_fan_in(op, root, in_cohort, &mut phase);
        // Leaves are done the moment their send returns — a gather
        // has no fan-out for them to wait on.
        for r in 0..size {
            if r != root && in_cohort[r] && phase[r].is_none() {
                phase[r] = Some(Ok((None, own_len(r))));
            }
        }
        let live = self.ledger.agreed_live();
        let lens: Vec<u64> = live
            .iter()
            .map(|&r| if present[r] { own_len(r) } else { 0 })
            .collect();
        let moved = own_len(root) + lens.iter().sum::<u64>();
        let slots: Slots = (0..size)
            .map(|r| if present[r] { own[r].clone() } else { None })
            .collect();
        let rounds = vec![collective::star_gather_round(&live, root, &lens)];
        self.ledger.deposit(Charge::Rounds(rounds));
        phase[root] = Some(Ok((Some(slots), moved)));
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
        let live = self.ledger.agreed_live();
        let q = live.len();
        let Some(vroot) = live.iter().position(|&r| r == root) else {
            cut_off(op, root, in_cohort, &mut phase);
            return phase;
        };
        let abs = |v: usize| live[(v + vroot) % q];
        let own_len = |r: usize| own[r].as_ref().map_or(0, |b| b.len() as u64);
        let mut members_of: Vec<Vec<usize>> = (0..q).map(|v| vec![abs(v)]).collect();
        let mut cnt: Vec<u64> = vec![1; q];
        let mut sum: Vec<u64> = (0..q).map(|v| own_len(abs(v))).collect();
        let mut parts = Positions::new((0..q).map(|v| in_cohort[abs(v)]).collect());
        let mut moved: Vec<u64> = (0..q).map(|v| own_len(abs(v))).collect();
        let mut inbox: Vec<Option<Inflight>> = blanks(q);
        // Children have higher virtual indices, so one descending pass
        // sees every child's send before its parent consumes it.
        for vi in (0..q).rev() {
            if !parts.active[vi] {
                continue;
            }
            for &(_, child_vi) in collective::binomial_children(vi, q).iter().rev() {
                if self
                    .receive(abs(vi), inbox[child_vi].take(), &mut moved[vi])
                    .is_some()
                {
                    let kids = std::mem::take(&mut members_of[child_vi]);
                    members_of[vi].extend(kids);
                    let (c, s) = (cnt[child_vi], sum[child_vi]);
                    cnt[vi] += c;
                    sum[vi] += s;
                }
            }
            let Some(parent) = collective::binomial_parent(vi) else {
                continue;
            };
            let msg_len = collective::bundle_len(size, cnt[vi], sum[vi]);
            moved[vi] += msg_len;
            match self.hop(op, abs(vi), abs(parent), true, msg_len) {
                Ok(mail) => inbox[vi] = mail,
                Err(e) => parts.fail(vi, e),
            }
        }
        for vi in 0..q {
            let r = abs(vi);
            phase[r] = match parts.errs[vi].take() {
                Some(e) => Some(Err(e)),
                None if !parts.active[vi] => None,
                None if vi > 0 => Some(Ok((None, moved[vi]))),
                None => {
                    let mut slots: Slots = vec![None; size];
                    for &m in &members_of[0] {
                        slots[m] = own[m].clone();
                    }
                    let lens_by_vi: Vec<u64> = (0..q)
                        .map(|v| slots[abs(v)].as_ref().map_or(0, |b| b.len() as u64))
                        .collect();
                    self.ledger.deposit(Charge::Rounds(collective::gatherv_rounds(
                        size,
                        &live,
                        vroot,
                        &lens_by_vi,
                    )));
                    Some(Ok((Some(slots), moved[0])))
                }
            };
        }
        phase
    }

    /// Broadcast (mirror of [`crate::Communicator::bcast`] with the
    /// root's value supplied): every surviving rank decodes the
    /// root's payload; a rank the payload never reached errs
    /// `RankDead { rank: root }`.
    pub fn bcast<T: Wire>(&mut self, root: usize, value: &T) -> RankResults<T> {
        const OP: &str = "bcast";
        self.collective(
            OP,
            Some(root),
            collective::rooted_rounds,
            |sim, in_cohort, _| {
                let resolved = sim.policy.algorithm.resolve_rooted(sim.size);
                let bytes = value.to_bytes();
                let phase = match resolved {
                    Resolved::Hub => sim.bcast_hub_phase(OP, root, &bytes, in_cohort),
                    Resolved::Ring | Resolved::Tree => {
                        sim.bcast_tree_phase(OP, root, &bytes, in_cohort)
                    }
                };
                Some((resolved, phase))
            },
        )
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
        let mut phase: PhaseResults<T> = blanks(self.size);
        if self.ledger.dead[root] {
            cut_off(op, root, in_cohort, &mut phase);
            return phase;
        }
        let live = self.ledger.agreed_live();
        let blob_len = bytes.len() as u64;
        let decoded = || decode_as::<T>(op, bytes).map(|v| (v, blob_len));
        let sent = self.star_fan_out(op, root, &live, in_cohort, &mut phase, |_| decoded());
        phase[root] = Some(sent.and_then(|()| {
            let lens = vec![blob_len; live.len()];
            let rounds = vec![collective::star_scatter_round(&live, root, &lens)];
            self.ledger.deposit(Charge::Rounds(rounds));
            decoded()
        }));
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
        let mut phase: PhaseResults<T> = blanks(self.size);
        let live = self.ledger.agreed_live();
        let Some(vroot) = live.iter().position(|&r| r == root) else {
            cut_off(op, root, in_cohort, &mut phase);
            return phase;
        };
        let blob_len = bytes.len() as u64;
        let reach = self.tree_fan_out(op, &live, vroot, in_cohort, |present, _| {
            framed_len(present.then_some(blob_len))
        });
        if let Some(Ok(_)) = reach[0] {
            self.ledger.deposit(Charge::Rounds(collective::bcast_rounds(
                &live,
                vroot,
                framed_len(Some(blob_len)),
            )));
        }
        for (vi, reach) in reach.into_iter().enumerate() {
            // A broadcast rank's `moved` counts only the frame it
            // forwards, never what it received.
            phase[live[(vi + vroot) % live.len()]] = reach.map(|reach| {
                let reach = reach?;
                if !reach.present {
                    return Err(RuntimeError::RankDead { op, rank: root });
                }
                decode_as::<T>(op, bytes).map(|v| (v, framed_len(Some(blob_len))))
            });
        }
        phase
    }

    /// Scatter (mirror of [`crate::Communicator::scatterv`] with the
    /// root's parts supplied): rank `r` receives `parts[r]`. A root
    /// whose `parts` has the wrong arity fails with
    /// [`RuntimeError::SizeMismatch`] before sending anything and
    /// leaves, exactly as the thread backend behaves; the phase then
    /// runs around it as around a dead root.
    pub fn scatterv<T: Wire>(&mut self, root: usize, parts: &[T]) -> RankResults<T> {
        const OP: &str = "scatterv";
        self.collective(
            OP,
            Some(root),
            collective::rooted_rounds,
            |sim, in_cohort, _| {
                let size = sim.size;
                let resolved = sim.policy.algorithm.resolve_rooted(size);
                let encoded: Vec<Vec<u8>> = parts.iter().map(Wire::to_bytes).collect();
                let short = in_cohort[root] && parts.len() != size;
                let without_root: Vec<bool>;
                let in_cohort = if short {
                    sim.leave(root);
                    without_root = (0..size).map(|r| in_cohort[r] && r != root).collect();
                    &without_root
                } else {
                    in_cohort
                };
                let mut phase = match resolved {
                    Resolved::Hub => sim.scatterv_hub_phase(OP, root, &encoded, in_cohort),
                    Resolved::Ring | Resolved::Tree => {
                        sim.scatterv_tree_phase(OP, root, &encoded, in_cohort)
                    }
                };
                if short {
                    phase[root] = Some(Err(RuntimeError::SizeMismatch {
                        op: OP,
                        expected: size,
                        got: parts.len(),
                    }));
                }
                Some((resolved, phase))
            },
        )
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
        let mut phase: PhaseResults<T> = blanks(self.size);
        if self.ledger.dead[root] {
            cut_off(op, root, in_cohort, &mut phase);
            return phase;
        }
        let live = self.ledger.agreed_live();
        let part = |r: usize| decode_as::<T>(op, &encoded[r]).map(|v| (v, encoded[r].len() as u64));
        let sent = self.star_fan_out(op, root, &live, in_cohort, &mut phase, part);
        phase[root] = Some(sent.and_then(|()| {
            let lens: Vec<u64> = live.iter().map(|&r| encoded[r].len() as u64).collect();
            let rounds = vec![collective::star_scatter_round(&live, root, &lens)];
            self.ledger.deposit(Charge::Rounds(rounds));
            // The root counts the bytes it pushed whether or not the
            // destination survived to take them.
            let pushed = lens.iter().sum::<u64>() - encoded[root].len() as u64;
            decode_as::<T>(op, &encoded[root]).map(|v| (v, pushed))
        }));
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
        let live = self.ledger.agreed_live();
        let q = live.len();
        let Some(vroot) = live.iter().position(|&r| r == root) else {
            cut_off(op, root, in_cohort, &mut phase);
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
        if in_cohort[root] {
            // The root deposits at bundle-obtain time, before its
            // first child send (thread mirror).
            let lens_by_vi: Vec<u64> = (0..q).map(|v| encoded[abs(v)].len() as u64).collect();
            self.ledger.deposit(Charge::Rounds(collective::scatterv_rounds(
                size,
                &live,
                vroot,
                &lens_by_vi,
            )));
        }
        let reach = self.tree_fan_out(op, &live, vroot, in_cohort, |good, child_vi| {
            if good {
                collective::bundle_len(size, cnt[child_vi], sum[child_vi])
            } else {
                collective::bundle_len(size, 0, 0)
            }
        });
        for (vi, reach) in reach.into_iter().enumerate() {
            let r = abs(vi);
            phase[r] = reach.map(|reach| {
                let reach = reach?;
                if !reach.present {
                    return Err(RuntimeError::RankDead { op, rank: root });
                }
                decode_as::<T>(op, &encoded[r]).map(|v| (v, reach.received + reach.sent))
            });
        }
        phase
    }
}

/// Each position's outcome after a presence replay: its error, or the
/// contributions its row holds.
fn presence_outcomes(
    size: usize,
    live: &[usize],
    own: &[Option<Vec<u8>>],
    mut parts: Positions,
    has: &[Vec<bool>],
    moved: &[u64],
    phase: &mut PhaseResults<Arc<Slots>>,
) {
    for (pos, &r) in live.iter().enumerate() {
        phase[r] = match parts.errs[pos].take() {
            Some(e) => Some(Err(e)),
            None if !parts.active[pos] => None,
            None => {
                let mut slots: Slots = vec![None; size];
                for (opos, &o) in live.iter().enumerate() {
                    if has[pos][opos] {
                        slots[o] = own[o].clone();
                    }
                }
                Some(Ok((Arc::new(slots), moved[pos])))
            }
        };
    }
}
