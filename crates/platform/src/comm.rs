//! Communication substrate.
//!
//! FuPerMod proper is an MPI library; the repro band for this paper
//! flags Rust MPI bindings as the thin spot, so instead of binding MPI
//! this crate provides [`SimComm`] — a *simulated* communicator with
//! one virtual clock per rank and a Hockney (`α + m/β`) link cost
//! model. The heterogeneous experiments run on this: computation
//! advances a rank's clock by the device model's time, communication
//! advances clocks by the link model's cost, and "application
//! execution time" is the maximum clock.
//!
//! *Real* (wall-clock) execution lives in `fupermod-runtime`: the
//! threaded backend (`ThreadedComm`) multiplexes ranks as OS threads
//! in one process, and the TCP backend (`TcpComm`) runs one rank per
//! process over sockets.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Error produced by the communication substrate.
///
/// The per-rank byte-count paths (`allgatherv`, `redistribute`)
/// surface malformed input as typed errors, so callers (in particular
/// long-running dynamic-balancing loops) can degrade gracefully instead
/// of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlatformError {
    /// A per-rank vector did not match the communicator size.
    SizeMismatch {
        /// Operation that rejected the vector.
        op: &'static str,
        /// Communicator size (one entry expected per rank).
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// A redistribution would create or destroy computation units.
    UnitsNotConserved {
        /// Units held by the old distribution.
        old: u64,
        /// Units held by the new distribution.
        new: u64,
    },
}

impl std::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlatformError::SizeMismatch { op, expected, got } => write!(
                f,
                "{op}: per-rank vector has {got} entries but the communicator has {expected} ranks"
            ),
            PlatformError::UnitsNotConserved { old, new } => write!(
                f,
                "redistribution must conserve units (old total {old}, new total {new})"
            ),
        }
    }
}

impl std::error::Error for PlatformError {}

/// Hockney point-to-point link model: sending `m` bytes costs
/// `latency + m / bandwidth` seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Per-message latency `α` in seconds.
    pub latency_sec: f64,
    /// Bandwidth `β` in bytes per second.
    pub bytes_per_sec: f64,
}

impl LinkModel {
    /// A link typical of gigabit Ethernet interconnects.
    pub fn ethernet() -> Self {
        Self {
            latency_sec: 50e-6,
            bytes_per_sec: 125e6,
        }
    }

    /// A link typical of InfiniBand-class interconnects.
    pub fn infiniband() -> Self {
        Self {
            latency_sec: 2e-6,
            bytes_per_sec: 5e9,
        }
    }

    /// Transfer cost of `bytes` bytes in seconds.
    pub fn cost(&self, bytes: f64) -> f64 {
        assert!(bytes >= 0.0, "cannot transfer a negative byte count");
        self.latency_sec + bytes / self.bytes_per_sec
    }
}

/// One planned transfer of a collective schedule: `(src, dst, bytes)`
/// between absolute ranks.
pub type Hop = (usize, usize, u64);

/// A collective schedule: rounds of data-independent hops, executed
/// (and charged by [`SimComm::schedule`]) in order.
pub type Rounds = Vec<Vec<Hop>>;

/// Simulated message-passing world with per-rank virtual clocks.
///
/// All operations are driven from a single thread; "time" is virtual.
/// Collective operations have synchronising semantics matching their
/// MPI counterparts.
///
/// # Examples
///
/// ```
/// use fupermod_platform::comm::{LinkModel, SimComm};
///
/// let mut comm = SimComm::new(4, LinkModel::ethernet());
/// comm.advance(0, 1.0);      // rank 0 computes for 1 s
/// comm.advance(1, 0.25);
/// comm.barrier();            // everyone waits for rank 0
/// assert_eq!(comm.time(2), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimComm {
    clocks: Vec<f64>,
    link: LinkModel,
}

impl SimComm {
    /// Creates a world of `size` ranks joined pairwise by `link`, all
    /// clocks at zero.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize, link: LinkModel) -> Self {
        assert!(size > 0, "communicator needs at least one rank");
        Self {
            clocks: vec![0.0; size],
            link,
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.clocks.len()
    }

    /// The link model every pair of ranks uses.
    pub fn link(&self) -> LinkModel {
        self.link
    }

    /// Virtual time of `rank`.
    pub fn time(&self, rank: usize) -> f64 {
        self.clocks[rank]
    }

    /// Maximum virtual time over all ranks — the application's makespan.
    pub fn max_time(&self) -> f64 {
        self.clocks.iter().fold(0.0, |m, c| m.max(*c))
    }

    /// Rank `rank` computes for `dt` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative or not finite.
    pub fn advance(&mut self, rank: usize, dt: f64) {
        assert!(dt.is_finite() && dt >= 0.0, "dt must be finite and >= 0");
        self.clocks[rank] += dt;
    }

    /// Synchronises every rank to the latest clock.
    pub fn barrier(&mut self) {
        let max = self.max_time();
        for c in &mut self.clocks {
            *c = max;
        }
    }

    /// Sender half of a point-to-point transfer of `bytes` bytes:
    /// charges `src` one link latency (eager send) and returns the
    /// virtual instant at which the message is ready for delivery at
    /// `dst`, `latency + bytes / bandwidth` after `src`'s clock. The
    /// receiver completes the transfer later with
    /// [`arrive`](Self::arrive). A self-send charges nothing and is
    /// ready immediately.
    pub fn post_send(&mut self, src: usize, dst: usize, bytes: f64) -> f64 {
        if src == dst {
            return self.clocks[src];
        }
        let link = self.link;
        let ready = self.clocks[src] + link.cost(bytes);
        self.clocks[src] += link.latency_sec;
        ready
    }

    /// Receiver half of a point-to-point transfer: delivers a message
    /// that became ready at virtual instant `ready` (as returned by
    /// [`post_send`](Self::post_send)), advancing `dst`'s clock to the
    /// later of its own time and `ready`, so the receiver cannot finish
    /// before the sender has sent.
    pub fn arrive(&mut self, dst: usize, ready: f64) {
        self.clocks[dst] = self.clocks[dst].max(ready);
    }

    /// Checks that a per-rank byte vector matches the communicator
    /// size, returning a typed error (and tripping a debug assertion in
    /// debug builds) instead of letting an index panic surface later.
    fn check_per_rank(&self, op: &'static str, len: usize) -> Result<(), PlatformError> {
        if len != self.size() {
            return Err(PlatformError::SizeMismatch {
                op,
                expected: self.size(),
                got: len,
            });
        }
        Ok(())
    }

    /// All-gather where rank `r` contributes `bytes[r]` bytes (ring
    /// algorithm: `p-1` steps, each rank forwarding what it has).
    /// Synchronising: all ranks finish together.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::SizeMismatch`] if
    /// `bytes.len() != self.size()`.
    pub fn allgatherv(&mut self, bytes: &[f64]) -> Result<(), PlatformError> {
        self.check_per_rank("allgatherv", bytes.len())?;
        let p = self.size();
        if p == 1 {
            return Ok(());
        }
        let start = self.max_time();
        // Ring: p-1 steps; per step the largest in-flight chunk bounds
        // progress.
        let worst_chunk = bytes.iter().fold(0.0_f64, |m, b| m.max(*b));
        let finish = start + (p as f64 - 1.0) * self.link().cost(worst_chunk);
        for c in &mut self.clocks {
            *c = finish;
        }
        Ok(())
    }

    /// Charges an explicit per-hop collective schedule: `rounds` is a
    /// sequence of rounds, each a list of `(src, dst, bytes)` [`Hop`]s,
    /// whose transfers begin at `baseline` — the clocks the ranks
    /// posted a nonblocking collective at — or, with `None`, at the
    /// current clocks.
    ///
    /// Port model (single-port, full-duplex): within one round, every
    /// rank owns an independent send port and receive port; a hop
    /// occupies `src`'s send port and `dst`'s receive port for the
    /// link cost `α + m/β`, and hops sharing a port serialise in list
    /// order (this is what makes a star fan-in/fan-out pay its `O(p)`
    /// serialisation at the hub while disjoint ring/tree hops proceed
    /// concurrently). A pairwise exchange — `(a, b, m)` and
    /// `(b, a, m)` in the same round — costs one link cost, not two,
    /// because the two transfers use opposite ports.
    ///
    /// Hops within one round must be data-independent: a rank may
    /// only forward bytes it already held when the round began
    /// (the caller's schedule builders guarantee this). Both of a
    /// rank's ports advance to its round finish before the next round.
    ///
    /// At each round's end a clock below its rank's round finish rises
    /// to it, so a rank that computed past its part since its baseline
    /// pays only the exposed part. A baseline equal to the current
    /// clocks charges exactly what `None` does, to the bit: ports start
    /// at the clocks and no cost is negative, so after every round each
    /// clock equals its rank's finish — the same additions, maxima and
    /// rises in the same order either way.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::SizeMismatch`], charging nothing, if
    /// `baseline` does not have one entry per rank, or if a hop names
    /// a rank outside the communicator or a self-loop (`src == dst`).
    pub fn schedule(
        &mut self,
        baseline: Option<&[f64]>,
        rounds: &[Vec<Hop>],
    ) -> Result<(), PlatformError> {
        let p = self.size();
        if let Some(baseline) = baseline {
            self.check_per_rank("schedule", baseline.len())?;
        }
        for &(src, dst, _) in rounds.iter().flatten() {
            if src >= p || dst >= p || src == dst {
                return Err(PlatformError::SizeMismatch {
                    op: "schedule",
                    expected: p,
                    got: src.max(dst),
                });
            }
        }
        let mut send_busy = baseline.map_or_else(|| self.clocks.clone(), <[f64]>::to_vec);
        let mut recv_busy = send_busy.clone();
        for round in rounds {
            for &(src, dst, bytes) in round {
                let cost = self.link.cost(bytes as f64);
                let begin = send_busy[src].max(recv_busy[dst]);
                let end = begin + cost;
                send_busy[src] = end;
                recv_busy[dst] = end;
            }
            for r in 0..p {
                let after = send_busy[r].max(recv_busy[r]);
                send_busy[r] = after;
                recv_busy[r] = after;
                if after > self.clocks[r] {
                    self.clocks[r] = after;
                }
            }
        }
        Ok(())
    }

    /// Charges a uniform ring schedule in closed form: `rounds` rounds
    /// in which every rank simultaneously sends `bytes` to its
    /// successor and receives `bytes` from its predecessor over one
    /// shared link model.
    ///
    /// This is the event engine's fast path for ring collectives at
    /// large `p`, where materialising the explicit
    /// `rounds × p`-hop schedule would cost `O(p²)`. Under the
    /// preconditions below it advances every clock through exactly the
    /// same sequence of floating-point additions as
    /// [`schedule`](Self::schedule) applied to the equivalent ring hop
    /// plan — each round every rank begins at the shared clock `x` and
    /// ends at `fl(x + cost)` — so the resulting clocks are
    /// **bit-identical** to the explicit replay.
    ///
    /// # Panics
    ///
    /// Panics if the per-rank clocks are not all bit-identical, or if
    /// `bytes` is negative — the caller is expected to have checked the
    /// fast-path gate.
    pub fn charge_uniform_ring(&mut self, bytes: f64, rounds: usize) {
        let link = self.link;
        let start = self.clocks[0];
        assert!(
            self.clocks.iter().all(|c| c.to_bits() == start.to_bits()),
            "charge_uniform_ring requires bit-identical per-rank clocks"
        );
        let cost = link.cost(bytes);
        let mut x = start;
        for _ in 0..rounds {
            x += cost;
        }
        for c in &mut self.clocks {
            *c = x;
        }
    }

    /// Moves computation units between ranks to turn distribution `old`
    /// into `new`, with each unit weighing `bytes_per_unit` bytes.
    /// Surpluses are matched to deficits in rank order (the same greedy
    /// pairing the FuPerMod examples use). Returns the number of units
    /// moved. Ranks proceed concurrently; each rank's clock advances by
    /// the cost of its own sends plus receives, then everyone
    /// synchronises (redistribution is a collective phase in the apps).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::SizeMismatch`] if either distribution's
    /// length differs from the communicator size and
    /// [`PlatformError::UnitsNotConserved`] if their totals differ.
    pub fn redistribute(
        &mut self,
        old: &[u64],
        new: &[u64],
        bytes_per_unit: f64,
    ) -> Result<u64, PlatformError> {
        self.check_per_rank("redistribute(old)", old.len())?;
        self.check_per_rank("redistribute(new)", new.len())?;
        let (old_total, new_total) = (old.iter().sum::<u64>(), new.iter().sum::<u64>());
        if old_total != new_total {
            return Err(PlatformError::UnitsNotConserved {
                old: old_total,
                new: new_total,
            });
        }

        let mut surplus: VecDeque<(usize, u64)> = VecDeque::new();
        let mut deficit: VecDeque<(usize, u64)> = VecDeque::new();
        for r in 0..old.len() {
            if old[r] > new[r] {
                surplus.push_back((r, old[r] - new[r]));
            } else if new[r] > old[r] {
                deficit.push_back((r, new[r] - old[r]));
            }
        }

        let mut moved = 0u64;
        let mut busy = vec![0.0; self.size()];
        while let (Some(&(s, have)), Some(&(d, need))) = (surplus.front(), deficit.front()) {
            let units = have.min(need);
            let cost = self.link.cost(units as f64 * bytes_per_unit);
            busy[s] += cost;
            busy[d] += cost;
            moved += units;
            if have == units {
                surplus.pop_front();
            } else {
                surplus.front_mut().expect("non-empty").1 -= units;
            }
            if need == units {
                deficit.pop_front();
            } else {
                deficit.front_mut().expect("non-empty").1 -= units;
            }
        }

        if moved > 0 {
            let start = self.max_time();
            let finish = busy
                .iter()
                .map(|b| start + b)
                .fold(0.0_f64, f64::max);
            for c in &mut self.clocks {
                *c = finish;
            }
        }
        Ok(moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_cost_is_affine() {
        let link = LinkModel {
            latency_sec: 1e-3,
            bytes_per_sec: 1e6,
        };
        assert!((link.cost(0.0) - 1e-3).abs() < 1e-15);
        assert!((link.cost(1e6) - 1.001).abs() < 1e-12);
    }

    #[test]
    fn barrier_synchronises_to_max() {
        let mut c = SimComm::new(3, LinkModel::ethernet());
        c.advance(0, 5.0);
        c.advance(2, 1.0);
        c.barrier();
        for r in 0..3 {
            assert_eq!(c.time(r), 5.0);
        }
    }

    #[test]
    fn schedule_serialises_shared_ports_and_overlaps_disjoint_hops() {
        let link = LinkModel {
            latency_sec: 1.0,
            bytes_per_sec: f64::INFINITY,
        };
        // Star fan-in: three hops into rank 0's receive port serialise.
        let mut c = SimComm::new(4, link);
        c.schedule(None, &[vec![(1, 0, 0), (2, 0, 0), (3, 0, 0)]])
            .unwrap();
        assert_eq!(c.time(0), 3.0, "hub receive port serialises");
        // Ring round: disjoint pairs proceed concurrently; a pairwise
        // exchange costs one link cost, not two.
        let mut c = SimComm::new(4, link);
        c.schedule(None, &[vec![(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]])
            .unwrap();
        for r in 0..4 {
            assert_eq!(c.time(r), 1.0, "pipelined ring round costs one hop");
        }
        let mut c = SimComm::new(2, link);
        c.schedule(None, &[vec![(0, 1, 0), (1, 0, 0)]]).unwrap();
        assert_eq!(c.max_time(), 1.0, "full-duplex exchange");
        // Rounds sequence: clocks advance between rounds.
        let mut c = SimComm::new(2, link);
        c.schedule(None, &[vec![(0, 1, 0)], vec![(1, 0, 0)]])
            .unwrap();
        assert_eq!(c.time(0), 2.0);
        // Invalid hops are rejected.
        let mut c = SimComm::new(2, link);
        assert!(c.schedule(None, &[vec![(0, 2, 0)]]).is_err());
        assert!(c.schedule(None, &[vec![(1, 1, 0)]]).is_err());
    }

    #[test]
    fn schedule_is_deterministic_and_tracks_comm_seconds() {
        let run = || {
            let mut c = SimComm::new(8, LinkModel::ethernet());
            c.advance(3, 1e-3);
            let rounds: Rounds = (0..7)
                .map(|k| (0..8).map(|i| (i, (i + 1) % 8, 100 + k as u64)).collect())
                .collect();
            c.schedule(None, &rounds).unwrap();
            (0..8).map(|r| c.time(r).to_bits()).collect::<Vec<_>>()
        };
        let clocks = run();
        assert_eq!(clocks, run());
        // Every rank's clock carries its comm seconds past the 1 ms of
        // compute rank 3 did.
        assert!(clocks.iter().all(|&t| f64::from_bits(t) > 1e-3));
    }

    #[test]
    fn charge_uniform_ring_matches_explicit_schedule_bitwise() {
        // The closed form must walk clocks through exactly the same
        // floating-point additions as replaying the explicit ring hop
        // plan, at a q large enough to exercise accumulated rounding.
        let q = 600;
        let bytes = 1234;
        let mut exact = SimComm::new(q, LinkModel::ethernet());
        exact.advance(0, 0.125);
        exact.barrier(); // uniform non-zero starting clocks
        let mut fast = exact.clone();
        let rounds: Rounds = (0..q - 1)
            .map(|_| (0..q).map(|i| (i, (i + 1) % q, bytes)).collect())
            .collect();
        exact.schedule(None, &rounds).unwrap();
        fast.charge_uniform_ring(bytes as f64, q - 1);
        for r in 0..q {
            assert_eq!(
                exact.time(r).to_bits(),
                fast.time(r).to_bits(),
                "rank {r} clock diverged"
            );
        }
    }

    #[test]
    fn schedule_from_current_clocks_matches_schedule() {
        let rounds: Rounds = (0..7)
            .map(|k| (0..8).map(|i| (i, (i + 1) % 8, 100 + k as u64)).collect())
            .collect();
        let mut blocking = SimComm::new(8, LinkModel::ethernet());
        blocking.advance(3, 1e-3);
        blocking.schedule(None, &rounds).unwrap();
        let mut overlap = SimComm::new(8, LinkModel::ethernet());
        overlap.advance(3, 1e-3);
        let baseline: Vec<f64> = (0..8).map(|r| overlap.time(r)).collect();
        overlap.schedule(Some(&baseline), &rounds).unwrap();
        for r in 0..8 {
            assert_eq!(blocking.time(r).to_bits(), overlap.time(r).to_bits());
        }
    }

    #[test]
    fn schedule_from_hides_communication_under_compute() {
        let link = LinkModel {
            latency_sec: 1.0,
            bytes_per_sec: f64::INFINITY,
        };
        // Post at t=0, compute for 5 s, complete a 2-round schedule:
        // the 2 s of communication fit entirely under the compute.
        let mut c = SimComm::new(2, link);
        let baseline = vec![0.0, 0.0];
        c.advance(0, 5.0);
        c.advance(1, 5.0);
        c.schedule(Some(&baseline), &[vec![(0, 1, 0)], vec![(1, 0, 0)]])
            .unwrap();
        // Fully hidden → no exposed cost.
        assert_eq!(c.time(0), 5.0);
        assert_eq!(c.time(1), 5.0);
        // The same schedule charged blocking-style costs 2 s on top.
        let mut b = SimComm::new(2, link);
        b.advance(0, 5.0);
        b.advance(1, 5.0);
        b.schedule(None, &[vec![(0, 1, 0)], vec![(1, 0, 0)]])
            .unwrap();
        assert_eq!(b.time(0), 7.0);
    }

    #[test]
    fn schedule_from_rejects_bad_baseline_and_hops() {
        let mut c = SimComm::new(2, LinkModel::ethernet());
        assert!(c.schedule(Some(&[0.0]), &[]).is_err());
        assert!(c.schedule(Some(&[0.0, 0.0]), &[vec![(0, 2, 0)]]).is_err());
        assert!(c.schedule(Some(&[0.0, 0.0]), &[vec![(1, 1, 0)]]).is_err());
    }

    /// `post_send` then `arrive` is the Hockney send: the sender pays
    /// one latency, the receiver finishes at the sender's clock plus
    /// the link cost.
    #[test]
    fn post_send_then_arrive_matches_send() {
        let link = LinkModel {
            latency_sec: 0.5,
            bytes_per_sec: 1e6,
        };
        let mut split = SimComm::new(2, link);
        split.advance(0, 2.0);
        let ready = split.post_send(0, 1, 1e6);
        assert_eq!(ready.to_bits(), (2.0 + link.cost(1e6)).to_bits());
        split.arrive(1, ready);
        assert_eq!(split.time(0).to_bits(), (2.0f64 + 0.5).to_bits());
        assert_eq!(split.time(1).to_bits(), ready.to_bits());
        // Delivery later than readiness costs the receiver nothing.
        split.advance(1, 10.0);
        let t = split.time(1);
        split.arrive(1, t - 1.0);
        assert_eq!(split.time(1), t);
    }

    #[test]
    fn send_orders_receiver_after_sender() {
        let link = LinkModel {
            latency_sec: 0.5,
            bytes_per_sec: 1e6,
        };
        let mut c = SimComm::new(2, link);
        c.advance(0, 2.0);
        let ready = c.post_send(0, 1, 1e6);
        c.arrive(1, ready);
        assert!((c.time(1) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn redistribute_conserves_and_charges_movers() {
        let mut c = SimComm::new(3, LinkModel::ethernet());
        let moved = c.redistribute(&[10, 0, 2], &[4, 6, 2], 8.0).unwrap();
        assert_eq!(moved, 6);
        assert!(c.max_time() > 0.0);
        // No change → no cost.
        let t = c.max_time();
        let moved = c.redistribute(&[4, 6, 2], &[4, 6, 2], 8.0).unwrap();
        assert_eq!(moved, 0);
        assert_eq!(c.max_time(), t);
    }

    #[test]
    fn redistribute_rejects_unit_loss() {
        let mut c = SimComm::new(2, LinkModel::ethernet());
        let t = c.max_time();
        assert_eq!(
            c.redistribute(&[3, 3], &[3, 2], 8.0),
            Err(PlatformError::UnitsNotConserved { old: 6, new: 5 })
        );
        // The failed call must not have charged any clock.
        assert_eq!(c.max_time(), t);
    }

    #[test]
    fn byte_count_paths_reject_wrong_arity() {
        let mut c = SimComm::new(3, LinkModel::ethernet());
        assert!(matches!(
            c.allgatherv(&[1.0, 2.0]),
            Err(PlatformError::SizeMismatch {
                op: "allgatherv",
                expected: 3,
                got: 2
            })
        ));
        assert!(c.redistribute(&[1, 2], &[1, 2, 0], 8.0).is_err());
        // Clocks untouched by any rejected call.
        assert_eq!(c.max_time(), 0.0);
    }

    #[test]
    fn sim_allgatherv_synchronises() {
        let mut c = SimComm::new(4, LinkModel::ethernet());
        c.advance(3, 2.0);
        c.allgatherv(&[100.0, 100.0, 100.0, 100.0]).unwrap();
        let t = c.time(0);
        assert!(t > 2.0);
        for r in 0..4 {
            assert_eq!(c.time(r), t);
        }
    }
}
