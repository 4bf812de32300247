//! Topology-aware collective schedules: algorithm selection and the
//! pure round/hop plans the backends execute and charge.
//!
//! The original runtime routed every collective through a rank-0
//! **hub**: `p - 1` serialised receives followed by `p - 1`
//! serialised sends — an `O(p·m)` bottleneck at one rank and a single
//! point of failure for rootless operations, exactly the root-process
//! weakness of the paper's MPI tools. This module supplies the
//! alternatives:
//!
//! * **binomial tree** for the rooted operations (`bcast`,
//!   `scatterv`, `gatherv`, `barrier`): `ceil(log2 p)` rounds, no
//!   rank touches more than `log2 p` messages;
//! * **ring** for `allgatherv`/`allreduce`: `p - 1` fully pipelined
//!   rounds over nearest neighbours — every rank moves the same
//!   bytes, there is no hot rank;
//! * **recursive doubling** (a butterfly, selected as `tree` for the
//!   rootless operations): `log2 p` pairwise-exchange rounds with a
//!   pre/post round folding in the non-power-of-two remainder.
//!
//! Everything here is **pure**: schedules are plans —
//! `Vec<round>` where each round is a list of `(src, dst, bytes)`
//! hops between *absolute* ranks. The communicator executes the plan
//! against real mailboxes and deposits the same plan as a
//! virtual-time charge on the simulated backend
//! (`fupermod_platform::comm::SimComm::schedule`), so the Hockney
//! clocks advance per hop and per round — not per idealised
//! "collective transaction". Hops within one round must be
//! data-independent; dependent transfers go in later rounds.
//!
//! # Reduction order
//!
//! Every `allreduce` schedule — hub, ring and butterfly alike —
//! gathers the raw per-rank contributions and folds them **locally,
//! left-associated, in ascending rank order, skipping dead ranks**.
//! Floating-point reduction is not associative, so pinning the order
//! is what keeps the three algorithms bitwise identical (see
//! `Communicator::allreduce`).

use std::borrow::Borrow;

use crate::comm::ReduceOp;
use crate::error::RuntimeError;
use crate::wire::{decode_as, Wire};

/// A schedule's hops and rounds are the ones the clocks charge.
pub use fupermod_platform::comm::{Hop, Rounds};

/// Requested collective algorithm (see [`AlgorithmPolicy`]); each
/// operation resolves it to a [`Resolved`] schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Route through the lowest live rank: serialised star schedule.
    /// The compatibility default — bitwise identical results to the
    /// pre-existing behaviour.
    Hub,
    /// Pipelined nearest-neighbour ring (rootless operations;
    /// rooted operations fall back to [`Algorithm::Tree`], which
    /// a ring cannot improve on for single-root traffic).
    Ring,
    /// Binomial tree (rooted) / recursive doubling (rootless).
    Tree,
    /// Pick per operation from the communicator size and message
    /// size (see [`Algorithm::resolve_allgatherv`] for the
    /// crossover).
    Auto,
}

impl Algorithm {
    /// Parses a CLI spelling (`hub`, `ring`, `tree`, `auto`).
    pub fn parse(s: &str) -> Option<Algorithm> {
        match s {
            "hub" => Some(Algorithm::Hub),
            "ring" => Some(Algorithm::Ring),
            "tree" => Some(Algorithm::Tree),
            "auto" => Some(Algorithm::Auto),
            _ => None,
        }
    }

    /// Resolves the schedule for a rooted operation over `q` live
    /// ranks. `ring` falls back to the tree (a ring adds latency but
    /// no bandwidth for single-root traffic); `auto` keeps the hub
    /// only for `q <= 2`, where the star *is* the optimal schedule.
    pub fn resolve_rooted(self, q: usize) -> Resolved {
        match self {
            Algorithm::Hub => Resolved::Hub,
            Algorithm::Ring | Algorithm::Tree => Resolved::Tree,
            Algorithm::Auto => {
                if q <= AUTO_HUB_MAX_RANKS {
                    Resolved::Hub
                } else {
                    Resolved::Tree
                }
            }
        }
    }

    /// Resolves the schedule for `allgatherv` over `q` live ranks
    /// with a `bytes`-sized per-rank contribution.
    ///
    /// `auto` uses the classic latency/bandwidth crossover: recursive
    /// doubling (`tree`) needs only `log2 q` rounds and wins clearly
    /// while contributions are small; past
    /// `AUTO_RING_CROSSOVER_BYTES` both schedules are
    /// bandwidth-bound (measured within ~7% at 64 KiB, see
    /// `docs/RUNTIME.md` §6) and `auto` prefers the ring for its
    /// perfectly uniform per-rank load and nearest-neighbour-only
    /// traffic — the classic MPI large-message choice, and the one
    /// that avoids the butterfly's long-distance partners on
    /// switch-contended or hierarchical fabrics that the Hockney
    /// port model does not capture.
    ///
    /// **`auto` requires size-uniform contributions**: the decision
    /// is taken independently on every rank from its own payload, so
    /// ranks contributing different encoded lengths could resolve
    /// different schedules and time out. Every fixed-width [`crate::Wire`]
    /// payload (scalars, `Point`) is safe; for variable-length
    /// vectors pick an explicit algorithm.
    pub fn resolve_allgatherv(self, q: usize, bytes: u64) -> Resolved {
        match self {
            Algorithm::Hub => Resolved::Hub,
            Algorithm::Ring => Resolved::Ring,
            Algorithm::Tree => Resolved::Tree,
            Algorithm::Auto => {
                if q <= AUTO_HUB_MAX_RANKS {
                    Resolved::Hub
                } else if bytes <= AUTO_RING_CROSSOVER_BYTES {
                    Resolved::Tree
                } else {
                    Resolved::Ring
                }
            }
        }
    }

    /// Resolves the schedule for `allreduce` over `q` live ranks.
    /// Contributions are single `f64`s (8 bytes), firmly in the
    /// latency-bound regime, so `auto` always prefers recursive
    /// doubling beyond the 2-rank hub.
    pub fn resolve_allreduce(self, q: usize) -> Resolved {
        match self {
            Algorithm::Hub => Resolved::Hub,
            Algorithm::Ring => Resolved::Ring,
            Algorithm::Tree => Resolved::Tree,
            Algorithm::Auto => {
                if q <= AUTO_HUB_MAX_RANKS {
                    Resolved::Hub
                } else {
                    Resolved::Tree
                }
            }
        }
    }
}

/// `auto` keeps the hub up to this many live ranks: a star over one
/// or two ranks is already the optimal schedule.
const AUTO_HUB_MAX_RANKS: usize = 2;

/// `auto` crossover for `allgatherv`: per-rank contributions at or
/// under this many encoded bytes use recursive doubling, larger ones
/// the ring. At 1 KiB the Hockney ethernet model (`α = 50 µs`,
/// `β = 125 MB/s`) puts both schedules in the bandwidth-bound regime
/// — see `docs/RUNTIME.md` §6 for the measured table and the
/// rationale for preferring the ring there.
const AUTO_RING_CROSSOVER_BYTES: u64 = 1024;

/// The concrete schedule an [`Algorithm`] resolved to for one
/// operation (reported in the `algorithm` field of schema-v2 `comm`
/// trace events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolved {
    /// Star through the lowest live rank (or the operation root).
    Hub,
    /// Pipelined nearest-neighbour ring.
    Ring,
    /// Binomial tree / recursive-doubling butterfly.
    Tree,
}

impl Resolved {
    /// Stable lowercase tag for trace events.
    pub fn name(self) -> &'static str {
        match self {
            Resolved::Hub => "hub",
            Resolved::Ring => "ring",
            Resolved::Tree => "tree",
        }
    }
}

/// The collective algorithm of a communicator, configured via
/// `RuntimeConfig::with_algorithms` (CLI: `--collectives`). Every
/// operation reads the one [`Algorithm`] and resolves it by its own
/// rule from `(p, bytes)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgorithmPolicy {
    pub(crate) algorithm: Algorithm,
}

impl AlgorithmPolicy {
    /// Every operation on the given algorithm.
    pub fn uniform(algorithm: Algorithm) -> Self {
        Self { algorithm }
    }

    /// The compatibility default: everything hub-routed.
    pub fn hub() -> Self {
        Self::uniform(Algorithm::Hub)
    }

    /// Ring rootless collectives, tree rooted ones.
    pub fn ring() -> Self {
        Self::uniform(Algorithm::Ring)
    }

    /// Binomial tree / recursive doubling everywhere.
    pub fn tree() -> Self {
        Self::uniform(Algorithm::Tree)
    }

    /// Per-operation `(p, message size)` selection.
    pub fn auto() -> Self {
        Self::uniform(Algorithm::Auto)
    }

    /// Parses a CLI spelling (`hub | ring | tree | auto`).
    pub fn parse(s: &str) -> Option<Self> {
        Algorithm::parse(s).map(Self::uniform)
    }
}

impl Default for AlgorithmPolicy {
    fn default() -> Self {
        Self::hub()
    }
}

/// `ceil(log2 q)` — the binomial round count (`0` for `q <= 1`).
pub fn ceil_log2(q: usize) -> u32 {
    if q <= 1 {
        0
    } else {
        usize::BITS - (q - 1).leading_zeros()
    }
}

fn floor_log2(x: usize) -> u32 {
    debug_assert!(x >= 1);
    usize::BITS - 1 - x.leading_zeros()
}

/// Largest power of two `<= q` (`q >= 1`).
pub fn prev_pow2(q: usize) -> usize {
    debug_assert!(q >= 1);
    1 << floor_log2(q)
}

/// Binomial-tree parent of virtual index `vi` (`None` for the root,
/// `vi == 0`): clear the top set bit.
pub fn binomial_parent(vi: usize) -> Option<usize> {
    (vi > 0).then(|| vi - (1 << floor_log2(vi)))
}

/// Binomial-tree children of virtual index `vi` in a `q`-rank tree,
/// as `(round, child_vi)` pairs in ascending round order. The tree is
/// the doubling schedule: in round `j` every already-reached index
/// `vi < 2^j` sends to `vi + 2^j`; index `vi > 0` is reached in round
/// `floor(log2 vi)` and sends in every later round.
pub fn binomial_children(vi: usize, q: usize) -> Vec<(u32, usize)> {
    let first = if vi == 0 { 0 } else { floor_log2(vi) + 1 };
    (first..ceil_log2(q))
        .map(|j| (j, vi + (1usize << j)))
        .filter(|&(_, c)| c < q)
        .collect()
}

/// Virtual indices of the subtree rooted at `vi` (inclusive),
/// ascending.
pub fn binomial_subtree(vi: usize, q: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut stack = vec![vi];
    while let Some(v) = stack.pop() {
        out.push(v);
        for (_, c) in binomial_children(v, q) {
            stack.push(c);
        }
    }
    out.sort_unstable();
    out
}

/// Absolute rank of virtual index `vi` when the root sits at position
/// `vroot` of the compacted live list.
fn abs_rank(live: &[usize], vroot: usize, vi: usize) -> usize {
    live[(vi + vroot) % live.len()]
}

/// Encoded length of a `Vec<Option<Vec<u8>>>` slot vector over a
/// `size`-rank communicator where the `Some` slots hold `some_lens`
/// bytes each: 8-byte length prefix, one tag byte per slot, and an
/// 8-byte length prefix plus payload per `Some`.
pub fn encoded_slots_len<L: Borrow<u64>>(
    size: usize,
    some_lens: impl IntoIterator<Item = L>,
) -> u64 {
    let (count, payload) = some_lens
        .into_iter()
        .fold((0, 0), |(c, s), n| (c + 1, s + n.borrow()));
    bundle_len(size, count, payload)
}

/// [`encoded_slots_len`] in closed form, from the number of `Some`
/// slots and their payload bytes in all.
pub(crate) fn bundle_len(size: usize, count: u64, payload: u64) -> u64 {
    8 + size as u64 + 8 * count + payload
}

/// Encoded length of one `Option<Vec<u8>>` frame: the tag byte alone
/// for `None`, plus the 8-byte length prefix and the payload for a
/// `Some` of `payload` bytes.
pub(crate) fn framed_len(payload: Option<u64>) -> u64 {
    payload.map_or(1, |n| 9 + n)
}

/// Binomial broadcast schedule: `blob` bytes flow root-outward,
/// `ceil(log2 q)` rounds.
pub fn bcast_rounds(live: &[usize], vroot: usize, blob: u64) -> Rounds {
    let q = live.len();
    let mut rounds: Rounds = vec![Vec::new(); ceil_log2(q) as usize];
    for vi in 0..q {
        for (j, c) in binomial_children(vi, q) {
            rounds[j as usize].push((
                abs_rank(live, vroot, vi),
                abs_rank(live, vroot, c),
                blob,
            ));
        }
    }
    rounds
}

/// Binomial scatter schedule: the hop to each child carries the slot
/// bundle of its whole subtree. `lens_by_vi[vi]` is the encoded
/// payload length of the rank at virtual index `vi`; `size` is the
/// full communicator size (bundles are absolute-rank-indexed slot
/// vectors).
pub fn scatterv_rounds(size: usize, live: &[usize], vroot: usize, lens_by_vi: &[u64]) -> Rounds {
    let q = live.len();
    debug_assert_eq!(lens_by_vi.len(), q);
    let mut rounds: Rounds = vec![Vec::new(); ceil_log2(q) as usize];
    for vi in 0..q {
        for (j, c) in binomial_children(vi, q) {
            let bundle: Vec<u64> = binomial_subtree(c, q)
                .into_iter()
                .map(|v| lens_by_vi[v])
                .collect();
            rounds[j as usize].push((
                abs_rank(live, vroot, vi),
                abs_rank(live, vroot, c),
                encoded_slots_len(size, &bundle),
            ));
        }
    }
    rounds
}

/// Binomial gather schedule: the reverse of [`scatterv_rounds`] —
/// leaves send first, every index forwards its accumulated subtree
/// bundle to its parent in round `ceil(log2 q) - 1 - join_round`.
pub fn gatherv_rounds(size: usize, live: &[usize], vroot: usize, lens_by_vi: &[u64]) -> Rounds {
    let q = live.len();
    debug_assert_eq!(lens_by_vi.len(), q);
    let total = ceil_log2(q);
    let mut rounds: Rounds = vec![Vec::new(); total as usize];
    for vi in 1..q {
        let join = floor_log2(vi);
        let bundle: Vec<u64> = binomial_subtree(vi, q)
            .into_iter()
            .map(|v| lens_by_vi[v])
            .collect();
        rounds[(total - 1 - join) as usize].push((
            abs_rank(live, vroot, vi),
            abs_rank(live, vroot, parent_abs_vi(vi)),
            encoded_slots_len(size, &bundle),
        ));
    }
    for round in &mut rounds {
        round.sort_unstable();
    }
    rounds
}

fn parent_abs_vi(vi: usize) -> usize {
    binomial_parent(vi).expect("vi > 0 has a parent")
}

/// Star fan-in round: every live rank except `root_abs` sends its
/// payload (`lens_by_pos`, indexed like `live`) straight to the root.
/// One round whose hops serialise at the root's receive port — the
/// hub bottleneck, now charged for what it is.
pub fn star_gather_round(live: &[usize], root_abs: usize, lens_by_pos: &[u64]) -> Vec<Hop> {
    debug_assert_eq!(lens_by_pos.len(), live.len());
    live.iter()
        .zip(lens_by_pos)
        .filter(|&(&r, _)| r != root_abs)
        .map(|(&r, &n)| (r, root_abs, n))
        .collect()
}

/// Star fan-out round: the root sends `lens_by_pos[i]` bytes to live
/// rank `live[i]`; serialises at the root's send port.
pub fn star_scatter_round(live: &[usize], root_abs: usize, lens_by_pos: &[u64]) -> Vec<Hop> {
    debug_assert_eq!(lens_by_pos.len(), live.len());
    live.iter()
        .zip(lens_by_pos)
        .filter(|&(&r, _)| r != root_abs)
        .map(|(&r, &n)| (root_abs, r, n))
        .collect()
}

/// Ring all-gather schedule: `q - 1` rounds; in round `k`, position
/// `i` forwards the block that originated at position
/// `(i - k) mod q` to position `(i + 1) mod q`. Blocks travel as raw
/// contribution bytes (`lens_by_pos[origin]` on the wire).
pub fn ring_rounds(live: &[usize], lens_by_pos: &[u64]) -> Rounds {
    let q = live.len();
    debug_assert_eq!(lens_by_pos.len(), q);
    if q <= 1 {
        return Vec::new();
    }
    (0..q - 1)
        .map(|k| {
            (0..q)
                .map(|i| {
                    let origin = (i + q - k) % q;
                    (live[i], live[(i + 1) % q], lens_by_pos[origin])
                })
                .collect()
        })
        .collect()
}

/// Recursive-doubling (butterfly) all-gather schedule over `q` live
/// ranks: positions `>= q2` (the largest power of two `<= q`) fold
/// into their partner in a pre-round, the `q2` core positions run
/// `log2 q2` pairwise-exchange rounds with doubling slot vectors, and
/// a post-round returns the full result to the folded positions.
/// Messages are absolute-rank-indexed slot vectors
/// ([`encoded_slots_len`]).
pub fn butterfly_rounds(size: usize, live: &[usize], lens_by_pos: &[u64]) -> Rounds {
    let q = live.len();
    debug_assert_eq!(lens_by_pos.len(), q);
    if q <= 1 {
        return Vec::new();
    }
    let q2 = prev_pow2(q);
    let mut rounds: Rounds = Vec::new();
    // Held contribution positions per core rank.
    let mut held: Vec<Vec<usize>> = (0..q2)
        .map(|pos| {
            let mut h = vec![pos];
            if pos + q2 < q {
                h.push(pos + q2);
            }
            h
        })
        .collect();
    if q > q2 {
        rounds.push(
            (q2..q)
                .map(|e| {
                    (
                        live[e],
                        live[e - q2],
                        encoded_slots_len(size, [lens_by_pos[e]]),
                    )
                })
                .collect(),
        );
    }
    let mut mask = 1usize;
    while mask < q2 {
        let round: Vec<Hop> = (0..q2)
            .map(|pos| {
                let lens: Vec<u64> = held[pos].iter().map(|&p| lens_by_pos[p]).collect();
                (
                    live[pos],
                    live[pos ^ mask],
                    encoded_slots_len(size, &lens),
                )
            })
            .collect();
        rounds.push(round);
        let prev = held.clone();
        for (pos, h) in held.iter_mut().enumerate() {
            h.extend_from_slice(&prev[pos ^ mask]);
            h.sort_unstable();
            h.dedup();
        }
        mask <<= 1;
    }
    if q > q2 {
        let full: Vec<u64> = lens_by_pos.to_vec();
        rounds.push(
            (q2..q)
                .map(|e| (live[e - q2], live[e], encoded_slots_len(size, &full)))
                .collect(),
        );
    }
    rounds
}

/// [`butterfly_rounds`] for the uniform-contribution case, in
/// `O(q log q)` instead of the slow builder's `O(q²)` held-set
/// bookkeeping — the event engine's fast path for large `p`.
///
/// Produces a hop-for-hop identical schedule to
/// `butterfly_rounds(size, live, &vec![len; live.len()])`: when every
/// contribution weighs `len` bytes, the slot set a core position holds
/// before the round with exchange mask `m` is exactly its aligned
/// window of `m` core positions plus the extras attached below
/// `q - q2`, so the encoded message length follows from the held
/// *count* alone and the per-position slot vectors never need to be
/// materialised.
pub fn butterfly_rounds_uniform(size: usize, live: &[usize], len: u64) -> Rounds {
    let q = live.len();
    if q <= 1 {
        return Vec::new();
    }
    let q2 = prev_pow2(q);
    // Core positions `< extras` have the extra `pos + q2` folded in.
    let extras = q - q2;
    let mut rounds: Rounds = Vec::new();
    if q > q2 {
        rounds.push(
            (q2..q)
                .map(|e| (live[e], live[e - q2], encoded_slots_len(size, [len])))
                .collect(),
        );
    }
    let mut mask = 1usize;
    while mask < q2 {
        let round: Vec<Hop> = (0..q2)
            .map(|pos| {
                let base = pos & !(mask - 1);
                // Extras attached inside the window [base, base+mask).
                let attached = (base + mask).min(extras).saturating_sub(base);
                let held = (mask + attached) as u64;
                (live[pos], live[pos ^ mask], bundle_len(size, held, held * len))
            })
            .collect();
        rounds.push(round);
        mask <<= 1;
    }
    if q > q2 {
        let full = bundle_len(size, q as u64, q as u64 * len);
        rounds.push((q2..q).map(|e| (live[e - q2], live[e], full)).collect());
    }
    rounds
}

/// The schedule a barrier's charge models: a zero-byte star fan-in
/// and fan-out through the lowest live rank for the hub, else
/// [`barrier_tree_rounds`].
pub(crate) fn barrier_rounds(resolved: Resolved, live: &[usize]) -> Rounds {
    if resolved != Resolved::Hub {
        return barrier_tree_rounds(live);
    }
    let zeros = vec![0u64; live.len()];
    vec![
        star_gather_round(live, live[0], &zeros),
        star_scatter_round(live, live[0], &zeros),
    ]
}

/// Round count of [`barrier_rounds`] over `live` agreed-live ranks,
/// for the trace addendum: the hub's fan-in and fan-out, or the
/// tree's `2 ceil(log2 q)`.
pub(crate) fn barrier_round_count(resolved: Resolved, live: usize) -> u64 {
    match resolved {
        Resolved::Hub => 2,
        Resolved::Ring | Resolved::Tree => 2 * u64::from(ceil_log2(live)),
    }
}

/// Tree barrier schedule: a zero-byte binomial fan-in to the lowest
/// live rank followed by a zero-byte binomial fan-out —
/// `2 ceil(log2 q)` latency-only rounds.
fn barrier_tree_rounds(live: &[usize]) -> Rounds {
    let q = live.len();
    let total = ceil_log2(q);
    let mut rounds: Rounds = vec![Vec::new(); 2 * total as usize];
    for vi in 1..q {
        let join = floor_log2(vi);
        rounds[(total - 1 - join) as usize].push((
            abs_rank(live, 0, vi),
            abs_rank(live, 0, parent_abs_vi(vi)),
            0,
        ));
    }
    for vi in 0..q {
        for (j, c) in binomial_children(vi, q) {
            rounds[(total + j) as usize].push((
                abs_rank(live, 0, vi),
                abs_rank(live, 0, c),
                0,
            ));
        }
    }
    for round in &mut rounds {
        round.sort_unstable();
    }
    rounds
}

/// Round count of a rooted schedule (`bcast`, `scatterv`, `gatherv`)
/// over `live` agreed-live ranks, for the trace addendum.
pub(crate) fn rooted_rounds(resolved: Resolved, live: usize) -> u64 {
    if live <= 1 {
        return 0;
    }
    match resolved {
        Resolved::Hub => 1,
        Resolved::Ring | Resolved::Tree => u64::from(ceil_log2(live)),
    }
}

/// Round count of a rootless schedule (`allgatherv`, `allreduce`)
/// over `live` agreed-live ranks, for the trace addendum.
pub(crate) fn rootless_rounds(resolved: Resolved, live: usize) -> u64 {
    if live <= 1 {
        return 0;
    }
    match resolved {
        Resolved::Hub => 2,
        Resolved::Ring => (live - 1) as u64,
        Resolved::Tree => {
            let q2 = prev_pow2(live);
            u64::from(ceil_log2(q2)) + if live > q2 { 2 } else { 0 }
        }
    }
}

/// Absolute-rank-indexed collective payload slots: `None` marks a
/// dead rank or a contribution lost to one.
pub(crate) type Slots = Vec<Option<Vec<u8>>>;

/// Strict decode of a gathered slot vector in ascending rank order
/// (`allgatherv`): the first hole is a [`RuntimeError::RankDead`], the
/// first undecodable payload a [`RuntimeError::Decode`] — whichever
/// comes first.
pub(crate) fn strict_slots<T: Wire>(
    op: &'static str,
    slots: &Slots,
) -> Result<Vec<T>, RuntimeError> {
    let mut values = Vec::with_capacity(slots.len());
    for (rank, slot) in slots.iter().enumerate() {
        match slot {
            Some(bytes) => values.push(decode_as::<T>(op, bytes)?),
            None => return Err(RuntimeError::RankDead { op, rank }),
        }
    }
    Ok(values)
}

/// Hole-tolerant decode of a gathered slot vector
/// (`allgatherv_available`): a hole stays `None`.
pub(crate) fn available_slots<T: Wire>(
    op: &'static str,
    slots: &Slots,
) -> Result<Vec<Option<T>>, RuntimeError> {
    slots
        .iter()
        .map(|slot| {
            slot.as_deref()
                .map(|bytes| decode_as::<T>(op, bytes))
                .transpose()
        })
        .collect()
}

/// Folds gathered raw contributions **left-associated, in ascending
/// rank order, skipping dead (`None`) slots** — the pinned reduction
/// order every `allreduce` schedule of every backend shares, so hub,
/// ring and tree results stay bitwise identical (float reduction is
/// not associative).
pub(crate) fn fold_slots(
    op: &'static str,
    slots: &Slots,
    rop: ReduceOp,
) -> Result<f64, RuntimeError> {
    let mut acc: Option<f64> = None;
    for slot in slots.iter().flatten() {
        let x = decode_as::<f64>(op, slot)?;
        acc = Some(match acc {
            None => x,
            Some(a) => rop.fold(a, x),
        });
    }
    acc.ok_or(RuntimeError::NoContributions { op })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live(q: usize) -> Vec<usize> {
        (0..q).collect()
    }

    #[test]
    fn binomial_shape_is_a_tree() {
        for q in 1..=17 {
            // Every non-root has exactly one parent; the children
            // relation inverts the parent relation.
            for vi in 1..q {
                let p = binomial_parent(vi).unwrap();
                assert!(p < vi);
                assert!(
                    binomial_children(p, q).iter().any(|&(_, c)| c == vi),
                    "q={q} vi={vi} parent={p}"
                );
            }
            // Subtree of the root covers every index exactly once.
            assert_eq!(binomial_subtree(0, q), (0..q).collect::<Vec<_>>());
            // Subtrees of siblings partition the parent's subtree.
            for vi in 0..q {
                let mut members: Vec<usize> = vec![vi];
                for (_, c) in binomial_children(vi, q) {
                    members.extend(binomial_subtree(c, q));
                }
                members.sort_unstable();
                let mut expect = binomial_subtree(vi, q);
                expect.sort_unstable();
                assert_eq!(members, expect);
            }
        }
    }

    #[test]
    fn butterfly_rounds_uniform_matches_slow_builder() {
        // Exact Vec equality: the fast builder must be hop-for-hop
        // identical so virtual-time charges stay bit-identical when
        // the event engine swaps it in.
        for q in 1..=33 {
            let l = live(q);
            for len in [0u64, 1, 17] {
                let lens = vec![len; q];
                assert_eq!(
                    butterfly_rounds_uniform(q + 3, &l, len),
                    butterfly_rounds(q + 3, &l, &lens),
                    "q={q} len={len}"
                );
            }
        }
        for q in [100usize, 101, 600, 601, 1000] {
            let l = live(q);
            let lens = vec![24u64; q];
            assert_eq!(
                butterfly_rounds_uniform(q, &l, 24),
                butterfly_rounds(q, &l, &lens),
                "q={q}"
            );
        }
    }

    #[test]
    fn bcast_rounds_reach_every_rank_once() {
        for q in 1..=16 {
            for vroot in 0..q {
                let rounds = bcast_rounds(&live(q), vroot, 10);
                assert_eq!(rounds.len(), ceil_log2(q) as usize);
                let mut reached = vec![false; q];
                reached[vroot] = true;
                for round in &rounds {
                    let start = reached.clone();
                    for &(src, dst, b) in round {
                        assert!(start[src], "sender must already hold the data");
                        assert!(!reached[dst], "rank reached twice");
                        reached[dst] = true;
                        assert_eq!(b, 10);
                    }
                }
                assert!(reached.iter().all(|&r| r), "q={q} vroot={vroot}");
            }
        }
    }

    #[test]
    fn ring_rounds_deliver_every_block_everywhere() {
        for q in 2..=9 {
            let lens: Vec<u64> = (0..q as u64).map(|i| 100 + i).collect();
            let rounds = ring_rounds(&live(q), &lens);
            assert_eq!(rounds.len(), q - 1);
            // Track which origins every position holds.
            let mut holds: Vec<Vec<bool>> = (0..q)
                .map(|i| (0..q).map(|o| o == i).collect())
                .collect();
            for (k, round) in rounds.iter().enumerate() {
                assert_eq!(round.len(), q, "one hop per position per round");
                let snapshot = holds.clone();
                for &(src, dst, b) in round {
                    let origin = (src + q - k) % q;
                    assert!(snapshot[src][origin], "forwarding an unheld block");
                    assert_eq!(b, lens[origin]);
                    holds[dst][origin] = true;
                }
            }
            assert!(holds.iter().all(|h| h.iter().all(|&x| x)));
        }
    }

    #[test]
    fn butterfly_rounds_deliver_every_block_everywhere() {
        for q in 2..=11 {
            let lens = vec![8u64; q];
            let rounds = butterfly_rounds(q, &live(q), &lens);
            let q2 = prev_pow2(q);
            let extra = usize::from(q != q2);
            assert_eq!(rounds.len(), ceil_log2(q2) as usize + 2 * extra);
            let mut holds: Vec<Vec<bool>> = (0..q)
                .map(|i| (0..q).map(|o| o == i).collect())
                .collect();
            for round in &rounds {
                let snapshot = holds.clone();
                for &(src, dst, _) in round {
                    for o in 0..q {
                        if snapshot[src][o] {
                            holds[dst][o] = true;
                        }
                    }
                }
            }
            assert!(
                holds.iter().all(|h| h.iter().all(|&x| x)),
                "q={q}: butterfly must be a complete exchange"
            );
        }
    }

    #[test]
    fn schedules_honour_dead_and_rotated_ranks() {
        // Live ranks {1, 3, 4, 6} of an 8-rank communicator, root 4.
        let live = vec![1usize, 3, 4, 6];
        let vroot = 2; // live[2] == 4
        let rounds = bcast_rounds(&live, vroot, 5);
        let mut touched: Vec<usize> = rounds
            .iter()
            .flatten()
            .flat_map(|&(s, d, _)| [s, d])
            .collect();
        touched.sort_unstable();
        touched.dedup();
        assert_eq!(touched, live, "only live ranks appear in the schedule");
        // The root is the only rank that never receives.
        let receivers: Vec<usize> = rounds.iter().flatten().map(|&(_, d, _)| d).collect();
        assert!(!receivers.contains(&4));
        assert_eq!(receivers.len(), live.len() - 1);
    }

    #[test]
    fn gather_is_the_reverse_of_scatter() {
        let q = 6;
        let lens = vec![3u64; q];
        let s = scatterv_rounds(q, &live(q), 0, &lens);
        let g = gatherv_rounds(q, &live(q), 0, &lens);
        assert_eq!(s.len(), g.len());
        let mut s_hops: Vec<(usize, usize, u64)> = s.into_iter().flatten().collect();
        let g_hops: Vec<(usize, usize, u64)> = g.into_iter().flatten().collect();
        // Same edges, opposite direction, same bundle sizes.
        s_hops.sort_unstable();
        let mut g_rev: Vec<(usize, usize, u64)> =
            g_hops.into_iter().map(|(a, b, n)| (b, a, n)).collect();
        g_rev.sort_unstable();
        assert_eq!(s_hops, g_rev);
    }

    #[test]
    fn star_rounds_cover_every_non_root() {
        let live = vec![0usize, 2, 5];
        let lens = vec![7u64, 8, 9];
        let g = star_gather_round(&live, 2, &lens);
        assert_eq!(g, vec![(0, 2, 7), (5, 2, 9)]);
        let s = star_scatter_round(&live, 2, &lens);
        assert_eq!(s, vec![(2, 0, 7), (2, 5, 9)]);
    }

    #[test]
    fn barrier_tree_rounds_are_latency_only() {
        let rounds = barrier_tree_rounds(&live(5));
        assert_eq!(rounds.len(), 2 * ceil_log2(5) as usize);
        assert!(rounds.iter().flatten().all(|&(_, _, b)| b == 0));
    }

    #[test]
    fn barrier_round_count_is_the_schedule_length() {
        for q in 1..=64 {
            for resolved in [Resolved::Hub, Resolved::Tree] {
                assert_eq!(
                    barrier_round_count(resolved, q),
                    barrier_rounds(resolved, &live(q)).len() as u64,
                    "{resolved:?} q={q}"
                );
            }
        }
    }

    #[test]
    fn auto_resolution_crossovers() {
        assert_eq!(Algorithm::Auto.resolve_rooted(2), Resolved::Hub);
        assert_eq!(Algorithm::Auto.resolve_rooted(3), Resolved::Tree);
        assert_eq!(Algorithm::Auto.resolve_allreduce(64), Resolved::Tree);
        assert_eq!(
            Algorithm::Auto.resolve_allgatherv(64, 64),
            Resolved::Tree
        );
        assert_eq!(
            Algorithm::Auto.resolve_allgatherv(64, AUTO_RING_CROSSOVER_BYTES + 1),
            Resolved::Ring
        );
        // Explicit choices are honoured; rooted ring degrades to tree.
        assert_eq!(Algorithm::Ring.resolve_rooted(64), Resolved::Tree);
        assert_eq!(Algorithm::Ring.resolve_allgatherv(2, 1 << 20), Resolved::Ring);
        assert_eq!(Algorithm::parse("auto"), Some(Algorithm::Auto));
        assert_eq!(Algorithm::parse("star"), None);
    }

    #[test]
    fn encoded_slots_len_matches_manual_encoding() {
        // 4-rank communicator, two Some slots of 3 and 0 bytes:
        // 8 (vec len) + 4 (tags) + (8+3) + (8+0).
        assert_eq!(encoded_slots_len(4, [3, 0]), 8 + 4 + 11 + 8);
        // Random bundles, holes included: both forms are the encoding.
        let mut state = 0x5107_u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for size in 1..=64 {
            for _ in 0..8 {
                let slots: Slots = (0..size)
                    .map(|_| (next(3) > 0).then(|| vec![0u8; next(40) as usize]))
                    .collect();
                let lens: Vec<u64> = slots.iter().flatten().map(|s| s.len() as u64).collect();
                let encoded = slots.to_bytes().len() as u64;
                assert_eq!(encoded_slots_len(size, &lens), encoded);
                let payload = lens.iter().sum();
                assert_eq!(bundle_len(size, lens.len() as u64, payload), encoded);
            }
        }
    }
}
