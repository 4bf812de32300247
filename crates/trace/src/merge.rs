//! Causal merge of per-rank traces into one global timeline.
//!
//! Schema-v3 `comm` events carry a Lamport stamp and a barrier
//! generation (`fupermod_runtime` ticks the clock per operation,
//! piggybacks stamps on message envelopes, and joins all live clocks
//! at every completed barrier generation). Those stamps are a
//! schedule-independent function of the program's communication
//! structure, so merging the per-`(source, rank)` streams — each in
//! file order — by always emitting the stream head with the smallest
//!
//! ```text
//! (lamport, gen, rank, per-rank sequence, source)
//! ```
//!
//! yields one **causally consistent, deterministic** global order: the
//! same run traced twice — even on different backends (thread vs.
//! sim), even with the per-rank streams interleaved differently in the
//! file — merges to the identical timeline. For a single run this is
//! the sort by that key; a file holding several runs, whose clocks
//! restart, keeps each rank's runs in file order (`Streams`, the one
//! pop rule the batch merge, [`merge_events`] and the live tail share).
//!
//! Non-`comm` events (benchmark samples, model updates, faults)
//! inherit the last stamp their rank recorded in file order;
//! partition/convergence events belong to the driver and attach to
//! rank 0. Events that precede any stamped event sort first, at
//! `(0, 0)`.
//!
//! The merge is **streaming**: inputs are read through
//! [`fupermod_core::trace::TraceReader`] (never fully buffered), and
//! memory is bounded by the cross-rank skew *within* each file — a
//! file that interleaves its ranks fairly merges in O(ranks) memory
//! regardless of file size. Rank sets are discovered in a cheap first
//! pass so the k-way merge knows when a queue head is final.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::path::{Path, PathBuf};

use fupermod_core::trace::{FieldValue, TraceEvent, TraceReader};
use fupermod_core::CoreError;

/// A trace event stamped with its global ordering key.
#[derive(Debug, Clone, PartialEq)]
pub struct StampedEvent {
    /// Effective Lamport stamp (own for `comm`, inherited otherwise).
    pub lamport: u64,
    /// Effective barrier generation (own for `comm`, inherited
    /// otherwise).
    pub gen: u64,
    /// Attribution rank (the event's `rank` field; driver events —
    /// `partition_step`, `dynamic_converged` — attach to rank 0).
    pub rank: usize,
    /// Per-`(source, rank)` sequence number preserving file order.
    pub seq: u64,
    /// Index of the source file the event came from (tie-break of
    /// last resort when two sources carry the same rank).
    pub source: usize,
    /// The event itself.
    pub event: TraceEvent,
}

impl StampedEvent {
    /// The total-order key the merge sorts by.
    pub fn key(&self) -> Key {
        (self.lamport, self.gen, self.rank, self.seq, self.source)
    }
}

/// Attribution rank of an event: its `rank` field, or rank 0 for the
/// driver events that have none.
pub fn event_rank(event: &TraceEvent) -> usize {
    let mut rank = 0;
    event.for_each_field(|key, value| {
        if let ("rank", FieldValue::Count(r)) = (key, value) {
            rank = r as usize;
        }
    });
    rank
}

/// Per-source stamping state: the last `(lamport, gen)` each rank
/// recorded, inherited by that rank's unstamped events, and the
/// rank's next sequence number. Keyed by rank, so memory follows the
/// ranks a trace holds, not the largest rank it names. Public so
/// incremental consumers ([`mod@crate::tail`]) can stamp a stream
/// event-by-event under the same contract the batch merge uses.
#[derive(Debug, Default)]
pub struct Stamper {
    ranks: HashMap<usize, ((u64, u64), u64)>,
}

impl Stamper {
    /// Stamps one event of source `source` in file order.
    pub fn stamp(&mut self, source: usize, event: TraceEvent) -> StampedEvent {
        let rank = event_rank(&event);
        let (last, next_seq) = self.ranks.entry(rank).or_default();
        if let TraceEvent::Comm { lamport, gen, .. } = &event {
            *last = (*lamport, *gen);
        }
        let (lamport, gen) = *last;
        let seq = *next_seq;
        *next_seq += 1;
        StampedEvent {
            lamport,
            gen,
            rank,
            seq,
            source,
            event,
        }
    }
}

/// Per-`(source, rank)` FIFO queues of stamped events, and the one pop
/// rule of the ordering contract: emit the minimum queue head by
/// [`StampedEvent::key`]. A stream's events stay in file order, so a
/// file holding several runs — whose Lamport clocks restart — keeps
/// each rank's runs in sequence, which a global sort by key would not.
/// [`Merge`], [`merge_events`] and [`crate::tail()`] all emit through it.
/// The heads sit in a heap, so a pop costs O(log streams).
#[derive(Debug, Default)]
pub(crate) struct Streams {
    queues: HashMap<(usize, usize), VecDeque<StampedEvent>>,
    /// The key of every non-empty queue's head (a key names its stream).
    heads: BinaryHeap<Reverse<Key>>,
    /// Per source, how many of its known streams are empty.
    empty: Vec<usize>,
}

type Key = (u64, u64, usize, u64, usize);

impl Streams {
    /// Declares the stream `(source, rank)` before its first event, so
    /// [`Streams::waiting`] holds the merge back until it has a head.
    pub fn open(&mut self, source: usize, rank: usize) {
        if let Entry::Vacant(slot) = self.queues.entry((source, rank)) {
            slot.insert(VecDeque::new());
            self.now_empty(source);
        }
    }

    /// Queues `event` at the back of its stream.
    pub fn push(&mut self, event: StampedEvent) {
        let stream = (event.source, event.rank);
        match self.queues.get(&stream).map(VecDeque::is_empty) {
            Some(false) => {}
            known_empty => {
                if known_empty.is_some() {
                    self.empty[event.source] -= 1;
                }
                self.heads.push(Reverse(event.key()));
            }
        }
        self.queues.entry(stream).or_default().push_back(event);
    }

    /// Whether a known stream of `source` (of any source when `None`)
    /// is empty: while its input may still grow, its next event could
    /// carry a smaller key than every head present.
    pub fn waiting(&self, source: Option<usize>) -> bool {
        match source {
            Some(s) => self.empty.get(s).is_some_and(|&n| n > 0),
            None => self.empty.iter().any(|&n| n > 0),
        }
    }

    /// Pops the minimum stream head; `None` when every queue is empty.
    pub fn pop_min(&mut self) -> Option<StampedEvent> {
        let Reverse((.., rank, _, source)) = self.heads.pop()?;
        let queue = self.queues.get_mut(&(source, rank))?;
        let event = queue.pop_front();
        match queue.front() {
            Some(next) => self.heads.push(Reverse(next.key())),
            None => self.now_empty(source),
        }
        event
    }

    /// Counts one more empty stream of `source`.
    fn now_empty(&mut self, source: usize) {
        if source >= self.empty.len() {
            self.empty.resize(source + 1, 0);
        }
        self.empty[source] += 1;
    }
}

/// One input of the streaming merge.
struct Source {
    reader: Option<TraceReader<std::io::BufReader<std::fs::File>>>,
    stamper: Stamper,
}

/// Streaming k-way merge over trace files (see the module docs for
/// the ordering contract). Implements `Iterator` over stamped events
/// in global causal order.
pub struct Merge {
    sources: Vec<Source>,
    streams: Streams,
    /// Schema version: the maximum declared by the inputs.
    schema: u32,
}

impl Merge {
    /// Opens `paths` for merging. The first pass discovers each
    /// file's rank set (streaming — nothing is retained but the set);
    /// the second pass is the lazy merge the iterator drives.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Trace`] on unreadable files, foreign or
    /// future-schema headers, or malformed events.
    pub fn open(paths: &[PathBuf]) -> Result<Self, CoreError> {
        if paths.is_empty() {
            return Err(CoreError::Trace("merge needs at least one trace".to_owned()));
        }
        let mut sources = Vec::with_capacity(paths.len());
        let mut streams = Streams::default();
        let mut schema = 0;
        for (i, path) in paths.iter().enumerate() {
            // Pass 1: rank discovery.
            for rank in discover_ranks(path)? {
                streams.open(i, rank);
            }
            // Pass 2 reader, rewound.
            let reader = TraceReader::open(path)?;
            schema = schema.max(reader.schema());
            sources.push(Source {
                reader: Some(reader),
                stamper: Stamper::default(),
            });
        }
        Ok(Self {
            sources,
            streams,
            schema,
        })
    }

    /// The merged trace's schema version (maximum over the inputs).
    pub fn schema(&self) -> u32 {
        self.schema
    }

    fn next_event(&mut self) -> Result<Option<StampedEvent>, CoreError> {
        // Fill: every known stream must hold its head (or its file be
        // exhausted) before heads are comparable.
        for (i, src) in self.sources.iter_mut().enumerate() {
            while self.streams.waiting(Some(i)) {
                let Some(reader) = &mut src.reader else {
                    break;
                };
                match reader.next() {
                    None => src.reader = None,
                    Some(event) => self.streams.push(src.stamper.stamp(i, event?)),
                }
            }
        }
        Ok(self.streams.pop_min())
    }
}

impl Iterator for Merge {
    type Item = Result<StampedEvent, CoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_event().transpose()
    }
}

/// First pass of [`Merge::open`]: the set of attribution ranks a
/// trace file contains (streamed; constant memory beyond the set).
fn discover_ranks(path: &Path) -> Result<BTreeSet<usize>, CoreError> {
    TraceReader::open(path)?
        .map(|event| Ok(event_rank(&event?)))
        .collect()
}

/// Merges in-memory per-source event lists (the same ordering
/// contract as [`Merge`], without touching the filesystem — used by
/// tests and by consumers that already hold events).
pub fn merge_events(sources: Vec<Vec<TraceEvent>>) -> Vec<StampedEvent> {
    let mut streams = Streams::default();
    for (i, events) in sources.into_iter().enumerate() {
        let mut stamper = Stamper::default();
        for e in events {
            streams.push(stamper.stamp(i, e));
        }
    }
    std::iter::from_fn(|| streams.pop_min()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm(rank: usize, op: &str, lamport: u64, gen: u64) -> TraceEvent {
        TraceEvent::Comm {
            rank,
            op: op.to_owned(),
            peer: -1,
            bytes: 8,
            seconds: 1e-6,
            algorithm: "hub".to_owned(),
            rounds: 2,
            lamport,
            gen,
        }
    }

    fn sample(rank: usize, d: u64) -> TraceEvent {
        TraceEvent::BenchmarkSample {
            rank,
            d,
            rep: 0,
            time: 0.5,
            ci_rel: 0.1,
        }
    }

    #[test]
    fn merge_orders_by_lamport_then_rank() {
        // Rank 1's collective events must interleave before rank 0's
        // later ones despite arriving from a separate source.
        let src0 = vec![comm(0, "barrier", 3, 0), comm(0, "allreduce", 6, 1)];
        let src1 = vec![comm(1, "barrier", 3, 0), comm(1, "allreduce", 6, 1)];
        let merged = merge_events(vec![src0, src1]);
        let keys: Vec<(u64, usize)> = merged.iter().map(|s| (s.lamport, s.rank)).collect();
        assert_eq!(keys, [(3, 0), (3, 1), (6, 0), (6, 1)]);
    }

    #[test]
    fn unstamped_events_inherit_their_ranks_last_stamp() {
        let src = vec![
            sample(1, 10), // before any stamp: (0,0)
            comm(1, "barrier", 3, 0),
            sample(1, 20), // inherits (3,0)
            comm(1, "barrier", 7, 1),
            sample(1, 30), // inherits (7,1)
        ];
        let merged = merge_events(vec![src]);
        let stamps: Vec<(u64, u64)> = merged.iter().map(|s| (s.lamport, s.gen)).collect();
        assert_eq!(stamps, [(0, 0), (3, 0), (3, 0), (7, 1), (7, 1)]);
        // File order within the rank is preserved at equal stamps.
        assert!(matches!(merged[1].event, TraceEvent::Comm { .. }));
        assert!(matches!(merged[2].event, TraceEvent::BenchmarkSample { d: 20, .. }));
    }

    #[test]
    fn driver_events_attach_to_rank_zero() {
        let e = TraceEvent::PartitionStep {
            iter: 1,
            dist: vec![5, 5],
            imbalance: 0.1,
            units_moved: 2,
        };
        assert_eq!(event_rank(&e), 0);
        let merged = merge_events(vec![vec![comm(0, "barrier", 4, 0), e.clone()]]);
        assert_eq!(merged[1].lamport, 4);
        assert_eq!(merged[1].rank, 0);
    }

    #[test]
    fn mixed_rank_file_interleaving_does_not_matter() {
        // The same logical events, written in two different physical
        // interleavings (as a shared sink would under different thread
        // schedules), merge identically.
        let a = vec![
            comm(0, "barrier", 2, 0),
            comm(1, "barrier", 2, 0),
            sample(0, 1),
            comm(0, "allreduce", 5, 1),
            comm(1, "allreduce", 5, 1),
        ];
        let b = vec![
            comm(1, "barrier", 2, 0),
            comm(0, "barrier", 2, 0),
            comm(1, "allreduce", 5, 1),
            sample(0, 1),
            comm(0, "allreduce", 5, 1),
        ];
        let ma: Vec<TraceEvent> = merge_events(vec![a]).into_iter().map(|s| s.event).collect();
        let mb: Vec<TraceEvent> = merge_events(vec![b]).into_iter().map(|s| s.event).collect();
        assert_eq!(ma, mb);
    }
}
