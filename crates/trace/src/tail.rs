//! Live follow of growing JSONL traces — `fupermod_tracetool tail`.
//!
//! Post-hoc analysis ([`crate::merge`], [`crate::report`]) waits for
//! the run to finish. `tail` follows trace files *while they grow*,
//! printing events in the same causal order the batch merge produces
//! and keeping rolling per-op latency quantiles.
//!
//! ## Torn-write safety
//!
//! A writer appends whole lines, but a reader polling mid-`write` can
//! observe a prefix of the final line. The follower therefore only
//! parses **newline-terminated** lines; a trailing partial line is
//! stashed and re-joined with the bytes the next poll reads. Files
//! that do not exist yet (a `--trace-dir` whose writers have not
//! started) are retried each poll.
//!
//! ## Ordering
//!
//! Events are stamped exactly like the batch merge
//! ([`crate::merge::Stamper`]): `comm` events carry their own Lamport
//! stamp, other events inherit their rank's last stamp. The tail then
//! emits through the batch merge's own queues (`Streams` in `merge.rs`:
//! per-`(source, rank)` FIFO queues, always popping the minimum queue
//! head) rather than sorting globally: a file may hold several runs
//! whose Lamport clocks restart, so per-rank file order (which the FIFO
//! preserves and a global sort would destroy) is part of the contract.
//!
//! While files are growing, a head is only comparable when **every**
//! known stream has one — an empty queue may still fill with a
//! smaller key. A poll round in which no file grew treats every
//! stream as exhausted (the batch merge's EOF) and drains the queues
//! by the same min-head rule. A tail that reads completed files
//! therefore prints byte-for-byte what `merge` prints
//! (`scripts/check.sh` diffs exactly that); if a writer pauses
//! mid-run longer than a poll round, events after the pause are
//! ordered against later arrivals on a best-effort basis — the price
//! of printing anything before the run ends.

use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fupermod_core::trace::{parse_header, LatencyHistogram, TraceEvent, SCHEMA_VERSION};
use fupermod_core::CoreError;

use crate::merge::{StampedEvent, Stamper, Streams};

/// Tuning knobs of [`tail`].
#[derive(Debug, Clone)]
pub struct TailOptions {
    /// How often to poll the files for new bytes.
    pub poll: Duration,
    /// Exit once every file has been quiet for this long (`None`:
    /// follow forever — interactive use).
    pub idle_exit: Option<Duration>,
    /// Print rolling per-op latency stats to `stats` at this cadence
    /// (`None` disables them).
    pub stats_every: Option<Duration>,
}

impl Default for TailOptions {
    fn default() -> Self {
        Self {
            poll: Duration::from_millis(200),
            idle_exit: None,
            stats_every: Some(Duration::from_secs(5)),
        }
    }
}

/// One followed file: byte offset, stashed partial line, header
/// state, and the per-rank stamping state of its event stream.
struct Follower {
    path: PathBuf,
    offset: u64,
    partial: Vec<u8>,
    header_seen: bool,
    stamper: Stamper,
}

impl Follower {
    fn new(path: PathBuf) -> Self {
        Self {
            path,
            offset: 0,
            partial: Vec::new(),
            header_seen: false,
            stamper: Stamper::default(),
        }
    }

    /// Reads newly appended *complete* lines and stamps their events.
    /// Returns `Ok(true)` if any new bytes were seen (even a partial
    /// line counts as progress for idle accounting).
    fn poll(
        &mut self,
        source: usize,
        out: &mut Vec<StampedEvent>,
    ) -> Result<bool, CoreError> {
        let mut file = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            // Not created yet (or vanished): retry next poll.
            Err(_) => return Ok(false),
        };
        let len = file
            .metadata()
            .map_err(|e| self.err(&e.to_string()))?
            .len();
        if len < self.offset {
            // Truncated behind our back: start over rather than emit
            // garbage from a stale offset.
            self.offset = 0;
            self.partial.clear();
            self.header_seen = false;
            self.stamper = Stamper::default();
        }
        if len == self.offset {
            return Ok(false);
        }
        file.seek(SeekFrom::Start(self.offset))
            .map_err(|e| self.err(&e.to_string()))?;
        let mut fresh = Vec::with_capacity((len - self.offset) as usize);
        file.take(len - self.offset)
            .read_to_end(&mut fresh)
            .map_err(|e| self.err(&e.to_string()))?;
        self.offset += fresh.len() as u64;

        let mut buf = std::mem::take(&mut self.partial);
        buf.extend_from_slice(&fresh);
        let mut start = 0;
        while let Some(nl) = buf[start..].iter().position(|&b| b == b'\n') {
            let line = &buf[start..start + nl];
            start += nl + 1;
            let line = std::str::from_utf8(line)
                .map_err(|_| self.err("invalid UTF-8 in trace line"))?
                .trim();
            if line.is_empty() {
                continue;
            }
            if !self.header_seen {
                parse_header(line).map_err(|e| self.err(&e.to_string()))?;
                self.header_seen = true;
                continue;
            }
            let event = TraceEvent::from_jsonl(line)
                .map_err(|e| self.err(&e.to_string()))?;
            out.push(self.stamper.stamp(source, event));
        }
        self.partial = buf.split_off(start);
        Ok(true)
    }

    fn err(&self, msg: &str) -> CoreError {
        CoreError::Trace(format!("{}: {msg}", self.path.display()))
    }
}

/// Rolling per-op latency digests over the `comm` events seen so far,
/// using the same log-bucketed bins as the core histograms.
#[derive(Debug, Default)]
struct Rolling {
    ops: BTreeMap<String, LatencyHistogram>,
}

impl Rolling {
    fn record(&mut self, op: &str, seconds: f64) {
        self.ops
            .entry(op.to_owned())
            .or_default()
            .record(seconds);
    }

    fn render(&self) -> String {
        let mut s = String::from("tail: rolling comm latency");
        if self.ops.is_empty() {
            s.push_str(" (no comm events yet)");
            return s;
        }
        for (op, hist) in &self.ops {
            let snap = hist.snapshot();
            let p50 = snap.quantile(0.5).unwrap_or(0.0);
            let p99 = snap.quantile(0.99).unwrap_or(0.0);
            s.push_str(&format!(
                "\n  {op}: n={} p50={:.1}us p99={:.1}us",
                snap.count,
                p50 * 1e6,
                p99 * 1e6
            ));
        }
        s
    }
}

/// The followed file set: an explicit list, or a directory rescanned
/// every poll for `*.jsonl` trace files appearing late.
enum FileSet {
    Fixed(Vec<PathBuf>),
    Dir(PathBuf),
}

impl FileSet {
    /// Paths currently in scope, sorted for deterministic source
    /// numbering in the directory case.
    fn scan(&self) -> Vec<PathBuf> {
        match self {
            FileSet::Fixed(paths) => paths.clone(),
            FileSet::Dir(dir) => {
                let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
                    .into_iter()
                    .flatten()
                    .flatten()
                    .map(|e| e.path())
                    .filter(|p| {
                        p.extension().and_then(|e| e.to_str()) == Some("jsonl")
                    })
                    .collect();
                found.sort();
                found
            }
        }
    }
}

/// Follows `files` (explicit paths) or, when `dir` is given, every
/// `*.jsonl` in it — including files that appear after the tail
/// starts. Events are written to `out` as a JSONL trace (header line
/// first, exactly like `merge`); rolling stats go to `stats`. Returns
/// when `options.idle_exit` elapses with no growth, or runs forever
/// without it.
///
/// # Errors
///
/// Returns [`CoreError::Trace`] on malformed events, foreign or
/// future-schema headers, and undecodable bytes; I/O errors on the
/// output streams are mapped to the same.
pub fn tail(
    files: Vec<PathBuf>,
    dir: Option<&Path>,
    options: &TailOptions,
    out: &mut dyn Write,
    stats: &mut dyn Write,
) -> Result<(), CoreError> {
    follow(files, dir, options, out, stats, || std::thread::sleep(options.poll))
}

/// [`tail`], calling `between` after every poll round where `tail`
/// sleeps for `options.poll`.
fn follow(
    files: Vec<PathBuf>,
    dir: Option<&Path>,
    options: &TailOptions,
    out: &mut dyn Write,
    stats: &mut dyn Write,
    mut between: impl FnMut(),
) -> Result<(), CoreError> {
    let set = match dir {
        Some(d) => FileSet::Dir(d.to_owned()),
        None => FileSet::Fixed(files),
    };
    let io_err = |e: std::io::Error| CoreError::Trace(format!("tail output: {e}"));
    writeln!(out, "{{\"trace\":\"fupermod\",\"schema\":{SCHEMA_VERSION}}}")
        .map_err(io_err)?;

    let mut followers: Vec<Follower> = Vec::new();
    let mut streams = Streams::default();
    let mut rolling = Rolling::default();
    let mut last_growth = Instant::now();
    let mut last_stats = Instant::now();

    loop {
        // Adopt newly appeared files (sources keep their index for
        // the lifetime of the tail, so stamps stay stable).
        for path in set.scan() {
            if !followers.iter().any(|f| f.path == path) {
                followers.push(Follower::new(path));
            }
        }

        let mut fresh = Vec::new();
        let mut grew = false;
        for (i, follower) in followers.iter_mut().enumerate() {
            grew |= follower.poll(i, &mut fresh)?;
        }
        for stamped in fresh {
            if let TraceEvent::Comm { op, seconds, .. } = &stamped.event {
                rolling.record(op, *seconds);
            }
            streams.push(stamped);
        }

        // Emit by the batch merge's pop rule: always the minimum
        // stream head. While files grow, hold whenever any known
        // stream's queue is empty (its next event may carry a smaller
        // key); a quiet round is the live analogue of EOF and drains
        // everything.
        while !(grew && streams.waiting(None)) {
            let Some(stamped) = streams.pop_min() else {
                break;
            };
            writeln!(out, "{}", stamped.event.to_jsonl()).map_err(io_err)?;
        }
        out.flush().map_err(io_err)?;

        if grew {
            last_growth = Instant::now();
        }
        if let Some(every) = options.stats_every {
            if last_stats.elapsed() >= every {
                writeln!(stats, "{}", rolling.render()).map_err(io_err)?;
                stats.flush().map_err(io_err)?;
                last_stats = Instant::now();
            }
        }
        if let Some(idle) = options.idle_exit {
            if !grew && last_growth.elapsed() >= idle {
                if options.stats_every.is_some() {
                    writeln!(stats, "{}", rolling.render()).map_err(io_err)?;
                }
                return Ok(());
            }
        }
        between();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm_line(rank: usize, op: &str, lamport: u64, gen: u64) -> String {
        TraceEvent::Comm {
            rank,
            op: op.to_owned(),
            peer: -1,
            bytes: 8,
            seconds: 2e-6,
            algorithm: "hub".to_owned(),
            rounds: 2,
            lamport,
            gen,
        }
        .to_jsonl()
    }

    fn header() -> String {
        format!("{{\"trace\":\"fupermod\",\"schema\":{SCHEMA_VERSION}}}")
    }

    /// The tail of a file written incrementally — each line torn in
    /// two, a poll round after each half — prints exactly what the
    /// batch merge prints for the finished file. The writes are made
    /// between the rounds, in the tail's own thread, so no pace of
    /// writer against poller can reorder them.
    #[test]
    fn tail_matches_batch_merge_and_survives_torn_writes() {
        let dir = std::env::temp_dir().join(format!(
            "fupermod_tail_test_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.trace.jsonl");
        let lines = [
            comm_line(0, "barrier", 2, 0),
            comm_line(1, "barrier", 2, 0),
            comm_line(1, "allreduce", 5, 1),
            comm_line(0, "allreduce", 5, 1),
        ];

        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "{}", header()).unwrap();
        let mut halves = lines.iter().flat_map(|line| {
            let (a, b) = line.split_at(line.len() / 2);
            [a.to_owned(), format!("{b}\n")]
        });
        let mut out = Vec::new();
        let mut stats = Vec::new();
        let options = TailOptions {
            poll: Duration::ZERO,
            // The first round in which nothing grew ends the tail.
            idle_exit: Some(Duration::ZERO),
            stats_every: None,
        };
        follow(vec![path.clone()], None, &options, &mut out, &mut stats, || {
            if let Some(half) = halves.next() {
                f.write_all(half.as_bytes()).unwrap();
                f.flush().unwrap();
            }
        })
        .unwrap();
        assert!(halves.next().is_none(), "the tail stopped before the writer");

        let merged = {
            let merge = crate::merge::Merge::open(std::slice::from_ref(&path)).unwrap();
            let mut s = header();
            s.push('\n');
            for ev in merge {
                s.push_str(&ev.unwrap().event.to_jsonl());
                s.push('\n');
            }
            s
        };
        assert_eq!(String::from_utf8(out).unwrap(), merged);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A completed file holding several runs — per-rank Lamport
    /// clocks restart at each run, so stamps are *not* monotone
    /// within a rank — tails to exactly the batch merge's output.
    /// (Regression: a global sort by key would hoist the second run's
    /// low stamps above the first run's high ones.)
    #[test]
    fn tail_matches_merge_on_multi_run_mixed_rank_file() {
        let dir = std::env::temp_dir().join(format!(
            "fupermod_tail_multirun_test_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runs.trace.jsonl");
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "{}", header()).unwrap();
        for run in 0..3 {
            for lamport in [2, 5, 9] {
                for rank in [1, 0] {
                    writeln!(f, "{}", comm_line(rank, "barrier", lamport, run))
                        .unwrap();
                }
            }
        }
        drop(f);

        let mut out = Vec::new();
        let mut stats = Vec::new();
        let options = TailOptions {
            poll: Duration::from_millis(5),
            idle_exit: Some(Duration::from_millis(100)),
            stats_every: None,
        };
        tail(vec![path.clone()], None, &options, &mut out, &mut stats).unwrap();

        let merged = {
            let merge = crate::merge::Merge::open(std::slice::from_ref(&path)).unwrap();
            let mut s = header();
            s.push('\n');
            for ev in merge {
                s.push_str(&ev.unwrap().event.to_jsonl());
                s.push('\n');
            }
            s
        };
        assert_eq!(String::from_utf8(out).unwrap(), merged);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Directory mode adopts files that appear after the tail starts.
    #[test]
    fn tail_dir_adopts_late_files() {
        let dir = std::env::temp_dir().join(format!(
            "fupermod_tail_dir_test_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let late = dir.join("late.trace.jsonl");
        let writer = {
            let late = late.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                let mut f = std::fs::File::create(&late).unwrap();
                writeln!(f, "{}", header()).unwrap();
                writeln!(f, "{}", comm_line(0, "barrier", 1, 0)).unwrap();
            })
        };
        let mut out = Vec::new();
        let mut stats = Vec::new();
        let options = TailOptions {
            poll: Duration::from_millis(5),
            idle_exit: Some(Duration::from_millis(150)),
            stats_every: None,
        };
        tail(Vec::new(), Some(&dir), &options, &mut out, &mut stats).unwrap();
        writer.join().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"op\":\"barrier\""), "missing event:\n{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
