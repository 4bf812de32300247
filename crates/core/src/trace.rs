//! Structured observability for benchmarking and dynamic partitioning.
//!
//! The paper's value proposition is *visibility into measured
//! performance*: `fupermod_benchmark` stops on statistical confidence
//! and `fupermod_dynamic` iterates partition → measure until balanced.
//! This module makes those loops observable as a stream of typed
//! [`TraceEvent`]s emitted through a [`TraceSink`]:
//!
//! * [`Benchmark`](crate::benchmark::Benchmark) emits one
//!   [`TraceEvent::BenchmarkSample`] per repetition and a
//!   [`TraceEvent::BenchmarkDone`] per measurement;
//! * [`DynamicContext`](crate::dynamic::DynamicContext) emits
//!   [`TraceEvent::ModelUpdate`] per absorbed observation,
//!   [`TraceEvent::PartitionStep`] per re-partition, and
//!   [`TraceEvent::DynamicConverged`] once balanced;
//! * [`Partitioner::partition_traced`](crate::partition::Partitioner::partition_traced)
//!   emits a single [`TraceEvent::PartitionStep`] for static partitioning;
//! * the `fupermod-runtime` message-passing layer emits
//!   [`TraceEvent::Comm`] per communication operation and
//!   [`TraceEvent::Fault`] per injected or observed fault
//!   (schema v2 additions).
//!
//! Three sinks are provided: [`NullSink`] (the default — zero work),
//! [`MemorySink`] (in-process inspection and tests) and [`JsonlSink`]
//! (one JSON object per line — the one trace file encoding;
//! `fupermod_tracetool export --format csv` derives a spreadsheet
//! view from it). The encoding is **schema-versioned**
//! ([`SCHEMA_VERSION`]) and declared field by field once, with
//! [`TraceEvent`] (`docs/OBSERVABILITY.md` describes it); every
//! encoding walks that declaration ([`TraceEvent::for_each_field`]),
//! and a line round-trips through
//! [`TraceEvent::from_jsonl`] so a recorded trace can be replayed into
//! fresh models ([`replay_into_models`]), giving
//! simulation/prediction work machine-readable ground truth.
//!
//! Everything here is `std`-only and thread-safe: sinks take `&self`
//! and are `Send + Sync`, so the group benchmark's worker threads can
//! share one sink. Run totals (kernels, repetitions, outliers,
//! repartitions, units moved) and latency histograms live in the
//! process-wide telemetry registry ([`crate::telemetry`]), whose
//! storage is the [`LatencyHistogram`] defined here.

use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;
use crate::model::Model;
use crate::{CoreError, Point};

/// Version of the trace schema this build writes (the [`TraceEvent`]
/// declaration is its field-by-field specification, which
/// `docs/OBSERVABILITY.md` describes).
///
/// v2 added the `comm` and `fault` event kinds emitted by the
/// `fupermod-runtime` message-passing layer. v3 adds the causal
/// `lamport`/`gen` stamps on `comm` events (which make per-rank
/// traces mergeable into one globally ordered timeline — see
/// `fupermod-trace` and `fupermod_tracetool merge`) and the
/// `metrics` event carrying latency-histogram snapshots. v4 adds the
/// `kind`/`labels` fields on `metrics` events so the live telemetry
/// registry (`telemetry` module) can export labelled counters and
/// gauges alongside histograms. Every addition is additive: v1–v3
/// traces remain readable, with the missing fields defaulting.
pub const SCHEMA_VERSION: u32 = 4;

/// Declares the trace schema: [`TraceEvent`], [`EVENT_FIELDS`], and
/// the walks over an event's fields. Each variant reads
/// `Variant = "tag" { /// doc  field: Type = form [default], … }`:
/// the field's name is its JSONL key and its CSV column, `form` is
/// one of the [`FieldValue`] wire forms (`count`, `signed`, `exact`,
/// `float`, `tag`, `list`), and a bracketed default makes the reader
/// accept a line without the field (a schema addendum that older
/// traces lack). Fields are written in declaration order.
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {$(
            $(#[$vmeta:meta])*
            $variant:ident = $tag:literal {$(
                $(#[$fmeta:meta])*
                $field:ident: $ty:ty = $form:ident $([$default:expr])?
            ),* $(,)?}
        ),* $(,)?}
    ) => {
        $(#[$meta])*
        #[derive(Clone, PartialEq)]
        pub enum TraceEvent {$(
            $(#[$vmeta])*
            $variant { $( $(#[$fmeta])* $field: $ty, )* },
        )*}

        /// Every event's tag and field keys, in declaration order (the
        /// order [`TraceEvent::to_jsonl`] writes them in).
        pub const EVENT_FIELDS: &[(&str, &[&str])] = &[$( ($tag, &[$(stringify!($field)),*]) ),*];

        impl TraceEvent {
            /// Stable, lowercase event tag used by both encodings.
            pub fn name(&self) -> &'static str {
                match self {
                    $( TraceEvent::$variant { .. } => $tag, )*
                }
            }

            /// Hands every field to `visit` as `(key, value)`, in
            /// declaration order — the one walk the JSONL writer, the
            /// CSV export and merge attribution share.
            pub fn for_each_field<'a>(&'a self, mut visit: impl FnMut(&'static str, FieldValue<'a>)) {
                match self {
                    $( TraceEvent::$variant { $($field),* } => {
                        $( visit(stringify!($field), wire_form!(value $form, $field)); )*
                    } )*
                }
            }

            /// Decodes one JSONL event line produced by [`TraceEvent::to_jsonl`].
            ///
            /// # Errors
            ///
            /// Returns [`CoreError::Trace`] on malformed JSON, an unknown
            /// event tag, or a missing field that has no default.
            pub fn from_jsonl(line: &str) -> Result<TraceEvent, CoreError> {
                let doc = parse_line(line)?;
                let tag = doc
                    .get("event")
                    .and_then(Json::as_str)
                    .ok_or_else(|| CoreError::Trace("missing \"event\" tag".to_owned()))?;
                let members = Members { doc: &doc, tag };
                match tag {
                    // A field that fails to read takes its declared default.
                    $( $tag => Ok(TraceEvent::$variant { $(
                        $field: wire_form!(read $form, members, stringify!($field), $ty)
                            .or_else(|e| reader_default!(value $($default)?).ok_or(e))?,
                    )* }), )*
                    other => Err(CoreError::Trace(format!("unknown event tag '{other}'"))),
                }
            }
        }

        /// Lists the fields every schema version carries, then the
        /// reader-defaulted addenda — not the wire order — which is the
        /// `{:?}` form the decoded-fixture goldens
        /// (`tests/fixtures/trace_v*.decoded`) pin.
        impl fmt::Debug for TraceEvent {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $( TraceEvent::$variant { $($field),* } => {
                        let fields: &[(&str, &dyn fmt::Debug, bool)] = &[
                            $( (stringify!($field), $field, reader_default!(flag $($default)?)), )*
                        ];
                        let mut s = f.debug_struct(stringify!($variant));
                        for addenda in [false, true] {
                            for (key, value, defaulted) in fields {
                                if *defaulted == addenda {
                                    s.field(key, value);
                                }
                            }
                        }
                        s.finish()
                    } )*
                }
            }
        }
    };
}

/// The declared default of a field: `value` gives it as an `Option`,
/// `flag` says whether there is one.
#[rustfmt::skip]
macro_rules! reader_default {
    (value) => { None };
    (value $default:expr) => { Some($default) };
    (flag) => { false };
    (flag $default:expr) => { true };
}

/// A wire form: how a field becomes a [`FieldValue`] (`value`), and
/// how [`Members`] reads it back (`read`).
#[rustfmt::skip]
macro_rules! wire_form {
    (value count, $v:ident) => { FieldValue::Count(*$v as u64) };
    (value signed, $v:ident) => { FieldValue::Signed(*$v) };
    (value exact, $v:ident) => { FieldValue::Exact(*$v) };
    (value float, $v:ident) => { FieldValue::Float(*$v) };
    (value tag, $v:ident) => { FieldValue::Tag($v) };
    (value list, $v:ident) => { FieldValue::List($v) };
    (read float, $m:ident, $key:expr, $ty:ty) => { $m.number($key) };
    (read tag, $m:ident, $key:expr, $ty:ty) => { $m.tag($key) };
    (read list, $m:ident, $key:expr, $ty:ty) => { $m.list($key) };
    // `count`, `signed` and `exact` read alike: a saturating cast.
    (read $integer:ident, $m:ident, $key:expr, $ty:ty) => { $m.number($key).map(|v| v as $ty) };
}

trace_events! {
    /// A typed observability event emitted by the measurement and
    /// partitioning machinery.
    ///
    /// This declaration is the trace schema: each field is listed once,
    /// with its key, type, wire form and reader default, and every
    /// encoding walks it (`docs/OBSERVABILITY.md` §3 mirrors it, and a
    /// test holds the two together).
    pub enum TraceEvent {
        /// One benchmark repetition finished.
        BenchmarkSample = "benchmark_sample" {
            /// Process rank within its measurement group (0 for single).
            rank: usize = count,
            /// Problem size being measured, in computation units.
            d: u64 = count,
            /// Repetition index (0-based).
            rep: u32 = count,
            /// Execution time of this repetition, seconds.
            time: f64 = float,
            /// Relative confidence-interval half-width of the mean after
            /// this repetition (`inf` until two samples exist).
            ci_rel: f64 = float,
        },
        /// One statistically controlled measurement finished.
        BenchmarkDone = "benchmark_done" {
            /// Process rank within its measurement group (0 for single).
            rank: usize = count,
            /// Problem size measured, in computation units.
            d: u64 = count,
            /// Repetitions that survived the outlier filter.
            reps: u32 = count,
            /// Mean execution time over the surviving repetitions, seconds.
            mean: f64 = float,
            /// Standard error of the mean, seconds.
            stderr: f64 = float,
            /// Total wall time spent measuring (all repetitions), seconds.
            elapsed: f64 = float,
            /// Samples rejected by the MAD outlier filter.
            outliers_rejected: u32 = count,
        },
        /// A performance model absorbed an experimental point.
        ModelUpdate = "model_update" {
            /// Process rank owning the model.
            rank: usize = count,
            /// Problem size of the absorbed point.
            d: u64 = count,
            /// Mean time of the absorbed point, seconds.
            t: f64 = float,
            /// Repetitions behind the absorbed point.
            reps: u32 = count,
            /// Points in the model after the update.
            points: usize = count,
        },
        /// The partitioner produced a (new) distribution.
        PartitionStep = "partition_step" {
            /// 1-based iteration of the dynamic loop (0 for a static,
            /// one-shot partitioning).
            iter: u64 = count,
            /// Assigned computation units per process.
            dist: Vec<u64> = list,
            /// Relative imbalance `(t_max - t_min)/t_max` of the observed
            /// times that drove this step (predicted imbalance for static
            /// partitioning).
            imbalance: f64 = float,
            /// Computation units that changed owner relative to the
            /// previous distribution.
            units_moved: u64 = count,
        },
        /// The dynamic loop reached its balance tolerance (or the
        /// distribution stopped moving).
        DynamicConverged = "dynamic_converged" {
            /// Dynamic-loop iterations it took.
            steps: u64 = count,
            /// Final relative imbalance.
            imbalance: f64 = float,
        },
        /// A runtime communication operation completed (schema v2).
        Comm = "comm" {
            /// Rank that performed the operation.
            rank: usize = count,
            /// Operation tag: `send`, `recv`, `barrier`, `bcast`,
            /// `scatterv`, `gatherv`, `allgatherv`, `allreduce`.
            op: String = tag,
            /// Peer rank (or collective root); `-1` when not applicable.
            peer: i64 = signed,
            /// Payload bytes moved by this rank in the operation.
            bytes: u64 = count,
            /// Wall (or virtual) seconds the operation took on this rank.
            seconds: f64 = float,
            /// Collective schedule that carried the operation: `hub`,
            /// `ring`, `tree`, or `direct` for point-to-point traffic.
            /// Empty string when unknown (pre-addendum traces).
            algorithm: String = tag [String::new()],
            /// Communication rounds the schedule used (`1` for
            /// point-to-point, `0` for degenerate single-rank
            /// collectives or unknown/pre-addendum traces).
            rounds: u64 = count [0],
            /// Lamport timestamp of the operation on this rank at
            /// completion (schema v3): every operation ticks its rank's
            /// clock, message receipt merges the sender's stamp, and a
            /// barrier generation joins all live clocks — so sorting
            /// events by `(lamport, gen, rank)` yields a causally
            /// consistent cross-rank order. `0` in pre-v3 traces.
            lamport: u64 = exact [0],
            /// Barrier generation the operation belongs to (schema v3):
            /// the generation a collective's closing barrier completed,
            /// or the generation current when a point-to-point operation
            /// began. All ranks of one collective record the same `gen`.
            /// `0` in pre-v3 traces.
            gen: u64 = exact [0],
        },
        /// A fault was injected or observed by the runtime (schema v2).
        Fault = "fault" {
            /// Rank where the fault manifested.
            rank: usize = count,
            /// Fault tag: `delay`, `drop`, `retry`, `straggler`, `death`,
            /// `timeout`, `degraded`.
            kind: String = tag,
            /// Peer rank involved; `-1` when not applicable.
            peer: i64 = signed,
            /// Retry attempt number (0 for non-retry faults).
            attempt: u32 = count,
            /// Seconds of delay/backoff attributable to the fault
            /// (0 when not applicable).
            seconds: f64 = float,
        },
        /// A metric sample (schema v3; `kind`/`labels` are the schema-v4
        /// addendum): one labelled counter, gauge or latency histogram of
        /// a telemetry registry, exported by
        /// [`RegistrySnapshot::export_trace_events`](crate::telemetry::RegistrySnapshot::export_trace_events).
        Metrics = "metrics" {
            /// Rank the sample describes (`0` for process-wide
            /// metrics, which is what the binaries export).
            rank: usize = count,
            /// Metric scope tag: a registry metric name such as
            /// `fupermod_comm_duration_seconds` or `served_requests_total`
            /// (v3 traces carry the retired `comm.<op>` / `bench.rep`
            /// histogram scopes here).
            scope: String = tag,
            /// Samples recorded (histograms), or the counter value.
            /// `0` for gauges, whose value rides in `sum`.
            count: u64 = exact,
            /// Sum of recorded latencies in seconds (histograms), the
            /// gauge value, or `0` for counters.
            sum: f64 = float,
            /// Metric kind (schema v4): `counter`, `gauge`, or
            /// `histogram`. Empty in pre-v4 traces, which carried only
            /// histogram snapshots (and unlabeled store counters whose
            /// empty `buckets` distinguish them).
            kind: String = tag [String::new()],
            /// Label set (schema v4): `;`-separated `key=value` pairs in
            /// sorted key order (e.g. `op=ingest;outcome=ok`), restricted
            /// to escape-free tags without `,`/`;`/`=` in the values.
            /// Empty when the metric carries no labels (all pre-v4
            /// traces).
            labels: String = tag [String::new()],
            /// Log-bucketed counts, length
            /// [`HISTOGRAM_BUCKETS`]` + 2`: `buckets[0]` is the
            /// underflow bin (`< 1 ns`), `buckets[1 + k]` covers
            /// `[2^k, 2^(k+1))` nanoseconds, and the last bin is the
            /// overflow (`>= 2^HISTOGRAM_BUCKETS` ns). Empty for
            /// counters and gauges.
            buckets: Vec<u64> = list,
        },
    }
}

/// One field of a [`TraceEvent`] in its wire form, as
/// [`TraceEvent::for_each_field`] hands it out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue<'a> {
    /// A count: JSONL writes it through `f64` (exact up to 2^53), CSV
    /// as the integer.
    Count(u64),
    /// A signed count (`peer`), written like a [`FieldValue::Count`].
    Signed(i64),
    /// An integer exact over the whole `u64` range (`lamport`, `gen`,
    /// metrics `count`).
    Exact(u64),
    /// A float, spelled by [`fmt_float`] in both encodings.
    Float(f64),
    /// A string restricted to escape-free tags (no quote, backslash or
    /// control character), so lines stay greppable and CSV needs no
    /// quoting.
    Tag(&'a str),
    /// Integers: a JSON array, or a `;`-joined CSV cell.
    List(&'a [u64]),
}

impl TraceEvent {
    /// Encodes the event as one JSONL line (no trailing newline),
    /// schema version [`SCHEMA_VERSION`]: the `event` tag, then every
    /// field in declaration order.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"event\":\"");
        s.push_str(self.name());
        s.push('"');
        self.for_each_field(|key, value| {
            let _ = write!(s, ",\"{key}\":");
            let _ = match value {
                FieldValue::Count(v) => write!(s, "{}", v as f64),
                FieldValue::Signed(v) => write!(s, "{}", v as f64),
                FieldValue::Exact(v) => write!(s, "{v}"),
                FieldValue::Float(v) => write!(s, "{}", fmt_float(v)),
                FieldValue::Tag(v) => {
                    debug_assert!(is_tag(v), "trace string fields must be escape-free tags");
                    write!(s, "\"{v}\"")
                }
                FieldValue::List(items) => {
                    s.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            s.push(',');
                        }
                        let _ = write!(s, "{item}");
                    }
                    write!(s, "]")
                }
            };
        });
        s.push('}');
        s
    }
}

/// The members of one decoded event line, read the way
/// [`TraceEvent::from_jsonl`] promises (error texts included).
struct Members<'a> {
    doc: &'a Json,
    tag: &'a str,
}

impl Members<'_> {
    /// A number; trace floats spell NaN as `null` (see [`fmt_float`]).
    fn number(&self, key: &str) -> Result<f64, CoreError> {
        match self.doc.get(key) {
            Some(Json::Num(x)) => Ok(*x),
            Some(Json::Null) => Ok(f64::NAN),
            _ => Err(self.missing("numeric field", key)),
        }
    }

    /// A string the writer could have written: an escape-free tag.
    fn tag(&self, key: &str) -> Result<String, CoreError> {
        match self.doc.get(key).and_then(Json::as_str) {
            Some(v) if is_tag(v) => Ok(v.to_owned()),
            Some(_) => Err(CoreError::Trace(format!(
                "event '{}': string field '{key}' is not an escape-free tag",
                self.tag
            ))),
            None => Err(self.missing("string field", key)),
        }
    }

    fn list(&self, key: &str) -> Result<Vec<u64>, CoreError> {
        self.doc
            .get(key)
            .and_then(Json::as_array)
            .and_then(|items| items.iter().map(|x| Some(x.as_f64()? as u64)).collect())
            .ok_or_else(|| CoreError::Trace(format!("{}: missing '{key}' array", self.tag)))
    }

    fn missing(&self, what: &str, key: &str) -> CoreError {
        CoreError::Trace(format!("event '{}': missing {what} '{key}'", self.tag))
    }
}

/// Whether `v` can be a trace string field: written between quotes
/// as is, it needs no JSON escape.
fn is_tag(v: &str) -> bool {
    !v.contains(|c: char| c == '"' || c == '\\' || c.is_control())
}

/// Formats a float for the trace encoding (and everything derived
/// from it): shortest round-trip via Rust's `Display`, with
/// non-finite values mapped to `null`-compatible text
/// (`null` for NaN, `±1e9999` for the infinities, which parse back to
/// `±inf`). Public so downstream consumers (`fupermod-trace`'s
/// report) can reproduce trace values **bit-for-bit**.
pub fn fmt_float(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "null".to_owned()
    } else if v > 0.0 {
        "1e9999".to_owned() // parses back to +inf
    } else {
        "-1e9999".to_owned()
    }
}

/// Parses one trace line (header or event) with the workspace JSON
/// reader, mapping syntax errors onto [`CoreError::Trace`].
fn parse_line(line: &str) -> Result<Json, CoreError> {
    Json::parse(line).map_err(|e| CoreError::Trace(format!("bad trace line: {e}")))
}

/// Destination for [`TraceEvent`]s.
///
/// Sinks must be cheap when inactive (the default [`NullSink`] is a
/// no-op) and thread-safe: `record` takes `&self` so the synchronised
/// group benchmark can emit from several worker threads at once.
pub trait TraceSink: Send + Sync {
    /// Records one event. Implementations must not panic on I/O
    /// failure — store the error and surface it from [`TraceSink::flush`].
    fn record(&self, event: &TraceEvent);

    /// Flushes buffered output and surfaces any deferred write error.
    ///
    /// # Errors
    ///
    /// Returns the first write error encountered since the last flush.
    fn flush(&self) -> io::Result<()> {
        Ok(())
    }
}

/// The default sink: discards every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn record(&self, _event: &TraceEvent) {}
}

/// A shared static [`NullSink`] for default wiring.
pub fn null_sink() -> &'static NullSink {
    static NULL: NullSink = NullSink;
    &NULL
}

/// Collects events in memory — for tests and in-process analysis.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the recorded events, in order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace sink poisoned").clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace sink poisoned").len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes and returns the recorded events.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace sink poisoned"))
    }
}

impl TraceSink for MemorySink {
    fn record(&self, event: &TraceEvent) {
        self.events
            .lock()
            .expect("trace sink poisoned")
            .push(event.clone());
    }
}

struct WriterState<W: Write> {
    writer: W,
    error: Option<io::Error>,
}

impl<W: Write> WriterState<W> {
    fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()
    }
}

/// Streams events as JSON Lines: a `{"trace":"fupermod","schema":2}`
/// header line followed by one object per event.
pub struct JsonlSink<W: Write + Send> {
    state: Mutex<WriterState<W>>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer; immediately writes the schema header line.
    pub fn new(writer: W) -> Self {
        let mut state = WriterState {
            writer,
            error: None,
        };
        state.write_line(&format!(
            "{{\"trace\":\"fupermod\",\"schema\":{SCHEMA_VERSION}}}"
        ));
        Self {
            state: Mutex::new(state),
        }
    }

    /// Consumes the sink, flushes, and returns the writer.
    ///
    /// # Errors
    ///
    /// Returns the first deferred write error, if any.
    pub fn into_inner(self) -> io::Result<W> {
        let mut state = self.state.into_inner().expect("trace sink poisoned");
        state.flush()?;
        Ok(state.writer)
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&self, event: &TraceEvent) {
        self.state
            .lock()
            .expect("trace sink poisoned")
            .write_line(&event.to_jsonl());
    }

    fn flush(&self) -> io::Result<()> {
        self.state.lock().expect("trace sink poisoned").flush()
    }
}

/// A streaming trace reader: validates the header eagerly, then
/// decodes one event per [`Iterator::next`] call without buffering
/// the file — multi-gigabyte traces stream in constant memory
/// (`fupermod_tracetool merge` relies on this).
///
/// The eager [`read_jsonl_trace`] is a thin wrapper over this type.
pub struct TraceReader<R: BufRead> {
    lines: io::Lines<R>,
    schema: u32,
}

impl TraceReader<io::BufReader<File>> {
    /// Opens a trace file for streaming, validating its header.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Trace`] on I/O failure, a missing or
    /// foreign header, or a schema version newer than
    /// [`SCHEMA_VERSION`].
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, CoreError> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| {
            CoreError::Trace(format!("cannot open trace '{}': {e}", path.display()))
        })?;
        Self::new(io::BufReader::new(file))
    }
}

/// Validates a trace header line and returns the schema version it
/// declares.
///
/// # Errors
///
/// Returns [`CoreError::Trace`] on a foreign or malformed header, or
/// a schema version newer than [`SCHEMA_VERSION`] (forward
/// compatibility is rejected, not guessed at).
pub fn parse_header(line: &str) -> Result<u32, CoreError> {
    let header = parse_line(line)?;
    if header.get("trace").and_then(Json::as_str) != Some("fupermod") {
        return Err(CoreError::Trace(
            "not a fupermod trace (missing header line)".to_owned(),
        ));
    }
    let schema = header
        .get("schema")
        .and_then(Json::as_f64)
        .ok_or_else(|| CoreError::Trace("header missing schema version".to_owned()))?
        as u32;
    if schema > SCHEMA_VERSION {
        return Err(CoreError::Trace(format!(
            "trace schema {schema} is newer than supported {SCHEMA_VERSION}"
        )));
    }
    Ok(schema)
}

impl<R: BufRead> TraceReader<R> {
    /// Wraps a reader, consuming and validating the header line.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Trace`] on I/O failure or a header
    /// [`parse_header`] rejects.
    pub fn new(reader: R) -> Result<Self, CoreError> {
        let mut lines = reader.lines();
        let header = lines
            .next()
            .ok_or_else(|| CoreError::Trace("empty trace file".to_owned()))?
            .map_err(|e| CoreError::Trace(format!("trace read failed: {e}")))?;
        let schema = parse_header(&header)?;
        Ok(Self { lines, schema })
    }

    /// Schema version declared by the trace header.
    pub fn schema(&self) -> u32 {
        self.schema
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<TraceEvent, CoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let line = match self.lines.next()? {
                Ok(l) => l,
                Err(e) => {
                    return Some(Err(CoreError::Trace(format!("trace read failed: {e}"))))
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            return Some(TraceEvent::from_jsonl(&line));
        }
    }
}

/// Parses a trace eagerly: validates the header line and decodes
/// every event, returning `(schema_version, events)`. Thin wrapper
/// over the streaming [`TraceReader`] — prefer that for large files.
///
/// # Errors
///
/// Returns [`CoreError::Trace`] on I/O failure, a missing/foreign
/// header, an unsupported schema version, or any malformed event line.
pub fn read_jsonl_trace<R: BufRead>(reader: R) -> Result<(u32, Vec<TraceEvent>), CoreError> {
    let reader = TraceReader::new(reader)?;
    let schema = reader.schema();
    let events = reader.collect::<Result<Vec<_>, _>>()?;
    Ok((schema, events))
}

/// Replays the `model_update` events of a recorded trace into fresh
/// models (one per rank), reconstructing the partial models a dynamic
/// run built — the machine-readable ground truth simulation-based
/// prediction needs. Returns the number of points applied.
///
/// # Errors
///
/// Propagates model-update failures and rejects ranks outside
/// `models`.
pub fn replay_into_models(
    events: &[TraceEvent],
    models: &mut [&mut dyn Model],
) -> Result<usize, CoreError> {
    let mut applied = 0;
    for event in events {
        if let TraceEvent::ModelUpdate {
            rank, d, t, reps, ..
        } = event
        {
            let n_models = models.len();
            let model = models.get_mut(*rank).ok_or_else(|| {
                CoreError::Trace(format!(
                    "trace refers to rank {rank} but only {n_models} models were supplied"
                ))
            })?;
            if *d == 0 {
                continue; // idle probe: carries no speed information
            }
            model.update(Point {
                d: *d,
                t: *t,
                reps: *reps,
                ci: 0.0,
            })?;
            applied += 1;
        }
    }
    Ok(applied)
}

/// Number of power-of-two latency buckets in a [`LatencyHistogram`]:
/// bucket `k` covers `[2^k, 2^(k+1))` nanoseconds, so 48 buckets span
/// 1 ns up to ~3.26 days — log-bucketed HDR-style resolution (≤ 2×
/// relative error) at constant memory.
pub const HISTOGRAM_BUCKETS: usize = 48;

/// Operation tags of `comm` events; each has a
/// `fupermod_comm_duration_seconds{op=…}` latency histogram in the
/// global telemetry registry ([`crate::telemetry::record_comm`]).
pub const COMM_OPS: [&str; 8] = [
    "send",
    "recv",
    "barrier",
    "bcast",
    "scatterv",
    "gatherv",
    "allgatherv",
    "allreduce",
];

// Interior mutability is the point: this is the `[CONST; N]`
// array-initialisation idiom for atomics (each array slot gets its
// own fresh atomic, never a shared one).
#[allow(clippy::declare_interior_mutable_const)]
const ATOMIC_ZERO: AtomicU64 = AtomicU64::new(0);

/// A lock-free log-bucketed latency histogram (HDR-style): recording
/// is a couple of relaxed atomic increments, so it is safe on hot
/// paths; [`LatencyHistogram::snapshot`] produces the serialisable
/// bucket vector carried by [`TraceEvent::Metrics`].
#[derive(Debug)]
pub struct LatencyHistogram {
    count: AtomicU64,
    sum_nanos: AtomicU64,
    under: AtomicU64,
    over: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram (const-constructible for statics).
    pub const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            under: AtomicU64::new(0),
            over: AtomicU64::new(0),
            buckets: [ATOMIC_ZERO; HISTOGRAM_BUCKETS],
        }
    }

    /// Records one latency sample, in seconds. Negative and NaN
    /// samples are ignored; sub-nanosecond samples land in the
    /// underflow bin and samples beyond `2^HISTOGRAM_BUCKETS` ns in
    /// the overflow bin.
    pub fn record(&self, seconds: f64) {
        if seconds.is_nan() || seconds < 0.0 {
            return; // not a latency
        }
        let nanos = (seconds * 1e9).round() as u64; // saturating cast
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        if nanos == 0 {
            self.under.fetch_add(1, Ordering::Relaxed);
        } else {
            let k = (63 - nanos.leading_zeros()) as usize; // floor(log2)
            if k >= HISTOGRAM_BUCKETS {
                self.over.fetch_add(1, Ordering::Relaxed);
            } else {
                self.buckets[k].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::with_capacity(HISTOGRAM_BUCKETS + 2);
        buckets.push(self.under.load(Ordering::Relaxed));
        for b in &self.buckets {
            buckets.push(b.load(Ordering::Relaxed));
        }
        buckets.push(self.over.load(Ordering::Relaxed));
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_seconds: self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            buckets,
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`], in the exact shape
/// the [`TraceEvent::Metrics`] event serialises.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of recorded latencies, seconds (nanosecond resolution).
    pub sum_seconds: f64,
    /// `HISTOGRAM_BUCKETS + 2` bins: underflow, `[2^k, 2^(k+1))` ns
    /// for `k = 0..HISTOGRAM_BUCKETS`, overflow.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Rebuilds a snapshot from serialised [`TraceEvent::Metrics`]
    /// fields. Returns `None` if the bucket vector has the wrong
    /// arity.
    pub fn from_parts(count: u64, sum_seconds: f64, buckets: Vec<u64>) -> Option<Self> {
        if buckets.len() != HISTOGRAM_BUCKETS + 2 {
            return None;
        }
        Some(Self {
            count,
            sum_seconds,
            buckets,
        })
    }

    /// Mean latency in seconds, or `None` for an empty histogram.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum_seconds / self.count as f64)
        }
    }

    /// Upper bound (seconds, exclusive) of snapshot bin `i`:
    /// `1 ns` for the underflow bin, `2^(k+1)` ns for bucket `k`,
    /// and `+inf` for the overflow bin.
    pub fn bin_upper_seconds(i: usize) -> f64 {
        if i == 0 {
            1e-9
        } else if i <= HISTOGRAM_BUCKETS {
            // bin i holds bucket k = i - 1 → upper bound 2^i ns
            (i as f64).exp2() * 1e-9
        } else {
            f64::INFINITY
        }
    }

    /// Approximate quantile `q` in `[0, 1]` (upper bound of the bin
    /// holding the `ceil(q · count)`-th sample — a ≤ 2× overestimate
    /// by construction). `None` for an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Some(Self::bin_upper_seconds(i));
            }
        }
        Some(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::BenchmarkSample {
                rank: 1,
                d: 500,
                rep: 0,
                time: 0.0125,
                ci_rel: f64::INFINITY,
            },
            TraceEvent::BenchmarkDone {
                rank: 1,
                d: 500,
                reps: 7,
                mean: 0.0123,
                stderr: 0.0002,
                elapsed: 0.0861,
                outliers_rejected: 1,
            },
            TraceEvent::ModelUpdate {
                rank: 0,
                d: 500,
                t: 0.0123,
                reps: 7,
                points: 3,
            },
            TraceEvent::PartitionStep {
                iter: 2,
                dist: vec![800, 200],
                imbalance: 0.75,
                units_moved: 300,
            },
            TraceEvent::DynamicConverged {
                steps: 3,
                imbalance: 0.012,
            },
            TraceEvent::Comm {
                rank: 2,
                op: "allgatherv".to_owned(),
                peer: -1,
                bytes: 4096,
                seconds: 0.0031,
                algorithm: "ring".to_owned(),
                rounds: 3,
                lamport: 17,
                gen: 5,
            },
            TraceEvent::Fault {
                rank: 1,
                kind: "retry".to_owned(),
                peer: 3,
                attempt: 2,
                seconds: 0.004,
            },
            TraceEvent::Metrics {
                rank: 0,
                scope: "fupermod_comm_duration_seconds".to_owned(),
                count: 12,
                sum: 0.037,
                buckets: {
                    let mut b = vec![0u64; HISTOGRAM_BUCKETS + 2];
                    b[20] = 5;
                    b[21] = 7;
                    b
                },
                kind: "histogram".to_owned(),
                labels: "op=allgatherv".to_owned(),
            },
            TraceEvent::Metrics {
                rank: 0,
                scope: "served_requests_total".to_owned(),
                count: 42,
                sum: 0.0,
                buckets: Vec::new(),
                kind: "counter".to_owned(),
                labels: "op=ingest;outcome=ok".to_owned(),
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_event() {
        for event in sample_events() {
            let line = event.to_jsonl();
            let back = TraceEvent::from_jsonl(&line).unwrap();
            // Infinity maps through 1e9999 and compares equal; NaN
            // would not, but no event carries NaN here.
            assert_eq!(event, back, "line: {line}");
        }
    }

    #[test]
    fn jsonl_lines_are_flat_objects() {
        for event in sample_events() {
            let line = event.to_jsonl();
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(!line.contains('\n'));
            let doc = Json::parse(&line).unwrap();
            assert_eq!(doc.as_object().unwrap()[0].0, "event");
        }
    }

    #[test]
    fn pre_addendum_comm_lines_decode_with_unknown_schedule() {
        // Traces written before the `algorithm`/`rounds` addendum
        // carry neither field; they must still decode (as "unknown").
        let line = "{\"event\":\"comm\",\"rank\":2,\"op\":\"allgatherv\",\
                    \"peer\":-1,\"bytes\":4096,\"seconds\":0.0031}";
        let back = TraceEvent::from_jsonl(line).unwrap();
        assert_eq!(
            back,
            TraceEvent::Comm {
                rank: 2,
                op: "allgatherv".to_owned(),
                peer: -1,
                bytes: 4096,
                seconds: 0.0031,
                algorithm: String::new(),
                rounds: 0,
                lamport: 0,
                gen: 0,
            }
        );
    }

    #[test]
    fn pre_v4_metrics_lines_decode_with_defaults() {
        // A v3 metrics line lacks the `kind`/`labels` keys; both must
        // decode as empty.
        let line = "{\"event\":\"metrics\",\"rank\":0,\"scope\":\"comm.send\",\
                    \"count\":3,\"sum\":0.001,\"buckets\":[1,2]}";
        match TraceEvent::from_jsonl(line).unwrap() {
            TraceEvent::Metrics {
                scope,
                count,
                kind,
                labels,
                ..
            } => {
                assert_eq!(scope, "comm.send");
                assert_eq!(count, 3);
                assert_eq!(kind, "");
                assert_eq!(labels, "");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn memory_sink_records_in_order() {
        let sink = MemorySink::new();
        for e in sample_events() {
            sink.record(&e);
        }
        let n = sample_events().len();
        assert_eq!(sink.len(), n);
        assert_eq!(sink.events(), sample_events());
        assert_eq!(sink.take().len(), n);
        assert!(sink.is_empty());
    }

    #[test]
    fn null_sink_accepts_everything() {
        let sink = NullSink;
        for e in sample_events() {
            sink.record(&e);
        }
        sink.flush().unwrap();
    }

    #[test]
    fn jsonl_sink_writes_header_then_events() {
        let sink = JsonlSink::new(Vec::new());
        for e in sample_events() {
            sink.record(&e);
        }
        let buf = sink.into_inner().unwrap();
        let text = String::from_utf8(buf).unwrap();
        let (schema, events) = read_jsonl_trace(text.as_bytes()).unwrap();
        assert_eq!(schema, SCHEMA_VERSION);
        assert_eq!(events, sample_events());
    }

    #[test]
    fn trace_reader_streams_events() {
        let sink = JsonlSink::new(Vec::new());
        for e in sample_events() {
            sink.record(&e);
        }
        let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        let reader = TraceReader::new(text.as_bytes()).unwrap();
        assert_eq!(reader.schema(), SCHEMA_VERSION);
        let events: Vec<_> = reader.map(Result::unwrap).collect();
        assert_eq!(events, sample_events());
        // The retired CSV encoding is no longer a trace file.
        assert!(TraceReader::new("# fupermod-trace schema=4\nevent,iter\n".as_bytes()).is_err());
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = LatencyHistogram::new();
        h.record(0.0); // underflow (0 ns)
        h.record(1.5e-9); // 2 ns → bucket 1 (snapshot bin 2)
        h.record(1e-3); // 1e6 ns → bucket 19 (2^19 = 524288 ≤ 1e6 < 2^20)
        h.record(f64::NAN); // ignored
        h.record(-1.0); // ignored
        h.record(1e9); // 1e18 ns → overflow (>= 2^48)
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.buckets.len(), HISTOGRAM_BUCKETS + 2);
        assert_eq!(s.buckets[0], 1); // underflow
        assert_eq!(s.buckets[1 + 1], 1); // 2 ns in bucket k=1
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS + 1], 1); // overflow
        // 1e6 ns: floor(log2(1e6)) = 19
        assert_eq!(s.buckets[1 + 19], 1);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4);
        assert!(s.mean().unwrap() > 0.0);
        // The median sample (2nd of 4) is the 2 ns one → quantile
        // upper bound 4 ns.
        assert!((s.quantile(0.5).unwrap() - 4e-9).abs() < 1e-18);
        assert_eq!(s.quantile(1.0), Some(f64::INFINITY));
    }

    #[test]
    fn reader_rejects_foreign_and_future_traces() {
        assert!(read_jsonl_trace("".as_bytes()).is_err());
        assert!(read_jsonl_trace("{\"hello\":1}\n".as_bytes()).is_err());
        let future = format!(
            "{{\"trace\":\"fupermod\",\"schema\":{}}}\n",
            SCHEMA_VERSION + 1
        );
        assert!(read_jsonl_trace(future.as_bytes()).is_err());
        // Older (v1) traces stay readable.
        let v1 = "{\"trace\":\"fupermod\",\"schema\":1}\n\
                  {\"event\":\"dynamic_converged\",\"steps\":3,\"imbalance\":0.01}\n";
        let (schema, events) = read_jsonl_trace(v1.as_bytes()).unwrap();
        assert_eq!(schema, 1);
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn from_jsonl_rejects_malformed_lines() {
        assert!(TraceEvent::from_jsonl("not json").is_err());
        assert!(TraceEvent::from_jsonl("{\"event\":\"nope\"}").is_err());
        assert!(TraceEvent::from_jsonl("{\"event\":\"model_update\"}").is_err());
        // `null` is NaN for a float field, never an array element.
        assert!(TraceEvent::from_jsonl(
            "{\"event\":\"partition_step\",\"iter\":0,\"dist\":[null],\"imbalance\":0,\"units_moved\":0}"
        )
        .is_err());
        assert!(TraceEvent::from_jsonl("{\"event\":\"dynamic_converged\",\"steps\":1,\"imbalance\":0} x").is_err());
    }

    #[test]
    fn nesting_bombs_are_errors_not_stack_overflows() {
        let bomb = format!(
            "{{\"event\":\"partition_step\",\"dist\":{}{}}}",
            "[".repeat(200_000),
            "]".repeat(200_000)
        );
        let err = TraceEvent::from_jsonl(&bomb).unwrap_err().to_string();
        assert!(err.contains("nesting deeper than"), "{err}");
        let err = TraceReader::new(bomb.as_bytes()).err().expect("rejected").to_string();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn replay_rebuilds_models_from_trace() {
        use crate::model::PiecewiseModel;
        let events = vec![
            TraceEvent::ModelUpdate {
                rank: 0,
                d: 100,
                t: 1.0,
                reps: 3,
                points: 1,
            },
            TraceEvent::ModelUpdate {
                rank: 1,
                d: 200,
                t: 4.0,
                reps: 3,
                points: 1,
            },
            TraceEvent::PartitionStep {
                iter: 1,
                dist: vec![150, 150],
                imbalance: 0.5,
                units_moved: 50,
            },
            TraceEvent::ModelUpdate {
                rank: 0,
                d: 0,
                t: 0.0,
                reps: 1,
                points: 1,
            },
        ];
        let mut m0 = PiecewiseModel::new();
        let mut m1 = PiecewiseModel::new();
        let mut refs: Vec<&mut dyn Model> = vec![&mut m0, &mut m1];
        let applied = replay_into_models(&events, &mut refs).unwrap();
        assert_eq!(applied, 2);
        assert_eq!(m0.points().len(), 1);
        assert_eq!(m1.points().len(), 1);
        assert!((m0.points()[0].t - 1.0).abs() < 1e-12);

        // Rank out of range is an error.
        let mut only: Vec<&mut dyn Model> = vec![&mut m0];
        assert!(replay_into_models(&events, &mut only).is_err());
    }

    #[test]
    fn sinks_are_shareable_across_threads() {
        let sink = MemorySink::new();
        std::thread::scope(|scope| {
            for rank in 0..4 {
                let sink = &sink;
                scope.spawn(move || {
                    for rep in 0..25 {
                        sink.record(&TraceEvent::BenchmarkSample {
                            rank,
                            d: 10,
                            rep,
                            time: 0.001,
                            ci_rel: 0.5,
                        });
                    }
                });
            }
        });
        assert_eq!(sink.len(), 100);
    }
}
