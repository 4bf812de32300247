//! Live telemetry registry: named, label-set-keyed counters, gauges
//! and latency histograms that can be snapshotted **at any time** —
//! not just at process exit — and exported both as schema-v4
//! `metrics` trace events and as Prometheus text exposition format
//! (the `/metrics` endpoint of `fupermod_served`).
//!
//! The hot path is lock-free: recording into a registered handle is
//! a couple of relaxed atomic operations, and a *disabled* registry
//! costs exactly one relaxed boolean load per record, so
//! untelemetered runs pay nothing measurable (docs/OBSERVABILITY.md
//! §9.1). Registration takes a mutex, but is
//! expected once per (name, label-set) at startup; handles are cheap
//! `Arc` clones that remain valid for the registry's lifetime.
//!
//! Naming follows the Prometheus conventions: `snake_case` metric
//! names with a unit suffix (`_total` for counters,
//! `_duration_seconds` for latency histograms), label keys
//! `[a-zA-Z_][a-zA-Z0-9_]*`. The process-wide [`global`] registry
//! starts **disabled** and libraries leave it that way;
//! `fupermod_served` owns a per-store registry that is always
//! enabled, and every binary enables the global one for the length of
//! its run through [`open_run_trace`] / [`finish_run_trace`].

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::trace::{
    fmt_float, HistogramSnapshot, JsonlSink, LatencyHistogram, TraceEvent, TraceSink, COMM_OPS,
};

/// Fault tags fed to [`record_fault`] by the runtime's fault
/// machinery (mirrors the `kind` field of `fault` trace events).
const FAULT_KINDS: [&str; 7] = [
    "delay",
    "drop",
    "retry",
    "straggler",
    "death",
    "timeout",
    "degraded",
];

/// What a metric family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `u64` (`*_total`).
    Counter,
    /// Arbitrary `f64` that can go up and down.
    Gauge,
    /// The 48-bin log-bucketed [`LatencyHistogram`].
    Histogram,
}

impl MetricKind {
    /// Prometheus `# TYPE` tag.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
struct CounterInner {
    enabled: Arc<AtomicBool>,
    value: AtomicU64,
}

#[derive(Debug)]
struct GaugeInner {
    enabled: Arc<AtomicBool>,
    bits: AtomicU64,
}

#[derive(Debug)]
struct HistogramInner {
    enabled: Arc<AtomicBool>,
    hist: LatencyHistogram,
}

/// Handle to one registered counter series. Cloning is cheap and all
/// clones share the same underlying atomic.
#[derive(Debug, Clone)]
pub struct Counter(Arc<CounterInner>);

impl Counter {
    /// Adds 1; a single relaxed load when the registry is disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`; a single relaxed load when the registry is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.0.enabled.load(Ordering::Relaxed) {
            self.0.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }
}

/// Handle to one registered gauge series (an `f64` stored as bits).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<GaugeInner>);

impl Gauge {
    /// Sets the gauge; a single relaxed load when disabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if self.0.enabled.load(Ordering::Relaxed) {
            self.0.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.bits.load(Ordering::Relaxed))
    }
}

/// Handle to one registered latency-histogram series.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one latency in seconds; a single relaxed load when
    /// disabled.
    #[inline]
    pub fn record(&self, seconds: f64) {
        if self.0.enabled.load(Ordering::Relaxed) {
            self.0.hist.record(seconds);
        }
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.hist.snapshot()
    }
}

#[derive(Debug)]
enum SeriesValue {
    Counter(Arc<CounterInner>),
    Gauge(Arc<GaugeInner>),
    Histogram(Arc<HistogramInner>),
}

#[derive(Debug)]
struct Series {
    /// Label pairs sorted by key (the canonical order everywhere:
    /// registration key, exposition, trace export).
    labels: Vec<(String, String)>,
    value: SeriesValue,
}

#[derive(Debug)]
struct Family {
    kind: MetricKind,
    help: String,
    /// Keyed by the canonical `k=v;k=v` label string.
    series: BTreeMap<String, Series>,
}

/// A registry of metric families. See the module docs for the
/// threading and gating model.
#[derive(Debug)]
pub struct Registry {
    enabled: Arc<AtomicBool>,
    families: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// An empty registry. `enabled` controls whether handles record
    /// at all (flippable later via [`Registry::set_enabled`]).
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled: Arc::new(AtomicBool::new(enabled)),
            families: Mutex::new(BTreeMap::new()),
        }
    }

    /// Enables or disables every handle of this registry at once.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether handles currently record.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Registers (or retrieves) the counter `name{labels}`.
    /// Registration is idempotent: the same (name, label-set) always
    /// yields a handle to the same underlying atomic, and the first
    /// `help` text wins.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already registered with a different
    /// metric kind, or on a malformed name/label key — both are
    /// programmer errors, caught in tests.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let series = self.series(name, help, labels, MetricKind::Counter, || {
            SeriesValue::Counter(Arc::new(CounterInner {
                enabled: Arc::clone(&self.enabled),
                value: AtomicU64::new(0),
            }))
        });
        match series {
            SeriesValue::Counter(inner) => Counter(inner),
            _ => unreachable!("series() checked the kind"),
        }
    }

    /// Registers (or retrieves) the gauge `name{labels}`. Same
    /// semantics as [`Registry::counter`]. A fresh gauge reads `0`.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let series = self.series(name, help, labels, MetricKind::Gauge, || {
            SeriesValue::Gauge(Arc::new(GaugeInner {
                enabled: Arc::clone(&self.enabled),
                bits: AtomicU64::new(0.0f64.to_bits()),
            }))
        });
        match series {
            SeriesValue::Gauge(inner) => Gauge(inner),
            _ => unreachable!("series() checked the kind"),
        }
    }

    /// Registers (or retrieves) the latency histogram `name{labels}`.
    /// Same semantics as [`Registry::counter`].
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        let series = self.series(name, help, labels, MetricKind::Histogram, || {
            SeriesValue::Histogram(Arc::new(HistogramInner {
                enabled: Arc::clone(&self.enabled),
                hist: LatencyHistogram::new(),
            }))
        });
        match series {
            SeriesValue::Histogram(inner) => Histogram(inner),
            _ => unreachable!("series() checked the kind"),
        }
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        make: impl FnOnce() -> SeriesValue,
    ) -> SeriesValue {
        assert!(valid_name(name), "invalid metric name '{name}'");
        for (k, _) in labels {
            assert!(valid_label_key(k), "invalid label key '{k}' on '{name}'");
        }
        let mut sorted: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        sorted.sort();
        let key = canonical_labels(&sorted);

        let mut families = self.families.lock().expect("telemetry registry poisoned");
        let family = families.entry(name.to_owned()).or_insert_with(|| Family {
            kind,
            help: help.to_owned(),
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric '{name}' already registered as a {}, not a {}",
            family.kind.as_str(),
            kind.as_str()
        );
        let series = family.series.entry(key).or_insert_with(|| Series {
            labels: sorted,
            value: make(),
        });
        match &series.value {
            SeriesValue::Counter(inner) => SeriesValue::Counter(Arc::clone(inner)),
            SeriesValue::Gauge(inner) => SeriesValue::Gauge(Arc::clone(inner)),
            SeriesValue::Histogram(inner) => SeriesValue::Histogram(Arc::clone(inner)),
        }
    }

    /// Point-in-time copy of every registered series, families sorted
    /// by name and series by canonical label order. The snapshot is
    /// internally consistent per series (each counter/gauge is one
    /// atomic load; histograms snapshot bin-by-bin as
    /// [`LatencyHistogram::snapshot`] does).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let families = self.families.lock().expect("telemetry registry poisoned");
        let families = families
            .iter()
            .map(|(name, family)| FamilySnapshot {
                name: name.clone(),
                help: family.help.clone(),
                kind: family.kind,
                series: family
                    .series
                    .values()
                    .map(|series| SeriesSnapshot {
                        labels: series.labels.clone(),
                        value: match &series.value {
                            SeriesValue::Counter(inner) => {
                                SampleValue::Counter(inner.value.load(Ordering::Relaxed))
                            }
                            SeriesValue::Gauge(inner) => SampleValue::Gauge(f64::from_bits(
                                inner.bits.load(Ordering::Relaxed),
                            )),
                            SeriesValue::Histogram(inner) => {
                                SampleValue::Histogram(inner.hist.snapshot())
                            }
                        },
                    })
                    .collect(),
            })
            .collect();
        RegistrySnapshot { families }
    }
}

/// One sampled value in a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram snapshot.
    Histogram(HistogramSnapshot),
}

/// One series (label-set) of a family in a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: SampleValue,
}

/// One metric family in a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySnapshot {
    /// Metric name.
    pub name: String,
    /// Help text (first registration wins).
    pub help: String,
    /// Family kind.
    pub kind: MetricKind,
    /// Series in canonical label order.
    pub series: Vec<SeriesSnapshot>,
}

/// A point-in-time copy of a whole [`Registry`], ready to render as
/// Prometheus exposition text or export as schema-v4 trace events.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrySnapshot {
    /// Families sorted by name.
    pub families: Vec<FamilySnapshot>,
}

impl RegistrySnapshot {
    /// Looks up one sampled series by family name and exact (sorted)
    /// label set — the one-source-of-truth accessor `stats`-style
    /// consumers use.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SampleValue> {
        let mut sorted: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        sorted.sort();
        self.families
            .iter()
            .find(|f| f.name == name)?
            .series
            .iter()
            .find(|s| s.labels == sorted)
            .map(|s| &s.value)
    }

    /// Sum of a counter family across all label sets (0 when the
    /// family is absent or not a counter family).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.families
            .iter()
            .filter(|f| f.name == name)
            .flat_map(|f| &f.series)
            .map(|s| match s.value {
                SampleValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP`/`# TYPE` per family, one sample line
    /// per series with labels in canonical sorted order, histograms
    /// expanded to cumulative `_bucket{le=...}` lines (upper bounds
    /// in seconds) plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        for family in &self.families {
            if !family.help.is_empty() {
                out.push_str("# HELP ");
                out.push_str(&family.name);
                out.push(' ');
                out.push_str(&escape_help(&family.help));
                out.push('\n');
            }
            out.push_str("# TYPE ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(family.kind.as_str());
            out.push('\n');
            for series in &family.series {
                match &series.value {
                    SampleValue::Counter(v) => {
                        out.push_str(&family.name);
                        push_labels(&mut out, &series.labels, None);
                        out.push(' ');
                        out.push_str(&v.to_string());
                        out.push('\n');
                    }
                    SampleValue::Gauge(v) => {
                        out.push_str(&family.name);
                        push_labels(&mut out, &series.labels, None);
                        out.push(' ');
                        out.push_str(&fmt_sample(*v));
                        out.push('\n');
                    }
                    SampleValue::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (i, b) in h.buckets.iter().enumerate() {
                            cumulative += b;
                            let le = if i < h.buckets.len() - 1 {
                                fmt_sample(HistogramSnapshot::bin_upper_seconds(i))
                            } else {
                                "+Inf".to_owned()
                            };
                            out.push_str(&family.name);
                            out.push_str("_bucket");
                            push_labels(&mut out, &series.labels, Some(&le));
                            out.push(' ');
                            out.push_str(&cumulative.to_string());
                            out.push('\n');
                        }
                        out.push_str(&family.name);
                        out.push_str("_sum");
                        push_labels(&mut out, &series.labels, None);
                        out.push(' ');
                        out.push_str(&fmt_sample(h.sum_seconds));
                        out.push('\n');
                        out.push_str(&family.name);
                        out.push_str("_count");
                        push_labels(&mut out, &series.labels, None);
                        out.push(' ');
                        out.push_str(&h.count.to_string());
                        out.push('\n');
                    }
                }
            }
        }
        out
    }

    /// Exports every series as one schema-v4 [`TraceEvent::Metrics`]
    /// each (scope = family name, `kind`/`labels` filled in; counter
    /// value in `count`, gauge value in `sum`), and returns how many
    /// events were written. Label values are sanitised to escape-free
    /// tags (`,`/`;`/`=`/quotes/newlines become `_`) so the `labels`
    /// field stays one unambiguous `k=v;k=v` string (and one CSV cell
    /// in `fupermod_tracetool export --format csv`).
    pub fn export_trace_events(&self, rank: usize, sink: &dyn TraceSink) -> usize {
        let mut emitted = 0;
        for family in &self.families {
            for series in &family.series {
                let labels = trace_labels(&series.labels);
                let event = match &series.value {
                    SampleValue::Counter(v) => TraceEvent::Metrics {
                        rank,
                        scope: family.name.clone(),
                        count: *v,
                        sum: 0.0,
                        buckets: Vec::new(),
                        kind: "counter".to_owned(),
                        labels,
                    },
                    SampleValue::Gauge(v) => TraceEvent::Metrics {
                        rank,
                        scope: family.name.clone(),
                        count: 0,
                        sum: *v,
                        buckets: Vec::new(),
                        kind: "gauge".to_owned(),
                        labels,
                    },
                    SampleValue::Histogram(h) => TraceEvent::Metrics {
                        rank,
                        scope: family.name.clone(),
                        count: h.count,
                        sum: h.sum_seconds,
                        buckets: h.buckets.clone(),
                        kind: "histogram".to_owned(),
                        labels,
                    },
                };
                sink.record(&event);
                emitted += 1;
            }
        }
        emitted
    }
}

/// Metric names: `[a-zA-Z_:][a-zA-Z0-9_:]*` (Prometheus grammar).
fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Label keys: `[a-zA-Z_][a-zA-Z0-9_]*`.
fn valid_label_key(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Canonical `k=v;k=v` encoding of a sorted label list (registry key
/// and, after sanitisation, the trace-event `labels` field).
fn canonical_labels(sorted: &[(String, String)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out
}

/// The trace-event `labels` field: canonical encoding with values
/// sanitised to escape-free tags (see `trace::push_str`).
fn trace_labels(sorted: &[(String, String)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        out.push_str(k);
        out.push('=');
        for c in v.chars() {
            out.push(match c {
                ',' | ';' | '=' | '"' | '\\' | '\n' => '_',
                other => other,
            });
        }
    }
    out
}

/// Appends `{k="v",...}` (or nothing for an empty, `le`-less set) to
/// `out`, escaping label values per the exposition spec
/// (`\\` → `\\\\`, `"` → `\"`, newline → `\n`). The `le` bound, when
/// given, is appended last.
fn push_labels(out: &mut String, labels: &[(String, String)], le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
}

/// Escapes a label value per the exposition format: backslash, double
/// quote and newline.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escapes `# HELP` text: backslash and newline (quotes are legal).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Formats one sample value: shortest-round-trip for finite floats,
/// `+Inf`/`-Inf`/`NaN` otherwise (exposition spellings).
fn fmt_sample(v: f64) -> String {
    if v.is_finite() {
        fmt_float(v)
    } else if v.is_nan() {
        "NaN".to_owned()
    } else if v > 0.0 {
        "+Inf".to_owned()
    } else {
        "-Inf".to_owned()
    }
}

/// The process-wide telemetry bundle: the registry plus
/// pre-registered hot-path handles (per-op communication latency,
/// per-kind fault counters, the measurement/partitioning run totals)
/// so the record paths never take the registration mutex.
struct GlobalTelemetry {
    registry: Registry,
    comm: Vec<Histogram>,
    faults: Vec<Counter>,
    run: RunTotals,
}

/// Handles for what the measurement and partitioning machinery counts
/// over a run; the exit line (`run_summary`) reads them back.
pub(crate) struct RunTotals {
    /// `fupermod_kernels_executed_total`.
    pub(crate) kernels_executed: Counter,
    /// `fupermod_bench_reps_total`.
    pub(crate) bench_reps: Counter,
    /// `fupermod_outliers_rejected_total`.
    pub(crate) outliers_rejected: Counter,
    /// `fupermod_repartitions_total`.
    pub(crate) repartitions: Counter,
    /// `fupermod_units_moved_total`.
    pub(crate) units_moved: Counter,
    /// `fupermod_bench_rep_seconds`.
    pub(crate) bench_rep_seconds: Histogram,
}

fn global_telemetry() -> &'static GlobalTelemetry {
    static GLOBAL: OnceLock<GlobalTelemetry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        // Disabled by default: unscraped, untraced runs pay one
        // relaxed load per record and nothing else.
        let registry = Registry::new(false);
        let comm = COMM_OPS
            .iter()
            .map(|op| {
                registry.histogram(
                    "fupermod_comm_duration_seconds",
                    "Communication operation latency by collective/point-to-point op.",
                    &[("op", op)],
                )
            })
            .collect();
        let faults = FAULT_KINDS
            .iter()
            .map(|kind| {
                registry.counter(
                    "fupermod_faults_total",
                    "Faults injected or observed by the runtime, by kind.",
                    &[("kind", kind)],
                )
            })
            .collect();
        let total = |name, help| registry.counter(name, help, &[]);
        let run = RunTotals {
            kernels_executed: total(
                "fupermod_kernels_executed_total",
                "Kernel measurement sessions (contexts) executed.",
            ),
            bench_reps: total(
                "fupermod_bench_reps_total",
                "Benchmark repetitions across all measurements.",
            ),
            outliers_rejected: total(
                "fupermod_outliers_rejected_total",
                "Samples rejected by MAD outlier filtering.",
            ),
            repartitions: total(
                "fupermod_repartitions_total",
                "Partitioner invocations that produced a distribution.",
            ),
            units_moved: total(
                "fupermod_units_moved_total",
                "Computation units that changed owner across all dynamic steps.",
            ),
            bench_rep_seconds: registry.histogram(
                "fupermod_bench_rep_seconds",
                "Benchmark repetition time.",
                &[],
            ),
        };
        GlobalTelemetry {
            registry,
            comm,
            faults,
            run,
        }
    })
}

/// The process-wide registry (starts disabled; binaries flip it on
/// through [`open_run_trace`], tests via [`Registry::set_enabled`]).
pub fn global() -> &'static Registry {
    &global_telemetry().registry
}

/// The global run-total handles (one relaxed load per record while
/// the global registry is disabled).
pub(crate) fn run_totals() -> &'static RunTotals {
    &global_telemetry().run
}

/// One-line human-readable summary of the global run totals, for
/// process-exit reporting.
fn run_summary() -> String {
    let t = run_totals();
    format!(
        "fupermod metrics: kernels={} reps={} outliers_rejected={} repartitions={} units_moved={}",
        t.kernels_executed.get(),
        t.bench_reps.get(),
        t.outliers_rejected.get(),
        t.repartitions.get(),
        t.units_moved.get()
    )
}

/// Starts a binary's run: enables the global registry — traced or
/// not, so the exit summary counts either way — and creates the JSONL
/// trace sink when a path was asked for.
///
/// # Errors
///
/// Propagates the file-creation error.
pub fn open_run_trace(path: Option<&Path>) -> io::Result<Option<Arc<dyn TraceSink>>> {
    global().set_enabled(true);
    path.map(|p| JsonlSink::create(p).map(|sink| Arc::new(sink) as Arc<dyn TraceSink>))
        .transpose()
}

/// Ends a binary's run: exports the global registry snapshot into the
/// sink as `metrics` events and flushes it (when there is one), then
/// returns the `run_summary` line for the caller to print.
///
/// # Errors
///
/// Returns the first deferred trace write error.
pub fn finish_run_trace(sink: Option<&dyn TraceSink>) -> io::Result<String> {
    if let Some(sink) = sink {
        global().snapshot().export_trace_events(0, sink);
        sink.flush()?;
    }
    Ok(run_summary())
}

/// Records one communication-operation latency into the global
/// `fupermod_comm_duration_seconds{op=...}` histogram. Unknown ops
/// are ignored; one relaxed load when the global registry is
/// disabled.
#[inline]
pub fn record_comm(op: &str, seconds: f64) {
    let g = global_telemetry();
    if !g.registry.enabled() {
        return;
    }
    if let Some(i) = COMM_OPS.iter().position(|&o| o == op) {
        g.comm[i].record(seconds);
    }
}

/// Counts one fault into the global `fupermod_faults_total{kind=...}`
/// counter. Unknown kinds are ignored; one relaxed load when the
/// global registry is disabled.
#[inline]
pub fn record_fault(kind: &str) {
    let g = global_telemetry();
    if !g.registry.enabled() {
        return;
    }
    if let Some(i) = FAULT_KINDS.iter().position(|&k| k == kind) {
        g.faults[i].inc();
    }
}

/// Why the numerical partitioner left Newton for its fixed-point
/// fallback: the `reason` label of `fupermod_numerical_fallbacks_total`.
const NUMERICAL_FALLBACK_REASONS: [&str; 3] = ["singular", "no_convergence", "invalid"];

/// The numerical partitioner's series, registered on first use by an
/// enabled registry — a run that never solves numerically exports none.
struct NumericalCounters {
    fallbacks: Vec<Counter>,
    dense_steps: Counter,
}

fn numerical_counters() -> &'static NumericalCounters {
    static COUNTERS: OnceLock<NumericalCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| NumericalCounters {
        fallbacks: NUMERICAL_FALLBACK_REASONS
            .iter()
            .map(|reason| {
                global().counter(
                    "fupermod_numerical_fallbacks_total",
                    "Numerical partitions whose Newton solve failed into the fixed-point fallback, by reason.",
                    &[("reason", reason)],
                )
            })
            .collect(),
        dense_steps: global().counter(
            "fupermod_numerical_dense_steps_total",
            "Newton steps the structured solve declined to dense elimination.",
            &[],
        ),
    })
}

/// Counts one Newton failure of the numerical partitioner into
/// `fupermod_numerical_fallbacks_total{reason}` (one of
/// `NUMERICAL_FALLBACK_REASONS`); one relaxed load when the global
/// registry is disabled.
#[inline]
pub(crate) fn record_numerical_fallback(reason: &str) {
    if !global().enabled() {
        return;
    }
    if let Some(i) = NUMERICAL_FALLBACK_REASONS.iter().position(|&r| r == reason) {
        numerical_counters().fallbacks[i].inc();
    }
}

/// Counts one Newton step the structured solve declined into
/// `fupermod_numerical_dense_steps_total`; one relaxed load when the
/// global registry is disabled.
#[inline]
pub(crate) fn record_numerical_dense_step() {
    if global().enabled() {
        numerical_counters().dense_steps.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MemorySink;

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new(false);
        let c = r.counter("x_total", "", &[]);
        let g = r.gauge("x_gauge", "", &[]);
        let h = r.histogram("x_seconds", "", &[]);
        c.inc();
        g.set(3.5);
        h.record(1e-6);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.snapshot().count, 0);
        r.set_enabled(true);
        c.add(2);
        g.set(3.5);
        h.record(1e-6);
        assert_eq!(c.get(), 2);
        assert_eq!(g.get(), 3.5);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn registration_is_idempotent_and_kind_checked() {
        let r = Registry::new(true);
        let a = r.counter("req_total", "requests", &[("op", "get")]);
        let b = r.counter("req_total", "ignored second help", &[("op", "get")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2); // same underlying atomic
        let other = r.counter("req_total", "", &[("op", "put")]);
        assert_eq!(other.get(), 0);
        let snap = r.snapshot();
        assert_eq!(snap.families.len(), 1);
        assert_eq!(snap.families[0].help, "requests");
        assert_eq!(snap.families[0].series.len(), 2);
        assert_eq!(snap.counter_total("req_total"), 2);
        assert_eq!(
            snap.find("req_total", &[("op", "get")]),
            Some(&SampleValue::Counter(2))
        );
        assert_eq!(snap.find("req_total", &[("op", "missing")]), None);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new(true);
        let _c = r.counter("dual_total", "", &[]);
        let _g = r.gauge("dual_total", "", &[]);
    }

    #[test]
    fn labels_are_canonically_sorted() {
        let r = Registry::new(true);
        let a = r.counter("s_total", "", &[("b", "2"), ("a", "1")]);
        let b = r.counter("s_total", "", &[("a", "1"), ("b", "2")]);
        a.inc();
        assert_eq!(b.get(), 1); // same series either way round
        let snap = r.snapshot();
        assert_eq!(
            snap.families[0].series[0].labels,
            vec![("a".to_owned(), "1".to_owned()), ("b".to_owned(), "2".to_owned())]
        );
    }

    #[test]
    fn trace_export_emits_v4_events() {
        let r = Registry::new(true);
        r.counter("c_total", "", &[("op", "a;b=c")]).add(7);
        r.gauge("g_value", "", &[]).set(2.25);
        r.histogram("h_seconds", "", &[]).record(1e-6);
        let sink = MemorySink::new();
        let n = r.snapshot().export_trace_events(3, &sink);
        assert_eq!(n, 3);
        let events = sink.events();
        match &events[0] {
            TraceEvent::Metrics {
                rank,
                scope,
                count,
                kind,
                labels,
                buckets,
                ..
            } => {
                assert_eq!(*rank, 3);
                assert_eq!(scope, "c_total");
                assert_eq!(*count, 7);
                assert_eq!(kind, "counter");
                // `;`/`=` in the value sanitised for the wire.
                assert_eq!(labels, "op=a_b_c");
                assert!(buckets.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        match &events[1] {
            TraceEvent::Metrics {
                scope, sum, kind, ..
            } => {
                assert_eq!(scope, "g_value");
                assert_eq!(*sum, 2.25);
                assert_eq!(kind, "gauge");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Every exported event survives the wire encoding.
        for e in sink.events() {
            assert_eq!(TraceEvent::from_jsonl(&e.to_jsonl()).unwrap(), e);
        }
    }

    #[test]
    fn global_registry_feeds_comm_and_faults_when_enabled() {
        // The global registry is shared process-wide; leave it the
        // way we found it.
        let was = global().enabled();
        global().set_enabled(true);
        record_comm("send", 1e-6);
        record_comm("not-an-op", 1e-6); // ignored
        record_fault("retry");
        record_fault("not-a-kind"); // ignored
        let snap = global().snapshot();
        match snap
            .find("fupermod_comm_duration_seconds", &[("op", "send")])
            .unwrap()
        {
            SampleValue::Histogram(h) => assert!(h.count >= 1),
            other => panic!("unexpected {other:?}"),
        }
        match snap.find("fupermod_faults_total", &[("kind", "retry")]).unwrap() {
            SampleValue::Counter(v) => assert!(*v >= 1),
            other => panic!("unexpected {other:?}"),
        }
        // The run totals are registry series like any other, and the
        // exit line reads the same atomics.
        run_totals().units_moved.add(40);
        run_totals().bench_rep_seconds.record(1e-3);
        let snap = global().snapshot();
        assert!(snap.counter_total("fupermod_units_moved_total") >= 40);
        match snap.find("fupermod_bench_rep_seconds", &[]).unwrap() {
            SampleValue::Histogram(h) => assert!(h.count >= 1),
            other => panic!("unexpected {other:?}"),
        }
        let summary = run_summary();
        assert!(summary.starts_with("fupermod metrics: kernels="), "{summary}");
        assert!(!summary.ends_with("units_moved=0"), "{summary}");
        global().set_enabled(was);
    }
}
