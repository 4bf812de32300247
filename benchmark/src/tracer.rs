//! Harness-side span recording (choosing-metrics §4): spans are taken
//! around calls into each layer's public functions, kept in memory,
//! and written out once when the traced run ends. Nothing inside the
//! product is instrumented.
//!
//! A span's *self time* is its duration minus the part its children
//! cover. A workload's pass is the root span; only the spans of the
//! pass's own (timed) thread take part in the layer sum, so parallel
//! rank or client threads cannot push the attributed share past 1.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Layer name (a module of the repo, e.g. `core.partition`), or
    /// the workload name for a pass's root span.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// 0 for the timed thread; rank/client index otherwise.
    pub thread: u32,
    pub pass: u32,
}

/// The shared sink of a traced run. Disabled, it records nothing and a
/// [`Scope::span`] costs one branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recording handle for one thread of pass `pass`. Spans opened
    /// through it nest under `parent`.
    pub fn scope(&self, thread: u32, pass: u32, parent: Option<u32>) -> Scope<'_> {
        Scope {
            tracer: self,
            thread,
            pass,
            stack: parent.into_iter().collect(),
            local: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// All spans recorded so far, by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span sink poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Per-thread span stack; flushes into the [`Tracer`] on drop.
#[derive(Debug)]
pub struct Scope<'a> {
    tracer: &'a Tracer,
    thread: u32,
    pass: u32,
    stack: Vec<u32>,
    local: Vec<Span>,
}

impl<'a> Scope<'a> {
    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.tracer.enabled {
            return f(self);
        }
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.stack.last().copied();
        let start_ns = self.tracer.now_ns();
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.local.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: self.tracer.now_ns(),
            thread: self.thread,
            pass: self.pass,
        });
        out
    }

    /// A scope for a helper thread (another rank or client) of the same
    /// pass: its spans nest under the innermost span open here.
    pub fn helper(&self, thread: u32) -> Scope<'a> {
        self.tracer
            .scope(thread, self.pass, self.stack.last().copied())
    }
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        if !self.local.is_empty() {
            if let Ok(mut sink) = self.tracer.spans.lock() {
                sink.append(&mut self.local);
            }
        }
    }
}

/// Self time per layer over the timed thread's spans of the given
/// passes, in seconds, plus the root spans' total wall and self time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Attribution {
    /// Σ duration of the root (pass) spans.
    pub pass_wall_s: f64,
    /// Root self time: pass wall no named layer span covers.
    pub unattributed_s: f64,
    /// Layer name → Σ self time, seconds.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Attribution {
    pub fn of(spans: &[Span]) -> Self {
        let timed: Vec<&Span> = spans.iter().filter(|s| s.thread == 0).collect();
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &timed {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out = Self::default();
        for s in &timed {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)) as f64 * 1e-9;
            if s.parent.is_none() {
                out.pass_wall_s += dur as f64 * 1e-9;
                out.unattributed_s += own;
            } else {
                *out.layers.entry(s.name).or_default() += own;
            }
        }
        out
    }

    pub fn unattributed_share(&self) -> f64 {
        if self.pass_wall_s > 0.0 {
            self.unattributed_s / self.pass_wall_s
        } else {
            0.0
        }
    }

    /// Moves `seconds` of `from`'s self time to `to` — a nested cost
    /// the harness cannot span (it runs inside one public call) and
    /// has *computed* from a probe rate × the workload's op count.
    /// Never moves more than `from` has.
    pub fn reassign_computed(&mut self, from: &'static str, to: &'static str, seconds: f64) {
        let Some(have) = self.layers.get_mut(from) else {
            return;
        };
        let moved = seconds.clamp(0.0, *have);
        *have -= moved;
        *self.layers.entry(to).or_default() += moved;
    }

    /// The layer with the largest self time.
    pub fn top(&self) -> Option<(&'static str, f64)> {
        self.layers
            .iter()
            .map(|(&k, &v)| (k, v))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite self times"))
    }
}

/// Renders spans as the `trace.json` document: host (wall-clock)
/// nanoseconds throughout; simulated time never appears in spans.
pub fn spans_to_json(workload: &str, spans: &[Span]) -> String {
    let mut s = format!("{{\"workload\":\"{workload}\",\"clock\":\"host_ns\",\"spans\":[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let parent = sp
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = write!(
            s,
            "\n{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{},\"pass\":{}}}",
            sp.id, sp.name, sp.start_ns, sp.end_ns, sp.thread, sp.pass
        );
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, a: u64, b: u64, thread: u32) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: a,
            end_ns: b,
            thread,
            pass: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_on_the_timed_thread() {
        let spans = vec![
            span(0, None, "w", 0, 1_000_000_000, 0),
            span(1, Some(0), "core.builder", 0, 600_000_000, 0),
            span(2, Some(1), "core.benchmark", 100_000_000, 500_000_000, 0),
            span(3, Some(0), "core.partition", 600_000_000, 950_000_000, 0),
            // a helper thread's span never enters the sum
            span(4, Some(0), "runtime.net", 0, 1_000_000_000, 1),
        ];
        let mut a = Attribution::of(&spans);
        assert!((a.pass_wall_s - 1.0).abs() < 1e-12);
        assert!((a.unattributed_share() - 0.05).abs() < 1e-9);
        assert!((a.layers["core.builder"] - 0.2).abs() < 1e-9);
        assert!((a.layers["core.benchmark"] - 0.4).abs() < 1e-9);
        assert!(!a.layers.contains_key("runtime.net"));
        assert_eq!(a.top().map(|t| t.0), Some("core.benchmark"));
        a.reassign_computed("core.partition", "num.interp", 1.0);
        assert_eq!(a.layers["core.partition"], 0.0);
        assert!((a.layers["num.interp"] - 0.35).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let got = t.scope(0, 0, None).span("x", |s| s.span("y", |_| 7));
        assert_eq!(got, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_get_their_parent() {
        let t = Tracer::new(true);
        {
            let mut scope = t.scope(0, 3, None);
            scope.span("root", |s| s.span("child", |_| ()));
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, Some(root.id));
        assert_eq!((root.parent, root.pass), (None, 3));
        assert!(spans_to_json("w", &spans).contains("\"name\":\"child\""));
    }
}
