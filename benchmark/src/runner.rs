//! One workload in this process: the contract's invocation
//! (`--workload W --seed N --seconds S --trace 0|1`). The suite
//! commands (`run`, `trace`, `selfcheck`) spawn it once per workload
//! and set, so `peak_rss_mib` and `cpu_s` are per workload.
//!
//! Untraced (`--trace 0`): several set-ups (median → `setup_s`), each
//! ending in an untimed warm-up pass, then timed passes for
//! `--seconds`; prints the end-to-end metrics (timings: the best pass).
//! Traced (`--trace 1`): one set-up, two untraced passes (the
//! tracing-overhead base), then passes with span recording on, then the
//! layer probes; prints the per-layer metrics and writes
//! `benchmark/out/trace-W.json`. End-to-end metrics are never taken
//! from the traced run.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::goldens::Golden;
use crate::results::{json_array, json_f64};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, Summary};
use crate::tracer::{spans_to_json, Attribution, Tracer};
use crate::workloads::{self, Checks, PassOutput, ProbeCtx, Workload};
use crate::{out_dir, sys};

/// A hang is a failure, not a stall: past this the process reports
/// nothing and exits non-zero.
const WATCHDOG: Duration = Duration::from_secs(120);
/// Fewer timed passes than this make no median.
const MIN_PASSES: usize = 3;
/// The traced run fails above this unattributed share of pass wall.
pub const MAX_UNATTRIBUTED: f64 = 0.05;

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set-ups per untraced run (each with its warm-up pass).
    pub setups: usize,
    /// Fixed timed-pass count; `None` measures for `seconds`.
    pub passes: Option<usize>,
}

/// Wall and CPU seconds of one timed pass, with what it produced.
struct Timed {
    wall_s: f64,
    cpu_s: f64,
    out: PassOutput,
}

fn timed_pass(
    w: &mut dyn Workload,
    tracer: &Tracer,
    root: Option<&'static str>,
    pass: u32,
) -> Timed {
    w.prepare();
    let mut scope = tracer.scope(0, pass, None);
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let out = match root {
        Some(name) => scope.span(name, |s| w.pass(s)),
        None => w.pass(&mut scope),
    };
    Timed {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: sys::cpu_seconds() - cpu0,
        out,
    }
}

/// `&'static` name of a known workload (span names are static).
fn static_name(name: &str) -> Option<&'static str> {
    crate::spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .find(|&n| n == name)
}

fn spawn_watchdog(workload: String) {
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG);
        eprintln!("watchdog: workload {workload} exceeded {WATCHDOG:?}; every op counts as failed");
        std::process::exit(3);
    });
}

/// Folds one pass's checks into the run's and holds the pass to the
/// first pass of the seed: every pass must produce bit-equal outputs.
fn absorb(checks: &mut Checks, reference: &PassOutput, out: &PassOutput, what: &str) {
    checks.merge(out.checks.clone());
    checks.op(
        out.fingerprint == reference.fingerprint
            && out.virtual_s.to_bits() == reference.virtual_s.to_bits(),
        || format!("{what} is not bit-equal to the first pass of this seed"),
    );
}

/// The run's reading of a per-pass timing: the fastest pass. Noise on
/// a shared host only ever adds time — steal, a busy sibling
/// hyperthread, an unlucky thread placement that lasts a whole pass —
/// so the floor is the property of the code, and it repeats from run
/// to run where the median of the same passes does not (README, "Run
/// protocol"). The per-pass samples still go out in the detail line.
fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn result_line(checks: &Checks, metrics: &[(&str, &str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_f64(*value)
        );
    }
    s.push_str("}}");
    s
}

/// Runs the workload and prints the result. `Err` is a run that could
/// not happen at all (unknown workload); failed checks are `Ok` with
/// `correct: false` in the printed line.
pub fn run(opts: &RunOpts) -> Result<bool, String> {
    let name = static_name(&opts.workload)
        .ok_or_else(|| format!("unknown workload '{}' (see `list`)", opts.workload))?;
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("cannot create {:?}: {e}", out_dir()))?;
    spawn_watchdog(opts.workload.clone());
    if opts.trace {
        run_traced(name, opts)
    } else {
        run_untraced(name, opts)
    }
}

/// Set-up plus warm-up pass; returns the booted workload, its warm-up
/// output and the seconds the whole thing took.
fn set_up(name: &str, seed: u64, tracer: &Tracer) -> (Box<dyn Workload>, PassOutput, f64) {
    let t0 = Instant::now();
    let mut scope = tracer.scope(0, 0, None);
    let mut w = workloads::setup(name, seed, &mut scope).expect("known workload");
    w.prepare();
    let warm = w.pass(&mut scope);
    (w, warm, t0.elapsed().as_secs_f64())
}

fn check_golden(checks: &mut Checks, name: &str, seed: u64, warm: &PassOutput) {
    if seed != 1 {
        return;
    }
    let got = Golden::of(warm);
    match Golden::load(name) {
        Some(want) => checks.op(got == want, || {
            format!("seed-1 golden mismatch: got {got:?}, goldens.json has {want:?}")
        }),
        None => checks.op(false, || format!("goldens.json has no entry for {name}")),
    }
}

fn run_untraced(name: &'static str, opts: &RunOpts) -> Result<bool, String> {
    let tracer = Tracer::new(false);
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut booted: Option<(Box<dyn Workload>, PassOutput)> = None;
    for i in 0..opts.setups.max(1) {
        let first = booted.take().map(|(old, first)| {
            old.teardown();
            first
        });
        let (w, warm, secs) = set_up(name, opts.seed, &tracer);
        setup_s.push(secs);
        // Every set-up's warm-up pass is held to the first one's.
        booted = Some(match first {
            Some(first) => {
                absorb(
                    &mut checks,
                    &first,
                    &warm,
                    &format!("warm-up pass of set-up {}", i + 1),
                );
                (w, first)
            }
            None => {
                checks.merge(warm.checks.clone());
                (w, warm)
            }
        });
    }
    let (mut w, warm) = booted.expect("at least one set-up");
    check_golden(&mut checks, name, opts.seed, &warm);

    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut ops = Vec::new();
    let mut op_p50s = Vec::new();
    let started = Instant::now();
    loop {
        let t = timed_pass(w.as_mut(), &tracer, None, walls.len() as u32 + 1);
        walls.push(t.wall_s);
        cpus.push(t.cpu_s);
        absorb(
            &mut checks,
            &warm,
            &t.out,
            &format!("timed pass {}", walls.len()),
        );
        op_p50s.push(median(&t.out.op_us));
        ops.extend(t.out.op_us);
        let done = match opts.passes {
            Some(n) => walls.len() >= n,
            None => walls.len() >= MIN_PASSES && started.elapsed().as_secs_f64() >= opts.seconds,
        };
        if done {
            break;
        }
    }
    w.teardown();

    let values = [
        median(&setup_s),
        best(&walls),
        best(&cpus),
        best(&op_p50s),
        sys::peak_rss_mib(),
    ];
    for note in &checks.notes {
        eprintln!("FAILED {name}: {note}");
    }
    // The suite commands read the per-pass samples from this line.
    let op_summary = Summary::of(&ops);
    println!(
        "# detail {{\"workload\":\"{name}\",\"seed\":{},\"setup_s\":{},\"wall_s\":{},\"cpu_s\":{},\"op_p50_us\":{},\"op_us\":{{\"q1\":{},\"median\":{},\"q3\":{},\"n\":{}}},\"virtual_s\":{},\"virtual_s_bits\":\"{:#018x}\",\"fingerprint\":\"{:#018x}\",\"exact\":{{{}}}}}",
        opts.seed,
        json_array(&setup_s),
        json_array(&walls),
        json_array(&cpus),
        json_array(&op_p50s),
        op_summary.q1,
        op_summary.median,
        op_summary.q3,
        ops.len(),
        json_f64(warm.virtual_s),
        warm.virtual_s.to_bits(),
        warm.fingerprint,
        warm.exact.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect::<Vec<_>>().join(","),
    );
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, m.unit, v))
        .collect();
    println!("{}", result_line(&checks, &metrics));
    Ok(checks.failed == 0)
}

/// Median of each per-layer observation the passes made themselves.
fn pass_layer_medians(outs: &[PassOutput], ctx: &mut ProbeCtx) {
    let mut by_name: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    for out in outs {
        for &(name, value) in &out.layer {
            by_name.entry(name).or_default().push(value);
        }
    }
    for (name, values) in by_name {
        ctx.set(name, median(&values));
    }
}

fn run_traced(name: &'static str, opts: &RunOpts) -> Result<bool, String> {
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let mut checks = Checks::default();
    // Set-up under the recording tracer: set-up spans (e.g. the TCP
    // rendezvous) are kept, outside any pass.
    let (mut w, warm, _) = set_up(name, opts.seed, &on);
    checks.merge(warm.checks.clone());
    check_golden(&mut checks, name, opts.seed, &warm);

    // Two untraced passes: the base for tracing overhead, and their
    // disagreement is this run's own noise reading.
    let untraced: Vec<f64> = (0..2)
        .map(|_| timed_pass(w.as_mut(), &off, None, 0).wall_s)
        .collect();

    let budget = (opts.seconds / 2.0).max(0.0);
    let started = Instant::now();
    let mut traced_walls = Vec::new();
    let mut outs = Vec::new();
    loop {
        let t = timed_pass(w.as_mut(), &on, Some(name), outs.len() as u32 + 1);
        traced_walls.push(t.wall_s);
        absorb(
            &mut checks,
            &warm,
            &t.out,
            &format!("traced pass {}", outs.len() + 1),
        );
        outs.push(t.out);
        let done = match opts.passes {
            Some(n) => outs.len() >= n,
            None => outs.len() >= 2 && started.elapsed().as_secs_f64() >= budget,
        };
        if done {
            break;
        }
    }

    let spans = on.spans();
    let pass_spans: Vec<_> = spans.iter().filter(|s| s.pass > 0).cloned().collect();
    let mut ctx = ProbeCtx {
        attribution: Attribution::of(&pass_spans),
        passes: outs.len(),
        ..ProbeCtx::default()
    };
    pass_layer_medians(&outs, &mut ctx);
    let all_ops: Vec<f64> = outs.iter().flat_map(|o| o.op_us.iter().copied()).collect();
    ctx.set("bench.op_p50_us", median(&all_ops));
    ctx.set("bench.pass_wall_s", median(&traced_walls));
    // The one set-up span a layer metric is read from.
    if let Some(boot) = spans.iter().find(|s| s.name == "runtime.net.boot") {
        ctx.set(
            "runtime.net.boot_ms",
            (boot.end_ns - boot.start_ns) as f64 * 1e-6,
        );
    }
    w.probes(&mut ctx);
    w.teardown();

    let unattributed = ctx.attribution.unattributed_share();
    ctx.set("bench.unattributed_share", unattributed);
    ctx.set(
        "bench.trace_overhead_share",
        median(&traced_walls) / median(&untraced) - 1.0,
    );
    let (a, b) = (untraced[0], untraced[1]);
    ctx.set("bench.set_spread", (a - b).abs() / a.min(b));
    ctx.set("virtual_s", warm.virtual_s);
    checks.op(unattributed <= MAX_UNATTRIBUTED, || {
        format!("unattributed share {unattributed:.3} of pass wall exceeds {MAX_UNATTRIBUTED}")
    });

    // The per-layer table: host time only; simulated time is printed
    // on its own line with its own unit.
    let attr = &ctx.attribution;
    let per_pass = 1.0 / outs.len() as f64;
    eprintln!(
        "# layers of {name} (host time; self seconds per pass, {} traced passes, pass wall {:.4} s)",
        outs.len(),
        attr.pass_wall_s * per_pass
    );
    let mut rows: Vec<_> = attr.layers.iter().collect();
    rows.sort_by(|x, y| y.1.partial_cmp(x.1).expect("finite"));
    for (layer, secs) in rows {
        eprintln!(
            "#   {layer:<22} {:>10.6} s  {:>5.1} %",
            secs * per_pass,
            100.0 * secs / attr.pass_wall_s.max(1e-12)
        );
    }
    eprintln!(
        "#   {:<22} {:>10.6} s  {:>5.1} %",
        "(unattributed)",
        attr.unattributed_s * per_pass,
        100.0 * unattributed
    );
    if let Some((top, _)) = attr.top() {
        eprintln!("# top layer of {name}: {top}");
    }
    eprintln!(
        "# simulated time of {name}: virtual_s = {} sim_s",
        json_f64(warm.virtual_s)
    );
    for note in &checks.notes {
        eprintln!("FAILED {name}: {note}");
    }

    let path = out_dir().join(format!("trace-{name}.json"));
    std::fs::write(&path, spans_to_json(name, &spans))
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;

    let layers: Vec<String> = attr
        .layers
        .iter()
        .map(|(l, s)| format!("\"{l}\":{}", json_f64(s * per_pass)))
        .collect();
    println!(
        "# detail {{\"workload\":\"{name}\",\"seed\":{},\"top_layer\":\"{}\",\"pass_wall_s\":{},\"layer_self_s\":{{{}}}}}",
        opts.seed,
        attr.top().map_or("", |t| t.0),
        json_f64(attr.pass_wall_s * per_pass),
        layers.join(","),
    );
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, ctx.get(m.name)))
        .collect();
    println!("{}", result_line(&checks, &metrics));
    Ok(checks.failed == 0)
}
