//! Criterion bench: hot-path cost of the live telemetry registry
//! (`fupermod_core::telemetry`); PR 10's recording of it is
//! `results/bench_history/BENCH_PR10.json`.
//!
//! Four bars, one question each:
//!
//! * `no_telemetry` — the bare baseline: the same black-boxed operand
//!   traffic with no telemetry call at all. What the loop costs
//!   before any instrumentation.
//! * `registry_disabled` — one counter `inc` plus one histogram
//!   `record` against a disabled registry. The gating discipline says
//!   each call must collapse to a single relaxed `AtomicBool` load,
//!   so this bar minus the baseline is the price every *untraced* run
//!   pays — a few ns/op.
//! * `registry_enabled` — the same two calls recording for real: two
//!   relaxed `fetch_add`s for the counter, a log2 bucket index plus
//!   two more for the histogram.
//! * `global_disabled` — `telemetry::record_comm` through the
//!   process-global registry while disabled: the exact call the
//!   runtime's comm hot path makes in an untraced process (op-name
//!   lookup is behind the gate, so this too must be one load).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fupermod_core::telemetry::{self, Registry};

fn bench_registry_paths(c: &mut Criterion) {
    let disabled = Registry::new(false);
    let d_counter = disabled.counter("bench_ops_total", "", &[("kind", "x")]);
    let d_hist = disabled.histogram("bench_latency_seconds", "", &[("op", "x")]);

    let enabled = Registry::new(true);
    let e_counter = enabled.counter("bench_ops_total", "", &[("kind", "x")]);
    let e_hist = enabled.histogram("bench_latency_seconds", "", &[("op", "x")]);

    c.bench_function("telemetry_overhead/no_telemetry", |b| {
        b.iter(|| black_box(black_box(3.2e-6_f64) * 1e9))
    });

    c.bench_function("telemetry_overhead/registry_disabled", |b| {
        b.iter(|| {
            d_counter.inc();
            d_hist.record(black_box(3.2e-6));
        })
    });

    c.bench_function("telemetry_overhead/registry_enabled", |b| {
        b.iter(|| {
            e_counter.inc();
            e_hist.record(black_box(3.2e-6));
        })
    });

    telemetry::global().set_enabled(false);
    c.bench_function("telemetry_overhead/global_disabled", |b| {
        b.iter(|| telemetry::record_comm(black_box("send"), black_box(3.2e-6)))
    });
}

criterion_group!(benches, bench_registry_paths);
criterion_main!(benches);
