//! Criterion bench: `comm_event_encode` — encoding one stamped `comm`
//! event to canonical JSONL, the per-operation serialization cost a
//! traced runtime run pays. (The gate a disabled registry charges per
//! record is `telemetry_overhead`'s subject.)

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fupermod_core::trace::TraceEvent;

fn bench_comm_event_encode(c: &mut Criterion) {
    let event = TraceEvent::Comm {
        rank: 3,
        op: "allreduce".to_owned(),
        peer: -1,
        bytes: 8192,
        seconds: 4.25e-5,
        algorithm: "ring".to_owned(),
        rounds: 7,
        lamport: 12_345,
        gen: 42,
    };
    c.bench_function("trace_overhead/comm_event_encode", |b| {
        b.iter(|| black_box(&event).to_jsonl())
    });
}

criterion_group!(benches, bench_comm_event_encode);
criterion_main!(benches);
