//! The trace wire format, pinned from both sides.
//!
//! * Property: every [`TraceEvent`] variant survives
//!   JSONL → decode → JSONL unchanged, including non-finite floats
//!   (`null` / `1e9999` / `-1e9999`) and the schema-v3
//!   `lamport`/`gen`/histogram fields. Because `NaN != NaN`, round
//!   trips are compared on the *canonical JSONL encoding*, which is
//!   total.
//! * Fixtures: one v1, v2, v3 and v4 trace under `tests/fixtures/`,
//!   each with the table of events the four-parser build (`e763e9a`)
//!   decoded from it — the one JSON reader must decode every line to
//!   the same event. (The event → CSV-row goldens over the same v4
//!   fixture live with the exporter, in
//!   `crates/trace/tests/csv_export.rs`.)

use std::io::Cursor;

use fupermod_core::trace::{
    TraceEvent, TraceReader, COMM_OPS, HISTOGRAM_BUCKETS, SCHEMA_VERSION,
};
use proptest::prelude::*;

/// Floats as traces see them: finite magnitudes across many decades,
/// zero, and the three non-finite encodings.
fn float_strategy() -> impl Strategy<Value = f64> {
    (-1.0e3f64..1.0e3, 0usize..8).prop_map(|(base, sel)| match sel {
        0 => 0.0,
        1 => f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => base * 1e-9, // nanoseconds
        5 => base * 1e9,  // giant
        _ => base,
    })
}

/// u64 values that survive the f64 stage of the flat JSON parser
/// (exact up to 2^53).
fn u64_strategy() -> impl Strategy<Value = u64> {
    (0u64..(1 << 53), 0usize..4).prop_map(|(v, sel)| match sel {
        0 => 0,
        1 => (1 << 53) - 1,
        _ => v,
    })
}

const ALGORITHMS: [&str; 5] = ["hub", "ring", "tree", "direct", ""];
const KINDS: [&str; 7] = [
    "delay",
    "drop",
    "retry",
    "straggler",
    "death",
    "timeout",
    "degraded",
];
const SCOPES: [&str; 3] = [
    "fupermod_comm_duration_seconds",
    "fupermod_bench_rep_seconds",
    "comm.send", // a v3 trace's scope
];
// Schema-v4 metric kind/label addendum values, including the empty
// legacy spellings.
const METRIC_KINDS: [&str; 4] = ["", "counter", "gauge", "histogram"];
const LABEL_SETS: [&str; 4] = ["", "op=ingest;outcome=ok", "kind=retry", "shard=3"];

#[allow(clippy::too_many_arguments)]
fn make_event(
    variant: usize,
    rank: usize,
    big: u64,
    big2: u64,
    small: u32,
    f1: f64,
    f2: f64,
    f3: f64,
    pick: usize,
    dist: Vec<u64>,
    buckets: Vec<u64>,
) -> TraceEvent {
    match variant % 8 {
        0 => TraceEvent::BenchmarkSample {
            rank,
            d: big,
            rep: small,
            time: f1,
            ci_rel: f2,
        },
        1 => TraceEvent::BenchmarkDone {
            rank,
            d: big,
            reps: small,
            mean: f1,
            stderr: f2,
            elapsed: f3,
            outliers_rejected: small / 3,
        },
        2 => TraceEvent::ModelUpdate {
            rank,
            d: big,
            t: f1,
            reps: small,
            points: rank + 1,
        },
        3 => TraceEvent::PartitionStep {
            iter: big2,
            dist,
            imbalance: f1,
            units_moved: big,
        },
        4 => TraceEvent::DynamicConverged {
            steps: big2,
            imbalance: f1,
        },
        5 => TraceEvent::Comm {
            rank,
            op: COMM_OPS[pick % COMM_OPS.len()].to_owned(),
            peer: (rank as i64) - 1,
            bytes: big,
            seconds: f1,
            algorithm: ALGORITHMS[pick % ALGORITHMS.len()].to_owned(),
            rounds: big2 % 64,
            lamport: big2,
            gen: big,
        },
        6 => TraceEvent::Fault {
            rank,
            kind: KINDS[pick % KINDS.len()].to_owned(),
            peer: (rank as i64) - 1,
            attempt: small,
            seconds: f1,
        },
        _ => TraceEvent::Metrics {
            rank,
            scope: SCOPES[pick % SCOPES.len()].to_owned(),
            count: big,
            sum: f1,
            buckets,
            kind: METRIC_KINDS[pick % METRIC_KINDS.len()].to_owned(),
            labels: LABEL_SETS[pick % LABEL_SETS.len()].to_owned(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn jsonl_round_trips_every_variant(
        variant in 0usize..8,
        rank in 0usize..64,
        big in u64_strategy(),
        big2 in u64_strategy(),
        small in 0u32..10_000,
        f1 in float_strategy(),
        f2 in float_strategy(),
        f3 in float_strategy(),
        pick in 0usize..64,
        dist in proptest::collection::vec(0u64..1_000_000, 0..6),
        buckets in proptest::collection::vec(
            0u64..1_000_000,
            HISTOGRAM_BUCKETS + 2..HISTOGRAM_BUCKETS + 3,
        ),
    ) {
        let event = make_event(
            variant, rank, big, big2, small, f1, f2, f3, pick, dist, buckets,
        );
        let canonical = event.to_jsonl();

        let decoded = TraceEvent::from_jsonl(&canonical).unwrap();
        prop_assert_eq!(decoded.to_jsonl(), canonical);
    }
}

/// Every line of the committed v1–v4 traces decodes to the event the
/// parent build decoded (its `{:?}`, one per line — NaN-safe, unlike
/// `==`), and the header declares the version the file name says.
#[test]
fn fixture_traces_decode_as_the_parent_build_decoded_them() {
    const FIXTURES: [(u32, &str, &str); 4] = [
        (1, include_str!("fixtures/trace_v1.jsonl"), include_str!("fixtures/trace_v1.decoded")),
        (2, include_str!("fixtures/trace_v2.jsonl"), include_str!("fixtures/trace_v2.decoded")),
        (3, include_str!("fixtures/trace_v3.jsonl"), include_str!("fixtures/trace_v3.decoded")),
        (4, include_str!("fixtures/trace_v4.jsonl"), include_str!("fixtures/trace_v4.decoded")),
    ];
    for (version, trace, decoded) in FIXTURES {
        let reader = TraceReader::new(Cursor::new(trace.as_bytes())).unwrap();
        assert_eq!(reader.schema(), version);
        let events: Vec<String> = reader.map(|e| format!("{:?}", e.unwrap())).collect();
        let expected: Vec<&str> = decoded.lines().collect();
        assert_eq!(events.len(), expected.len(), "v{version}: line count");
        for (i, (got, want)) in events.iter().zip(&expected).enumerate() {
            assert_eq!(got, want, "v{version} event {i}");
        }
    }
    // The v4 fixture exercises all eight variants and the `null` floats.
    let v4 = FIXTURES[3].2;
    for variant in [
        "BenchmarkSample", "BenchmarkDone", "ModelUpdate", "PartitionStep",
        "DynamicConverged", "Comm", "Fault", "Metrics",
    ] {
        assert!(v4.lines().any(|l| l.starts_with(variant)), "no {variant} in the v4 fixture");
    }
    assert!(v4.contains("NaN") && v4.contains("-inf"));
}

#[test]
fn non_finite_floats_round_trip_explicitly() {
    let event = TraceEvent::BenchmarkSample {
        rank: 3,
        d: 100,
        rep: 0,
        time: f64::NAN,
        ci_rel: f64::INFINITY,
    };
    let line = event.to_jsonl();
    assert!(line.contains("\"time\":null"), "line: {line}");
    assert!(line.contains("\"ci_rel\":1e9999"), "line: {line}");
    let back = TraceEvent::from_jsonl(&line).unwrap();
    match back {
        TraceEvent::BenchmarkSample { time, ci_rel, .. } => {
            assert!(time.is_nan());
            assert_eq!(ci_rel, f64::INFINITY);
        }
        other => panic!("wrong variant: {other:?}"),
    }

    let event = TraceEvent::DynamicConverged {
        steps: 2,
        imbalance: f64::NEG_INFINITY,
    };
    let line = event.to_jsonl();
    assert!(line.contains("-1e9999"), "line: {line}");
    assert_eq!(TraceEvent::from_jsonl(&line).unwrap(), event);
}

#[test]
fn reader_rejects_newer_jsonl_schema() {
    let future = SCHEMA_VERSION + 1;
    let text = format!(
        "{{\"trace\":\"fupermod\",\"schema\":{future}}}\n\
         {{\"event\":\"dynamic_converged\",\"steps\":1,\"imbalance\":0.5}}\n"
    );
    let err = TraceReader::new(Cursor::new(text.into_bytes()))
        .err()
        .expect("future schema must be rejected");
    let msg = err.to_string();
    assert!(msg.contains(&future.to_string()), "unhelpful error: {msg}");
}

#[test]
fn reader_accepts_older_schemas_with_v3_defaults() {
    // A v1-era trace: no lamport/gen on comm, no metrics events.
    let text = "{\"trace\":\"fupermod\",\"schema\":1}\n\
                {\"event\":\"comm\",\"rank\":1,\"op\":\"send\",\"peer\":0,\
                 \"bytes\":64,\"seconds\":0.001}\n";
    let events: Vec<TraceEvent> = TraceReader::new(Cursor::new(text.as_bytes().to_vec()))
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    match &events[0] {
        TraceEvent::Comm {
            lamport,
            gen,
            algorithm,
            rounds,
            ..
        } => {
            assert_eq!((*lamport, *gen, *rounds), (0, 0, 0));
            assert_eq!(algorithm, "", "pre-addendum algorithm decodes empty");
        }
        other => panic!("wrong variant: {other:?}"),
    }
}
