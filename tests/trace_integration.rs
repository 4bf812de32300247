//! Integration: the `--trace` flag of the CLI binaries produces files
//! that conform to the documented schema (docs/OBSERVABILITY.md), are
//! readable by the built-in JSONL reader, and can be replayed into
//! fresh models.

use std::io::BufReader;
use std::process::Command;

use fupermod::core::model::{Model, PiecewiseModel};
use fupermod::core::trace::{read_jsonl_trace, replay_into_models, TraceEvent, SCHEMA_VERSION};
use fupermod::trace::csv::CSV_HEADER;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fupermod-trace-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir failed");
    dir
}

/// Runs `fupermod_simulate` with the given extra args; panics on failure.
fn simulate(extra: &[&str]) -> std::process::Output {
    let out = Command::new(env!("CARGO_BIN_EXE_fupermod_simulate"))
        .args(extra)
        .output()
        .expect("fupermod_simulate failed to launch");
    assert!(
        out.status.success(),
        "fupermod_simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn simulate_jsonl_trace_matches_documented_schema() {
    let dir = temp_dir("jsonl");
    let path = dir.join("jacobi.trace.jsonl");
    let out = simulate(&[
        "--app",
        "jacobi",
        "--size",
        "120",
        "--trace",
        path.to_str().unwrap(),
    ]);

    // The metrics summary goes to stderr on exit.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fupermod metrics:"),
        "missing metrics summary in stderr: {stderr}"
    );

    // Header line is the documented schema stamp.
    let text = std::fs::read_to_string(&path).expect("trace file missing");
    let first = text.lines().next().expect("empty trace");
    assert_eq!(first, format!("{{\"trace\":\"fupermod\",\"schema\":{SCHEMA_VERSION}}}"));

    // The built-in reader accepts the file and sees the dynamic loop.
    let file = std::fs::File::open(&path).unwrap();
    let (schema, events) = read_jsonl_trace(BufReader::new(file)).expect("reader rejected trace");
    assert_eq!(schema, SCHEMA_VERSION);
    assert!(!events.is_empty(), "trace carried no events");

    let mut saw_update = false;
    let mut saw_step = false;
    for e in &events {
        match e {
            TraceEvent::ModelUpdate { points, .. } => {
                saw_update = true;
                assert!(*points >= 1);
            }
            TraceEvent::PartitionStep { dist, imbalance, .. } => {
                saw_step = true;
                assert!(!dist.is_empty());
                assert!(imbalance.is_finite() && *imbalance >= 0.0);
            }
            _ => {}
        }
    }
    assert!(saw_update, "expected model_update events");
    assert!(saw_step, "expected partition_step events");

    // Replay reconstructs per-rank models from the recorded updates.
    let n_ranks = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ModelUpdate { rank, .. } => Some(*rank + 1),
            _ => None,
        })
        .max()
        .expect("no ranks in trace");
    let mut models: Vec<PiecewiseModel> = (0..n_ranks).map(|_| PiecewiseModel::new()).collect();
    let mut refs: Vec<&mut dyn Model> =
        models.iter_mut().map(|m| m as &mut dyn Model).collect();
    let applied = replay_into_models(&events, &mut refs).expect("replay failed");
    assert!(applied > 0, "replay applied no points");
    assert!(models.iter().any(|m| !m.points().is_empty()));
}

/// Runs `fupermod_tracetool export --format csv` over `trace` and
/// returns its stdout.
fn export_csv(trace: &std::path::Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fupermod_tracetool"))
        .args(["export", "--format", "csv"])
        .arg(trace)
        .output()
        .expect("fupermod_tracetool failed to launch");
    assert!(
        out.status.success(),
        "export failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("CSV is UTF-8")
}

/// CSV is an export of the JSONL trace, with the header lines and
/// column layout the retired CSV sink wrote.
#[test]
fn simulate_csv_trace_has_versioned_header_and_stable_columns() {
    let dir = temp_dir("csv");
    let path = dir.join("matmul.trace.jsonl");
    simulate(&[
        "--app",
        "matmul",
        "--size",
        "48",
        "--trace",
        path.to_str().unwrap(),
    ]);

    let text = export_csv(&path);
    let mut lines = text.lines();
    assert_eq!(
        lines.next(),
        Some(format!("# fupermod-trace schema={SCHEMA_VERSION}").as_str())
    );
    assert_eq!(lines.next(), Some(CSV_HEADER));

    let n_cols = CSV_HEADER.split(',').count();
    let mut rows = 0;
    for line in lines {
        assert_eq!(
            line.split(',').count(),
            n_cols,
            "ragged CSV row: {line}"
        );
        let event = line.split(',').next().unwrap();
        assert!(
            [
                "benchmark_sample",
                "benchmark_done",
                "model_update",
                "partition_step",
                "dynamic_converged",
                // The registry snapshot exported at exit.
                "metrics",
            ]
            .contains(&event),
            "unknown event tag {event}"
        );
        rows += 1;
    }
    assert!(rows > 0, "CSV export carried no events");

    // Pinned against the sink it replaces: `fixtures/matmul48.parent.csv`
    // is the file the parent build (`e763e9a`) wrote for this same
    // command under `--trace-format csv`. Header lines byte for byte;
    // rows as a multiset (the export goes through the causal merge, the
    // sink wrote in emission order) — but for what this change does to
    // the `metrics` rows on purpose: the `bench.rep` histogram is now
    // the registry's `fupermod_bench_rep_seconds`, and the five run
    // totals are registry series as well. The geometric partitioner's
    // counters were already there, except `partition_steps_total`,
    // which came later; three of them count less work since the outer
    // bisection answers most of its comparisons from threshold probes,
    // and their rows are pinned at the new counts.
    let split = |text: &str| -> (Vec<String>, Vec<String>) {
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let mut rows = lines.split_off(2);
        rows.sort_unstable();
        (lines, rows)
    };
    let (headers, rows) = split(&text);
    let (parent_headers, parent_rows) = split(include_str!("fixtures/matmul48.parent.csv"));
    assert_eq!(headers, parent_headers);
    let mut only_new: Vec<&String> = rows.iter().filter(|r| !parent_rows.contains(r)).collect();
    let mut only_parent: Vec<&String> = parent_rows.iter().filter(|r| !rows.contains(r)).collect();
    assert_eq!(rows.len() - only_new.len(), parent_rows.len() - only_parent.len());
    for (counter, parent, now) in [
        ("partition_decided_early_total", 34, 32),
        ("partition_model_evals_total", 278, 272),
        ("partition_outer_iterations_total", 39, 37),
    ] {
        let (parent, now) = (format!(",{counter},{parent},"), format!(",{counter},{now},"));
        let moved = only_parent.iter().position(|r| r.contains(&parent));
        let row = only_parent.remove(moved.unwrap_or_else(|| panic!("{counter} did not move")));
        let now = row.replace(&parent, &now);
        let moved = only_new.iter().position(|r| **r == now);
        only_new.remove(moved.unwrap_or_else(|| panic!("{counter} is not {now}")));
    }
    let [retired] = only_parent.as_slice() else {
        panic!("rows only the parent wrote: {only_parent:#?}");
    };
    let mut scopes: Vec<&str> = only_new
        .iter()
        .map(|r| r.split(',').nth(28).expect("scope column"))
        .collect();
    scopes.sort_unstable();
    assert_eq!(
        scopes,
        [
            "fupermod_bench_rep_seconds",
            "fupermod_bench_reps_total",
            "fupermod_kernels_executed_total",
            "fupermod_outliers_rejected_total",
            "fupermod_repartitions_total",
            "fupermod_units_moved_total",
            "partition_steps_total",
        ]
    );
    let renamed = retired.replace(",bench.rep,", ",fupermod_bench_rep_seconds,");
    assert!(only_new.contains(&&renamed), "bench.rep's samples went missing: {retired}");
}

/// A trace file is JSONL whatever it is called, and the flag that
/// used to pick the encoding names its replacement and exits 2.
#[test]
fn trace_format_flag_is_retired_and_a_csv_extension_still_writes_jsonl() {
    let dir = temp_dir("infer");
    let path = dir.join("inferred.csv");
    simulate(&[
        "--app",
        "jacobi",
        "--size",
        "80",
        "--trace",
        path.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&path).expect("trace file missing");
    assert!(
        text.starts_with("{\"trace\":\"fupermod\",\"schema\":"),
        "the extension must not pick the encoding"
    );

    let out = Command::new(env!("CARGO_BIN_EXE_fupermod_simulate"))
        .args(["--app", "jacobi", "--size", "80", "--trace-format", "csv"])
        .output()
        .expect("fupermod_simulate failed to launch");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fupermod_tracetool export --format csv"),
        "the rejection must name the replacement: {stderr}"
    );
}

/// One interval per repetition feeds the sample event, the stopping
/// rule and the final point alike: tracing a measurement must change
/// neither the point nor — byte for byte — the events, which are
/// pinned here as the commit before that change (49defd0) wrote them.
#[test]
fn traced_and_untraced_measurements_agree_and_the_jsonl_is_unchanged() {
    use fupermod::core::benchmark::Benchmark;
    use fupermod::core::kernel::DeviceKernel;
    use fupermod::core::trace::JsonlSink;
    use fupermod::core::Precision;
    use fupermod::platform::{cluster, Device, WorkloadProfile};

    const PINNED: &str = r#"{"trace":"fupermod","schema":4}
{"event":"benchmark_sample","rank":0,"d":300,"rep":0,"time":0.000376139,"ci_rel":1e9999}
{"event":"benchmark_sample","rank":0,"d":300,"rep":1,"time":0.000405963,"ci_rel":0.4845274018627667}
{"event":"benchmark_sample","rank":0,"d":300,"rep":2,"time":0.00040739,"ci_rel":0.0222926013164287}
{"event":"benchmark_sample","rank":0,"d":300,"rep":3,"time":0.0004265,"ci_rel":0.08192194987931836}
{"event":"benchmark_sample","rank":0,"d":300,"rep":4,"time":0.000406511,"ci_rel":0.00439783954655957}
{"event":"benchmark_done","rank":0,"d":300,"reps":3,"mean":0.00040662133333333334,"stderr":0.0000004156169443663753,"elapsed":0.002022503,"outliers_rejected":2}
"#;

    let kernel = || {
        let spec = cluster::fast_cpu("c", 11).spec().clone();
        DeviceKernel::new(
            Device::new("c", spec, 0.08, 11),
            WorkloadProfile::matrix_update(16),
        )
    };
    let precision = Precision {
        reps_min: 3,
        reps_max: 12,
        cl: 0.95,
        rel_err: 0.02,
        max_seconds: 1e9,
    };
    let bench = Benchmark::new(&precision).with_outlier_rejection(5.0);

    let untraced = bench.measure(&mut kernel(), 300).unwrap();
    let sink = JsonlSink::new(Vec::new());
    let traced = bench.with_trace(&sink).measure(&mut kernel(), 300).unwrap();
    let jsonl = String::from_utf8(sink.into_inner().unwrap()).unwrap();

    for point in [untraced, traced] {
        assert_eq!(point.d, 300);
        assert_eq!(point.reps, 3);
        assert_eq!(point.t.to_bits(), 0x3f3aa5f9541a0e4f);
        assert_eq!(point.ci.to_bits(), 0x3ebe007f957f2d42);
    }
    assert_eq!(jsonl, PINNED);

    // The lockstep group takes the same path per member.
    let (mut a, mut b) = (kernel(), kernel());
    let mut members: Vec<&mut dyn fupermod::core::kernel::Kernel> = vec![&mut a, &mut b];
    let grouped = bench.measure_group(&mut members, &[300, 300]).unwrap();
    assert_eq!(grouped, vec![untraced, untraced]);
}
