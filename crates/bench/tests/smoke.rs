//! Smoke tests: the figure/experiment binaries run to completion in
//! `--quick` mode and emit well-formed CSV.

use std::process::Command;

fn run_quick(bin: &str) -> String {
    let out = Command::new(bin)
        .arg("--quick")
        .output()
        .expect("binary failed to launch");
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("non-utf8 output")
}

fn assert_csv_shape(stdout: &str, expected_cols: usize, min_rows: usize) {
    let mut lines = stdout.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().expect("missing CSV header");
    assert_eq!(
        header.split(',').count(),
        expected_cols,
        "bad header: {header}"
    );
    let rows: Vec<&str> = lines.collect();
    assert!(
        rows.len() >= min_rows,
        "only {} data rows:\n{stdout}",
        rows.len()
    );
    for row in rows {
        assert_eq!(row.split(',').count(), expected_cols, "bad row: {row}");
    }
}

#[test]
fn fig2_quick_emits_interpolation_series() {
    let stdout = run_quick(env!("CARGO_BIN_EXE_fig2_interpolation"));
    assert_csv_shape(&stdout, 4, 20);
}

#[test]
fn exp1_quick_emits_quality_rows() {
    let stdout = run_quick(env!("CARGO_BIN_EXE_exp1_partition_quality"));
    // 4 platforms × 2 totals × 4 partitioners.
    assert_csv_shape(&stdout, 6, 32);
    // The heterogeneous testbeds must show model-based speedups > 1.
    assert!(
        stdout
            .lines()
            .filter(|l| l.starts_with("two-speed") && l.contains("fpm-"))
            .all(|l| {
                let speedup: f64 = l.rsplit(',').next().unwrap().parse().unwrap();
                speedup > 1.2
            }),
        "two-speed FPM rows lack speedup:\n{stdout}"
    );
}

#[test]
fn exp3_quick_shows_fpm_at_least_matching_cpm() {
    let stdout = run_quick(env!("CARGO_BIN_EXE_exp3_matmul_speedup"));
    assert_csv_shape(&stdout, 6, 12);
}

#[test]
fn exp4_emits_growing_ratio() {
    // exp4 has no --quick (it is already fast); run as-is.
    let out = Command::new(env!("CARGO_BIN_EXE_exp4_matrix2d_comm"))
        .output()
        .expect("binary failed to launch");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_csv_shape(&stdout, 5, 6);
    let ratios: Vec<f64> = stdout
        .lines()
        .skip(1)
        .map(|l| l.rsplit(',').next().unwrap().parse().unwrap())
        .collect();
    assert!(
        ratios.windows(2).all(|w| w[1] >= w[0] - 1e-9),
        "ratio not monotone: {ratios:?}"
    );
}

/// The experiment binaries open and finish their trace through the
/// same pair as the `fupermod_*` binaries, so a traced run exports the
/// whole process-wide registry — each series exactly once.
#[test]
fn exp2_trace_carries_every_registry_series_once() {
    let dir = std::env::temp_dir().join(format!("fupermod-smoke-exp2-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_exp2_dynamic_cost"))
        .args(["--runtime", "thread", "--trace-dir"])
        .arg(&dir)
        .output()
        .expect("binary failed to launch");
    assert!(
        out.status.success(),
        "exp2 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = std::fs::read_to_string(dir.join("exp2_dynamic_cost.trace.jsonl"))
        .expect("trace file missing");
    let field = |line: &str, key: &str| -> String {
        let rest = line.split(&format!("\"{key}\":\"")).nth(1).expect("field");
        rest[..rest.find('"').expect("closing quote")].to_owned()
    };
    let mut series: Vec<(String, String)> = trace
        .lines()
        .filter(|l| l.starts_with("{\"event\":\"metrics\""))
        .map(|l| (field(l, "scope"), field(l, "labels")))
        .collect();
    for scope in [
        "partition_calls_total",
        "fupermod_comm_duration_seconds",
        "fupermod_bench_rep_seconds",
        "fupermod_kernels_executed_total",
        "fupermod_faults_total",
    ] {
        assert!(series.iter().any(|(s, _)| s == scope), "no {scope} in the trace");
    }
    assert!(
        !series.iter().any(|(s, _)| s.starts_with("comm.") || s == "bench.rep"),
        "retired histogram scopes reappeared: {series:?}"
    );
    let exported = series.len();
    series.sort();
    series.dedup();
    assert_eq!(series.len(), exported, "a scope/label set was exported twice");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `-p P` is `--ranks P` on the experiments too.
#[test]
fn exp2_accepts_p_for_ranks() {
    let run = |ranks: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_exp2_dynamic_cost"))
            .args(["--quick", ranks, "6"])
            .output()
            .expect("binary failed to launch");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("non-utf8 output")
    };
    let short = run("-p");
    assert_csv_shape(&short, 6, 1);
    assert!(
        short
            .lines()
            .nth(1)
            .is_some_and(|l| l.starts_with("two-speed-3f3s,")),
        "{short}"
    );
    assert_eq!(short, run("--ranks"));
}
