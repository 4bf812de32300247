//! Integration: the offline CLI utilities (`fupermod_builder`,
//! `fupermod_partitioner`) work end to end through real files, the
//! paper's "build models once, partition many times" workflow — and
//! the binaries that read JSON from a file turn a hostile one into a
//! one-line error, not a crash.

use std::process::Command;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fupermod-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir failed");
    dir
}

#[test]
fn builder_then_partitioner_round_trip() {
    let dir = temp_dir("roundtrip");

    let out = Command::new(env!("CARGO_BIN_EXE_fupermod_builder"))
        .args([
            "--platform",
            "two-speed",
            "--seed",
            "3",
            "--lo",
            "64",
            "--hi",
            "16384",
            "--points",
            "8",
            "--out",
        ])
        .arg(&dir)
        .output()
        .expect("builder failed to launch");
    assert!(
        out.status.success(),
        "builder failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Four .points files, one per device.
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "points"))
        .collect();
    assert_eq!(files.len(), 4, "expected 4 model files");

    for algorithm in ["even", "constant", "geometric", "numerical"] {
        let model = match algorithm {
            "constant" => "cpm",
            "numerical" => "akima",
            _ => "piecewise",
        };
        let out = Command::new(env!("CARGO_BIN_EXE_fupermod_partitioner"))
            .args(["--models"])
            .arg(&dir)
            .args([
                "--total",
                "50000",
                "--algorithm",
                algorithm,
                "--model",
                model,
            ])
            .output()
            .expect("partitioner failed to launch");
        assert!(
            out.status.success(),
            "partitioner({algorithm}) failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("total 50000"),
            "{algorithm}: units not conserved:\n{stdout}"
        );
        // Four rank rows.
        let rows = stdout
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .count();
        assert_eq!(rows, 4, "{algorithm}: expected 4 rank rows:\n{stdout}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partitioner_reports_missing_inputs() {
    let out = Command::new(env!("CARGO_BIN_EXE_fupermod_partitioner"))
        .output()
        .expect("partitioner failed to launch");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--models"), "unhelpful error: {stderr}");
}

#[test]
fn partitioner_rejects_empty_model_dir() {
    let dir = temp_dir("empty");
    let out = Command::new(env!("CARGO_BIN_EXE_fupermod_partitioner"))
        .args(["--models"])
        .arg(&dir)
        .args(["--total", "100"])
        .output()
        .expect("partitioner failed to launch");
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

/// `[[[[…` 200 000 deep, closed: far past any stack budget of a
/// recursive-descent parser without a depth cap.
fn nesting_bomb() -> String {
    "[".repeat(200_000) + &"]".repeat(200_000)
}

/// Both commands aborted with `fatal runtime error: stack overflow`
/// (SIGABRT) while the tracetool and the fault-plan reader each had a
/// parser of their own without a nesting limit.
#[test]
fn tracetool_validate_rejects_a_nesting_bomb() {
    let dir = temp_dir("bomb-validate");
    let doc = dir.join("deep.json");
    std::fs::write(&doc, nesting_bomb()).unwrap();
    let schema =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts/tracetool_schema.json");
    let out = Command::new(env!("CARGO_BIN_EXE_fupermod_tracetool"))
        .args(["validate", "--schema"])
        .arg(&schema)
        .arg(&doc)
        .output()
        .expect("tracetool failed to launch");
    assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

#[test]
fn simulate_rejects_a_nesting_bomb_fault_plan() {
    let dir = temp_dir("bomb-plan");
    let plan = dir.join("plan.json");
    std::fs::write(&plan, format!("{{\"delays\":{}}}", nesting_bomb())).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fupermod_simulate"))
        .args(["--app", "balance", "--runtime", "thread", "--fault-plan"])
        .arg(&plan)
        .output()
        .expect("simulate failed to launch");
    assert_eq!(out.status.code(), Some(2), "{:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

/// `--trace-dir` names a directory the binary creates if it is
/// missing, on every binary alike.
#[test]
fn simulate_creates_a_missing_trace_dir() {
    let dir = temp_dir("missing-trace-dir").join("not/yet/there");
    let out = Command::new(env!("CARGO_BIN_EXE_fupermod_simulate"))
        .args(["--app", "jacobi", "--size", "80", "--trace-dir"])
        .arg(&dir)
        .output()
        .expect("simulate failed to launch");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = std::fs::read_to_string(dir.join("fupermod_simulate.trace.jsonl"))
        .expect("trace file missing");
    assert!(trace.starts_with("{\"trace\":\"fupermod\""), "{trace}");
}

/// A flag that takes a value is a usage error without one.
#[test]
fn a_flag_without_its_value_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_fupermod_simulate"))
        .args(["--app", "jacobi", "--size"])
        .output()
        .expect("simulate failed to launch");
    assert_eq!(out.status.code(), Some(2), "{:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing value for --size"), "{stderr}");
}
