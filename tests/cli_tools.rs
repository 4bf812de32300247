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

/// Runs the partitioner over `models` and asserts a usage error: exit
/// 2 and one stderr line containing `names`.
fn assert_partitioner_usage_error(models: &std::path::Path, names: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_fupermod_partitioner"))
        .args(["--models"])
        .arg(models)
        .args(["--total", "100"])
        .output()
        .expect("partitioner failed to launch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{:?}: {stderr}", out.status);
    assert!(stderr.contains(names), "{names:?} not named: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

/// Each of these panicked (exit 101) on an `expect` in the binary.
#[test]
fn partitioner_turns_bad_model_input_into_a_usage_error() {
    let dir = temp_dir("bad-models");
    let missing = dir.join("not-there");
    assert_partitioner_usage_error(&missing, &missing.display().to_string());
    let not_a_dir = dir.join("file");
    std::fs::write(&not_a_dir, "").unwrap();
    assert_partitioner_usage_error(&not_a_dir, &not_a_dir.display().to_string());

    // No `*.points` files at all (this case used to exit 1).
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    assert_partitioner_usage_error(&empty, &empty.display().to_string());

    // A points file that is not UTF-8.
    let binary = dir.join("binary");
    std::fs::create_dir_all(&binary).unwrap();
    let garbage = binary.join("a.points");
    std::fs::write(&garbage, [0xff, 0xfe, 0x00, 0x80, b'\n']).unwrap();
    assert_partitioner_usage_error(&binary, &garbage.display().to_string());

    // Points files with no points: the partitioner names the rank.
    let blank = dir.join("blank");
    std::fs::create_dir_all(&blank).unwrap();
    for name in ["a.points", "b.points"] {
        std::fs::write(blank.join(name), "").unwrap();
    }
    assert_partitioner_usage_error(&blank, "process 0");
    std::fs::remove_dir_all(&dir).ok();
}

/// `1e999` reads as `+∞` seconds, which panicked the run when it
/// became a `Duration`.
#[test]
fn simulate_rejects_a_deadline_no_duration_can_hold() {
    let out = Command::new(env!("CARGO_BIN_EXE_fupermod_simulate"))
        .args([
            "--app",
            "balance",
            "--ranks",
            "2",
            "--fault-plan",
            r#"{"deadline":1e999}"#,
        ])
        .output()
        .expect("simulate failed to launch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{:?}: {stderr}", out.status);
    assert!(stderr.contains("deadline"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

/// On shutdown the daemon's trace carries each store counter once,
/// under its registry name — not a second time under a dotted scope.
#[test]
fn served_trace_carries_each_store_counter_once() {
    use fupermod::core::json::Json;
    use std::io::BufRead as _;

    let dir = temp_dir("served-trace");
    let trace = dir.join("served.jsonl");
    let served = env!("CARGO_BIN_EXE_fupermod_served");
    let mut daemon = Command::new(served)
        .args(["--listen", "127.0.0.1:0", "--trace"])
        .arg(&trace)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("daemon failed to launch");
    let mut lines = std::io::BufReader::new(daemon.stdout.take().unwrap()).lines();
    let addr = lines
        .find_map(|l| l.ok()?.strip_prefix("listening on ").map(str::to_owned))
        .expect("daemon never listened");
    // A lookup of a fingerprint the store does not hold: a model miss.
    // The client's own exit status does not matter here.
    Command::new(served)
        .args([
            "--mode",
            "lookup",
            "--connect",
            &addr,
            "--fingerprint",
            "absent",
        ])
        .output()
        .expect("lookup failed to launch");
    let out = Command::new(served)
        .args(["--mode", "shutdown", "--connect", &addr])
        .output()
        .expect("shutdown failed to launch");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(daemon.wait().unwrap().success());

    let text = std::fs::read_to_string(&trace).expect("trace missing");
    let metrics: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).expect("a JSON line"))
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("metrics"))
        .collect();
    let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
    assert!(
        !metrics
            .iter()
            .any(|e| field(e, "scope").starts_with("store.")),
        "a dotted store scope in:\n{text}"
    );
    let misses: Vec<&Json> = metrics
        .iter()
        .filter(|e| field(e, "scope") == "store_model_lookups_total")
        .filter(|e| field(e, "labels") == "result=miss")
        .collect();
    assert_eq!(misses.len(), 1, "{text}");
    assert_eq!(misses[0].get("count").and_then(Json::as_f64), Some(1.0));
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

/// A rank of `1e15` made every tracetool subcommand size a per-rank
/// vector by it and abort on the allocation (exit 134); `1e300`
/// saturated to `usize::MAX`, whose `+ 1` wrapped into an index panic
/// (exit 101). Per-rank state is keyed by rank, so `1e15` is one event;
/// `1e300` is not an integer the reader can hold exactly, so it is a
/// one-line error naming the field.
#[test]
fn tracetool_survives_a_huge_rank() {
    let dir = temp_dir("huge-rank");
    const COMMANDS: [&[&str]; 4] = [
        &["merge"],
        &["tail", "--idle-exit", "0", "--stats-every", "0"],
        &["report"],
        &["export", "--format", "csv"],
    ];
    for rank in ["1e15", "1e300"] {
        let trace = dir.join(format!("rank{rank}.trace.jsonl"));
        std::fs::write(
            &trace,
            format!(
                "{{\"trace\":\"fupermod\",\"schema\":4}}\n\
                 {{\"event\":\"model_update\",\"rank\":{rank},\"d\":5,\"t\":0.5,\"reps\":1,\"points\":1}}\n"
            ),
        )
        .unwrap();
        for command in COMMANDS {
            let out = Command::new(env!("CARGO_BIN_EXE_fupermod_tracetool"))
                .args(command)
                .arg(&trace)
                .output()
                .expect("tracetool failed to launch");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!stderr.contains("panicked") && !stderr.contains("backtrace"), "{stderr}");
            if rank == "1e15" {
                // As JSONL spells it back (through f64), and as the
                // report and CSV print it (the integer): the same here.
                assert_eq!(out.status.code(), Some(0), "{command:?} rank {rank}: {stderr}");
                assert!(stdout.contains("1000000000000000"), "{command:?}: {stdout}");
            } else {
                assert_eq!(out.status.code(), Some(1), "{command:?} rank {rank}: {stdout}");
                assert!(stderr.contains("field 'rank'"), "{command:?}: {stderr}");
                assert!(!stdout.contains("model_update"), "{command:?}: {stdout}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Numbers the trace reader used to cast into something else: a
/// negative or fractional count became 0 or its floor, `1e300` in a
/// list became `u64::MAX`, and a header's schema `-3`, `0`, `2.9` and
/// `1e300` read as 0, 0, 2 and `u32::MAX`. `merge` printed the
/// rewritten events and exited 0; each is now an error.
#[test]
fn tracetool_merge_rejects_numbers_it_used_to_rewrite() {
    let dir = temp_dir("coerced");
    let header = |schema: &str| format!("{{\"trace\":\"fupermod\",\"schema\":{schema}}}\n");
    let event = "{\"event\":\"dynamic_converged\",\"steps\":2,\"imbalance\":0.5}\n";
    let mut traces = vec![
        format!("{}{{\"event\":\"benchmark_sample\",\"rank\":-3,\"d\":2.5,\"rep\":-1,\"time\":0.5,\"ci_rel\":0.1}}\n", header("4")),
        format!("{}{{\"event\":\"partition_step\",\"iter\":1,\"dist\":[-5,2.5,1e300],\"imbalance\":0,\"units_moved\":0}}\n", header("4")),
    ];
    traces.extend(["-3", "0", "2.9", "1e300"].map(|schema| header(schema) + event));
    for (i, text) in traces.iter().enumerate() {
        let trace = dir.join(format!("t{i}.trace.jsonl"));
        std::fs::write(&trace, text).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_fupermod_tracetool"))
            .arg("merge")
            .arg(&trace)
            .output()
            .expect("tracetool failed to launch");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{text}: {stdout}");
        assert!(!stdout.contains("\"event\""), "{text}: {stdout}");
        assert!(!stderr.contains("panicked") && !stderr.contains("backtrace"), "{stderr}");
        assert!(stderr.contains("schema") || stderr.contains("field '"), "{text}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
