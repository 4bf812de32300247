//! Integration: the offline CLI utilities (`fupermod_builder`,
//! `fupermod_partitioner`) work end to end through real files, the
//! paper's "build models once, partition many times" workflow — and
//! the binaries that read JSON from a file turn a hostile one into a
//! one-line error, not a crash.
//!
//! The end-to-end gates follow: a traced run through every tracetool
//! subcommand, the event engine at p = 10 000, the overlapped matmul's
//! checksum, a 4-process TCP run against the single-process one, and
//! the daemon's partition and `/metrics` against the offline pipeline
//! and its clients.

use std::ffi::OsStr;
use std::io::{BufRead as _, BufReader, Lines, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fupermod-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir failed");
    dir
}

const BUILDER: &str = env!("CARGO_BIN_EXE_fupermod_builder");
const EXPERIMENT: &str = env!("CARGO_BIN_EXE_fupermod_experiment");
const PARTITIONER: &str = env!("CARGO_BIN_EXE_fupermod_partitioner");
const SIMULATE: &str = env!("CARGO_BIN_EXE_fupermod_simulate");
const TRACETOOL: &str = env!("CARGO_BIN_EXE_fupermod_tracetool");
const SERVED: &str = env!("CARGO_BIN_EXE_fupermod_served");

/// A `fupermod_served` daemon listening on a port the OS picked, with
/// the addresses it announced.
struct Daemon {
    child: Child,
    addr: String,
    /// The `--metrics-listen` address, when the daemon was given one.
    metrics: Option<String>,
    /// Kept open: a daemon that prints after its announcement must not
    /// write into a closed pipe.
    _stdout: Lines<BufReader<ChildStdout>>,
}

impl Daemon {
    /// Starts the daemon on `127.0.0.1:0` with the flags `args` and
    /// reads its announcements up to `listening on ADDR`.
    fn start(args: &[&OsStr]) -> Daemon {
        let mut child = Command::new(SERVED)
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon failed to launch");
        let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
        let mut metrics = None;
        let addr = loop {
            let line = lines
                .next()
                .expect("daemon never listened")
                .expect("daemon stdout");
            if let Some(addr) = line.strip_prefix("metrics on ") {
                metrics = Some(addr.to_owned());
            }
            if let Some(addr) = line.strip_prefix("listening on ") {
                break addr.to_owned();
            }
        };
        Daemon {
            child,
            addr,
            metrics,
            _stdout: lines,
        }
    }
}

impl Drop for Daemon {
    /// A test that fails before `shutdown` leaves no daemon behind.
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

#[test]
fn builder_then_partitioner_round_trip() {
    let dir = temp_dir("roundtrip");

    let out = Command::new(BUILDER)
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
        let out = Command::new(PARTITIONER)
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
    let out = Command::new(PARTITIONER)
        .output()
        .expect("partitioner failed to launch");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--models"), "unhelpful error: {stderr}");
}

#[test]
fn partitioner_rejects_empty_model_dir() {
    let dir = temp_dir("empty");
    let out = Command::new(PARTITIONER)
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
    let out = Command::new(PARTITIONER)
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
    let out = Command::new(SIMULATE)
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

/// A run the command line makes fail — a fault plan that exhausts a
/// retry budget or kills a rank, a size the app cannot split — is one
/// stderr line and a non-zero exit, not a panic and its backtrace.
#[test]
fn simulate_fails_runs_it_cannot_do_without_a_panic() {
    const COMMANDS: [&str; 5] = [
        r#"--app balance --ranks 2 --fault-plan {"drops":[{"max_retries":0}]}"#,
        r#"--app matmul --pipeline blocking --runtime sim --size 4 --fault-plan {"deaths":[{"rank":1,"after_ops":0}]}"#,
        "--app jacobi --size 2 --ranks 4",
        "--app heat --size 2 --ranks 4",
        "--app matmul --size 0",
    ];
    for args in COMMANDS {
        let out = Command::new(SIMULATE)
            .args(args.split(' '))
            .env("RUST_BACKTRACE", "1")
            .output()
            .expect("simulate failed to launch");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args} succeeded");
        assert_eq!(stderr.lines().count(), 1, "{args}: {stderr}");
        assert!(
            !stderr.contains("panicked") && !stderr.contains("backtrace"),
            "{args}: {stderr}"
        );
    }
}

/// On shutdown the daemon's trace carries each store counter once,
/// under its registry name — not a second time under a dotted scope.
#[test]
fn served_trace_carries_each_store_counter_once() {
    use fupermod::core::json::Json;

    let dir = temp_dir("served-trace");
    let trace = dir.join("served.jsonl");
    let mut daemon = Daemon::start(&["--trace".as_ref(), trace.as_os_str()]);
    let addr = daemon.addr.clone();
    // A lookup of a fingerprint the store does not hold: a model miss.
    // The client's own exit status does not matter here.
    Command::new(SERVED)
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
    let out = Command::new(SERVED)
        .args(["--mode", "shutdown", "--connect", &addr])
        .output()
        .expect("shutdown failed to launch");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(daemon.child.wait().unwrap().success());

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
    let schema = Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts/tracetool_schema.json");
    let out = Command::new(TRACETOOL)
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
    let out = Command::new(SIMULATE)
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
    let out = Command::new(SIMULATE)
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
    let out = Command::new(SIMULATE)
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
            let out = Command::new(TRACETOOL)
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
        let out = Command::new(TRACETOOL)
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

// The end-to-end gates: each runs the binaries as a user does and
// compares what they print or write, byte for byte where the contract
// says so.

/// How long one process of a gate may run: a wedged process fails the
/// test instead of hanging it.
const LIMIT: Duration = Duration::from_secs(120);

/// `program ARGS…` run in `dir`, with `args` split at its spaces.
fn command(program: &str, dir: &Path, args: &str) -> Command {
    let mut cmd = Command::new(program);
    cmd.current_dir(dir).args(args.split(' '));
    cmd
}

/// Starts `cmd` with its stdout and stderr piped.
fn spawn(cmd: &mut Command) -> Child {
    cmd.stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("{cmd:?}: {e}"))
}

/// Reads a piped stream to its end on a thread of its own.
fn drain(pipe: Option<impl Read + Send + 'static>) -> std::thread::JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let mut bytes = Vec::new();
        if let Some(mut pipe) = pipe {
            pipe.read_to_end(&mut bytes)
                .expect("cannot read a child's output");
        }
        bytes
    })
}

/// Waits for `child`, which runs `what`; kills it and fails if it runs
/// past [`LIMIT`].
fn finish(what: &str, child: &mut Child) -> Output {
    let (stdout, stderr) = (drain(child.stdout.take()), drain(child.stderr.take()));
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("cannot wait for a child") {
            break status;
        }
        if started.elapsed() > LIMIT {
            child.kill().ok();
            panic!("{what}: still running after {LIMIT:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    Output {
        status,
        stdout: stdout.join().expect("stdout reader"),
        stderr: stderr.join().expect("stderr reader"),
    }
}

/// Runs `cmd` to its end, asserts that it succeeded and returns its
/// stdout.
fn succeed(cmd: &mut Command) -> String {
    let what = format!("{cmd:?}");
    let out = finish(&what, &mut spawn(cmd));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{what}: {}\n{stderr}", out.status);
    String::from_utf8(out.stdout).unwrap_or_else(|e| panic!("{what}: stdout is not UTF-8: {e}"))
}

/// Merges the space-separated `traces` in `dir` into `merged.jsonl`,
/// reports the merge as JSON and validates the report against
/// `scripts/tracetool_schema.json` (docs/OBSERVABILITY.md §8).
fn merge_report_validate(dir: &Path, traces: &str) {
    let schema = Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts/tracetool_schema.json");
    succeed(&mut command(
        TRACETOOL,
        dir,
        &format!("merge {traces} --out merged.jsonl"),
    ));
    succeed(&mut command(
        TRACETOOL,
        dir,
        "report merged.jsonl --json --out summary.json",
    ));
    succeed(
        command(TRACETOOL, dir, "validate --schema")
            .arg(schema)
            .arg("summary.json"),
    );
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The shape `export --format csv` promises (docs/OBSERVABILITY.md
/// §2.2): the schema comment, a header row, at least one data row and
/// every row as wide as the header.
fn assert_csv_shape(csv: &str) {
    let mut lines = csv.lines();
    let comment = lines.next().unwrap_or_default();
    assert!(
        comment
            .strip_prefix("# fupermod-trace schema=")
            .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit())),
        "not a schema comment: {comment}"
    );
    let columns = lines.next().expect("no header row").split(',').count();
    let mut rows = 0;
    for row in lines {
        assert_eq!(row.split(',').count(), columns, "ragged CSV row: {row}");
        rows += 1;
    }
    assert!(rows > 0, "the CSV export has no data row");
}

/// A traced end-to-end run keeps the observability contract
/// (docs/OBSERVABILITY.md §8, §9): its trace merges, reports and
/// validates, exports to Chrome JSON and to a well-formed CSV, and
/// following the completed file until idle prints exactly the merge.
#[test]
fn a_traced_run_merges_reports_validates_exports_and_tails_as_merged() {
    let dir = temp_dir("tracetool-gate");
    succeed(
        command(EXPERIMENT, &dir, "exp2_dynamic_cost --quick --runtime sim")
            .env("FUPERMOD_TRACE_DIR", &dir),
    );
    let trace = "exp2_dynamic_cost.trace.jsonl";
    merge_report_validate(&dir, trace);
    for (format, out) in [("chrome", "chrome.json"), ("csv", "trace.csv")] {
        succeed(&mut command(
            TRACETOOL,
            &dir,
            &format!("export {trace} --format {format} --out {out}"),
        ));
    }
    assert_csv_shape(&read(&dir.join("trace.csv")));
    let tail = format!("tail {trace} --idle-exit 1 --stats-every 0 --out tailed.jsonl");
    succeed(&mut command(TRACETOOL, &dir, &tail));
    let (merged, tailed) = (
        read(&dir.join("merged.jsonl")),
        read(&dir.join("tailed.jsonl")),
    );
    if merged != tailed {
        let same = merged
            .lines()
            .zip(tailed.lines())
            .take_while(|(m, t)| m == t)
            .count();
        panic!(
            "tail differs from merge from line {} (in {})",
            same + 1,
            dir.display()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The event engine drives a traced p = 10 000 balancing run (exp2's
/// dynamic leg at scale) through the same observability contract as
/// the thread backend (docs/RUNTIME.md §9).
#[test]
fn the_event_engine_traces_a_p_10000_run_the_tracetool_validates() {
    let dir = temp_dir("event-gate");
    let run = "exp2_dynamic_cost --quick --ranks 10000 --sim-engine event";
    succeed(command(EXPERIMENT, &dir, run).env("FUPERMOD_TRACE_DIR", &dir));
    merge_report_validate(&dir, "exp2_dynamic_cost.trace.jsonl");
    std::fs::remove_dir_all(&dir).ok();
}

/// On a fault-free sim plan the pipelined (double-buffered `ibcast`)
/// matmul computes the blocking schedule's product bit for bit
/// (docs/RUNTIME.md §8): the checksum lines are equal; the timing
/// lines may differ, which is the point.
#[test]
fn the_overlapped_matmul_prints_the_blocking_checksum() {
    let checksums = |pipeline: &str| -> Vec<String> {
        let run = format!("--app matmul --pipeline {pipeline} --runtime sim --size 8");
        succeed(&mut command(SIMULATE, Path::new("."), &run))
            .lines()
            .filter(|line| line.starts_with("product checksum:"))
            .map(str::to_owned)
            .collect()
    };
    let blocking = checksums("blocking");
    assert!(!blocking.is_empty(), "no product checksum line");
    assert_eq!(blocking, checksums("overlapped"));
}

/// A 4-process localhost TCP run of the balance app prints what the
/// single-process run prints, byte for byte, and its per-process traces
/// stitch into one timeline that validates (docs/RUNTIME.md §10).
#[test]
fn four_tcp_processes_print_the_single_process_run() {
    const RUN: &str = "--app balance --platform two-speed --ranks 4 --seed 7 --size 20000";
    let dir = temp_dir("tcp-gate");
    let reference = succeed(&mut command(SIMULATE, &dir, RUN));
    // A port the OS picked, released for rank 0 to bind.
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|listener| listener.local_addr())
        .expect("no free port")
        .port();
    let tcp = |rank: usize| {
        let flags =
            format!("--transport tcp --rank-id {rank} --world 4 --rendezvous 127.0.0.1:{port}");
        (
            rank,
            spawn(&mut command(
                SIMULATE,
                &dir,
                &format!("{RUN} {flags} --trace-dir ."),
            )),
        )
    };
    let ranks: Vec<(usize, Child)> = [1, 2, 3, 0].into_iter().map(tcp).collect();
    for (rank, mut child) in ranks {
        let out = finish(&format!("tcp rank {rank}"), &mut child);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "rank {rank}: {}\n{stderr}",
            out.status
        );
        if rank == 0 {
            assert_eq!(String::from_utf8_lossy(&out.stdout), reference);
        }
    }
    let traces: Vec<String> = (0..4)
        .map(|rank| format!("fupermod_simulate.rank{rank}.trace.jsonl"))
        .collect();
    merge_report_validate(&dir, &traces.join(" "));
    std::fs::remove_dir_all(&dir).ok();
}

/// One sample line of the Prometheus text exposition,
/// `name{k="v",…} value`, label values as escaped.
struct Sample<'a> {
    name: &'a str,
    labels: Vec<(&'a str, &'a str)>,
    value: &'a str,
}

/// `line` as a [`Sample`], or `None` when it is not one.
fn exposition_sample(line: &str) -> Option<Sample<'_>> {
    let (head, value) = line.rsplit_once(' ')?;
    let number = !value.is_empty() && value.bytes().all(|b| b"0123456789.eE+-".contains(&b));
    if !(number || matches!(value, "+Inf" | "-Inf" | "NaN")) {
        return None;
    }
    // The length of the identifier `text` starts with; `:` is a name
    // character of metric names only.
    let ident = |text: &str, colon: bool| {
        let ok = |i: usize, c: char| {
            c == '_'
                || (colon && c == ':')
                || c.is_ascii_alphabetic()
                || (i > 0 && c.is_ascii_digit())
        };
        text.char_indices()
            .find(|&(i, c)| !ok(i, c))
            .map_or(text.len(), |(i, _)| i)
    };
    let (name, mut rest) = head.split_at(ident(head, true));
    if name.is_empty() {
        return None;
    }
    let mut labels = Vec::new();
    if !rest.is_empty() {
        rest = rest.strip_prefix('{')?;
        loop {
            let (key, after) = rest.split_at(ident(rest, false));
            let after = after.strip_prefix("=\"")?;
            let mut chars = after.char_indices();
            let close = loop {
                match chars.next()? {
                    (_, '\\') => {
                        chars.next()?;
                    }
                    (i, '"') => break i,
                    _ => {}
                }
            };
            if key.is_empty() {
                return None;
            }
            labels.push((key, &after[..close]));
            rest = &after[close + 1..];
            match rest.strip_prefix(',') {
                Some(next) => rest = next,
                None if rest == "}" => break,
                None => return None,
            }
        }
    }
    Some(Sample {
        name,
        labels,
        value,
    })
}

/// The partitioning daemon (docs/SERVE.md) answers a partition query
/// over points streamed in by concurrent clients byte for byte as the
/// offline builder + partitioner pipeline does; its `/metrics` answers
/// during load, parses, and counts each client's requests; `stats`
/// reads the same registry, uptime included; after `shutdown` the
/// daemon exits 0 and its metrics listener is gone.
#[test]
fn the_served_partition_is_the_offline_one_and_metrics_count_every_request() {
    let dir = temp_dir("serve-gate");
    let build = "--platform two-speed --points 8 --lo 64 --hi 8192 --out models";
    succeed(&mut command(BUILDER, &dir, build));
    let solve = "--models models --total 20000 --algorithm numerical --model akima";
    let offline = succeed(&mut command(PARTITIONER, &dir, solve));

    let mut daemon = Daemon::start(&["--metrics-listen".as_ref(), "127.0.0.1:0".as_ref()]);
    let metrics = daemon
        .metrics
        .clone()
        .expect("daemon never announced its metrics address");
    let client = |args: &str| command(SERVED, &dir, &format!("--connect {} {args}", daemon.addr));
    let scrape = |path: &str| {
        let args = format!("--mode scrape --connect {metrics} --path {path}");
        command(SERVED, &dir, &args)
    };
    succeed(&mut scrape("/healthz"));
    succeed(&mut scrape("/readyz"));
    let mut points: Vec<String> = std::fs::read_dir(dir.join("models"))
        .expect("cannot list the models")
        .map(|entry| entry.expect("a directory entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.ends_with(".points"))
        .collect();
    points.sort();
    let ingests: Vec<Child> = points
        .iter()
        .map(|name| {
            spawn(&mut client(&format!(
                "--mode ingest --points models/{name} --fingerprint {name}"
            )))
        })
        .collect();
    // The observability plane answers during load, not only at rest.
    succeed(&mut scrape("/healthz"));
    succeed(&mut scrape("/metrics"));
    // Each client prints `ingested N points …`, one request per point.
    let mut sent = 0;
    for (name, mut ingest) in points.iter().zip(ingests) {
        let out = finish(&format!("ingest {name}"), &mut ingest);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "ingest {name}: {}\n{stderr}",
            out.status
        );
        sent += String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|line| line.strip_prefix("ingested ")?.split_once(" points"))
            .map(|(n, _)| n.parse::<u64>().expect("a point count"))
            .sum::<u64>();
    }
    assert!(
        sent > 0,
        "the ingest clients reported no points: the gate is vacuous"
    );

    let query = format!(
        "--mode partition --fingerprints {} --total 20000 --algorithm numerical",
        points.join(",")
    );
    assert_eq!(succeed(&mut client(&query)), offline);

    let exposition = succeed(&mut scrape("/metrics"));
    let samples: Vec<_> = exposition
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            exposition_sample(line)
                .unwrap_or_else(|| panic!("unparsable exposition line: {line:?}"))
        })
        .collect();
    assert!(!samples.is_empty(), "no samples in /metrics");
    let requests = |want: &[(&str, &str)]| -> u64 {
        samples
            .iter()
            .filter(|s| {
                s.name == "served_requests_total" && want.iter().all(|w| s.labels.contains(w))
            })
            .map(|s| s.value.parse::<f64>().expect("a counter value") as u64)
            .sum()
    };
    assert_eq!(
        requests(&[("op", "ingest_point"), ("outcome", "ok")]),
        sent,
        "{exposition}"
    );
    assert!(
        requests(&[("op", "partition"), ("outcome", "ok")]) >= 1,
        "{exposition}"
    );
    assert_eq!(requests(&[("outcome", "error")]), 0, "{exposition}");

    // `stats` reads the registry snapshot the exposition serves.
    let stats = succeed(&mut client("--mode stats"));
    assert!(
        stats
            .lines()
            .any(|line| line.starts_with("uptime_seconds ")),
        "{stats}"
    );

    succeed(&mut client("--mode shutdown"));
    let status = finish("the daemon", &mut daemon.child).status;
    assert!(status.success(), "daemon: {status}");
    let late = finish(
        "a scrape after shutdown",
        &mut spawn(&mut scrape("/readyz")),
    );
    assert!(
        !late.status.success(),
        "metrics listener still answering after shutdown"
    );
    std::fs::remove_dir_all(&dir).ok();
}
