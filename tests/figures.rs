//! The paper's figures as a gate, and its claims as predicates.
//!
//! Every row of `fupermod_bench::experiments::ALL` is regenerated by
//! `fupermod_experiment`, one process per row because the telemetry
//! registry is process-global and its counters are rows of the traces.
//! All of them start before any is waited on. Each CSV must equal
//! `results/<name>.csv` byte for byte; for a host-timed row only its
//! header, its `d` column and its row count are compared. Each trace of
//! a traced, deterministic row must match its digest in
//! `results/traces.sha256`. A failure names the experiment and the file
//! and keeps the regenerated one under `CARGO_TARGET_TMPDIR`.
//! `scripts/run_experiments.sh` re-blesses both after a change that
//! moves a figure on purpose.
//!
//! The `claim_*` tests are the ✓s of EXPERIMENTS.md: each states one
//! claim of the paper, with its section, over the regenerated table.

use std::collections::BTreeSet;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;

use fupermod_bench::experiments::ALL;

/// Starts `fupermod_experiment NAME FLAGS…` with its CSV in
/// `dir/NAME.csv` and its stderr in `dir/NAME.log`.
fn start(dir: &Path, name: &str, flags: &[&str]) -> Child {
    let file = |ext: &str| {
        File::create(dir.join(format!("{name}.{ext}"))).expect("cannot create an output file")
    };
    Command::new(env!("CARGO_BIN_EXE_fupermod_experiment"))
        .arg(name)
        .args(flags)
        .env_remove("FUPERMOD_TRACE_DIR")
        .stdout(file("csv"))
        .stderr(file("log"))
        .spawn()
        .expect("cannot start fupermod_experiment")
}

/// Waits for `child`, the run of `name` writing into `dir`; describes
/// its failure.
fn failure(dir: &Path, name: &str, mut child: Child) -> Option<String> {
    let status = child.wait().expect("cannot wait for fupermod_experiment");
    let log = dir.join(format!("{name}.log"));
    (!status.success())
        .then(|| format!("{name}: exited with {status}; stderr in {}", log.display()))
}

/// An empty directory `name` under `CARGO_TARGET_TMPDIR`.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("cannot create the output directory");
    dir
}

/// Every row of the table, regenerated once, traced into one
/// directory: that directory, and each run that failed.
fn regenerated() -> &'static (PathBuf, Vec<String>) {
    static RUNS: OnceLock<(PathBuf, Vec<String>)> = OnceLock::new();
    RUNS.get_or_init(|| {
        let dir = fresh_dir("figures");
        let trace_dir = dir.to_str().expect("a UTF-8 target directory");
        let children: Vec<(&str, Child)> = ALL
            .iter()
            .map(|e| (e.name, start(&dir, e.name, &["--trace-dir", trace_dir])))
            .collect();
        let failed = children
            .into_iter()
            .filter_map(|(name, child)| failure(&dir, name, child))
            .collect();
        (dir, failed)
    })
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// The lines of a CSV that repeat from run to run: every line, or for a
/// host-timed experiment its header and each row's `d` cell (and so its
/// row count).
fn repeatable(csv: &str, host_timed: bool) -> Vec<&str> {
    let mut lines = csv.lines();
    let header = lines.next().unwrap_or_default();
    let d = header.split(',').position(|c| c == "d");
    let rows = lines.map(|l| match (host_timed, d) {
        (false, _) => l,
        (true, d) => d.and_then(|d| l.split(',').nth(d)).unwrap_or_default(),
    });
    std::iter::once(header).chain(rows).collect()
}

#[test]
fn every_figure_matches_results() {
    let (dir, failed) = regenerated();
    let mut moved = failed.clone();
    for e in ALL {
        let committed = results().join(format!("{}.csv", e.name));
        let fresh = dir.join(format!("{}.csv", e.name));
        let (want, got) = (read(&committed), read(&fresh));
        let (want_lines, got_lines) = (
            repeatable(&want, e.host_timed),
            repeatable(&got, e.host_timed),
        );
        let same = if e.host_timed {
            want_lines == got_lines
        } else {
            want == got
        };
        if !same {
            let line = want_lines
                .iter()
                .zip(&got_lines)
                .take_while(|(w, g)| w == g)
                .count()
                + 1;
            let (fresh, committed) = (fresh.display(), committed.display());
            let compared = if e.host_timed {
                ", comparing header, d column and row count"
            } else {
                ""
            };
            moved.push(format!(
                "{}: {fresh} moved from {committed} (first at line {line}{compared})",
                e.name
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "figures moved (re-bless with scripts/run_experiments.sh):\n{}",
        moved.join("\n")
    );
}

#[test]
fn every_trace_matches_its_digest() {
    let (dir, failed) = regenerated();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
    let digests = File::open(results().join("traces.sha256")).expect("results/traces.sha256");
    let out = Command::new("sha256sum")
        .args(["--quiet", "-c", "-"])
        .current_dir(dir)
        .stdin(digests)
        .stderr(Stdio::inherit())
        .output()
        .expect("cannot run sha256sum");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let moved: Vec<String> = stdout
        .lines()
        .filter_map(|l| l.split_once(": FAILED"))
        .map(|(file, _)| {
            let name = file.trim_end_matches(".trace.jsonl");
            format!(
                "{name}: {} does not match its digest in results/traces.sha256",
                dir.join(file).display()
            )
        })
        .collect();
    assert!(
        out.status.success() && moved.is_empty(),
        "traces moved (re-bless with scripts/run_experiments.sh):\n{}\n{stdout}",
        moved.join("\n")
    );
}

/// The table, `results/*.csv` and `results/traces.sha256` name the same
/// experiments: a CSV for each row, a row for each CSV, and a digest for
/// exactly the traced, deterministic rows.
#[test]
fn the_table_results_and_digests_agree() {
    let rows: BTreeSet<String> = ALL.iter().map(|e| e.name.to_owned()).collect();
    let csvs: BTreeSet<String> = fs::read_dir(results())
        .expect("results/")
        .map(|entry| entry.expect("results/ entry").file_name())
        .filter_map(|file| file.to_str()?.strip_suffix(".csv").map(str::to_owned))
        .collect();
    let digested: BTreeSet<&str> = ALL
        .iter()
        .filter(|e| e.traced && !e.host_timed)
        .map(|e| e.name)
        .collect();
    let digests = read(&results().join("traces.sha256"));
    let listed: BTreeSet<&str> = digests
        .lines()
        .filter_map(|l| l.split_whitespace().nth(1))
        .map(|file| file.trim_end_matches(".trace.jsonl"))
        .collect();
    assert_eq!(rows, csvs, "rows of experiments::ALL vs results/*.csv");
    assert_eq!(
        digested, listed,
        "traced, deterministic rows vs results/traces.sha256"
    );
}

/// A `--quick` run prints the full table's header, and every row has
/// its width.
#[test]
fn quick_runs_have_the_full_tables_shape() {
    let dir = fresh_dir("figures-quick");
    let runs = [
        ("fig2_interpolation", 20),
        ("exp1_partition_quality", 32),
        ("exp3_matmul_speedup", 12),
    ];
    let children: Vec<_> = runs
        .iter()
        .map(|&(name, _)| (name, start(&dir, name, &["--quick"])))
        .collect();
    let failed: Vec<String> = children
        .into_iter()
        .filter_map(|(name, child)| failure(&dir, name, child))
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
    for (name, min_rows) in runs {
        let quick = read(&dir.join(format!("{name}.csv")));
        let full = read(&results().join(format!("{name}.csv")));
        let mut lines = quick.lines();
        let header = lines.next().unwrap_or_default();
        assert_eq!(Some(header), full.lines().next(), "{name} --quick: header");
        let width = header.split(',').count();
        let rows: Vec<&str> = lines.collect();
        assert!(
            rows.len() >= min_rows,
            "{name} --quick: only {} rows",
            rows.len()
        );
        for row in rows {
            assert_eq!(
                row.split(',').count(),
                width,
                "{name} --quick: bad row {row}"
            );
        }
    }
}

/// The runner opens and finishes an experiment's trace through the same
/// pair as the `fupermod_*` binaries, so a traced run exports the whole
/// process-wide registry — each series exactly once.
#[test]
fn exp2_trace_carries_every_registry_series_once() {
    let dir = fresh_dir("figures-exp2-trace");
    let child = start(
        &dir,
        "exp2_dynamic_cost",
        &[
            "--runtime",
            "thread",
            "--trace-dir",
            dir.to_str().expect("UTF-8"),
        ],
    );
    if let Some(failed) = failure(&dir, "exp2_dynamic_cost", child) {
        panic!("{failed}");
    }
    let trace = read(&dir.join("exp2_dynamic_cost.trace.jsonl"));
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
        assert!(
            series.iter().any(|(s, _)| s == scope),
            "no {scope} in the trace"
        );
    }
    assert!(
        !series
            .iter()
            .any(|(s, _)| s.starts_with("comm.") || s == "bench.rep"),
        "retired histogram scopes reappeared: {series:?}"
    );
    let exported = series.len();
    series.sort();
    series.dedup();
    assert_eq!(
        series.len(),
        exported,
        "a scope/label set was exported twice"
    );
}

/// `-p P` is `--ranks P` on the experiments too.
#[test]
fn exp2_accepts_p_for_ranks() {
    let dir = fresh_dir("figures-exp2-ranks");
    let run = |ranks: &str| {
        let child = start(&dir, "exp2_dynamic_cost", &["--quick", ranks, "6"]);
        if let Some(failed) = failure(&dir, "exp2_dynamic_cost", child) {
            panic!("{failed}");
        }
        read(&dir.join("exp2_dynamic_cost.csv"))
    };
    let short = run("-p");
    let mut lines = short.lines();
    assert_eq!(
        lines.next(),
        Some("platform,total,approach,bench_cost_s,steps,imbalance")
    );
    assert!(
        lines
            .next()
            .is_some_and(|l| l.starts_with("two-speed-3f3s,")),
        "{short}"
    );
    assert_eq!(short, run("--ranks"));
}

/// A regenerated table, read to check a claim of the paper.
struct Table {
    section: &'static str,
    path: PathBuf,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Experiment `name`'s regenerated table, for a claim of paper
    /// `section`.
    fn read(section: &'static str, name: &str) -> Self {
        let path = regenerated().0.join(format!("{name}.csv"));
        let text = read(&path);
        let mut lines = text
            .lines()
            .map(|l| l.split(',').map(str::to_owned).collect());
        let header = lines.next().unwrap_or_default();
        let rows = lines.collect();
        Table {
            section,
            path,
            header,
            rows,
        }
    }

    /// Fails the claim, saying why, unless `holds`.
    fn claim(&self, holds: bool, why: std::fmt::Arguments) {
        let path = self.path.display();
        assert!(holds, "{} claim fails over {path}: {why}", self.section);
    }

    fn column(&self, name: &str) -> usize {
        let found = self.header.iter().position(|c| c == name);
        found.unwrap_or_else(|| panic!("{} has no column {name}", self.path.display()))
    }

    /// The rows whose cells equal `filter`'s, in table order.
    fn rows(&self, filter: &[(&str, &str)]) -> Vec<&[String]> {
        let filter: Vec<(usize, &str)> = filter.iter().map(|&(c, v)| (self.column(c), v)).collect();
        let selected = self
            .rows
            .iter()
            .filter(|r| filter.iter().all(|&(c, v)| r[c] == v));
        selected.map(Vec::as_slice).collect()
    }

    /// `column` of those rows, as numbers; an empty cell is NaN.
    fn nums(&self, filter: &[(&str, &str)], column: &str) -> Vec<f64> {
        let c = self.column(column);
        let num = |cell: &str| match cell {
            "" => f64::NAN,
            _ => cell
                .parse()
                .unwrap_or_else(|_| panic!("{}: {column} {cell:?}", self.path.display())),
        };
        self.rows(filter).iter().map(|r| num(&r[c])).collect()
    }

    /// `column` of the one row `filter` selects, as a number.
    fn num(&self, filter: &[(&str, &str)], column: &str) -> f64 {
        match self.nums(filter, column)[..] {
            [x] => x,
            ref all => panic!(
                "{}: {filter:?} selects {} rows",
                self.path.display(),
                all.len()
            ),
        }
    }

    /// The distinct values of `column`, in table order.
    fn values(&self, column: &str) -> Vec<&str> {
        let c = self.column(column);
        let mut seen = Vec::new();
        for r in &self.rows {
            if !seen.contains(&r[c].as_str()) {
                seen.push(r[c].as_str());
            }
        }
        seen
    }
}

/// FIG2 (paper Fig. 2): the Akima FPM passes through every measured
/// speed, and the coarsened piecewise FPM never promises more speed than
/// was measured. The speeds are host-timed; the shapes are not.
#[test]
fn claim_fig2_akima_follows_the_points_and_piecewise_stays_below() {
    let t = Table::read("Fig. 2", "fig2_interpolation");
    let (d, measured) = (t.nums(&[], "d"), t.nums(&[], "measured_gflops"));
    let (piecewise, akima) = (t.nums(&[], "piecewise_gflops"), t.nums(&[], "akima_gflops"));
    t.claim(
        measured.iter().filter(|m| !m.is_nan()).count() >= 2,
        format_args!("{measured:?}"),
    );
    // Within one unit of the last printed digit.
    for (i, m) in measured.iter().enumerate().filter(|(_, m)| !m.is_nan()) {
        let (d, pw, ak) = (d[i], piecewise[i], akima[i]);
        t.claim(
            (ak - m).abs() <= 1.0001e-4,
            format_args!("Akima {ak} vs measured {m} at d = {d}"),
        );
        t.claim(
            pw <= m + 1.0001e-4,
            format_args!("piecewise {pw} above measured {m} at d = {d}"),
        );
    }
}

/// FIG3 (paper Fig. 3): the dynamic partitioner balances two devices
/// within its 0.03 tolerance, every step moves each device's share
/// closer to its final one, and no partial model holds more points than
/// steps were taken.
#[test]
fn claim_fig3_partial_models_refine_toward_the_optimum() {
    let t = Table::read("Fig. 3", "fig3_partial_fpm");
    let steps = t.values("step");
    let last = steps[steps.len() - 1];
    let imbalance = t.nums(&[("step", last)], "imbalance");
    t.claim(
        imbalance.iter().all(|&i| i <= 0.03),
        format_args!("imbalance {imbalance:?} at step {last}"),
    );
    for device in t.values("device") {
        let share = |s| t.nums(&[("step", s), ("device", device)], "assigned_d")[0];
        let shares: Vec<f64> = steps.iter().map(|&s| share(s)).collect();
        let gaps: Vec<f64> = shares.iter().map(|s| (s - share(last)).abs()).collect();
        t.claim(
            gaps.windows(2).all(|w| w[1] < w[0]),
            format_args!("{device}'s shares {shares:?}"),
        );
        let points = t.rows(&[("step", last), ("device", device)]).len();
        t.claim(
            points <= steps.len(),
            format_args!("{device} holds {points} points"),
        );
    }
}

/// FIG4 (paper Fig. 4): Jacobi's rows start even and settle within five
/// iterations, the compute times then agree within 10 %, and the solver
/// still converges.
#[test]
fn claim_fig4_rows_settle_within_five_iterations() {
    let t = Table::read("Fig. 4", "fig4_jacobi_balancing");
    let first = t.nums(&[("iteration", "1")], "rows");
    t.claim(
        first.windows(2).all(|w| w[0] == w[1]),
        format_args!("first rows {first:?}"),
    );
    let settled = t.nums(&[("iteration", "5")], "rows");
    for it in t.values("iteration").into_iter().skip(4) {
        let rows = t.nums(&[("iteration", it)], "rows");
        t.claim(
            rows == settled,
            format_args!("rows {rows:?} at {it}, {settled:?} at 5"),
        );
        let times = t.nums(&[("iteration", it)], "compute_time");
        let (lo, hi) = times
            .iter()
            .fold((f64::MAX, 0.0_f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        t.claim(
            hi <= 1.1 * lo,
            format_args!("compute times {times:?} at iteration {it}"),
        );
    }
    let error = t.nums(&[], "error");
    t.claim(
        error[error.len() - 1] < 1e-10,
        format_args!("errors {error:?}"),
    );
}

/// EXP1 (§4.3) on the multicore node: even is already optimal, and
/// every algorithm is within 1 % of it.
#[test]
fn claim_exp1_multicore_even_is_already_optimal() {
    let t = Table::read("§4.3", "exp1_partition_quality");
    let speedups = t.nums(&[("platform", "multicore-6")], "speedup_vs_even");
    let within = speedups.iter().all(|s| (0.99..=1.01).contains(s));
    t.claim(
        !speedups.is_empty() && within,
        format_args!("speedups {speedups:?}"),
    );
}

/// EXP1 (§4.3) on two-speed: both FPMs are more than 1.2× faster than
/// even at every total.
#[test]
fn claim_exp1_two_speed_fpms_beat_even() {
    let t = Table::read("§4.3", "exp1_partition_quality");
    for fpm in ["fpm-geometric", "fpm-numerical"] {
        let rows = [("platform", "two-speed-2f2s"), ("partitioner", fpm)];
        let speedups = t.nums(&rows, "speedup_vs_even");
        let faster = speedups.iter().all(|&s| s > 1.2);
        t.claim(
            !speedups.is_empty() && faster,
            format_args!("{fpm}: {speedups:?}"),
        );
    }
}

/// EXP1 (§4.3) on the grid site: once the CPM's proportional share
/// pushes the GPU past its memory (200 000 and 800 000), the CPM is
/// slower than even and both FPMs beat it; the numerical FPM beats even
/// at every total.
#[test]
fn claim_exp1_grid_site_cpm_collapses_where_fpms_hold() {
    let t = Table::read("§4.3", "exp1_partition_quality");
    let speedup = |total, p| {
        let row = [
            ("platform", "grid-site"),
            ("total", total),
            ("partitioner", p),
        ];
        t.num(&row, "speedup_vs_even")
    };
    for total in ["200000", "800000"] {
        let cpm = speedup(total, "cpm");
        t.claim(cpm < 1.0, format_args!("CPM {cpm}× even at {total}"));
        for fpm in ["fpm-geometric", "fpm-numerical"] {
            let s = speedup(total, fpm);
            t.claim(s > cpm, format_args!("{fpm} {s}× vs CPM {cpm}× at {total}"));
        }
    }
    let rows = [("platform", "grid-site"), ("partitioner", "fpm-numerical")];
    let numerical = t.nums(&rows, "speedup_vs_even");
    let faster = numerical.iter().all(|&s| s > 1.0);
    t.claim(
        !numerical.is_empty() && faster,
        format_args!("numerical: {numerical:?}"),
    );
}

/// EXP2 (§4.4): on every platform the dynamic partial estimation costs
/// at most a tenth of the full models' benchmarking, and balances within
/// its own 0.05 tolerance.
#[test]
fn claim_exp2_dynamic_costs_a_tenth_at_comparable_balance() {
    let t = Table::read("§4.4", "exp2_dynamic_cost");
    for platform in t.values("platform") {
        let at =
            |approach, column| t.num(&[("platform", platform), ("approach", approach)], column);
        let (full, dynamic) = (
            at("full-fpm", "bench_cost_s"),
            at("dynamic-partial", "bench_cost_s"),
        );
        t.claim(
            dynamic <= 0.1 * full,
            format_args!("{platform}: {dynamic} s vs full {full} s"),
        );
        let imbalance = at("dynamic-partial", "imbalance");
        t.claim(
            imbalance <= 0.05,
            format_args!("{platform}: imbalance {imbalance}"),
        );
    }
}

/// EXP3 (§4.1): model-based partitioning beats even at every matrix
/// size, the FPM never loses to the CPM, and on hybrid-4 the FPM's lead
/// is widest at the largest size, where the GPU's CPM share passes its
/// memory.
#[test]
fn claim_exp3_model_based_wins_everywhere() {
    let t = Table::read("§4.1", "exp3_matmul_speedup");
    for platform in t.values("platform") {
        let speedups = |s| {
            t.nums(
                &[("platform", platform), ("strategy", s)],
                "speedup_vs_even",
            )
        };
        let (cpm, fpm) = (speedups("cpm"), speedups("fpm"));
        let wins = !cpm.is_empty() && cpm.iter().all(|&s| s > 1.0);
        t.claim(wins, format_args!("{platform}: CPM {cpm:?}"));
        let lead: Vec<f64> = fpm.iter().zip(&cpm).map(|(f, c)| f / c).collect();
        let never_loses = lead.len() == cpm.len() && lead.iter().all(|&l| l >= 1.0);
        t.claim(
            never_loses,
            format_args!("{platform}: FPM {fpm:?} vs CPM {cpm:?}"),
        );
        if platform == "hybrid-4" {
            let (last, before) = lead.split_last().expect("hybrid-4 rows");
            let widest = before.iter().all(|l| l < last);
            t.claim(widest, format_args!("hybrid-4: FPM/CPM {lead:?}"));
        }
    }
}

/// EXP4 (§4.1, Beaumont et al.): the columns' advantage over strips
/// grows with every p.
#[test]
fn claim_exp4_ratio_grows_with_p() {
    let t = Table::read("§4.1", "exp4_matrix2d_comm");
    let ratios = t.nums(&[], "ratio");
    t.claim(
        ratios.windows(2).all(|w| w[1] >= w[0]),
        format_args!("ratios {ratios:?}"),
    );
}

/// EXP4 (§4.1, Beaumont et al.): the ratio of strips to columns tracks
/// √p/2 (strips cost ≈ p·n, columns ≈ 2n√p): closer at every p, and
/// within 10 % from p = 16.
#[test]
fn claim_exp4_ratio_tracks_sqrt_p_over_2() {
    let t = Table::read("§4.1", "exp4_matrix2d_comm");
    let (ps, ratios) = (t.nums(&[], "p"), t.nums(&[], "ratio"));
    let gaps: Vec<f64> = ps
        .iter()
        .zip(&ratios)
        .map(|(p, r)| (r / (p.sqrt() / 2.0) - 1.0).abs())
        .collect();
    let closer = gaps.windows(2).all(|w| w[1] < w[0]);
    let close = ps.iter().zip(&gaps).all(|(&p, &g)| p < 16.0 || g < 0.1);
    t.claim(
        closer && close,
        format_args!("relative gaps {gaps:?} over p = {ps:?}"),
    );
}

/// EXP5 (§3): single-shot measurement degrades with every step of
/// noise, while the Student-t stopping rule holds the imbalance at or
/// below 0.04 from 10 % noise up.
#[test]
fn claim_exp5_student_t_holds_balance_under_noise() {
    let t = Table::read("§3", "exp5_noise_sensitivity");
    let single = t.nums(&[("strategy", "single-shot")], "imbalance");
    t.claim(
        single.windows(2).all(|w| w[1] > w[0]),
        format_args!("single-shot {single:?}"),
    );
    let noise = t.nums(&[("strategy", "student-t")], "noise");
    let student = t.nums(&[("strategy", "student-t")], "imbalance");
    for (n, i) in noise.iter().zip(&student).filter(|(&n, _)| n >= 0.1) {
        t.claim(
            *i <= 0.04,
            format_args!("Student-t imbalance {i} at noise {n}"),
        );
    }
}

/// EXP7 (§4.1, extension): partitioning across nodes through their
/// aggregate models, then within them, loses at most 1 % of makespan to
/// the flat partition.
#[test]
fn claim_exp7_hierarchical_matches_flat() {
    let t = Table::read("§4.1", "exp7_hierarchy");
    for total in t.values("total") {
        let makespan = |a| t.num(&[("total", total), ("approach", a)], "makespan");
        let (flat, hier) = (makespan("flat"), makespan("hierarchical"));
        t.claim(
            hier <= 1.01 * flat,
            format_args!("{hier} vs flat {flat} at {total}"),
        );
    }
}

/// EXP8 (§4.2): on every device, Akima beats the other three models on
/// maximum error, mean error and partition imbalance.
#[test]
fn claim_exp8_akima_is_best_on_every_metric() {
    let t = Table::read("§4.2", "exp8_interpolation_error");
    for device in t.values("device") {
        for metric in ["max_rel_err", "mean_rel_err", "imbalance"] {
            let of = |model| t.num(&[("device", device), ("model", model)], metric);
            let akima = of("akima");
            for other in ["piecewise", "cubic", "linear"] {
                let x = of(other);
                t.claim(
                    akima < x,
                    format_args!("{device}: {metric} Akima {akima}, {other} {x}"),
                );
            }
        }
    }
}

/// EXP9 (§4.3): for one run, dynamic estimation costs less in total than
/// both no models and full models; over twenty runs both model-based
/// approaches beat even.
#[test]
fn claim_exp9_dynamic_wins_one_run_and_models_pay_off_over_twenty() {
    let t = Table::read("§4.3", "exp9_dynamic_matmul");
    for platform in t.values("platform") {
        let total = |a, k| t.num(&[("platform", platform), ("approach", a)], k);
        let dynamic = total("dynamic", "total_1run");
        for other in ["even", "full-models"] {
            let x = total(other, "total_1run");
            t.claim(
                dynamic < x,
                format_args!("{platform}, one run: dynamic {dynamic}, {other} {x}"),
            );
        }
        let even = total("even", "total_20runs");
        for model in ["full-models", "dynamic"] {
            let x = total(model, "total_20runs");
            t.claim(
                x < even,
                format_args!("{platform}, twenty runs: {model} {x}, even {even}"),
            );
        }
    }
}
