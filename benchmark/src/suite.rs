//! The suite commands. Each workload of each set runs in its own
//! child process (this executable in its one-workload mode), so memory
//! and CPU time are per workload; sets are **interleaved** — set 1 of
//! every workload, then set 2, … — so a multi-second noise burst lands
//! on one set of each workload instead of on every pass of one.

use std::collections::BTreeMap;
use std::process::Command;

use fupermod_trace::Json;

use crate::results::{RunFile, Series, WorkloadResult};
use crate::spec::{END_TO_END, EXACT_PER_LAYER, PER_LAYER};
use crate::sys::Host;
use crate::{out_dir, Flags};

const DEFAULT_SETS: usize = 3;
const DEFAULT_PASSES: usize = 4;
const TRACED_PASSES: usize = 2;

/// What one child printed: its `# detail` line and its result line.
struct Child {
    detail: Json,
    result: Json,
}

impl Child {
    fn count(&self, key: &str) -> u64 {
        self.result.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn floats(&self, key: &str) -> Vec<f64> {
        self.detail
            .get(key)
            .and_then(Json::as_array)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    }

    fn hex(&self, key: &str) -> Option<u64> {
        crate::results::parse_hex(self.detail.get(key)?.as_str()?)
    }
}

/// Runs one workload in a child process and waits for it. The child
/// carries its own watchdog; `Err` is a child that died or printed no
/// result, which the caller counts as every op failed.
fn spawn(
    workload: &str,
    seed: u64,
    trace: bool,
    extra: &[(&str, String)],
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }]);
    for (flag, value) in extra {
        cmd.args([flag, value.as_str()]);
    }
    // stderr is inherited: the child's layer table and failure notes
    // reach the user as they happen.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} child ended with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("{workload} child printed nothing"))?;
    let detail = lines
        .find_map(|l| l.strip_prefix("# detail "))
        .ok_or_else(|| format!("{workload} child printed no detail line"))?;
    Ok(Child {
        detail: Json::parse(detail).map_err(|e| format!("{workload} detail line: {e}"))?,
        result: Json::parse(result).map_err(|e| format!("{workload} result line: {e}"))?,
    })
}

/// Runs every selected workload `sets` times, interleaved, and folds
/// the children's samples into one result file.
fn run_sets(flags: &Flags, label: &str) -> Result<RunFile, String> {
    let seed = flags.seed.unwrap_or(1);
    let sets = flags.sets.unwrap_or(DEFAULT_SETS);
    let extra = [
        ("--setups", "1".to_owned()),
        (
            "--passes",
            flags.passes.unwrap_or(DEFAULT_PASSES).to_string(),
        ),
    ];
    let mut workloads: BTreeMap<String, WorkloadResult> = BTreeMap::new();
    for set in 0..sets {
        for name in flags.selected() {
            eprintln!("# {label}: set {}/{sets}, {name}", set + 1);
            let w = workloads.entry(name.to_owned()).or_default();
            let child = match spawn(name, seed, false, &extra) {
                Ok(child) => child,
                Err(why) => {
                    // A killed or crashed child: every op failed.
                    eprintln!("FAILED {name}: {why}");
                    w.attempted += 1;
                    w.failed += 1;
                    continue;
                }
            };
            w.attempted += child.count("attempted");
            w.failed += child.count("failed");
            let bits = child.hex("virtual_s_bits").unwrap_or(0);
            if set > 0 && bits != w.virtual_s_bits {
                eprintln!("FAILED {name}: virtual_s changed between sets of one seed");
                w.failed += 1;
            }
            w.virtual_s_bits = bits;
            for m in &END_TO_END {
                let per_pass = child.floats(m.name);
                let value = child
                    .metric(m.name)
                    .ok_or_else(|| format!("{name}: no {}", m.name))?;
                let series: &mut Series = w.metrics.entry(m.name.to_owned()).or_default();
                series.sets.push(value);
                if per_pass.is_empty() {
                    series.samples.push(value);
                } else {
                    series.samples.extend(per_pass);
                }
            }
        }
    }
    Ok(RunFile {
        host: Host::detect(),
        seed,
        workloads,
    })
}

fn print_run(file: &RunFile) {
    println!(
        "# host: nproc {} kernel {} sha {}{} seed {}",
        file.host.nproc,
        file.host.kernel,
        file.host.sha,
        if file.host.dirty { " (dirty)" } else { "" },
        file.seed
    );
    println!(
        "{:<16} {:<17} {:<6} {:>14} {:>14} {:>14} {:>14} {:>4}  clock",
        "workload", "metric", "unit", "value", "pass median", "pass q1", "pass q3", "n"
    );
    for (name, w) in &file.workloads {
        for m in &END_TO_END {
            let Some(series) = w.metrics.get(m.name) else {
                continue;
            };
            let s = series.passes();
            println!(
                "{name:<16} {:<17} {:<6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>4}  host",
                m.name,
                m.unit,
                series.runs().median,
                s.median,
                s.q1,
                s.q3,
                s.n
            );
        }
        println!(
            "{name:<16} {:<17} {:<6} {:>14.6} {:>14} {:>14} {:>14} {:>4}  host",
            "failed_ops_share",
            "ratio",
            w.failed_ops_share(),
            "-",
            "-",
            "-",
            w.attempted
        );
        println!(
            "{name:<16} {:<17} {:<6} {:>14} {:>14} {:>14} {:>14} {:>4}  simulated",
            "virtual_s",
            "sim_s",
            format!("{}", f64::from_bits(w.virtual_s_bits)),
            "-",
            "-",
            "-",
            1
        );
    }
}

fn all_passed(file: &RunFile) -> bool {
    file.workloads.values().all(|w| w.failed == 0)
}

pub fn run(flags: &Flags) -> Result<bool, String> {
    let file = run_sets(flags, "run")?;
    print_run(&file);
    let path = flags
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("run-seed{}.json", file.seed)));
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("cannot create {:?}: {e}", out_dir()))?;
    std::fs::write(&path, file.to_json()).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    println!("# wrote {}", path.display());
    Ok(all_passed(&file))
}

/// Workload → per-layer metric → value.
type LayerValues = BTreeMap<&'static str, BTreeMap<&'static str, f64>>;

/// The traced run of every selected workload: per-layer metrics by
/// workload, the merged `trace.json`, and whether every check passed.
fn trace_all(flags: &Flags) -> Result<(LayerValues, bool), String> {
    let seed = flags.seed.unwrap_or(1);
    let extra = [(
        "--passes",
        flags.passes.unwrap_or(TRACED_PASSES).to_string(),
    )];
    let mut by_workload = BTreeMap::new();
    let mut traces = Vec::new();
    let mut ok = true;
    for name in flags.selected() {
        eprintln!("# trace: {name}");
        let child = match spawn(name, seed, true, &extra) {
            Ok(child) => child,
            Err(why) => {
                eprintln!("FAILED {name}: {why}");
                ok = false;
                continue;
            }
        };
        ok &= child.count("failed") == 0;
        let values: BTreeMap<&'static str, f64> = PER_LAYER
            .iter()
            .filter_map(|m| Some((m.name, child.metric(m.name)?)))
            .collect();
        println!(
            "# {name}: top layer {} (host time)",
            child
                .detail
                .get("top_layer")
                .and_then(Json::as_str)
                .unwrap_or("?")
        );
        for m in &PER_LAYER {
            let v = values.get(m.name).copied().unwrap_or(0.0);
            if v != 0.0 {
                let clock = if m.unit == "sim_s" {
                    "simulated"
                } else {
                    "host"
                };
                println!(
                    "{name:<16} {:<38} {:>16.6} {:<8} {clock}",
                    m.name, v, m.unit
                );
            }
        }
        by_workload.insert(name, values);
        let path = out_dir().join(format!("trace-{name}.json"));
        traces.push(
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?,
        );
    }
    let merged = format!(
        "{{\"seed\":{seed},\"workloads\":[\n{}]}}\n",
        traces.join(",")
    );
    let path = out_dir().join("trace.json");
    std::fs::write(&path, merged).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    println!("# wrote {}", path.display());
    Ok((by_workload, ok))
}

pub fn trace(flags: &Flags) -> Result<bool, String> {
    trace_all(flags).map(|(_, ok)| ok)
}

/// Runs the whole benchmark twice on this build and holds the two to
/// the benchmark's own bounds.
pub fn selfcheck(flags: &Flags) -> Result<bool, String> {
    let first = run_sets(flags, "selfcheck A")?;
    let second = run_sets(flags, "selfcheck B")?;
    let mut ok = all_passed(&first) && all_passed(&second);
    println!(
        "{:<16} {:<14} {:>13} {:>13} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "gap", "bound", "spread"
    );
    for (name, a) in &first.workloads {
        let b = &second.workloads[name];
        for m in &END_TO_END {
            let (sa, sb) = (&a.metrics[m.name], &b.metrics[m.name]);
            let (ma, mb) = (sa.runs().median, sb.runs().median);
            let gap = (ma - mb).abs() / ma.min(mb);
            let spread = sa.set_spread().max(sb.set_spread());
            let verdict = if gap <= m.bound {
                "agree"
            } else if spread > m.bound {
                "unresolved"
            } else {
                ok = false;
                "DISAGREE"
            };
            println!(
                "{name:<16} {:<14} {ma:>13.6} {mb:>13.6} {:>7.1}% {:>6.1}% {:>7.1}%  {verdict}",
                m.name,
                gap * 100.0,
                m.bound * 100.0,
                spread * 100.0
            );
        }
        let same = a.virtual_s_bits == b.virtual_s_bits;
        ok &= same;
        println!(
            "{name:<16} {:<14} {:>13} {:>13} {:>8} {:>7} {:>8}  {}",
            "virtual_s",
            f64::from_bits(a.virtual_s_bits),
            f64::from_bits(b.virtual_s_bits),
            "-",
            "exact",
            "-",
            if same { "identical" } else { "DIFFERS" }
        );
    }
    // The exact per-layer metrics must repeat to the bit as well.
    let (layers_a, ok_a) = trace_all(flags)?;
    let (layers_b, ok_b) = trace_all(flags)?;
    ok &= ok_a && ok_b;
    for (name, a) in &layers_a {
        for metric in EXACT_PER_LAYER {
            let (va, vb) = (
                a.get(metric),
                layers_b.get(name).and_then(|b| b.get(metric)),
            );
            if va.map(|v| v.to_bits()) != vb.map(|v| v.to_bits()) {
                ok = false;
                println!("{name:<16} {metric:<38} {va:?} vs {vb:?}  DIFFERS (must be exact)");
            }
        }
    }
    println!(
        "# exact per-layer metrics compared on {} workloads",
        layers_a.len()
    );
    Ok(ok)
}

/// Regenerates `goldens.json` from one pass of every workload at
/// seed 1. Rebuild afterwards: the file is compiled in.
pub fn goldens() -> Result<bool, String> {
    let extra = [("--setups", "1".to_owned()), ("--passes", "1".to_owned())];
    let mut members = Vec::new();
    for name in crate::spec::WORKLOADS.iter().map(|w| w.name) {
        eprintln!("# goldens: {name} (a mismatch against the old file is expected here)");
        let child = spawn(name, 1, false, &extra)?;
        let exact = child
            .detail
            .get("exact")
            .and_then(Json::as_object)
            .map(|o| {
                o.iter()
                    .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(0.0) as u64))
                    .collect()
            })
            .unwrap_or_default();
        let golden = crate::goldens::Golden {
            virtual_s_bits: child
                .hex("virtual_s_bits")
                .ok_or("child printed no virtual_s_bits")?,
            fingerprint: child
                .hex("fingerprint")
                .ok_or("child printed no fingerprint")?,
            exact,
        };
        members.push(golden.to_json_member(name));
    }
    let text = format!(
        "{{\n  \"seed\": 1,\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        members.join(",\n")
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens.json");
    std::fs::write(&path, text).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    println!("# wrote {}; rebuild to compile it in", path.display());
    Ok(true)
}
