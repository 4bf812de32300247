//! `fupermod-benchmark` — the repo's one end-to-end, layer-attributed
//! benchmark (see README.md beside this crate and `BENCHMARK.json` at
//! the repo root).
//!
//! ```text
//! fupermod-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, this process
//! fupermod-benchmark run       [--seed N] [--workload W]... [--sets K] [--seconds S] [--out FILE]
//! fupermod-benchmark trace     [--seed N] [--workload W]...
//! fupermod-benchmark selfcheck [--seed N] [--workload W]... [--sets K] [--seconds S]
//! fupermod-benchmark compare A.json B.json
//! fupermod-benchmark list
//! fupermod-benchmark goldens
//! ```

mod compare;
mod goldens;
mod probes;
mod results;
mod runner;
mod spec;
mod stats;
mod suite;
mod sys;
mod tracer;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Everything the harness writes goes under `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--flag value` pairs after the subcommand; `--workload` repeats.
#[derive(Debug, Default)]
pub struct Flags {
    pub workloads: Vec<String>,
    pub seed: Option<u64>,
    pub seconds: Option<f64>,
    pub trace: Option<bool>,
    pub sets: Option<usize>,
    pub setups: Option<usize>,
    pub passes: Option<usize>,
    pub out: Option<PathBuf>,
    pub positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut f = Self::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                f.positional.push(arg.clone());
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
            let bad = |what: &str| format!("{arg} wants {what}, got '{value}'");
            match arg.as_str() {
                "--workload" => f.workloads.push(value.clone()),
                "--seed" => f.seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err(bad("a non-negative number of seconds"));
                    }
                    f.seconds = Some(s);
                }
                "--trace" => {
                    f.trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    });
                }
                "--sets" => f.sets = Some(value.parse().map_err(|_| bad("a count"))?),
                "--setups" => f.setups = Some(value.parse().map_err(|_| bad("a count"))?),
                "--passes" => f.passes = Some(value.parse().map_err(|_| bad("a count"))?),
                "--out" => f.out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {arg}")),
            }
        }
        for w in &f.workloads {
            if !spec::WORKLOADS.iter().any(|s| s.name == w) {
                return Err(format!("unknown workload '{w}' (see `list`)"));
            }
        }
        Ok(f)
    }

    /// The selected workloads, all eight by default, in table order.
    pub fn selected(&self) -> Vec<&'static str> {
        spec::WORKLOADS
            .iter()
            .map(|w| w.name)
            .filter(|n| self.workloads.is_empty() || self.workloads.iter().any(|w| w == n))
            .collect()
    }
}

fn list() {
    println!("workloads:");
    for w in &spec::WORKLOADS {
        println!("  {:<34} {}", w.name, w.why);
    }
    println!("end-to-end metrics (every workload; bound = allowed worsening, share of the parent's median):");
    for m in &spec::END_TO_END {
        println!(
            "  {:<34} {:<8} {:<6} bound {:<5} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.why
        );
    }
    println!(
        "  {:<34} {:<8} {:<6} exact       failed / attempted of the result line; must stay 0",
        "failed_ops_share", "ratio", "lower"
    );
    println!(
        "  {:<34} {:<8} {:<6} exact       simulated seconds, reported with the per-layer metrics and compared bit-exactly",
        "virtual_s",
        "sim_s",
        "lower"
    );
    println!("per-layer metrics (traced run; 0 on a workload that bypasses the layer):");
    for m in &spec::PER_LAYER {
        println!(
            "  {:<34} {:<8} {:<6} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.how
        );
    }
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &args[1..]),
        Some(_) => ("one", &args[..]),
        None => return Err("no command; try `list`, `run --seed 1` or `trace --seed 1`".to_owned()),
    };
    let flags = Flags::parse(rest)?;
    match command {
        "one" => {
            let [workload] = flags.workloads.as_slice() else {
                return Err("exactly one --workload is needed".to_owned());
            };
            let trace = flags.trace.unwrap_or(false);
            runner::run(&runner::RunOpts {
                workload: workload.clone(),
                seed: flags.seed.unwrap_or(1),
                seconds: flags.seconds.unwrap_or(8.0),
                trace,
                setups: flags.setups.unwrap_or(3),
                passes: flags.passes,
            })
            // Failed checks are reported in the result line
            // (`correct: false`); the exit code says the run happened.
            .map(|_| true)
        }
        "run" => suite::run(&flags),
        "trace" => suite::trace(&flags),
        "selfcheck" => suite::selfcheck(&flags),
        "goldens" => suite::goldens(),
        "compare" => compare::command(&flags.positional),
        "list" => {
            list();
            Ok(true)
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("fupermod-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fupermod_trace::Json;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect()
    }

    /// `BENCHMARK.json` names exactly what `list` prints, in order,
    /// with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");

        let workloads: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names(&doc, "workloads"), workloads);
        let e2e: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layers: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names(&doc, "per_layer"), layers);

        let mut seen = std::collections::BTreeSet::new();
        for name in workloads.iter().chain(&e2e).chain(&layers) {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(*name), "name {name} used twice");
        }
        for (w, j) in spec::WORKLOADS
            .iter()
            .zip(doc.get("workloads").unwrap().as_array().unwrap())
        {
            assert_eq!(j.get("why").and_then(Json::as_str), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        for (m, j) in spec::END_TO_END
            .iter()
            .zip(doc.get("end_to_end").unwrap().as_array().unwrap())
        {
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for (m, j) in spec::PER_LAYER
            .iter()
            .zip(doc.get("per_layer").unwrap().as_array().unwrap())
        {
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.as_str())
            );
        }
        for exact in spec::EXACT_PER_LAYER {
            assert!(layers.contains(&exact), "{exact} is not a per-layer metric");
        }
    }

    #[test]
    fn flags_parse_the_contract_invocation() {
        let args: Vec<String> = "--workload tcp_bulk --seed 7 --seconds 8 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let f = Flags::parse(&args).unwrap();
        assert_eq!(f.workloads, ["tcp_bulk"]);
        assert_eq!(
            (f.seed, f.seconds, f.trace),
            (Some(7), Some(8.0), Some(true))
        );
        assert!(Flags::parse(&["--workload".into(), "nope".into()]).is_err());
        assert!(Flags::parse(&["--trace".into(), "2".into()]).is_err());
        assert_eq!(Flags::default().selected().len(), 8);
    }
}
