//! The command line of every binary in the workspace — the six
//! `fupermod_*` tools, `fupermod_experiment` among them — and the one
//! definition of each flag they share (re-exported as `fupermod::cli`).
//!
//! [`Args`] reads three shapes: `--flag value` pairs, the bare switches
//! `--quick` and `--json`, and positional arguments. The helpers below
//! read the shared flags from it: platform and partitioner selection,
//! `--ranks`/`-p`, `--parallelism` (or `FUPERMOD_PARALLELISM`), the
//! runtime flags of `docs/RUNTIME.md` §5, and the `--trace PATH` /
//! `--trace-dir DIR` sink (or `FUPERMOD_TRACE_DIR`, so a whole pipeline
//! of binaries can be traced without editing each invocation; see
//! `docs/OBSERVABILITY.md`). A usage error exits with status 2.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

use fupermod_core::partition::{
    ConstantPartitioner, EvenPartitioner, GeometricPartitioner, NumericalPartitioner, Partitioner,
};
use fupermod_core::telemetry;
use fupermod_core::trace::TraceSink;
use fupermod_platform::Platform;
use fupermod_runtime::{AlgorithmPolicy, FaultPlan, RuntimeConfig, SimEngine};

/// Largest rank count the thread engine will accept: one OS thread per
/// rank stops being a simulation strategy and starts being a
/// fork bomb well before the default pthread limits bite. Past this,
/// `--sim-engine event` runs the same scenarios in one thread.
pub const THREAD_RANKS_CAP: usize = 512;

/// The flags that take no value, on every binary: `--quick` (the
/// experiments' smaller sweep) and `--json` (`fupermod_tracetool
/// report`).
const SWITCHES: [&str; 2] = ["quick", "json"];

/// Prints `msg` to stderr and exits with status 2, the usage-error
/// status of every binary.
pub fn exit_usage(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// A parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    /// Parses the process arguments (see [`Args::parse_from`]).
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses `args`: a word starting with `-` is a flag (`--ranks` and
    /// `-p` alike, keyed without the dashes) that takes the next word as
    /// its value, unless it is a bare switch; any other word is
    /// positional. The last of a repeated flag wins. Exits with status 2
    /// on a flag without a value.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut parsed = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let key = arg.trim_start_matches('-');
            if key.is_empty() || key.len() == arg.len() {
                parsed.positional.push(arg);
            } else if SWITCHES.contains(&key) {
                parsed.switches.push(key.to_owned());
            } else {
                let Some(value) = args.next() else {
                    exit_usage(format_args!("missing value for --{key}"));
                };
                parsed.values.insert(key.to_owned(), value);
            }
        }
        parsed
    }

    /// The value of `--key`, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// The value of `--key`, or `default`.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Whether the bare switch `--name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// The value of `--key` parsed as `T`, if given. Exits with status 2
    /// when it does not parse.
    pub fn value<T: FromStr>(&self, key: &str) -> Option<T> {
        let raw = self.get(key)?;
        Some(
            raw.parse()
                .unwrap_or_else(|_| exit_usage(format_args!("invalid --{key} value {raw:?}"))),
        )
    }

    /// [`Args::value`], or `default` when `--key` is absent.
    pub fn value_or<T: FromStr>(&self, key: &str, default: T) -> T {
        self.value(key).unwrap_or(default)
    }

    /// [`Args::value`] of a flag the run cannot do without. Exits with
    /// status 2 when it is absent.
    pub fn required<T: FromStr>(&self, key: &str) -> T {
        self.value(key)
            .unwrap_or_else(|| exit_usage(format_args!("--{key} is required")))
    }

    /// Exits with status 2 naming a flag or switch not in `known`.
    pub fn reject_unknown(&self, known: &[&str]) {
        let mut given = self.values.keys().chain(&self.switches);
        if let Some(key) = given.find(|k| !known.contains(&k.as_str())) {
            exit_usage(format_args!("unknown option --{key}"));
        }
    }
}

/// Resolves a simulated platform by name — at the family's own size, or
/// scaled to `p` devices (`--ranks P`): `uniform4` becomes `p` identical
/// cores, `two-speed` splits `p` between fast and slow halves,
/// `multicore`/`hybrid` become a `p`-core node. `grid` is a fixed
/// 16-device site and exits with status 2 when scaled, as does an
/// unknown name.
pub fn scaled_platform(name: &str, p: Option<usize>, seed: u64) -> Platform {
    match (name, p) {
        ("uniform4", p) => Platform::uniform(p.unwrap_or(4), seed),
        ("two-speed", p) => {
            let p = p.unwrap_or(4);
            Platform::two_speed(p.div_ceil(2), p / 2, seed)
        }
        ("multicore", p) => Platform::multicore_node(p.unwrap_or(6), seed),
        ("hybrid", Some(p)) if p < 2 => exit_usage(format_args!(
            "--platform hybrid needs --ranks of at least 2 (got {p})"
        )),
        ("hybrid", p) => Platform::hybrid_node(p.unwrap_or(4), seed),
        ("grid", None) => Platform::grid_site(seed),
        ("grid", Some(_)) => exit_usage(
            "--platform grid is a fixed 16-device site; drop --ranks or pick a scalable family",
        ),
        (other, _) => exit_usage(format_args!("unknown platform '{other}'")),
    }
}

/// Parses the `--ranks N` (alias `-p N`) process-count override.
/// Returns `None` when the flag is absent; exits with status 2 on
/// `--ranks 0` or a non-integer value.
pub fn ranks(args: &Args) -> Option<usize> {
    let raw = args.get("ranks").or_else(|| args.get("p"))?;
    match raw.parse::<usize>() {
        Ok(0) => exit_usage("--ranks must be at least 1 (got 0)"),
        Ok(p) => Some(p),
        Err(_) => exit_usage(format_args!(
            "invalid --ranks value {raw:?} (want a positive integer)"
        )),
    }
}

/// Parses the `--sim-engine thread|event` flag (default `thread`, the
/// original one-OS-thread-per-rank backend). `event` selects the
/// single-threaded discrete-event interpreter — same virtual clocks,
/// `10⁴`–`10⁶` ranks (see `docs/RUNTIME.md` §9). Exits with status 2
/// on an unknown spelling.
pub fn sim_engine(args: &Args) -> SimEngine {
    args.get("sim-engine").map_or_else(SimEngine::default, |s| {
        SimEngine::parse(s).unwrap_or_else(|e| exit_usage(format_args!("--sim-engine: {e}")))
    })
}

/// Resolves a partitioning algorithm by name. Exits with status 2 on
/// an unknown name.
pub fn pick_partitioner(name: &str) -> Box<dyn Partitioner> {
    match name {
        "even" => Box::new(EvenPartitioner),
        "constant" => Box::new(ConstantPartitioner),
        "geometric" => Box::new(GeometricPartitioner::default()),
        "numerical" => Box::new(NumericalPartitioner::default()),
        other => exit_usage(format_args!("unknown algorithm '{other}'")),
    }
}

/// Coordinates of one process of a multi-process TCP job, from the
/// `--transport tcp --rank-id K --world N --rendezvous HOST:PORT`
/// flags (see `docs/RUNTIME.md` §10).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpTransport {
    /// This process's rank (`--rank-id`, `0..world`).
    pub rank: usize,
    /// Total process count of the job (`--world`).
    pub world: usize,
    /// Rank 0's rendezvous address, `host:port` (`--rendezvous`).
    /// Rank 0 listens on it; every other rank dials it.
    pub rendezvous: String,
}

/// Parses the `--transport` flag family. Returns `None` for the
/// default in-process transport (`--transport local` or absent);
/// `Some` for `--transport tcp`, which requires `--rank-id`,
/// `--world` and `--rendezvous`. Exits with status 2 on an unknown
/// transport, a missing companion flag, or out-of-range coordinates.
pub fn tcp_transport(args: &Args) -> Option<TcpTransport> {
    match args.get("transport") {
        None | Some("local") => return None,
        Some("tcp") => {}
        Some(other) => exit_usage(format_args!(
            "--transport must be local or tcp (got '{other}')"
        )),
    }
    let (rank, world): (usize, usize) = (args.required("rank-id"), args.required("world"));
    let rendezvous = args.required("rendezvous");
    if world == 0 || rank >= world {
        exit_usage(format_args!("--rank-id {rank} outside --world {world}"));
    }
    Some(TcpTransport {
        rank,
        world,
        rendezvous,
    })
}

/// Parses the `--parallelism N` flag, or else the `FUPERMOD_PARALLELISM`
/// environment variable: model-build worker-thread count. Defaults to
/// `1` (serial — the reproducible default); `0` means one worker per
/// available core. Parallel and serial builds produce bit-identical
/// models and traces (see [`fupermod_core::builder::ModelBuilder`]), so
/// this knob only changes wall-clock time. Exits with status 2 on a
/// non-integer value.
pub fn parallelism(args: &Args) -> usize {
    let raw = args.get("parallelism").map(str::to_owned);
    match raw.or_else(|| std::env::var("FUPERMOD_PARALLELISM").ok()) {
        Some(s) => s.parse().unwrap_or_else(|_| {
            exit_usage(format_args!(
                "invalid --parallelism value {s:?} (want a non-negative integer)"
            ))
        }),
        None => 1,
    }
}

/// Parses the `--fault-plan SPEC` flag into a [`FaultPlan`]: inline
/// JSON when SPEC starts with `{`, otherwise a path to a JSON file
/// (schema in `docs/RUNTIME.md`). Returns the empty plan when the flag
/// is absent; exits with status 2 on an invalid plan.
pub fn fault_plan(args: &Args) -> FaultPlan {
    let Some(spec) = args.get("fault-plan") else {
        return FaultPlan::none();
    };
    let parsed = if spec.trim_start().starts_with('{') {
        FaultPlan::from_json(spec)
    } else {
        FaultPlan::from_json_file(Path::new(spec))
    };
    parsed.unwrap_or_else(|e| exit_usage(format_args!("invalid --fault-plan: {e}")))
}

/// Parses the `--collectives hub|ring|tree|auto` flag into an
/// [`AlgorithmPolicy`] (default `hub`, the compatibility schedule).
/// All policies produce bitwise-identical collective results on
/// fault-free plans; they differ in schedule shape and therefore in
/// simulated virtual time and scaling (see `docs/RUNTIME.md` §6).
/// Exits with status 2 on an unknown spelling.
pub fn collectives(args: &Args) -> AlgorithmPolicy {
    args.get("collectives")
        .map_or_else(AlgorithmPolicy::default, |s| {
            AlgorithmPolicy::parse(s).unwrap_or_else(|| {
                exit_usage(format_args!(
                    "--collectives must be hub, ring, tree or auto (got '{s}')"
                ))
            })
        })
}

/// Builds the runtime configuration selected by `--runtime
/// serial|thread|sim` and `--sim-engine thread|event` for a distributed
/// run on `platform`, applying [`fault_plan`], the [`collectives`]
/// algorithm policy, and routing runtime `comm`/`fault` trace events to
/// `sink` when given. Returns `None` for `serial`: no runtime, the
/// caller's in-process loop.
///
/// `default` is the backend when `--runtime` is absent — `"serial"` for
/// the experiments, `"thread"` for `fupermod_simulate`. `--sim-engine
/// event` needs the virtual-clock backend, so it implies `sim` when
/// `--runtime` is absent and rejects an explicit `thread`. The thread
/// engine is capped at [`THREAD_RANKS_CAP`] ranks. Exits with status 2
/// on an unknown backend or a rejected combination.
pub fn runtime_config(
    args: &Args,
    platform: &Platform,
    sink: Option<&Arc<dyn TraceSink>>,
    default: &str,
) -> Option<RuntimeConfig> {
    let engine = sim_engine(args);
    let backend = match args.get("runtime") {
        Some(b) => b,
        None if engine == SimEngine::Event => "sim",
        None => default,
    };
    let config = match backend {
        "serial" => return None,
        "thread" if engine == SimEngine::Event => exit_usage(
            "--sim-engine event needs the virtual-clock backend: \
             use --runtime sim (or drop --sim-engine)",
        ),
        "thread" => RuntimeConfig::thread(),
        "sim" => RuntimeConfig::sim(platform.size(), platform.link()),
        other => exit_usage(format_args!(
            "--runtime must be serial, thread or sim (got '{other}')"
        )),
    };
    let ranks = platform.size();
    if engine == SimEngine::Thread && ranks > THREAD_RANKS_CAP {
        exit_usage(format_args!(
            "the thread engine spawns one OS thread per rank and is capped at \
             {THREAD_RANKS_CAP} ranks (asked for {ranks}); use --sim-engine event for large p"
        ));
    }
    let config = config
        .with_engine(engine)
        .with_plan(fault_plan(args))
        .with_algorithms(collectives(args));
    Some(match sink {
        Some(sink) => config.with_trace(sink.clone()),
        None => config,
    })
}

/// Starts the run's observability ([`telemetry::open_run_trace`]: the
/// process-wide registry is enabled either way) and opens the JSONL
/// trace sink requested by `--trace PATH` (exact file; wins), `--trace-dir
/// DIR` or the `FUPERMOD_TRACE_DIR` environment variable. The directory
/// forms create DIR if it is missing and write `DIR/<name>.trace.jsonl`,
/// `name` being the binary's (or the experiment's) name.
/// Returns `None` when no trace was requested; [`finish_trace`] exports
/// the registry into the sink at exit.
///
/// `rank` is set by one process of a multi-process (`--transport tcp`)
/// job: it is woven into the file name so concurrent processes never
/// clobber each other's trace — `DIR/<name>.rank<k>.trace.jsonl`, and
/// `--trace out.jsonl` becomes `out.rank<k>.jsonl`. `fupermod_tracetool
/// merge` stitches the per-rank files back into one causal timeline.
///
/// Exits with status 2 on the retired `--trace-format` flag and status
/// 1 when the directory or file cannot be created.
pub fn open_trace_sink(args: &Args, name: &str, rank: Option<usize>) -> Option<Arc<dyn TraceSink>> {
    if args.get("trace-format").is_some() {
        exit_usage(
            "--trace-format was removed: a trace file is JSONL; \
             run `fupermod_tracetool export --format csv FILE` for the CSV view",
        );
    }
    let path = trace_path(args, name, rank);
    telemetry::open_run_trace(path.as_deref()).unwrap_or_else(|e| {
        eprintln!(
            "cannot create trace file {}: {e}",
            path.unwrap_or_default().display()
        );
        std::process::exit(1);
    })
}

/// The file [`open_trace_sink`] writes, creating its directory in the
/// directory forms. The rank infix goes into the file name, before its
/// extension if it has one.
fn trace_path(args: &Args, name: &str, rank: Option<usize>) -> Option<PathBuf> {
    let infix = rank.map(|r| format!(".rank{r}")).unwrap_or_default();
    if let Some(raw) = args.get("trace") {
        let path = Path::new(raw);
        let (Some(_), Some(stem)) = (rank, path.file_stem()) else {
            return Some(PathBuf::from(format!("{raw}{infix}")));
        };
        let mut file = stem.to_os_string();
        file.push(&infix);
        if let Some(ext) = path.extension() {
            file.push(".");
            file.push(ext);
        }
        return Some(path.with_file_name(file));
    }
    let dir = match args.get("trace-dir") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from(std::env::var_os("FUPERMOD_TRACE_DIR")?),
    };
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create trace directory {}: {e}", dir.display());
        std::process::exit(1);
    }
    Some(dir.join(format!("{name}{infix}.trace.jsonl")))
}

/// Ends the run ([`telemetry::finish_run_trace`]): exports the
/// process-wide telemetry registry as `metrics` events into the
/// optional trace sink and flushes it, exiting with status 1 on a
/// deferred write error, then prints the run-totals summary to
/// stderr. Call once, right before the binary exits.
pub fn finish_trace(sink: Option<&Arc<dyn TraceSink>>) {
    match telemetry::finish_run_trace(sink.map(|s| s.as_ref())) {
        Ok(summary) => eprintln!("{summary}"),
        Err(e) => {
            eprintln!("trace write failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Builds the model-store configuration for `fupermod_served` from
/// the `--shards N`, `--plan-budget BYTES`, `--outlier-k K` and
/// `--confidence CL` flags (all optional; defaults are
/// `StoreConfig::default()`'s). Exits with status 2 on an unparsable
/// value.
pub fn store_config(args: &Args) -> fupermod_store::StoreConfig {
    let defaults = fupermod_store::StoreConfig::default();
    fupermod_store::StoreConfig {
        shards: args.value_or("shards", defaults.shards),
        plan_budget_bytes: args.value_or("plan-budget", defaults.plan_budget_bytes),
        entry: fupermod_store::EntryConfig {
            outlier_k: args.value_or("outlier-k", defaults.entry.outlier_k),
            confidence: args.value_or("confidence", defaults.entry.confidence),
        },
    }
}

/// Splits a comma-separated flag value (`--fingerprints a,b,c`) into
/// its non-empty items.
pub fn csv_list(value: &str) -> Vec<String> {
    value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rank_infix_goes_into_the_file_name() {
        for (given, expected) in [
            ("out.jsonl", "out.rank1.jsonl"),
            ("trace", "trace.rank1"),
            ("./run", "./run.rank1"),
            ("runs.d/trace", "runs.d/trace.rank1"),
        ] {
            let args = Args::parse_from(["--trace".to_owned(), given.to_owned()]);
            assert_eq!(
                trace_path(&args, "fupermod_simulate", Some(1)),
                Some(PathBuf::from(expected)),
                "--trace {given}"
            );
        }
    }
}
