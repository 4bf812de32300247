//! Shared helpers for the `fupermod_*` command-line binaries: flag
//! parsing, platform/partitioner selection, and trace-sink wiring for
//! the `--trace PATH` and `--trace-dir DIR` flags every binary accepts
//! (see `docs/OBSERVABILITY.md`). `FUPERMOD_TRACE_DIR` in the
//! environment acts like `--trace-dir`, so a whole pipeline of
//! binaries can be traced without editing each invocation.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use fupermod_core::partition::{
    ConstantPartitioner, EvenPartitioner, GeometricPartitioner, NumericalPartitioner,
    Partitioner,
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

/// A rejected process-count / engine combination from the `--ranks`
/// (`-p`) and `--sim-engine` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliArgError {
    /// `--ranks 0`: a run needs at least one rank.
    ZeroRanks,
    /// `--ranks` value that does not parse as a positive integer.
    BadRanks(String),
    /// The thread engine was asked for more ranks than
    /// [`THREAD_RANKS_CAP`]; it would spawn that many OS threads.
    ThreadCapExceeded {
        /// Requested rank count.
        ranks: usize,
    },
}

impl std::fmt::Display for CliArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliArgError::ZeroRanks => {
                write!(f, "--ranks must be at least 1 (got 0)")
            }
            CliArgError::BadRanks(s) => {
                write!(f, "invalid --ranks value {s:?} (want a positive integer)")
            }
            CliArgError::ThreadCapExceeded { ranks } => write!(
                f,
                "the thread engine spawns one OS thread per rank and is \
                 capped at {THREAD_RANKS_CAP} ranks (asked for {ranks}); \
                 use --sim-engine event for large p"
            ),
        }
    }
}

impl std::error::Error for CliArgError {}

/// Parses `--flag value` pairs from the process arguments into a map
/// (keys without the leading `--`). Exits with status 2 on a flag
/// without a value.
pub fn parse_args() -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let key = flag.trim_start_matches("--").to_owned();
        if let Some(value) = args.next() {
            map.insert(key, value);
        } else {
            eprintln!("missing value for --{key}");
            std::process::exit(2);
        }
    }
    map
}

/// Resolves a simulated platform by name. Exits with status 2 on an
/// unknown name.
pub fn pick_platform(name: &str, seed: u64) -> Platform {
    match name {
        "uniform4" => Platform::uniform(4, seed),
        "two-speed" => Platform::two_speed(2, 2, seed),
        "multicore" => Platform::multicore_node(6, seed),
        "hybrid" => Platform::hybrid_node(4, seed),
        "grid" => Platform::grid_site(seed),
        other => {
            eprintln!("unknown platform '{other}'");
            std::process::exit(2);
        }
    }
}

/// Parses the `--ranks N` (alias `-p N`) process-count override.
/// Returns `None` when the flag is absent.
///
/// # Errors
///
/// [`CliArgError::ZeroRanks`] for `--ranks 0`,
/// [`CliArgError::BadRanks`] for a non-integer value.
pub fn ranks(args: &HashMap<String, String>) -> Result<Option<usize>, CliArgError> {
    let raw = args
        .get("ranks")
        .or_else(|| args.get("-p"))
        .or_else(|| args.get("p"));
    match raw {
        None => Ok(None),
        Some(s) => match s.parse::<usize>() {
            Ok(0) => Err(CliArgError::ZeroRanks),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(CliArgError::BadRanks(s.clone())),
        },
    }
}

/// Checks a rank count against the engine that would run it: the
/// thread engine refuses more than [`THREAD_RANKS_CAP`] ranks rather
/// than hanging while it spawns (and then schedules) that many OS
/// threads.
///
/// # Errors
///
/// [`CliArgError::ThreadCapExceeded`] past the cap on the thread
/// engine. The event engine has no cap.
pub fn check_engine_ranks(engine: SimEngine, ranks: usize) -> Result<(), CliArgError> {
    if engine == SimEngine::Thread && ranks > THREAD_RANKS_CAP {
        return Err(CliArgError::ThreadCapExceeded { ranks });
    }
    Ok(())
}

/// Resolves a simulated platform by name at a caller-chosen size —
/// the `--ranks` form of [`pick_platform`]. The named families scale:
/// `uniform4` becomes `p` identical cores, `two-speed` splits `p`
/// between fast and slow halves, `multicore`/`hybrid` become a
/// `p`-core node. `grid` is a fixed 16-device site and exits with
/// status 2 under `--ranks`, as does an unknown name.
pub fn scaled_platform(name: &str, p: usize, seed: u64) -> Platform {
    match name {
        "uniform4" => Platform::uniform(p, seed),
        "two-speed" => Platform::two_speed(p.div_ceil(2), p / 2, seed),
        "multicore" => Platform::multicore_node(p, seed),
        "hybrid" => {
            if p < 2 {
                eprintln!("--platform hybrid needs --ranks of at least 2 (got {p})");
                std::process::exit(2);
            }
            Platform::hybrid_node(p, seed)
        }
        "grid" => {
            eprintln!("--platform grid is a fixed 16-device site; drop --ranks or pick a scalable family");
            std::process::exit(2);
        }
        other => {
            eprintln!("unknown platform '{other}'");
            std::process::exit(2);
        }
    }
}

/// Parses the `--sim-engine thread|event` flag (default `thread`, the
/// original one-OS-thread-per-rank backend). `event` selects the
/// single-threaded discrete-event interpreter — same virtual clocks,
/// `10⁴`–`10⁶` ranks (see `docs/RUNTIME.md` §9). Exits with status 2
/// on an unknown spelling.
pub fn sim_engine(args: &HashMap<String, String>) -> SimEngine {
    match args.get("sim-engine") {
        None => SimEngine::default(),
        Some(s) => SimEngine::parse(s).unwrap_or_else(|e| {
            eprintln!("--sim-engine: {e}");
            std::process::exit(2);
        }),
    }
}

/// Resolves a partitioning algorithm by name. Exits with status 2 on
/// an unknown name.
pub fn pick_partitioner(name: &str) -> Box<dyn Partitioner> {
    match name {
        "even" => Box::new(EvenPartitioner),
        "constant" => Box::new(ConstantPartitioner),
        "geometric" => Box::new(GeometricPartitioner::default()),
        "numerical" => Box::new(NumericalPartitioner::default()),
        other => {
            eprintln!("unknown algorithm '{other}'");
            std::process::exit(2);
        }
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
pub fn tcp_transport(args: &HashMap<String, String>) -> Option<TcpTransport> {
    match args.get("transport").map(String::as_str) {
        None | Some("local") => return None,
        Some("tcp") => {}
        Some(other) => {
            eprintln!("--transport must be local or tcp (got '{other}')");
            std::process::exit(2);
        }
    }
    let need = |flag: &str| -> String {
        args.get(flag).cloned().unwrap_or_else(|| {
            eprintln!("--transport tcp requires --{flag}");
            std::process::exit(2);
        })
    };
    let parse_usize = |flag: &str, raw: &str| -> usize {
        raw.parse().unwrap_or_else(|_| {
            eprintln!("invalid --{flag} value {raw:?} (want a non-negative integer)");
            std::process::exit(2);
        })
    };
    let rank = parse_usize("rank-id", &need("rank-id"));
    let world = parse_usize("world", &need("world"));
    let rendezvous = need("rendezvous");
    if world == 0 || rank >= world {
        eprintln!("--rank-id {rank} outside --world {world}");
        std::process::exit(2);
    }
    Some(TcpTransport {
        rank,
        world,
        rendezvous,
    })
}

/// Parses the `--parallelism N` flag: model-build worker-thread count.
/// Defaults to `1` (serial — the reproducible default); `0` means one
/// worker per available core. Parallel and serial builds produce
/// bit-identical models and traces (see
/// [`fupermod_core::builder::ModelBuilder`]), so this knob only changes
/// wall-clock time. Exits with status 2 on a non-integer value.
pub fn parallelism(args: &HashMap<String, String>) -> usize {
    match args.get("parallelism") {
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("invalid --parallelism value {s:?} (want a non-negative integer)");
            std::process::exit(2);
        }),
        None => 1,
    }
}

/// Parses the `--fault-plan SPEC` flag into a [`FaultPlan`]: inline
/// JSON when SPEC starts with `{`, otherwise a path to a JSON file
/// (schema in `docs/RUNTIME.md`). Returns the empty plan when the flag
/// is absent; exits with status 2 on an invalid plan.
pub fn fault_plan(args: &HashMap<String, String>) -> FaultPlan {
    match args.get("fault-plan") {
        None => FaultPlan::none(),
        Some(spec) => {
            let parsed = if spec.trim_start().starts_with('{') {
                FaultPlan::from_json(spec)
            } else {
                FaultPlan::from_json_file(std::path::Path::new(spec))
            };
            parsed.unwrap_or_else(|e| {
                eprintln!("invalid --fault-plan: {e}");
                std::process::exit(2);
            })
        }
    }
}

/// Parses the `--collectives hub|ring|tree|auto` flag into an
/// [`AlgorithmPolicy`] (default `hub`, the compatibility schedule).
/// All policies produce bitwise-identical collective results on
/// fault-free plans; they differ in schedule shape and therefore in
/// simulated virtual time and scaling (see `docs/RUNTIME.md` §6).
/// Exits with status 2 on an unknown spelling.
pub fn collectives(args: &HashMap<String, String>) -> AlgorithmPolicy {
    match args.get("collectives") {
        None => AlgorithmPolicy::default(),
        Some(s) => AlgorithmPolicy::parse(s).unwrap_or_else(|| {
            eprintln!("--collectives must be hub, ring, tree or auto (got '{s}')");
            std::process::exit(2);
        }),
    }
}

/// Builds the runtime configuration selected by `--runtime thread|sim`
/// (default `thread`) and `--sim-engine thread|event` for a
/// distributed run on `platform`, applying [`fault_plan`], the
/// [`collectives`] algorithm policy, and routing runtime
/// `comm`/`fault` trace events to `sink` when given.
///
/// `--sim-engine event` needs the virtual-clock backend, so it
/// implies `--runtime sim` when `--runtime` is absent and rejects an
/// explicit `--runtime thread`. The thread engine is capped at
/// [`THREAD_RANKS_CAP`] ranks ([`check_engine_ranks`]). Exits with
/// status 2 on an unknown backend or a rejected combination.
pub fn runtime_config(
    args: &HashMap<String, String>,
    platform: &Platform,
    sink: Option<&Arc<dyn TraceSink>>,
) -> RuntimeConfig {
    let engine = sim_engine(args);
    let backend = match args.get("runtime").map(String::as_str) {
        Some(b) => b,
        None if engine == SimEngine::Event => "sim",
        None => "thread",
    };
    let config = match backend {
        "thread" => {
            if engine == SimEngine::Event {
                eprintln!(
                    "--sim-engine event needs the virtual-clock backend: \
                     use --runtime sim (or drop --sim-engine)"
                );
                std::process::exit(2);
            }
            RuntimeConfig::thread()
        }
        "sim" => RuntimeConfig::sim(platform.size(), platform.link()),
        other => {
            eprintln!("--runtime must be thread or sim (got '{other}')");
            std::process::exit(2);
        }
    };
    if let Err(e) = check_engine_ranks(engine, platform.size()) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let config = config
        .with_engine(engine)
        .with_plan(fault_plan(args))
        .with_algorithms(collectives(args));
    match sink {
        Some(sink) => config.with_trace(sink.clone()),
        None => config,
    }
}

/// Resolves the trace path requested by the unified trace flags:
/// `--trace PATH` (exact file) wins over `--trace-dir DIR`, which
/// wins over the `FUPERMOD_TRACE_DIR` environment variable. The
/// directory forms name the file `DIR/<name>.trace.jsonl`, where
/// `name` is the binary's own name. Returns `None` when tracing was
/// not requested.
pub fn trace_path(args: &HashMap<String, String>) -> Option<String> {
    trace_path_for_rank(args, None)
}

/// [`trace_path`] for one process of a multi-process (`--transport
/// tcp`) job: the rank is woven into the file name so concurrent
/// processes never clobber each other's trace. The directory forms
/// produce `DIR/<name>.rank<k>.trace.jsonl`; an explicit `--trace
/// PATH` gains a `.rank<k>` infix before its extension
/// (`out.jsonl` → `out.rank2.jsonl`). `fupermod_tracetool merge`
/// stitches the per-rank files back into one causal timeline.
pub fn trace_path_for_rank(
    args: &HashMap<String, String>,
    rank: Option<usize>,
) -> Option<String> {
    if let Some(path) = args.get("trace") {
        let Some(rank) = rank else {
            return Some(path.clone());
        };
        return Some(match path.rsplit_once('.') {
            Some((stem, ext)) => format!("{stem}.rank{rank}.{ext}"),
            None => format!("{path}.rank{rank}"),
        });
    }
    let dir = args
        .get("trace-dir")
        .cloned()
        .or_else(|| std::env::var("FUPERMOD_TRACE_DIR").ok())?;
    let name = std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "fupermod".to_owned());
    let infix = rank.map(|r| format!(".rank{r}")).unwrap_or_default();
    Some(format!("{dir}/{name}{infix}.trace.jsonl"))
}

/// Starts the run's observability
/// ([`telemetry::open_run_trace`]: the process-wide registry is
/// enabled either way) and opens the JSONL trace sink requested by
/// `--trace PATH` or `--trace-dir DIR` (or `FUPERMOD_TRACE_DIR`) — see
/// [`trace_path`]. Returns `None` when no trace was requested;
/// [`finish_trace`] exports the registry into the sink at exit.
///
/// Exits with status 2 on the retired `--trace-format` flag and status
/// 1 when the file cannot be created.
pub fn open_trace_sink(args: &HashMap<String, String>) -> Option<Arc<dyn TraceSink>> {
    open_trace_sink_for_rank(args, None)
}

/// [`open_trace_sink`] for one process of a multi-process
/// (`--transport tcp`) job — the file name carries the rank (see
/// [`trace_path_for_rank`]).
pub fn open_trace_sink_for_rank(
    args: &HashMap<String, String>,
    rank: Option<usize>,
) -> Option<Arc<dyn TraceSink>> {
    if args.contains_key("trace-format") {
        eprintln!(
            "--trace-format was removed: a trace file is JSONL; \
             run `fupermod_tracetool export --format csv FILE` for the CSV view"
        );
        std::process::exit(2);
    }
    let path = trace_path_for_rank(args, rank);
    telemetry::open_run_trace(path.as_deref().map(Path::new)).unwrap_or_else(|e| {
        eprintln!("cannot create trace file {}: {e}", path.unwrap_or_default());
        std::process::exit(1);
    })
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
/// value, matching the other flag helpers.
pub fn store_config(args: &HashMap<String, String>) -> fupermod_store::StoreConfig {
    fn parsed<T: std::str::FromStr>(
        args: &HashMap<String, String>,
        key: &str,
        default: T,
    ) -> T {
        match args.get(key) {
            None => default,
            Some(raw) => raw.parse().unwrap_or_else(|_| {
                eprintln!("invalid --{key} value {raw:?}");
                std::process::exit(2);
            }),
        }
    }
    let defaults = fupermod_store::StoreConfig::default();
    fupermod_store::StoreConfig {
        shards: parsed(args, "shards", defaults.shards),
        plan_budget_bytes: parsed(args, "plan-budget", defaults.plan_budget_bytes),
        entry: fupermod_store::EntryConfig {
            outlier_k: parsed(args, "outlier-k", defaults.entry.outlier_k),
            confidence: parsed(args, "confidence", defaults.entry.confidence),
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
