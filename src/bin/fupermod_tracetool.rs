//! `fupermod_tracetool` — analyze traces written by the
//! observability layer (see docs/OBSERVABILITY.md).
//!
//! ```text
//! Usage: fupermod_tracetool <command> [options] FILE...
//!
//!   merge FILE... [--out PATH]
//!       Causally merge per-rank JSONL traces into one global
//!       JSONL timeline, ordered by the schema-v3 Lamport stamps
//!       (deterministic: rank breaks ties). Output goes to stdout
//!       unless --out is given.
//!
//!   report FILE... [--json] [--out PATH]
//!       Merge, then summarize: per-rank compute/comm/wait seconds,
//!       collective critical path by (op, algorithm), the dynamic
//!       imbalance table, fault and latency-histogram summaries.
//!       Text by default; --json emits summary JSON matching
//!       scripts/tracetool_schema.json.
//!
//!   export FILE... [--format chrome|csv] [--out PATH]
//!       Merge, then export. `chrome` (default): a Chrome trace-event
//!       / Perfetto JSON timeline, one track per rank, barrier-aligned
//!       slices — load it at https://ui.perfetto.dev or
//!       chrome://tracing. `csv`: the fixed wide-column spreadsheet
//!       view (schema comment, header row, one row per event; see
//!       docs/OBSERVABILITY.md §2.2).
//!
//!   validate --schema SCHEMA.json FILE
//!       Validate a JSON document against a committed JSON-Schema
//!       subset (used by scripts/check.sh to gate report output).
//!
//!   tail FILE... | --trace-dir DIR [--poll MS] [--idle-exit SECS]
//!        [--stats-every SECS] [--out PATH]
//!       Follow growing JSONL traces live: print events in the batch
//!       merge's causal order as they arrive (torn-write-safe), with
//!       rolling per-op p50/p99 on stderr. --trace-dir rescans DIR
//!       each poll, adopting files that appear late. --idle-exit
//!       returns once every file has been quiet that long (otherwise
//!       follow forever); --stats-every 0 silences the rolling stats.
//! ```
//!
//! Exit codes: 0 ok, 1 data/validation error, 2 usage error.

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::PathBuf;

use fupermod::cli::{self, Args};
use fupermod::core::trace::SCHEMA_VERSION;
use fupermod::trace::{
    export_chrome, export_csv, tail, validate, Json, Merge, Report, StampedEvent, TailOptions,
};

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        usage();
    };
    let run: fn(&Args, Vec<PathBuf>) -> i32 = match command.as_str() {
        "merge" => cmd_merge,
        "report" => cmd_report,
        "export" => cmd_export,
        "validate" => cmd_validate,
        "tail" => cmd_tail,
        "--help" | "-h" | "help" => usage(),
        other => cli::exit_usage(format_args!(
            "unknown command '{other}' (want merge, report, export, validate or tail)"
        )),
    };
    let args = Args::parse_from(argv);
    args.reject_unknown(&[
        "out",
        "format",
        "schema",
        "trace-dir",
        "poll",
        "idle-exit",
        "stats-every",
        "json",
    ]);
    let files = args.positional().iter().map(PathBuf::from).collect();
    std::process::exit(run(&args, files));
}

fn usage() -> ! {
    eprintln!(
        "Usage: fupermod_tracetool <merge|report|export|validate> [options] FILE...\n\
         \n\
         merge    FILE... [--out PATH]              merged global JSONL timeline\n\
         report   FILE... [--json] [--out PATH]     summary report (text or JSON)\n\
         export   FILE... [--format chrome|csv] [--out PATH]  Perfetto JSON or CSV\n\
         validate --schema SCHEMA.json FILE         check JSON against a schema\n\
         tail     FILE... | --trace-dir DIR [--poll MS] [--idle-exit SECS]\n\
                  [--stats-every SECS] [--out PATH] follow growing traces live"
    );
    std::process::exit(2);
}

/// Output writer: `--out PATH` or stdout.
fn out_writer(args: &Args) -> io::Result<Box<dyn Write>> {
    Ok(match args.get("out") {
        Some(path) => Box::new(BufWriter::new(File::create(path)?)),
        None => Box::new(BufWriter::new(io::stdout())),
    })
}

/// Drains a merge into `f`, reporting the first stream error.
fn drain_merge<F>(mut merge: Merge, f: F) -> Result<(), String>
where
    F: FnOnce(&mut dyn Iterator<Item = StampedEvent>) -> Result<(), String>,
{
    let mut stream_err: Option<String> = None;
    {
        let mut iter = merge.by_ref().map_while(|r| match r {
            Ok(e) => Some(e),
            Err(e) => {
                stream_err = Some(e.to_string());
                None
            }
        });
        f(&mut iter)?;
    }
    match stream_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn open_merge(files: &[PathBuf]) -> Result<Merge, String> {
    if files.is_empty() {
        return Err("no trace files given".to_owned());
    }
    Merge::open(files).map_err(|e| e.to_string())
}

fn fail(context: &str, err: &str) -> i32 {
    eprintln!("fupermod_tracetool: {context}: {err}");
    1
}

fn cmd_merge(args: &Args, files: Vec<PathBuf>) -> i32 {
    let merge = match open_merge(&files) {
        Ok(m) => m,
        Err(e) => return fail("merge", &e),
    };
    let mut out = match out_writer(args) {
        Ok(w) => w,
        Err(e) => return fail("merge", &e.to_string()),
    };
    let result = drain_merge(merge, |events| {
        writeln!(out, "{{\"trace\":\"fupermod\",\"schema\":{SCHEMA_VERSION}}}")
            .map_err(|e| e.to_string())?;
        for ev in events {
            writeln!(out, "{}", ev.event.to_jsonl()).map_err(|e| e.to_string())?;
        }
        Ok(())
    })
    .and_then(|()| out.flush().map_err(|e| e.to_string()));
    match result {
        Ok(()) => 0,
        Err(e) => fail("merge", &e),
    }
}

fn cmd_report(args: &Args, files: Vec<PathBuf>) -> i32 {
    let merge = match open_merge(&files) {
        Ok(m) => m,
        Err(e) => return fail("report", &e),
    };
    let schema = merge.schema();
    let mut report: Option<Report> = None;
    let result = drain_merge(merge, |events| {
        report = Some(Report::build(schema, events));
        Ok(())
    });
    if let Err(e) = result {
        return fail("report", &e);
    }
    let report = report.expect("report built");
    let rendered = if args.has("json") {
        let mut s = report.render_json();
        s.push('\n');
        s
    } else {
        report.render_text()
    };
    let result = out_writer(args).and_then(|mut out| {
        out.write_all(rendered.as_bytes())
            .and_then(|()| out.flush())
    });
    match result {
        Ok(()) => 0,
        Err(e) => fail("report", &e.to_string()),
    }
}

fn cmd_export(args: &Args, files: Vec<PathBuf>) -> i32 {
    let format = args.get_or("format", "chrome");
    if !matches!(format, "chrome" | "csv") {
        eprintln!("--format must be chrome or csv (got '{format}')");
        return 2;
    }
    let merge = match open_merge(&files) {
        Ok(m) => m,
        Err(e) => return fail("export", &e),
    };
    let mut out = match out_writer(args) {
        Ok(w) => w,
        Err(e) => return fail("export", &e.to_string()),
    };
    let result = drain_merge(merge, |events| {
        match format {
            "csv" => export_csv(events, &mut out),
            _ => export_chrome(events, &mut out).and_then(|()| writeln!(out)),
        }
        .map_err(|e| e.to_string())
    })
    .and_then(|()| out.flush().map_err(|e| e.to_string()));
    match result {
        Ok(()) => 0,
        Err(e) => fail("export", &e),
    }
}

fn cmd_tail(args: &Args, files: Vec<PathBuf>) -> i32 {
    let dir = args.get("trace-dir").map(PathBuf::from);
    if files.is_empty() && dir.is_none() {
        eprintln!("tail needs trace FILEs or --trace-dir DIR");
        return 2;
    }
    let mut options = TailOptions::default();
    if let Some(ms) = args.value::<f64>("poll") {
        options.poll = std::time::Duration::from_millis(ms.max(1.0) as u64);
    }
    if let Some(secs) = args.value::<f64>("idle-exit") {
        options.idle_exit = Some(std::time::Duration::from_secs_f64(secs.max(0.0)));
    }
    if let Some(secs) = args.value::<f64>("stats-every") {
        options.stats_every = (secs > 0.0)
            .then(|| std::time::Duration::from_secs_f64(secs));
    }
    let mut out = match out_writer(args) {
        Ok(w) => w,
        Err(e) => return fail("tail", &e.to_string()),
    };
    let mut stats = io::stderr();
    match tail(files, dir.as_deref(), &options, &mut out, &mut stats) {
        Ok(()) => 0,
        Err(e) => fail("tail", &e.to_string()),
    }
}

fn cmd_validate(args: &Args, files: Vec<PathBuf>) -> i32 {
    let Some(schema_path) = args.get("schema") else {
        eprintln!("validate needs --schema SCHEMA.json");
        return 2;
    };
    let [file] = files.as_slice() else {
        eprintln!("validate takes exactly one document FILE");
        return 2;
    };
    let read = |path: &str| -> Result<Json, String> {
        let mut text = String::new();
        File::open(path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let schema = match read(schema_path) {
        Ok(j) => j,
        Err(e) => return fail("validate", &e),
    };
    let doc = match read(&file.display().to_string()) {
        Ok(j) => j,
        Err(e) => return fail("validate", &e),
    };
    match validate(&schema, &doc) {
        Ok(()) => {
            println!("{}: valid", file.display());
            0
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("{}: {e}", file.display());
            }
            1
        }
    }
}
