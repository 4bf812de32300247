//! `fupermod_served` — the partitioning-as-a-service daemon and its
//! command-line client, built on the `fupermod-store` crate: a sharded,
//! incrementally-maintained cache of device models plus an
//! epoch-invalidated partition-plan cache, served over line-delimited
//! JSON on TCP (protocol reference: `docs/SERVE.md`).
//!
//! ```text
//! Usage: fupermod_served [--mode serve|ingest|partition|lookup|stats|shutdown]
//!
//! serve (default):
//!   --listen ADDR   bind address (default 127.0.0.1:7070; port 0 picks
//!                   a free port — the chosen one is printed)
//!   --metrics-listen ADDR
//!                   also serve GET /metrics (Prometheus text
//!                   exposition), /healthz and /readyz over HTTP on
//!                   ADDR (port 0 picks a free port — printed as
//!                   `metrics on ADDR`); see docs/OBSERVABILITY.md §9
//!   --slow-ms N     log requests slower than N milliseconds to stderr
//!   --shards N      store shard count (default 8)
//!   --plan-budget B plan-cache byte budget (default 1048576)
//!   --outlier-k K   outlier rejection threshold (default 5)
//!   --confidence C  confidence level for point CIs (default 0.95)
//!   --trace PATH | --trace-dir DIR
//!                   export the telemetry registry as metrics trace
//!                   events on shutdown (see docs/OBSERVABILITY.md)
//!
//! client modes (all take --connect ADDR):
//!   ingest:    --points FILE --fingerprint NAME [--kernel K] [--config C]
//!              stream a *.points file into one model entry
//!   partition: --fingerprints a,b,c --total D [--algorithm NAME]
//!              [--kernel K] [--config C]
//!              print the distribution in fupermod_partitioner's format
//!   lookup:    --fingerprint NAME [--kernel K] [--config C]
//!   stats:     print the daemon's counters (the same registry snapshot
//!              /metrics exposes)
//!   shutdown:  stop the daemon
//!
//! scrape mode (no daemon protocol — plain HTTP GET, no curl needed):
//!   scrape:    --connect ADDR [--path /metrics]   print body, exit
//!              non-zero unless the response status is 200
//! ```
//!
//! The daemon prints `listening on ADDR` (flushed) once the socket is
//! bound, so scripts can scrape the actual port when binding port 0.

use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use fupermod::cli;
use fupermod::core::json::{quote, FromMember, Json, Members};
use fupermod::core::model::io;
use fupermod::core::trace::fmt_float;
use fupermod::store::http::{http_get, serve_http};
use fupermod::store::server::{serve_with, Client, ServeOptions};
use fupermod::store::ModelStore;

fn main() {
    let args = cli::Args::parse();
    let mode = args.get_or("mode", "serve");
    match mode {
        "serve" => run_serve(&args),
        "ingest" => run_ingest(&mut connect(&args), &args),
        "partition" => run_partition(&mut connect(&args), &args),
        "lookup" => run_lookup(&mut connect(&args), &args),
        "stats" => run_stats(&mut connect(&args)),
        "shutdown" => run_shutdown(&mut connect(&args)),
        "scrape" => run_scrape(&args),
        other => cli::exit_usage(format_args!("unknown --mode '{other}'")),
    }
}

fn run_serve(args: &cli::Args) {
    let addr = args.get_or("listen", "127.0.0.1:7070");
    let config = cli::store_config(args);
    let sink = cli::open_trace_sink(args, env!("CARGO_BIN_NAME"), None);
    let options = ServeOptions {
        slow_request: args.value("slow-ms").map(std::time::Duration::from_millis),
    };

    let listener = TcpListener::bind(addr).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    let local = listener.local_addr().expect("local address");

    let store = Arc::new(ModelStore::new(config));
    let stop = Arc::new(AtomicBool::new(false));

    // The observability side-listener shares the stop flag: a protocol
    // `shutdown` turns /readyz 503 and winds the HTTP loop down too.
    let http_handle = args.get("metrics-listen").map(|metrics_addr| {
        let metrics_listener = TcpListener::bind(metrics_addr).unwrap_or_else(|e| {
            eprintln!("cannot bind metrics listener {metrics_addr}: {e}");
            std::process::exit(1);
        });
        let metrics_local = metrics_listener.local_addr().expect("metrics address");
        println!("metrics on {metrics_local}");
        let (store, stop) = (Arc::clone(&store), Arc::clone(&stop));
        std::thread::spawn(move || serve_http(metrics_listener, store, stop))
    });

    println!("listening on {local}");
    use std::io::Write as _;
    std::io::stdout().flush().expect("flush stdout");

    if let Err(e) = serve_with(listener, Arc::clone(&store), Arc::clone(&stop), options) {
        eprintln!("serve loop failed: {e}");
        std::process::exit(1);
    }
    if let Some(handle) = http_handle {
        if let Err(e) = handle.join().expect("metrics listener panicked") {
            eprintln!("metrics listener failed: {e}");
        }
    }
    if let Some(sink) = &sink {
        // The full labelled registry snapshot (schema v4).
        store.refresh_gauges();
        store.registry().snapshot().export_trace_events(0, sink.as_ref());
    }
    cli::finish_trace(sink.as_ref());
    let s = store.metrics().snapshot();
    eprintln!(
        "stopped: {} entries, plan hits {} / misses {} / evictions {}",
        store.len(),
        s.plan_hits,
        s.plan_misses,
        s.plan_evictions
    );
}

fn run_scrape(args: &cli::Args) {
    let addr: String = args.required("connect");
    let path = args.get_or("path", "/metrics");
    match http_get(&addr, path) {
        Ok((200, body)) => print!("{body}"),
        Ok((code, body)) => {
            eprintln!("GET {path}: HTTP {code}");
            print!("{body}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("GET {path} from {addr} failed: {e}");
            std::process::exit(1);
        }
    }
}

fn connect(args: &cli::Args) -> Client {
    let addr: String = args.required("connect");
    Client::connect(&addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        std::process::exit(1);
    })
}

/// Sends one line and parses the response object, exiting non-zero on
/// transport errors or an `"ok": false` response.
fn exchange(client: &mut Client, line: &str) -> Members {
    let response = client.request(line).unwrap_or_else(|e| {
        eprintln!("request failed: {e}");
        std::process::exit(1);
    });
    let fields = Json::parse(&response).unwrap_or_else(|e| {
        eprintln!("unparsable response {response:?}: {e}");
        std::process::exit(1);
    });
    if fields.get("ok") != Some(&Json::Bool(true)) {
        match fields.get("error").and_then(Json::as_str) {
            Some(msg) => eprintln!("daemon error: {msg}"),
            None => eprintln!("daemon error: {response}"),
        }
        std::process::exit(1);
    }
    Members::new(fields).expect("a response with an `ok` member is an object")
}

/// Response member `key` as a `T`, exiting non-zero when it is missing
/// or mistyped.
fn field<T: FromMember>(fields: &mut Members, key: &str) -> T {
    fields.take(key).unwrap_or_else(|e| {
        eprintln!("bad response: {e}");
        std::process::exit(1);
    })
}

fn key_fields(args: &cli::Args, fingerprint: &str) -> String {
    format!(
        "\"fingerprint\":{},\"kernel\":{},\"config\":{}",
        quote(fingerprint),
        quote(args.get_or("kernel", "default")),
        quote(args.get_or("config", "default")),
    )
}

fn run_ingest(client: &mut Client, args: &cli::Args) {
    let path: String = args.required("points");
    let fingerprint: String = args.required("fingerprint");
    let file = std::fs::File::open(&path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    });
    let points = io::read_points(std::io::BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let mut epoch: u64 = 0;
    for p in &points {
        // Aggregated file points go through the merge-semantics path,
        // which absorbs them exactly like `io::load_into_model` feeds a
        // local model — the daemon's models stay bit-identical to an
        // offline build over the same file.
        let line = format!(
            "{{\"op\":\"ingest_point\",{},\"d\":{},\"t\":{},\"reps\":{},\"ci\":{}}}",
            key_fields(args, &fingerprint),
            p.d,
            fmt_float(p.t),
            p.reps,
            fmt_float(p.ci),
        );
        epoch = field(&mut exchange(client, &line), "epoch");
    }
    println!(
        "ingested {} points from {path} into {fingerprint} (epoch {epoch})",
        points.len()
    );
}

fn run_partition(client: &mut Client, args: &cli::Args) {
    let fingerprints = cli::csv_list(&args.required::<String>("fingerprints"));
    if fingerprints.is_empty() {
        cli::exit_usage("--fingerprints must name at least one model");
    }
    let total: u64 = args.required("total");
    let algorithm = args.get_or("algorithm", "geometric");
    let quoted: Vec<String> = fingerprints.iter().map(|f| quote(f)).collect();
    let line = format!(
        "{{\"op\":\"partition\",\"fingerprints\":[{}],\"kernel\":{},\"config\":{},\"total\":{total},\"algorithm\":{}}}",
        quoted.join(","),
        quote(args.get_or("kernel", "default")),
        quote(args.get_or("config", "default")),
        quote(algorithm),
    );
    let mut fields = exchange(client, &line);
    let cached: bool = fields.take_opt::<Json>("cached").ok().flatten() == Some(Json::Bool(true));
    let ds: Vec<u64> = field(&mut fields, "ds");
    let ts: Vec<f64> = field(&mut fields, "ts");
    let makespan: f64 = field(&mut fields, "makespan");
    let imbalance: f64 = field(&mut fields, "imbalance");

    // Exactly fupermod_partitioner's output (fingerprints stand in for
    // the model file names), so the two are byte-diffable.
    println!("# rank  file  d  predicted_t");
    for (rank, (fp, (d, t))) in fingerprints.iter().zip(ds.iter().zip(&ts)).enumerate() {
        println!("{rank} {fp} {d} {t:.6}");
    }
    println!(
        "# total {} / predicted makespan {makespan:.6} s / predicted imbalance {imbalance:.4}",
        ds.iter().sum::<u64>(),
    );
    eprintln!("plan cache: {}", if cached { "hit" } else { "miss" });
}

fn run_lookup(client: &mut Client, args: &cli::Args) {
    let fingerprint: String = args.required("fingerprint");
    let line = format!("{{\"op\":\"lookup\",{}}}", key_fields(args, &fingerprint));
    let mut fields = exchange(client, &line);
    let epoch: u64 = field(&mut fields, "epoch");
    let ds: Vec<u64> = field(&mut fields, "ds");
    let ts: Vec<f64> = field(&mut fields, "ts");
    let reps: Vec<u32> = field(&mut fields, "reps");
    let cis: Vec<f64> = field(&mut fields, "cis");
    println!("# epoch {epoch}");
    println!("# d  t  reps  ci");
    for i in 0..ds.len() {
        println!(
            "{} {} {} {}",
            ds[i],
            fmt_float(ts[i]),
            reps[i],
            fmt_float(cis[i])
        );
    }
}

fn run_stats(client: &mut Client) {
    for (k, v) in exchange(client, r#"{"op":"stats"}"#) {
        if k == "ok" {
            continue;
        }
        match v {
            Json::Num(n) => println!("{k} {}", fmt_float(n)),
            other => println!("{k} {other:?}"),
        }
    }
}

fn run_shutdown(client: &mut Client) {
    exchange(client, r#"{"op":"shutdown"}"#);
    println!("daemon shutting down");
}
