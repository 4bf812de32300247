//! `fupermod_simulate` — run the heterogeneous applications on a
//! simulated platform from the command line.
//!
//! ```text
//! Usage: fupermod_simulate --app matmul|jacobi|balance
//!                          [--platform NAME] [--ranks P] [--seed S] [--size N]
//!                          [--algorithm even|constant|geometric|numerical]
//!                          [--parallelism N]
//!                          [--runtime thread|sim] [--fault-plan SPEC]
//!                          [--sim-engine thread|event]
//!                          [--collectives hub|ring|tree|auto]
//!                          [--pipeline blocking|overlapped] [--overlap yes|no]
//!                          [--transport local|tcp] [--rank-id K] [--world N]
//!                          [--rendezvous HOST:PORT]
//!                          [--trace PATH | --trace-dir DIR]
//!   --app           which application to simulate; `balance` runs the
//!                   distributed dynamic-balancing loop on the runtime
//!   --platform      uniform4 | two-speed | multicore | hybrid | grid (default: two-speed)
//!   --ranks, -p     scale the named platform family to P devices
//!                   (grid is fixed at 16 and rejects this flag);
//!                   P = 0 is rejected, and the thread engine refuses
//!                   P > 512 rather than spawning that many OS threads
//!   --seed          platform/workload seed (default: 1)
//!   --size          problem size: matmul = blocks per side (default 128),
//!                   jacobi = rows (default 600),
//!                   balance = work units (default 100000)
//!   --algorithm     partitioning algorithm (default: geometric)
//!   --parallelism   (matmul only) model-build worker threads (default: 1
//!                   = serial, 0 = one per core; FUPERMOD_PARALLELISM in
//!                   the environment acts the same); bit-identical output
//!   --pipeline      (matmul only) run the broadcast-driven multiplication
//!                   for real on the runtime instead of the closed-form
//!                   simulation: `blocking` waits for each pivot before
//!                   computing, `overlapped` double-buffers the next pivot
//!                   with `ibcast` (see docs/RUNTIME.md §8); prints a
//!                   product checksum suitable for bit-identity diffing
//!   --runtime       (balance, matmul --pipeline) thread (wall clocks,
//!                   default) or sim (deterministic Hockney virtual clocks);
//!                   `serial`, the experiments' in-process loop, is refused
//!   --sim-engine    (balance) thread (one OS thread per rank, default)
//!                   or event (single-threaded discrete-event
//!                   interpreter, 10⁴–10⁶ ranks; implies --runtime sim;
//!                   see docs/RUNTIME.md §9)
//!   --fault-plan    (balance, matmul --pipeline) inline JSON or a JSON
//!                   file injecting delays/drops/stragglers/death (see
//!                   docs/RUNTIME.md)
//!   --collectives   (balance, matmul --pipeline) collective schedules:
//!                   hub (default), ring, tree or auto (see docs/RUNTIME.md §6)
//!   --overlap       (balance only) `yes` posts measurement receives
//!                   before the root's own measurement and pushes shares
//!                   with eager isends — nonblocking requests instead of
//!                   blocking collectives (see docs/RUNTIME.md §8); `no`
//!                   (default) runs blocking; any other value exits 2
//!   --transport     (balance only) local (default: all ranks are threads
//!                   of this process) or tcp (this process drives ONE rank
//!                   of a multi-process job over sockets; launch one
//!                   process per rank — see docs/RUNTIME.md §10)
//!   --rank-id,      (tcp) this process's rank, the job's total process
//!   --world         count; every process must agree on --world, the
//!                   platform flags and --seed
//!   --rendezvous    (tcp) rank 0's HOST:PORT; rank 0 listens there and
//!                   the other ranks dial it with retry/backoff
//!   --trace         write a structured trace (see docs/OBSERVABILITY.md)
//!   --trace-dir     like --trace, but write DIR/fupermod_simulate.trace.jsonl,
//!                   creating DIR if needed (FUPERMOD_TRACE_DIR in the
//!                   environment acts the same)
//!
//! Any other option exits with status 2.
//! ```

use fupermod::apps::jacobi::{run_traced as jacobi_run, JacobiConfig};
use fupermod::apps::matmul::{build_device_models_with, simulate, MatMulConfig};
use fupermod::apps::workload::dominant_system;
use fupermod::cli;
use fupermod::core::model::{AkimaModel, Model};
use fupermod::core::trace::{null_sink, TraceSink};
use fupermod::core::Precision;
use fupermod::platform::WorkloadProfile;

use std::sync::Arc;

fn main() {
    let args = cli::Args::parse();
    args.reject_unknown(&[
        "app",
        "platform",
        "ranks",
        "p",
        "seed",
        "size",
        "algorithm",
        "parallelism",
        "runtime",
        "fault-plan",
        "sim-engine",
        "collectives",
        "pipeline",
        "overlap",
        "transport",
        "rank-id",
        "world",
        "rendezvous",
        "trace",
        "trace-dir",
    ]);
    let app = args.get_or("app", "");
    let seed: u64 = args.value_or("seed", 1);
    let ranks = cli::ranks(&args);
    let platform = cli::scaled_platform(args.get_or("platform", "two-speed"), ranks, seed);
    let algorithm = args.get_or("algorithm", "geometric");
    let tcp = cli::tcp_transport(&args);
    if tcp.is_some() && app != "balance" {
        cli::exit_usage("--transport tcp runs --app balance only");
    }
    // Each process of a TCP job writes its own trace file
    // (`fupermod_tracetool merge` stitches them back together).
    let sink = cli::open_trace_sink(&args, env!("CARGO_BIN_NAME"), tcp.as_ref().map(|t| t.rank));
    let events: Arc<dyn TraceSink> = sink
        .clone()
        .unwrap_or_else(|| Arc::new(fupermod::core::trace::NullSink));
    // The distributed runs default to the thread runtime; this binary
    // has no serial loop to fall back on.
    let runtime_config = || {
        cli::runtime_config(&args, &platform, sink.as_ref(), "thread").unwrap_or_else(|| {
            cli::exit_usage("--runtime serial has no ranks to run here: use thread or sim")
        })
    };

    // The apps assert on smaller sizes: a command line that asks for
    // one is a usage error, not a crash.
    let min_size = match app {
        "matmul" => 1,
        // One row per rank.
        "jacobi" => platform.size() as u64,
        _ => 0,
    };
    if let Some(n) = args.value::<u64>("size").filter(|&n| n < min_size) {
        cli::exit_usage(format_args!(
            "--app {app} needs --size {min_size} or more (got {n})"
        ));
    }

    match app {
        "matmul" if args.get("pipeline").is_some() => {
            use fupermod::apps::matmul::{matrix_checksum, run_bcast};
            use fupermod::apps::workload::random_matrix;
            use fupermod::runtime::OverlapMode;

            if cli::sim_engine(&args) == fupermod::runtime::SimEngine::Event {
                cli::exit_usage(
                    "--sim-engine event runs --app balance only; \
                     --pipeline needs the thread engine",
                );
            }
            let mode = match args.get_or("pipeline", "blocking") {
                "blocking" => OverlapMode::Blocking,
                "overlapped" | "pipelined" => OverlapMode::Overlapped,
                other => cli::exit_usage(format_args!(
                    "--pipeline must be blocking or overlapped (got '{other}')"
                )),
            };
            let n_blocks: u64 = args.value_or("size", 8);
            let block = 16usize;
            let n = n_blocks as usize * block;
            let a = random_matrix(n, n, seed);
            let b = random_matrix(n, n, seed.wrapping_add(1));
            // Even block-area split: the pipeline path exercises the
            // communication schedule, not the partition quality.
            let p = platform.size() as u64;
            let total = n_blocks * n_blocks;
            let areas: Vec<u64> = (0..p)
                .map(|i| total / p + u64::from(i < total % p))
                .collect();
            let run = run_bcast(&a, &b, block, &areas, runtime_config(), mode)
                .unwrap_or_else(fail("broadcast matmul failed"));
            println!("platform: {}", platform.name());
            println!("areas: {areas:?}");
            println!("pipeline mode: {mode:?}");
            println!("product checksum: {:016x}", matrix_checksum(&run.product));
            if let Some(vt) = run.virtual_time {
                println!("virtual makespan: {vt:.6} s");
            }
            println!("wall seconds: {:.4}", run.wall_seconds);
        }
        "matmul" => {
            let n_blocks: u64 = args.value_or("size", 128);
            let cfg = MatMulConfig { n_blocks, block: 16 };
            let profile = WorkloadProfile::matrix_update(cfg.block);
            let max = (n_blocks * n_blocks / 2).max(32);
            let models: Vec<AkimaModel> = build_device_models_with(
                &platform,
                &profile,
                &[32, max / 64, max / 8, max],
                &Precision::default(),
                sink.as_deref().unwrap_or(null_sink()),
                cli::parallelism(&args),
            )
            .unwrap_or_else(fail("model build failed"));
            let refs: Vec<&dyn Model> = models.iter().map(|m| m as &dyn Model).collect();
            let partitioner = cli::pick_partitioner(algorithm);
            let dist = partitioner
                .partition_traced(n_blocks * n_blocks, &refs, events.as_ref())
                .unwrap_or_else(fail("partition failed"));
            let areas = dist.sizes();
            let report =
                simulate(&platform, &areas, &cfg).unwrap_or_else(fail("simulation failed"));
            println!("platform: {}", platform.name());
            println!("areas: {areas:?}");
            println!("total simulated time: {:.4} s", report.total_time);
            println!("communication seconds: {:.4}", report.comm_seconds);
            println!("half-perimeter sum: {}", report.half_perimeters);
        }
        "jacobi" => {
            let n: usize = args.value_or("size", 600);
            let system = dominant_system(n, seed.wrapping_add(1));
            let report = jacobi_run(
                &system,
                &platform,
                cli::pick_partitioner(algorithm),
                &JacobiConfig::default(),
                events.clone(),
            )
            .unwrap_or_else(fail("jacobi run failed"));
            println!("platform: {}", platform.name());
            println!(
                "converged: {} in {} iterations, makespan {:.4} s",
                report.converged,
                report.iterations.len(),
                report.makespan
            );
            if let Some(last) = report.iterations.last() {
                println!("final row distribution: {:?}", last.sizes);
            }
        }
        "balance" => {
            use fupermod::core::dynamic::DynamicContext;
            use fupermod::core::model::PiecewiseModel;
            use fupermod::runtime::{run_to_balance_distributed_with, OverlapMode};

            let total: u64 = args.value_or("size", 100_000);
            let profile = WorkloadProfile::matrix_update(16);
            let size = platform.size();
            let mode = match args.get_or("overlap", "no") {
                "yes" => OverlapMode::Overlapped,
                "no" => OverlapMode::Blocking,
                other => cli::exit_usage(format_args!(
                    "--overlap must be yes or no (got '{other}')"
                )),
            };
            let make_ctx = || {
                let models: Vec<Box<dyn Model>> = (0..size)
                    .map(|_| Box::new(PiecewiseModel::new()) as Box<dyn Model>)
                    .collect();
                DynamicContext::new(cli::pick_partitioner(algorithm), models, total, 0.05)
            };
            let measure = |rank: usize, d: u64| {
                fupermod::apps::matmul::measure_device_point(
                    &platform,
                    rank,
                    &profile,
                    d,
                    &fupermod::core::Precision::quick(),
                )
            };
            if let Some(tcp) = &tcp {
                // Multi-process path: this process drives exactly one
                // rank; the platform/context are rebuilt identically
                // in every process from the shared seed and flags.
                use fupermod::runtime::net::{connect, TcpConfig};
                use fupermod::runtime::{run_balance_rank, Communicator, SimEngine};

                if args.get_or("runtime", "thread") != "thread"
                    || cli::sim_engine(&args) != SimEngine::Thread
                {
                    cli::exit_usage(
                        "--transport tcp is wall-clock only: drop --runtime sim \
                         and --sim-engine event",
                    );
                }
                if tcp.world != size {
                    cli::exit_usage(format_args!(
                        "--world {} does not match the platform's {size} devices \
                         (scale the platform with --ranks)",
                        tcp.world
                    ));
                }
                let plan = cli::fault_plan(&args);
                let factor = plan.straggler_factor(tcp.rank);
                let mut cfg = TcpConfig::new(tcp.rank, tcp.world, tcp.rendezvous.clone())
                    .with_plan(plan)
                    .with_algorithms(cli::collectives(&args));
                if let Some(s) = &sink {
                    cfg = cfg.with_trace(s.clone());
                }
                let mut comm = connect(cfg).unwrap_or_else(|e| {
                    eprintln!("rank {}: tcp connect failed: {e}", tcp.rank);
                    std::process::exit(1);
                });
                let ctx = (tcp.rank == 0).then(make_ctx);
                let result =
                    run_balance_rank(comm.inner_mut(), ctx, &measure, 25, mode, factor, &events);
                match result {
                    Ok(root_outcome) => {
                        // Deaths *during* the run: read before the
                        // closing barrier, while surviving peers are
                        // still blocked in it — after it they start
                        // tearing down, and their goodbyes would show
                        // up as deaths here.
                        let dead = comm.handle().dead_ranks();
                        // Settle membership before the goodbye, so no
                        // peer still needs this rank mid-collective.
                        let _ = comm.barrier();
                        if let Some((steps, final_sizes)) = root_outcome {
                            println!("platform: {}", platform.name());
                            println!(
                                "converged: {} in {} steps",
                                steps.last().is_some_and(|s| s.converged),
                                steps.len()
                            );
                            if let Some(last) = steps.last() {
                                println!("final imbalance: {:.4}", last.imbalance);
                            }
                            println!("final distribution: {final_sizes:?}");
                            if !dead.is_empty() {
                                println!("dead ranks: {dead:?}");
                            }
                        }
                        comm.shutdown();
                    }
                    Err(e) => {
                        eprintln!("rank {} failed: {e}", tcp.rank);
                        comm.shutdown();
                        cli::finish_trace(sink.as_ref());
                        std::process::exit(1);
                    }
                }
            } else {
                let outcome = run_to_balance_distributed_with(
                    runtime_config(),
                    size,
                    make_ctx,
                    measure,
                    25,
                    mode,
                )
                .unwrap_or_else(fail("distributed balance run failed"));
                println!("platform: {}", platform.name());
                println!(
                    "converged: {} in {} steps",
                    outcome.converged(),
                    outcome.steps.len()
                );
                if let Some(last) = outcome.steps.last() {
                    println!("final imbalance: {:.4}", last.imbalance);
                }
                println!("final distribution: {:?}", outcome.final_sizes);
                if !outcome.dead_ranks.is_empty() {
                    println!("dead ranks: {:?}", outcome.dead_ranks);
                }
            }
        }
        other => cli::exit_usage(format_args!(
            "--app must be matmul, jacobi or balance (got '{other}')"
        )),
    }
    cli::finish_trace(sink.as_ref());
}

/// The handler of a run the command line made fail, such as a fault
/// plan that kills a rank: prints `what` and the error on one stderr
/// line and exits with status 1.
fn fail<E: std::fmt::Display, T>(what: &str) -> impl FnOnce(E) -> T + '_ {
    move |e| {
        eprintln!("{what}: {e}");
        std::process::exit(1)
    }
}
