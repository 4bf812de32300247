//! FIG4 — Dynamic load balancing of the Jacobi method (paper Fig. 4).
//!
//! Three heterogeneous processes solve a diagonally dominant system;
//! the load balancer redistributes rows from the application's own
//! iteration times. The paper's figure shows per-iteration times
//! converging after a few iterations, annotated with the row counts of
//! the slowest process (16, 11, 9, ...). This binary prints the same
//! series.
//!
//! Output: CSV `iteration,device,rows,compute_time,iteration_time,rows_moved,error`.
//! With `--trace-dir DIR` (or `FUPERMOD_TRACE_DIR`), also writes
//! `DIR/fig4_jacobi_balancing.trace.jsonl` (see docs/OBSERVABILITY.md).

use std::sync::Arc;

use fupermod_apps::jacobi::{run_traced, JacobiConfig};
use fupermod_apps::workload::dominant_system;
use fupermod_bench::cli::{self, Args};
use fupermod_bench::print_csv_row;
use fupermod_core::partition::GeometricPartitioner;
use fupermod_core::trace::{NullSink, TraceSink};
use fupermod_platform::{cluster, LinkModel, Platform};

fn main() {
    let args = Args::parse();
    let trace = cli::open_trace_sink(&args, None);
    let quick = args.has("quick");
    let n = if quick { 120 } else { 480 };

    // Three devices of distinctly different speeds, like the paper's
    // small demo run.
    let platform = Platform::new(
        "fig4-trio",
        vec![
            cluster::fast_cpu("cpu-fast", 41),
            cluster::slow_cpu("cpu-slow", 42),
            cluster::multicore_cores("mc", 1, 43).pop().expect("one core"),
        ],
        LinkModel::ethernet(),
    );

    let system = dominant_system(n, 44);
    let events: Arc<dyn TraceSink> = trace
        .clone()
        .unwrap_or_else(|| Arc::new(NullSink) as Arc<dyn TraceSink>);
    let report = run_traced(
        &system,
        &platform,
        Box::new(GeometricPartitioner::default()),
        &JacobiConfig {
            tol: 1e-10,
            max_iters: 40,
            eps_balance: 0.05,
            balance: true,
        },
        events,
    )
    .expect("jacobi run failed");

    print_csv_row(&[
        "iteration".into(),
        "device".into(),
        "rows".into(),
        "compute_time".into(),
        "iteration_time".into(),
        "rows_moved".into(),
        "error".into(),
    ]);
    for rec in &report.iterations {
        for (rank, (&rows, &t)) in rec.sizes.iter().zip(&rec.compute_times).enumerate() {
            print_csv_row(&[
                rec.iteration.to_string(),
                platform.device(rank).name().to_owned(),
                rows.to_string(),
                format!("{t:.6}"),
                format!("{:.6}", rec.iteration_time),
                rec.rows_moved.to_string(),
                format!("{:.3e}", rec.error),
            ]);
        }
    }
    eprintln!(
        "converged: {}, iterations: {}, makespan: {:.4} s",
        report.converged,
        report.iterations.len(),
        report.makespan
    );
    cli::finish_trace(trace.as_ref());
}
