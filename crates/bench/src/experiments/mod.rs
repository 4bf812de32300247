//! The paper's figures and experiments: one row of [`ALL`] each
//! (indexed in DESIGN.md §4, results recorded in EXPERIMENTS.md).
//!
//! An experiment prints its CSV to stdout. `fupermod_experiment <name>`
//! runs one row: for a traced row it opens the trace that `--trace
//! PATH`, `--trace-dir DIR` or `FUPERMOD_TRACE_DIR` asks for
//! (`DIR/<name>.trace.jsonl`, see docs/OBSERVABILITY.md) before the
//! experiment and finishes it after. `tests/figures.rs` regenerates
//! every row and compares it with `results/`.

use std::sync::Arc;

use fupermod_core::trace::TraceSink;

use crate::cli::Args;

mod exp10_partition_cost;
mod exp1_partition_quality;
mod exp2_dynamic_cost;
mod exp3_matmul_speedup;
mod exp4_matrix2d_comm;
mod exp5_noise_sensitivity;
mod exp6_model_points;
mod exp7_hierarchy;
mod exp8_interpolation_error;
mod exp9_dynamic_matmul;
mod fig2_interpolation;
mod fig3_partial_fpm;
mod fig4_jacobi_balancing;

/// The run's trace sink, when it is traced.
pub type Trace = Option<Arc<dyn TraceSink>>;

/// One figure or experiment of the paper.
#[derive(Debug)]
pub struct Experiment {
    /// The file stem of its CSV in `results/` and of its trace.
    pub name: &'static str,
    /// Where the paper makes the claim it tests.
    pub section: &'static str,
    /// Whether it times a kernel on the host, so that only its CSV's
    /// header, `d` column and row count repeat from run to run, and its
    /// trace not at all.
    pub host_timed: bool,
    /// Whether it writes a trace.
    pub traced: bool,
    /// Prints the CSV to stdout, writing events to the trace.
    pub run: fn(&Args, &Trace),
}

/// A row of [`ALL`]: the experiment of module `$name`, run by its `run`.
macro_rules! row {
    ($name:ident, $section:literal, host_timed: $host_timed:literal, traced: $traced:literal) => {
        Experiment {
            name: stringify!($name),
            section: $section,
            host_timed: $host_timed,
            traced: $traced,
            run: $name::run,
        }
    };
}

/// Every experiment, in the order `fupermod_experiment list` prints.
pub const ALL: &[Experiment] = &[
    row!(fig2_interpolation, "Fig. 2", host_timed: true, traced: true),
    row!(fig3_partial_fpm, "Fig. 3", host_timed: false, traced: true),
    row!(fig4_jacobi_balancing, "Fig. 4", host_timed: false, traced: true),
    row!(exp1_partition_quality, "§4.3", host_timed: false, traced: true),
    row!(exp2_dynamic_cost, "§4.4", host_timed: false, traced: true),
    row!(exp3_matmul_speedup, "§4.1", host_timed: false, traced: true),
    row!(exp4_matrix2d_comm, "§4.1", host_timed: false, traced: false),
    row!(exp5_noise_sensitivity, "§3", host_timed: false, traced: true),
    row!(exp6_model_points, "§1", host_timed: false, traced: true),
    row!(exp7_hierarchy, "§4.1", host_timed: false, traced: true),
    row!(exp8_interpolation_error, "§4.2", host_timed: false, traced: true),
    row!(exp9_dynamic_matmul, "§4.3", host_timed: false, traced: true),
    row!(exp10_partition_cost, "§4.3", host_timed: false, traced: false),
];
