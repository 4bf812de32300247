//! The Jacobi method with dynamic load balancing (paper §4.4, Fig. 4).
//!
//! Matrix rows and vector entries are distributed between processes;
//! each iteration every process sweeps its rows, the updated solution
//! parts are all-gathered, and the per-iteration compute times feed a
//! [`DynamicContext`] that redistributes rows before the next
//! iteration — exactly the source-code pattern the paper lists.
//!
//! The math is computed for real (the solver converges and is checked
//! against the known solution); *time* is virtual: each process's
//! compute time comes from its device model on a synthetic
//! heterogeneous platform, so balancing behaviour at Grid'5000-like
//! heterogeneity is reproducible on any machine.

use std::sync::Arc;

use fupermod_core::dynamic::DynamicContext;
use fupermod_core::model::{Model, PiecewiseModel};
use fupermod_core::partition::Partitioner;
use fupermod_core::trace::{NullSink, TraceSink};
use fupermod_core::CoreError;
use fupermod_kernels::jacobi::jacobi_sweep;
use fupermod_platform::comm::SimComm;
use fupermod_platform::{Platform, WorkloadProfile};

use crate::workload::LinearSystem;

/// Configuration of a balanced Jacobi run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JacobiConfig {
    /// Convergence tolerance on `‖x_{k+1} − x_k‖∞`.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Load-balance tolerance `eps` passed to the dynamic context.
    pub eps_balance: f64,
    /// Whether to rebalance at all (off = fixed even distribution, the
    /// homogeneous baseline).
    pub balance: bool,
}

impl Default for JacobiConfig {
    fn default() -> Self {
        Self {
            tol: 1e-8,
            max_iters: 200,
            eps_balance: 0.05,
            balance: true,
        }
    }
}

/// Per-iteration record of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Iteration number (1-based, like the paper's Fig. 4).
    pub iteration: usize,
    /// Row counts per process *during* this iteration.
    pub sizes: Vec<u64>,
    /// Per-process compute time of this iteration, in simulated
    /// seconds.
    pub compute_times: Vec<f64>,
    /// Parallel time of the iteration (max compute + communication).
    pub iteration_time: f64,
    /// Rows that changed owner after this iteration's balancing step.
    pub rows_moved: u64,
    /// Solution change `‖x_{k+1} − x_k‖∞` at this iteration.
    pub error: f64,
}

/// Result of a balanced Jacobi run.
#[derive(Debug, Clone, PartialEq)]
pub struct JacobiReport {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Whether `tol` was reached within the iteration cap.
    pub converged: bool,
    /// Per-iteration records.
    pub iterations: Vec<IterationRecord>,
    /// Total simulated wall time, including redistribution costs.
    pub makespan: f64,
}

/// Runs the Jacobi method on `system` over the devices of `platform`,
/// with per-iteration dynamic load balancing driven by `partitioner`
/// (when `cfg.balance` is set).
///
/// # Errors
///
/// Propagates model/partitioning errors; solver-side math is
/// deterministic and cannot fail on a diagonally dominant system.
///
/// # Panics
///
/// Panics if the system is smaller than the process count.
pub fn run(
    system: &LinearSystem,
    platform: &Platform,
    partitioner: Box<dyn Partitioner>,
    cfg: &JacobiConfig,
) -> Result<JacobiReport, CoreError> {
    run_traced(system, platform, partitioner, cfg, Arc::new(NullSink))
}

/// Like [`run`], additionally routing the dynamic context's structured
/// events (model updates, partition steps, convergence) to `sink`.
///
/// # Errors
///
/// Exactly those of [`run`].
///
/// # Panics
///
/// Panics if the system is smaller than the process count.
pub fn run_traced(
    system: &LinearSystem,
    platform: &Platform,
    partitioner: Box<dyn Partitioner>,
    cfg: &JacobiConfig,
    sink: Arc<dyn TraceSink>,
) -> Result<JacobiReport, CoreError> {
    let n = system.b.len();
    let p = platform.size();
    assert!(n >= p, "need at least one row per process");

    let profile = WorkloadProfile::jacobi_sweep(n);
    let models: Vec<Box<dyn Model>> = (0..p)
        .map(|_| Box::new(PiecewiseModel::new()) as Box<dyn Model>)
        .collect();
    let mut ctx = DynamicContext::new(partitioner, models, n as u64, cfg.eps_balance)
        .with_trace(sink);
    let mut comm = SimComm::new(p, platform.link());
    // One row weighs its matrix band plus vector entries.
    let bytes_per_row = 8.0 * (n as f64 + 3.0);

    let mut x = vec![0.0; n];
    let mut records = Vec::new();
    let mut converged = false;
    let mut balancing_done = !cfg.balance;

    for iteration in 1..=cfg.max_iters {
        let sizes = ctx.dist().sizes();

        // --- real computation: one sweep, row ranges per process ---
        let mut x_new = vec![0.0; n];
        let mut offset = 0usize;
        let mut compute_times = Vec::with_capacity(p);
        let t_before = comm.max_time();
        for (rank, &d) in sizes.iter().enumerate() {
            let rows = d as usize;
            if rows > 0 {
                let band = &system.a.data[offset * n..(offset + rows) * n];
                let rhs = &system.b[offset..offset + rows];
                jacobi_sweep(band, rhs, &x, offset, &mut x_new[offset..offset + rows]);
            }
            // Virtual time for those rows on this device.
            let t = platform
                .device(rank)
                .measured_time(d, &profile, iteration as u64);
            comm.advance(rank, t);
            compute_times.push(t);
            offset += rows;
        }

        // --- exchange updated parts (allgatherv) ---
        let contrib: Vec<f64> = sizes.iter().map(|&d| d as f64 * 8.0).collect();
        comm.allgatherv(&contrib)?;
        let iteration_time = comm.max_time() - t_before;

        // --- convergence ---
        let error = x
            .iter()
            .zip(&x_new)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
        x = x_new;

        // --- load balancing ---
        let mut rows_moved = 0;
        if !balancing_done {
            let old_sizes = sizes.clone();
            let step = ctx.balance_iterate(&compute_times)?;
            rows_moved = step.units_moved;
            if rows_moved > 0 {
                comm.redistribute(&old_sizes, &ctx.dist().sizes(), bytes_per_row)?;
            }
            if step.converged {
                balancing_done = true;
            }
        }

        records.push(IterationRecord {
            iteration,
            sizes,
            compute_times,
            iteration_time,
            rows_moved,
            error,
        });

        if error < cfg.tol && iteration > 1 {
            converged = true;
            break;
        }
    }

    Ok(JacobiReport {
        x,
        converged,
        iterations: records,
        makespan: comm.max_time(),
    })
}

/// Convenience: the even-distribution baseline (no balancing), used as
/// the control in the experiments.
///
/// # Errors
///
/// Propagates [`run`]'s errors.
pub fn run_even(
    system: &LinearSystem,
    platform: &Platform,
    cfg: &JacobiConfig,
) -> Result<JacobiReport, CoreError> {
    use fupermod_core::partition::EvenPartitioner;
    let mut cfg = *cfg;
    cfg.balance = false;
    run(system, platform, Box::new(EvenPartitioner), &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::dominant_system;
    use fupermod_core::partition::{Distribution, GeometricPartitioner};

    fn residual(system: &LinearSystem, x: &[f64]) -> f64 {
        let n = system.b.len();
        (0..n)
            .map(|i| {
                let lhs: f64 = (0..n).map(|j| system.a.at(i, j) * x[j]).sum();
                (lhs - system.b[i]).abs()
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn balanced_run_converges_to_the_true_solution() {
        let system = dominant_system(120, 7);
        let platform = Platform::two_speed(2, 2, 7);
        let report = run(
            &system,
            &platform,
            Box::new(GeometricPartitioner::default()),
            &JacobiConfig::default(),
        )
        .unwrap();
        assert!(report.converged, "did not converge");
        assert!(residual(&system, &report.x) < 1e-5);
        for (got, want) in report.x.iter().zip(&system.x_true) {
            assert!((got - want).abs() < 1e-5);
        }
    }

    #[test]
    fn balancing_reduces_imbalance() {
        let system = dominant_system(200, 13);
        let platform = Platform::two_speed(1, 3, 13);
        let report = run(
            &system,
            &platform,
            Box::new(GeometricPartitioner::default()),
            &JacobiConfig::default(),
        )
        .unwrap();
        let first = Distribution::imbalance_of(&report.iterations[0].compute_times);
        // The largest imbalance of the last three iterations.
        let last = report.iterations[report.iterations.len() - 3..]
            .iter()
            .map(|r| Distribution::imbalance_of(&r.compute_times))
            .fold(0.0, f64::max);
        assert!(
            last < first * 0.6,
            "imbalance did not shrink: first {first}, tail {last}"
        );
    }

    #[test]
    fn balanced_beats_even_in_makespan() {
        // The paper's Fig. 4 setting: per-iteration compute dominates
        // (wide rows, fast interconnect) and the application iterates
        // long enough to amortise the one-time redistribution. Random
        // dominant systems converge in ~10 sweeps, so the comparison
        // runs a fixed iteration count instead of to convergence.
        use fupermod_platform::comm::LinkModel;
        let system = dominant_system(1200, 23);
        let platform = Platform::two_speed(1, 3, 23).with_link(LinkModel::infiniband());
        let cfg = JacobiConfig {
            tol: 0.0, // never "converged": run all iterations
            max_iters: 40,
            eps_balance: 0.05,
            balance: true,
        };
        let balanced = run(
            &system,
            &platform,
            Box::new(GeometricPartitioner::default()),
            &cfg,
        )
        .unwrap();
        let even = run_even(&system, &platform, &cfg).unwrap();
        assert_eq!(balanced.iterations.len(), even.iterations.len());
        assert!(
            balanced.makespan < even.makespan,
            "balanced {} vs even {}",
            balanced.makespan,
            even.makespan
        );
    }

    #[test]
    fn row_counts_converge_to_speed_proportional() {
        let system = dominant_system(160, 3);
        let platform = Platform::two_speed(1, 1, 3);
        let report = run(
            &system,
            &platform,
            Box::new(GeometricPartitioner::default()),
            &JacobiConfig::default(),
        )
        .unwrap();
        let last = report.iterations.last().unwrap();
        // The fast device ends with strictly more rows than the slow one.
        assert!(
            last.sizes[0] > last.sizes[1],
            "final sizes {:?}",
            last.sizes
        );
        // Row conservation every iteration.
        for rec in &report.iterations {
            assert_eq!(rec.sizes.iter().sum::<u64>(), 160);
        }
    }

    #[test]
    fn even_baseline_keeps_distribution_fixed() {
        let system = dominant_system(96, 5);
        let platform = Platform::two_speed(2, 2, 5);
        let report = run_even(&system, &platform, &JacobiConfig::default()).unwrap();
        for rec in &report.iterations {
            assert_eq!(rec.sizes, vec![24, 24, 24, 24]);
            assert_eq!(rec.rows_moved, 0);
        }
        assert!(report.converged);
    }

    #[test]
    fn solution_error_decreases_monotonically_late() {
        let system = dominant_system(80, 31);
        let platform = Platform::uniform(4, 31);
        let report = run(
            &system,
            &platform,
            Box::new(GeometricPartitioner::default()),
            &JacobiConfig::default(),
        )
        .unwrap();
        let errs: Vec<f64> = report.iterations.iter().map(|r| r.error).collect();
        // Strict dominance → asymptotic contraction; check the tail.
        for w in errs.windows(2).skip(2) {
            assert!(w[1] <= w[0] * 1.01, "errors not contracting: {errs:?}");
        }
    }
}
