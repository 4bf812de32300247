//! Integration: the dynamically balanced Jacobi application — real
//! convergence, balancing behaviour, and determinism across testbeds.

use fupermod::apps::jacobi::{run, run_even, JacobiConfig, JacobiReport};
use fupermod::apps::workload::dominant_system;
use fupermod::core::partition::{Distribution, GeometricPartitioner, NumericalPartitioner};
use fupermod::platform::Platform;

/// Maximum relative imbalance of the last `k` iterations of a report —
/// the quantity Fig. 4 shows shrinking.
fn tail_imbalance(report: &JacobiReport, k: usize) -> f64 {
    report
        .iterations
        .iter()
        .rev()
        .take(k)
        .map(|r| Distribution::imbalance_of(&r.compute_times))
        .fold(0.0, f64::max)
}

#[test]
fn converges_on_the_grid_site_testbed() {
    let system = dominant_system(320, 71);
    let platform = Platform::grid_site(71);
    let report = run(
        &system,
        &platform,
        Box::new(GeometricPartitioner::default()),
        &JacobiConfig::default(),
    )
    .unwrap();
    assert!(report.converged);
    for (got, want) in report.x.iter().zip(&system.x_true) {
        assert!((got - want).abs() < 1e-5, "solution off: {got} vs {want}");
    }
}

#[test]
fn numerical_partitioner_also_balances_jacobi() {
    let system = dominant_system(240, 72);
    let platform = Platform::two_speed(1, 2, 72);
    let report = run(
        &system,
        &platform,
        Box::new(NumericalPartitioner::default()),
        &JacobiConfig::default(),
    )
    .unwrap();
    assert!(report.converged);
    assert!(
        tail_imbalance(&report, 3) < 0.35,
        "tail imbalance {}",
        tail_imbalance(&report, 3)
    );
}

#[test]
fn balancing_beats_even_baseline_across_seeds() {
    // The paper's Fig. 4 setting: per-row compute must dominate the
    // (fixed) communication costs — wide rows, fast interconnect — and
    // the application must iterate long enough to amortise the one-off
    // redistribution, so the comparison runs a fixed iteration count.
    use fupermod::platform::LinkModel;
    for seed in [5u64, 6, 7] {
        let system = dominant_system(1200, seed);
        let platform = Platform::two_speed(1, 3, seed).with_link(LinkModel::infiniband());
        let cfg = JacobiConfig {
            tol: 0.0,
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
        assert!(
            balanced.makespan < even.makespan,
            "seed {seed}: balanced {} vs even {}",
            balanced.makespan,
            even.makespan
        );
    }
}

#[test]
fn rows_are_conserved_and_solution_identical_to_even_run() {
    // Balancing redistributes *work*, never changes *math*: the final
    // solutions of balanced and even runs agree to iteration tolerance.
    let system = dominant_system(160, 99);
    let platform = Platform::two_speed(2, 2, 99);
    let cfg = JacobiConfig {
        tol: 1e-10,
        max_iters: 300,
        ..JacobiConfig::default()
    };
    let balanced = run(
        &system,
        &platform,
        Box::new(GeometricPartitioner::default()),
        &cfg,
    )
    .unwrap();
    let even = run_even(&system, &platform, &cfg).unwrap();
    assert!(balanced.converged && even.converged);
    for (a, b) in balanced.x.iter().zip(&even.x) {
        assert!((a - b).abs() < 1e-8);
    }
    for rec in &balanced.iterations {
        assert_eq!(rec.sizes.iter().sum::<u64>(), 160);
    }
}

#[test]
fn runs_are_deterministic() {
    let mk = || {
        let system = dominant_system(150, 123);
        let platform = Platform::two_speed(1, 2, 123);
        run(
            &system,
            &platform,
            Box::new(GeometricPartitioner::default()),
            &JacobiConfig::default(),
        )
        .unwrap()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.x, b.x);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.iterations.len(), b.iterations.len());
    for (ra, rb) in a.iterations.iter().zip(&b.iterations) {
        assert_eq!(ra.sizes, rb.sizes);
        assert_eq!(ra.compute_times, rb.compute_times);
    }
}
