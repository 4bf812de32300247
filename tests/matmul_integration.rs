//! Integration: the matrix-multiplication application computes correct
//! products under every partitioning strategy, and the simulated runs
//! show the expected heterogeneous behaviour.

use fupermod::apps::matmul::{
    build_device_models, partition_areas, run_bcast, simulate, MatMulConfig,
};
use fupermod::apps::workload::{random_matrix, DenseMatrix};
use fupermod::core::model::{AkimaModel, Model, PiecewiseModel};
use fupermod::core::partition::{GeometricPartitioner, NumericalPartitioner};
use fupermod::core::Precision;
use fupermod::kernels::gemm::{gemm_blocked, gemm_naive};
use fupermod::platform::{Platform, WorkloadProfile};
use fupermod::runtime::{OverlapMode, RuntimeConfig};

/// The product of a blocking run on worker threads.
fn threaded(a: &DenseMatrix, b: &DenseMatrix, block: usize, areas: &[u64]) -> DenseMatrix {
    run_bcast(
        a,
        b,
        block,
        areas,
        RuntimeConfig::thread(),
        OverlapMode::Blocking,
    )
    .unwrap()
    .product
}

fn serial_product(a: &DenseMatrix, b: &DenseMatrix) -> Vec<f64> {
    let n = a.rows;
    let mut c = vec![0.0; n * n];
    gemmref(n, &a.data, &b.data, &mut c);
    c
}

fn gemmref(n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    gemm_blocked(n, n, n, a, b, c);
}

#[test]
fn threaded_product_is_correct_for_model_derived_areas() {
    let block = 8usize;
    let n_blocks = 10u64;
    let platform = Platform::two_speed(2, 1, 41);
    let profile = WorkloadProfile::matrix_update(block);

    // Models from simulated benchmarking; areas from both FPM
    // partitioners.
    let pwls: Vec<PiecewiseModel> =
        build_device_models(&platform, &profile, &[4, 16, 64, 100], &Precision::quick())
            .unwrap();
    let akimas: Vec<AkimaModel> =
        build_device_models(&platform, &profile, &[4, 16, 64, 100], &Precision::quick())
            .unwrap();
    let pwl_refs: Vec<&dyn Model> = pwls.iter().map(|m| m as &dyn Model).collect();
    let akima_refs: Vec<&dyn Model> = akimas.iter().map(|m| m as &dyn Model).collect();

    let n = n_blocks as usize * block;
    let a = random_matrix(n, n, 7);
    let b = random_matrix(n, n, 8);
    let reference = serial_product(&a, &b);

    for (name, areas) in [
        (
            "geometric",
            partition_areas(&GeometricPartitioner::default(), n_blocks, &pwl_refs).unwrap(),
        ),
        (
            "numerical",
            partition_areas(&NumericalPartitioner::default(), n_blocks, &akima_refs).unwrap(),
        ),
    ] {
        let c = threaded(&a, &b, block, &areas);
        let max_err = c
            .data
            .iter()
            .zip(&reference)
            .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()));
        assert!(max_err < 1e-9, "{name}: max error {max_err}");
    }
}

/// The blocked GEMM is the naive one bit for bit, including where a
/// skipped zero term shows: an all-zero row of `A` over `C = -0.0`,
/// zeros of `A` meeting ±∞ and NaN in `B`, and a zero only in the
/// second 256-long run of `l`.
#[test]
fn blocked_gemm_is_bitwise_naive_on_hostile_values() {
    let (m, n, k) = (37, 41, 270);
    let mut a = random_matrix(m, k, 3).data;
    let mut b = random_matrix(k, n, 4).data;
    for i in 0..m {
        for l in 0..k {
            if i == 9 || (i % 10 == 3 && l % 7 == 1) || (i == 30 && l == 263) {
                a[i * k + l] = if l % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
    }
    for l in (1..k).step_by(7) {
        b[l * n + 5] = f64::INFINITY;
        b[l * n + 6] = if l % 2 == 0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
        b[l * n + 20] = f64::NAN;
        b[l * n + 33] = -0.0;
    }
    for fill in [-0.0, 0.25] {
        let mut naive = vec![fill; m * n];
        let mut blocked = vec![fill; m * n];
        gemm_naive(m, n, k, &a, &b, &mut naive);
        gemm_blocked(m, n, k, &a, &b, &mut blocked);
        for (e, (x, y)) in blocked.iter().zip(&naive).enumerate() {
            // Equal bits, or both NaN: which NaN operand's sign and
            // payload an add keeps is left open by the language.
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "C={fill} elem {e}: {x} vs naive {y}"
            );
        }
    }
}

#[test]
fn threaded_product_is_correct_for_many_process_counts() {
    let block = 4usize;
    let n = 48usize; // 12×12 blocks
    let a = random_matrix(n, n, 17);
    let b = random_matrix(n, n, 18);
    let reference = serial_product(&a, &b);
    let total = 144u64;
    for p in [1usize, 2, 3, 5, 7, 12] {
        // Skewed areas: process i gets weight i+1.
        let weights: Vec<f64> = (0..p).map(|i| (i + 1) as f64).collect();
        let areas = fupermod::num::apportion::largest_remainder(&weights, total).unwrap();
        let c = threaded(&a, &b, block, &areas);
        let max_err = c
            .data
            .iter()
            .zip(&reference)
            .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()));
        assert!(max_err < 1e-9, "p={p}: max error {max_err}");
    }
}

#[test]
fn simulated_matmul_scales_sanely_with_problem_size() {
    let platform = Platform::two_speed(2, 2, 51);
    let areas = |n_blocks: u64| {
        let p = platform.size() as u64;
        let total = n_blocks * n_blocks;
        (0..p)
            .map(|i| total / p + u64::from(i < total % p))
            .collect::<Vec<_>>()
    };
    let small = simulate(
        &platform,
        &areas(32),
        &MatMulConfig {
            n_blocks: 32,
            block: 16,
        },
    )
    .unwrap();
    let large = simulate(
        &platform,
        &areas(64),
        &MatMulConfig {
            n_blocks: 64,
            block: 16,
        },
    )
    .unwrap();
    // 8× the flops → at least 4× the time (speed can only drop with
    // size on these devices).
    assert!(
        large.total_time > 4.0 * small.total_time,
        "small {} vs large {}",
        small.total_time,
        large.total_time
    );
}

#[test]
fn partition_metadata_matches_simulation_input() {
    let platform = Platform::grid_site(61);
    let p = platform.size() as u64;
    let cfg = MatMulConfig {
        n_blocks: 64,
        block: 16,
    };
    let total = cfg.n_blocks * cfg.n_blocks;
    let areas: Vec<u64> = (0..p).map(|i| total / p + u64::from(i < total % p)).collect();
    let report = simulate(&platform, &areas, &cfg).unwrap();
    // The 2D partition tiles the grid exactly.
    let covered: u64 = report.partition.rects().iter().map(|r| r.area()).sum();
    assert_eq!(covered, total);
    // Every device got a compute-time sample in the report.
    assert_eq!(report.iter_compute_times.len(), platform.size());
}
