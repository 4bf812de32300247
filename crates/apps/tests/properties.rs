//! Property-based tests for the applications: the distributed matmul
//! is correct for *arbitrary* area splits.

use fupermod_apps::matmul::run_bcast;
use fupermod_apps::workload::{random_matrix, DenseMatrix};
use fupermod_kernels::gemm::gemm_blocked;
use fupermod_platform::Platform;
use fupermod_runtime::{OverlapMode, RuntimeConfig};
use proptest::prelude::*;

fn serial_product(a: &DenseMatrix, b: &DenseMatrix) -> Vec<f64> {
    let n = a.rows;
    let mut c = vec![0.0; n * n];
    gemm_blocked(n, n, n, &a.data, &b.data, &mut c);
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn threaded_matmul_is_correct_for_any_area_split(
        weights in proptest::collection::vec(0u64..20, 1..7),
        seed in 0u64..1000,
    ) {
        prop_assume!(weights.iter().sum::<u64>() > 0);
        let block = 4usize;
        let n_blocks = 6u64;
        let n = n_blocks as usize * block;
        // Scale weights into exact areas for the 6x6 block grid.
        let areas = fupermod_num::apportion::largest_remainder(
            &weights.iter().map(|&w| w as f64).collect::<Vec<_>>(),
            n_blocks * n_blocks,
        )
        .unwrap();
        let a = random_matrix(n, n, seed);
        let b = random_matrix(n, n, seed + 1);
        let c = run_bcast(&a, &b, block, &areas, RuntimeConfig::thread(), OverlapMode::Blocking)
            .unwrap()
            .product;
        let reference = serial_product(&a, &b);
        for (x, y) in c.data.iter().zip(&reference) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }
}

// Parallel model construction must be a pure wall-clock optimisation:
// for any worker count, the models *and* the recorded trace are
// bit-identical to the serial build (ModelBuilder's replay contract).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_model_build_is_bit_identical_to_serial(
        parallelism in 0usize..9,
        seed in 0u64..500,
    ) {
        use fupermod_apps::matmul::build_device_models_with;
        use fupermod_core::model::PiecewiseModel;
        use fupermod_core::trace::MemorySink;
        use fupermod_core::Precision;
        use fupermod_platform::WorkloadProfile;

        let platform = Platform::two_speed(2, 2, seed);
        let profile = WorkloadProfile::matrix_update(8);
        let sizes = [32u64, 256, 2048];
        let precision = Precision::quick();

        let serial_sink = MemorySink::new();
        let serial: Vec<PiecewiseModel> = build_device_models_with(
            &platform, &profile, &sizes, &precision, &serial_sink, 1,
        )
        .unwrap();

        let par_sink = MemorySink::new();
        let parallel: Vec<PiecewiseModel> = build_device_models_with(
            &platform, &profile, &sizes, &precision, &par_sink, parallelism,
        )
        .unwrap();

        prop_assert_eq!(serial, parallel);
        prop_assert_eq!(serial_sink.take(), par_sink.take());
    }
}
