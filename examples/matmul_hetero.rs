//! Heterogeneous parallel matrix multiplication, end to end:
//!
//! 1. benchmark the devices of a simulated heterogeneous cluster,
//! 2. partition the block grid with the Akima-FPM numerical algorithm,
//! 3. arrange rectangles with the column-based 2D partition,
//! 4. *verify the math* by running the same partition for real on
//!    worker threads against serial GEMM,
//! 5. simulate the large-scale run and report the speedup over the
//!    even distribution.
//!
//! Run with: `cargo run --release --example matmul_hetero`

use fupermod::apps::matmul::{
    build_device_models, partition_areas, run_bcast, simulate, MatMulConfig,
};
use fupermod::apps::workload::random_matrix;
use fupermod::core::model::{AkimaModel, Model};
use fupermod::core::partition::NumericalPartitioner;
use fupermod::core::{CoreError, Precision};
use fupermod::kernels::gemm::gemm_blocked;
use fupermod::platform::{Platform, WorkloadProfile};
use fupermod::runtime::{OverlapMode, RuntimeConfig};

fn main() -> Result<(), CoreError> {
    let block = 8usize;
    let platform = Platform::two_speed(2, 2, 77);
    let profile = WorkloadProfile::matrix_update(block);

    // Small, real verification run: 64×64 elements = 8×8 blocks.
    let n_blocks_small: u64 = 8;
    let models: Vec<AkimaModel> = build_device_models(
        &platform,
        &profile,
        &[4, 16, 64, 256],
        &Precision::default(),
    )?;
    let refs: Vec<&dyn Model> = models.iter().map(|m| m as &dyn Model).collect();
    let areas = partition_areas(&NumericalPartitioner::default(), n_blocks_small, &refs)?;
    println!("2D areas for the 8x8 block grid: {areas:?}");

    let n = n_blocks_small as usize * block;
    let a = random_matrix(n, n, 1);
    let b = random_matrix(n, n, 2);
    let c = run_bcast(
        &a,
        &b,
        block,
        &areas,
        RuntimeConfig::thread(),
        OverlapMode::Blocking,
    )?
    .product;
    let mut reference = vec![0.0; n * n];
    gemm_blocked(n, n, n, &a.data, &b.data, &mut reference);
    let max_err = c
        .data
        .iter()
        .zip(&reference)
        .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()));
    println!("real threaded run: max |C - C_ref| = {max_err:.2e}");
    assert!(max_err < 1e-9, "distributed product mismatch");

    // Large simulated run: compare even vs FPM partitioning.
    let cfg = MatMulConfig {
        n_blocks: 256,
        block: 16,
    };
    let profile_big = WorkloadProfile::matrix_update(cfg.block);
    let models: Vec<AkimaModel> = build_device_models(
        &platform,
        &profile_big,
        &[64, 512, 4096, 16384, 32768],
        &Precision::default(),
    )?;
    let refs: Vec<&dyn Model> = models.iter().map(|m| m as &dyn Model).collect();
    let fpm_areas = partition_areas(&NumericalPartitioner::default(), cfg.n_blocks, &refs)?;
    let even_areas = {
        let p = platform.size() as u64;
        let total = cfg.n_blocks * cfg.n_blocks;
        (0..p)
            .map(|i| total / p + u64::from(i < total % p))
            .collect::<Vec<_>>()
    };

    let fpm = simulate(&platform, &fpm_areas, &cfg)?;
    let even = simulate(&platform, &even_areas, &cfg)?;
    println!(
        "simulated 4096x4096 multiply on '{}': even {:.2} s, FPM {:.2} s (speedup {:.2}x)",
        platform.name(),
        even.total_time,
        fpm.total_time,
        even.total_time / fpm.total_time
    );
    println!(
        "communication metric (sum of half-perimeters): even {}, FPM {}",
        even.half_perimeters, fpm.half_perimeters
    );
    Ok(())
}
