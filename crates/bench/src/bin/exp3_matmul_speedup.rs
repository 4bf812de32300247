//! EXP3 — Heterogeneous matrix multiplication: even vs CPM vs FPM
//! partitioning (the paper's §4.1 use case and the motivation of §1).
//!
//! Simulates the full column-based matmul on heterogeneous testbeds for
//! a sweep of matrix sizes. The expectation (the paper's headline
//! shape): model-based partitioning beats the even distribution
//! everywhere; the FPM beats the CPM once per-device shares span memory
//! cliffs or the GPU memory boundary.
//!
//! Output: CSV `platform,n_blocks,strategy,total_time_s,speedup_vs_even,comm_s`.
//! With `--trace-dir DIR` (or `FUPERMOD_TRACE_DIR`), also writes
//! `DIR/exp3_matmul_speedup.trace.jsonl` (see docs/OBSERVABILITY.md).
//! `--parallelism N` (or `FUPERMOD_PARALLELISM`) builds the models on
//! N worker threads, bit-identically.

use fupermod_apps::matmul::{build_device_models_with, partition_areas, simulate, MatMulConfig};
use fupermod_bench::cli::{self, Args};
use fupermod_bench::{print_csv_row, sink_or_null, size_grid};
use fupermod_core::model::{AkimaModel, ConstantModel, Model};
use fupermod_core::partition::{ConstantPartitioner, NumericalPartitioner};
use fupermod_core::Precision;
use fupermod_platform::{Platform, WorkloadProfile};

fn main() {
    let args = Args::parse();
    let trace = cli::open_trace_sink(&args, None);
    let quick = args.has("quick");
    let block = 16usize;
    let profile = WorkloadProfile::matrix_update(block);
    let platforms = vec![Platform::two_speed(2, 2, 301), Platform::hybrid_node(4, 302)];
    let n_blocks_sweep: Vec<u64> = if quick {
        vec![32, 96]
    } else {
        vec![32, 64, 128, 256, 512]
    };

    print_csv_row(&[
        "platform".into(),
        "n_blocks".into(),
        "strategy".into(),
        "total_time_s".into(),
        "speedup_vs_even".into(),
        "comm_s".into(),
    ]);

    for platform in &platforms {
        let max_area = n_blocks_sweep.last().unwrap().pow(2);
        let sizes = size_grid(16, max_area / 2, if quick { 8 } else { 14 });
        let parallelism = cli::parallelism(&args);
        let cpms: Vec<ConstantModel> = build_device_models_with(
            platform,
            &profile,
            &[sizes[sizes.len() / 2]],
            &Precision::default(),
            sink_or_null(&trace),
            parallelism,
        )
        .expect("cpm build failed");
        let akimas: Vec<AkimaModel> = build_device_models_with(
            platform,
            &profile,
            &sizes,
            &Precision::default(),
            sink_or_null(&trace),
            parallelism,
        )
        .expect("akima build failed");

        for &n_blocks in &n_blocks_sweep {
            let cfg = MatMulConfig { n_blocks, block };
            let total = n_blocks * n_blocks;

            let even_areas: Vec<u64> = {
                let p = platform.size() as u64;
                (0..p).map(|i| total / p + u64::from(i < total % p)).collect()
            };
            let cpm_refs: Vec<&dyn Model> = cpms.iter().map(|m| m as &dyn Model).collect();
            let akima_refs: Vec<&dyn Model> = akimas.iter().map(|m| m as &dyn Model).collect();
            let cpm_areas = partition_areas(&ConstantPartitioner, n_blocks, &cpm_refs)
                .expect("cpm partition failed");
            let fpm_areas = partition_areas(&NumericalPartitioner::default(), n_blocks, &akima_refs)
                .expect("fpm partition failed");

            let even = simulate(platform, &even_areas, &cfg).expect("even sim failed");
            for (name, areas) in [("even", even_areas), ("cpm", cpm_areas), ("fpm", fpm_areas)] {
                let report = simulate(platform, &areas, &cfg).expect("sim failed");
                print_csv_row(&[
                    platform.name().to_owned(),
                    n_blocks.to_string(),
                    name.to_owned(),
                    format!("{:.4}", report.total_time),
                    format!("{:.3}", even.total_time / report.total_time),
                    format!("{:.4}", report.comm_seconds),
                ]);
            }
        }
    }
    cli::finish_trace(trace.as_ref());
}
