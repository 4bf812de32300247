//! EXP9 (end-to-end) — What a user actually pays: total cost of
//! optimising the heterogeneous matmul with (a) full prebuilt models,
//! (b) dynamic partial models built on the spot, and (c) no models at
//! all (even split).
//!
//! The paper's §4.3 framing: prebuilt models amortise over repeated
//! runs; dynamic estimation suits one-shot executions. This experiment
//! reports `model_cost + k × run_time` for k = 1 and k = 20 runs, so
//! the crossover is visible.
//!
//! Output: CSV `platform,n_blocks,approach,model_cost_s,run_time_s,total_1run,total_20runs`.
//!
//! With `--runtime thread|sim` (default `serial`) the dynamic-estimation
//! leg runs through the distributed message-passing executor
//! (`fupermod-runtime`) — bit-identical results on a fault-free plan;
//! `--fault-plan SPEC` (inline JSON or a file, see docs/RUNTIME.md)
//! injects faults and `--collectives hub|ring|tree|auto` selects the
//! collective schedules (docs/RUNTIME.md §6). `--sim-engine event`
//! swaps the rank threads for the single-threaded discrete-event
//! interpreter (implies `--runtime sim`; see docs/RUNTIME.md §9).

use fupermod_apps::matmul::{partition_areas, simulate, MatMulConfig};
use fupermod_core::model::{Model, PiecewiseModel};
use fupermod_core::partition::{EvenPartitioner, GeometricPartitioner, Partitioner};
use fupermod_core::Precision;
use fupermod_platform::{Platform, WorkloadProfile};

use super::Trace;
use crate::cli::{self, Args};
use crate::{build_model_for_device, dynamic_leg, sink_or_null, size_grid};

pub fn run(args: &Args, trace: &Trace) {
    let block = 16usize;
    let profile = WorkloadProfile::matrix_update(block);
    let platforms = vec![Platform::two_speed(2, 2, 901), Platform::grid_site(902)];
    let cfg = MatMulConfig {
        n_blocks: 256,
        block,
    };
    let total_area = cfg.n_blocks * cfg.n_blocks;

    println!("platform,n_blocks,approach,model_cost_s,run_time_s,total_1run,total_20runs");

    for platform in &platforms {
        let p = platform.size();

        // (c) even: no modelling cost at all.
        let even_areas: Vec<u64> = (0..p as u64)
            .map(|i| total_area / p as u64 + u64::from(i < total_area % p as u64))
            .collect();
        let even_run = simulate(platform, &even_areas, &cfg).expect("even sim").total_time;
        emit(platform, &cfg, "even", 0.0, even_run);

        // (a) full prebuilt models.
        let sizes = size_grid(16, total_area / 2, 14);
        let mut full_cost = 0.0;
        let mut models = Vec::new();
        for rank in 0..p {
            let mut m = PiecewiseModel::new();
            full_cost += build_model_for_device(
                platform,
                rank,
                &profile,
                &sizes,
                &Precision::thorough(),
                &mut m,
                sink_or_null(trace),
            )
            .expect("model build failed");
            models.push(m);
        }
        let refs: Vec<&dyn Model> = models.iter().map(|m| m as &dyn Model).collect();
        let areas = partition_areas(&GeometricPartitioner::default(), cfg.n_blocks, &refs)
            .expect("partition failed");
        let run = simulate(platform, &areas, &cfg).expect("sim failed").total_time;
        emit(platform, &cfg, "full-models", full_cost, run);

        // (b) dynamic partial estimation at run time — distributed
        // over the runtime when --runtime thread|sim is given.
        let config = cli::runtime_config(args, platform, trace.as_ref(), "serial");
        let (dyn_cost, _, areas) = dynamic_leg(platform, &profile, total_area, 20, config, trace);
        let run = simulate(platform, &areas, &cfg).expect("sim failed").total_time;
        emit(platform, &cfg, "dynamic", dyn_cost, run);

        // Sanity row: what the ideal (even) baseline with a Partitioner
        // object would give (should match the handmade split).
        let even_check = EvenPartitioner
            .partition(total_area, &refs)
            .expect("even partition failed");
        assert_eq!(even_check.total_assigned(), total_area);
    }
}

fn emit(platform: &Platform, cfg: &MatMulConfig, name: &str, model_cost: f64, run: f64) {
    let (once, twenty) = (model_cost + run, model_cost + 20.0 * run);
    let (platform, n_blocks) = (platform.name(), cfg.n_blocks);
    println!("{platform},{n_blocks},{name},{model_cost:.3},{run:.3},{once:.3},{twenty:.3}");
}
