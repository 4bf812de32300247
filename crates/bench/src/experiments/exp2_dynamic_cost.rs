//! EXP2 — Cost of dynamic partial estimation vs building full models
//! (paper §4.3/§4.4: "building full functional performance models is
//! not suitable for an application that is run a small number of
//! times").
//!
//! Compares, on each testbed, (a) building full FPMs over a size grid
//! and partitioning once, against (b) the dynamic partitioner that only
//! benchmarks at the sizes its own iterations visit. Reported costs are
//! the virtual seconds spent benchmarking (time × repetitions); quality
//! is the ground-truth imbalance of the final distribution.
//!
//! Output: CSV `platform,total,approach,bench_cost_s,steps,imbalance`.
//!
//! With `--runtime thread|sim` (default `serial`) the dynamic loop runs
//! through the distributed message-passing executor (`fupermod-runtime`)
//! instead of the serial in-process loop — bit-identical results on a
//! fault-free plan; `--fault-plan SPEC` (inline JSON or a file, see
//! docs/RUNTIME.md) injects faults and `--collectives hub|ring|tree|auto`
//! selects the collective schedules (docs/RUNTIME.md §6).
//! `--sim-engine event` swaps the rank threads for the single-threaded
//! discrete-event interpreter (implies `--runtime sim`; see
//! docs/RUNTIME.md §9), and `--ranks P` (or `-p P`) scales the run to a
//! single two-speed platform of P devices, keeping only the dynamic leg —
//! building full models for 10⁴+ devices is exactly the cost the
//! dynamic approach avoids.

use fupermod_core::model::{Model, PiecewiseModel};
use fupermod_core::partition::GeometricPartitioner;
use fupermod_core::Precision;
use fupermod_platform::{Platform, WorkloadProfile};

use super::Trace;
use crate::cli::{self, Args};
use crate::{
    dynamic_leg, evaluate_partitioner, ground_truth_imbalance, ground_truth_times, sink_or_null,
    size_grid,
};

pub fn run(args: &Args, trace: &Trace) {
    let quick = args.has("quick");
    let profile = WorkloadProfile::matrix_update(16);
    let ranks = cli::ranks(args);
    let platforms = match ranks {
        // Scale-sweep mode: one two-speed platform of the requested
        // size; the full-FPM leg is skipped below.
        Some(p) => vec![cli::scaled_platform("two-speed", Some(p), 201)],
        None => vec![
            Platform::two_speed(2, 2, 201),
            Platform::hybrid_node(4, 202),
            Platform::grid_site(203),
        ],
    };
    let total: u64 = if quick { 20_000 } else { 100_000 };

    println!("platform,total,approach,bench_cost_s,steps,imbalance");

    for platform in &platforms {
        // --- (a) full models (skipped under --ranks: modelling every
        // device of a 10⁴+ platform is the cost being avoided) ---
        if ranks.is_none() {
            let sizes = size_grid(16, total, if quick { 8 } else { 16 });
            let mut full_cost = 0.0;
            let mut models = Vec::new();
            for rank in 0..platform.size() {
                let mut m = PiecewiseModel::new();
                full_cost += crate::build_model_for_device(
                    platform,
                    rank,
                    &profile,
                    &sizes,
                    &Precision::thorough(),
                    &mut m,
                    sink_or_null(trace),
                )
                .expect("full model build failed");
                models.push(m);
            }
            let refs: Vec<&dyn Model> = models.iter().map(|m| m as &dyn Model).collect();
            let eval = evaluate_partitioner(
                platform,
                &profile,
                total,
                &GeometricPartitioner::default(),
                &refs,
                sink_or_null(trace),
            )
            .expect("full-model partition failed");
            let (points, imb) = (sizes.len(), eval.imbalance);
            println!("{},{total},full-fpm,{full_cost:.3},{points},{imb:.4}", platform.name());
        }

        // --- (b) dynamic partial estimation ---
        // With --runtime thread|sim the loop runs distributed over the
        // message-passing runtime; otherwise the classic serial loop.
        let config = cli::runtime_config(args, platform, trace.as_ref(), "serial");
        let (dyn_cost, steps, final_sizes) =
            dynamic_leg(platform, &profile, total, 25, config, trace);
        let times = ground_truth_times(platform, &profile, &final_sizes);
        let imb = ground_truth_imbalance(&times);
        println!("{},{total},dynamic-partial,{dyn_cost:.3},{steps},{imb:.4}", platform.name());
    }
}
