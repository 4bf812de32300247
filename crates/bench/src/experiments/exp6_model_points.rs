//! EXP6 (ablation) — Cost/accuracy trade-off of model resolution.
//!
//! The framework promises models "to a given accuracy and
//! cost-effectiveness" (§1). This ablation sweeps the number of
//! benchmark points per full model and reports both the benchmarking
//! cost and the ground-truth imbalance of the resulting geometric and
//! numerical partitions. The expected shape: quality saturates after a
//! modest number of points (the memory cliffs are bracketed), while
//! cost keeps growing linearly — the motivation for partial models.
//!
//! Output: CSV `points,algorithm,bench_cost_s,imbalance`.

use fupermod_core::model::{AkimaModel, Model, PiecewiseModel};
use fupermod_core::partition::{GeometricPartitioner, NumericalPartitioner, Partitioner};
use fupermod_core::Precision;
use fupermod_platform::{Platform, WorkloadProfile};

use super::Trace;
use crate::cli::Args;
use crate::{
    build_model_for_device, ground_truth_imbalance, ground_truth_times, sink_or_null, size_grid,
};

pub fn run(_: &Args, trace: &Trace) {
    let profile = WorkloadProfile::matrix_update(16);
    let platform = Platform::grid_site(600);
    let total = 150_000u64;
    let precision = Precision::default();

    println!("points,algorithm,bench_cost_s,imbalance");

    for npoints in [2usize, 3, 4, 6, 8, 12, 16, 24] {
        let sizes = size_grid(16, 80_000, npoints);

        let mut pwls = Vec::new();
        let mut akimas = Vec::new();
        let mut cost = 0.0;
        for rank in 0..platform.size() {
            let mut pwl = PiecewiseModel::new();
            let mut akima = AkimaModel::new();
            cost += build_model_for_device(
                &platform,
                rank,
                &profile,
                &sizes,
                &precision,
                &mut pwl,
                sink_or_null(trace),
            )
            .expect("pwl build failed");
            // Reuse the same benchmark data for the Akima model: zero
            // extra cost, identical information.
            for p in pwl.points() {
                akima.update(*p).expect("akima update failed");
            }
            pwls.push(pwl);
            akimas.push(akima);
        }

        let pwl_refs: Vec<&dyn Model> = pwls.iter().map(|m| m as &dyn Model).collect();
        let akima_refs: Vec<&dyn Model> = akimas.iter().map(|m| m as &dyn Model).collect();
        for (name, dist) in [
            (
                "geometric",
                GeometricPartitioner::default()
                    .partition(total, &pwl_refs)
                    .expect("geometric failed"),
            ),
            (
                "numerical",
                NumericalPartitioner::default()
                    .partition(total, &akima_refs)
                    .expect("numerical failed"),
            ),
        ] {
            let times = ground_truth_times(&platform, &profile, &dist.sizes());
            let imb = ground_truth_imbalance(&times);
            println!("{},{name},{cost:.3},{imb:.4}", sizes.len());
        }
    }
}
