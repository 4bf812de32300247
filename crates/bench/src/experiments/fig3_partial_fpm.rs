//! FIG3 — Construction of partial piecewise FPMs by the geometrical
//! dynamic data-partitioning algorithm (paper Fig. 3).
//!
//! Two simulated heterogeneous devices; the dynamic partitioner starts
//! from the even distribution, benchmarks at the current sizes, refines
//! the partial models and re-partitions until balanced. The output
//! traces, per step, the model points accumulated so far and the
//! resulting distribution — the data behind the paper's Fig. 3(a,b).
//!
//! Output: CSV `step,device,point_d,point_t,assigned_d,imbalance`.

use fupermod_core::dynamic::DynamicContext;
use fupermod_core::model::{Model, PiecewiseModel};
use fupermod_core::partition::GeometricPartitioner;
use fupermod_platform::{cluster, LinkModel, Platform, WorkloadProfile};

use super::Trace;
use crate::cli::Args;
use crate::{quick_measure, sink_or_null};

pub fn run(_: &Args, trace: &Trace) {
    let total: u64 = 4000;
    let eps = 0.03;
    let platform = Platform::new(
        "fig3-pair",
        vec![cluster::fast_cpu("fast", 33), cluster::slow_cpu("slow", 34)],
        LinkModel::ethernet(),
    );
    let profile = WorkloadProfile::matrix_update(16);

    let models: Vec<Box<dyn Model>> = (0..2)
        .map(|_| Box::new(PiecewiseModel::new()) as Box<dyn Model>)
        .collect();
    let mut ctx = DynamicContext::new(
        Box::new(GeometricPartitioner::default()),
        models,
        total,
        eps,
    );
    if let Some(sink) = trace {
        ctx = ctx.with_trace(sink.clone());
    }

    println!("step,device,point_d,point_t,assigned_d,imbalance");

    for step in 1..=12 {
        let result = ctx
            .partition_iterate(|rank, d| {
                quick_measure(&platform, rank, &profile, d, sink_or_null(trace))
            })
            .expect("dynamic step failed");
        let sizes = ctx.dist().sizes();
        for (rank, model) in ctx.models().iter().enumerate() {
            for p in model.points() {
                let (device, imb) = (platform.device(rank).name(), result.imbalance);
                println!("{step},{device},{},{:.6},{},{imb:.4}", p.d, p.t, sizes[rank]);
            }
        }
        if result.converged {
            eprintln!("converged after {step} steps (imbalance {:.4})", result.imbalance);
            break;
        }
    }
}
