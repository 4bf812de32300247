//! EXP8 (ablation) — Interpolation choice near memory cliffs.
//!
//! The paper adopts Akima splines for the smooth FPM "since this
//! approximation provides continuous derivative" and, unlike global
//! splines, does not oscillate at abrupt slope changes. This ablation
//! quantifies that: build four models (piecewise-restricted, Akima,
//! natural cubic, linear regression) from the *same* benchmark data on
//! devices with genuine memory cliffs, and measure each model's
//! time-prediction error against the ground truth on a dense size
//! sweep, plus the ground-truth imbalance of the partition each model
//! family produces.
//!
//! Output: CSV `device,model,max_rel_err,mean_rel_err,imbalance`.
//! With `--trace-dir DIR` (or `FUPERMOD_TRACE_DIR`), also writes
//! `DIR/exp8_interpolation_error.trace.jsonl` (see docs/OBSERVABILITY.md).

use fupermod_bench::cli::{self, Args};
use fupermod_bench::{
    build_model_for_device, ground_truth_imbalance, ground_truth_times, print_csv_row,
    sink_or_null, size_grid,
};
use fupermod_core::model::{AkimaModel, CubicModel, LinearModel, Model, PiecewiseModel};
use fupermod_core::partition::{NumericalPartitioner, Partitioner};
use fupermod_core::Precision;
use fupermod_platform::{Platform, WorkloadProfile};

fn prediction_errors(
    platform: &Platform,
    rank: usize,
    profile: &WorkloadProfile,
    model: &dyn Model,
    lo: u64,
    hi: u64,
) -> (f64, f64) {
    let mut max_rel = 0.0_f64;
    let mut sum_rel = 0.0;
    let mut n = 0;
    for d in size_grid(lo, hi, 200) {
        let truth = platform.device(rank).ideal_time(d, profile);
        if truth <= 0.0 {
            continue;
        }
        let predicted = model.time(d as f64).unwrap_or(f64::INFINITY);
        let rel = (predicted - truth).abs() / truth;
        max_rel = max_rel.max(rel);
        sum_rel += rel;
        n += 1;
    }
    (max_rel, sum_rel / n as f64)
}

fn main() {
    let args = Args::parse();
    let trace = cli::open_trace_sink(&args, None);
    let profile = WorkloadProfile::matrix_update(16);
    let platform = Platform::two_speed(2, 2, 800);
    let precision = Precision::thorough();
    let (lo, hi) = (16u64, 400_000u64);
    let sizes = size_grid(lo, hi, 14);
    let total = 600_000u64;

    print_csv_row(&[
        "device".into(),
        "model".into(),
        "max_rel_err".into(),
        "mean_rel_err".into(),
        "imbalance".into(),
    ]);

    let mut pwls = Vec::new();
    let mut akimas = Vec::new();
    let mut cubics = Vec::new();
    let mut linears = Vec::new();
    for rank in 0..platform.size() {
        let mut pwl = PiecewiseModel::new();
        let mut akima = AkimaModel::new();
        let mut cubic = CubicModel::new();
        let mut linear = LinearModel::new();
        build_model_for_device(
            &platform,
            rank,
            &profile,
            &sizes,
            &precision,
            &mut pwl,
            sink_or_null(&trace),
        )
        .expect("build failed");
        // Reuse identical data for the other models.
        for p in pwl.points() {
            akima.update(*p).expect("akima update");
            cubic.update(*p).expect("cubic update");
            linear.update(*p).expect("linear update");
        }
        pwls.push(pwl);
        akimas.push(akima);
        cubics.push(cubic);
        linears.push(linear);
    }

    // Partition quality per model family (numerical algorithm for all,
    // so only the model differs).
    let imbalance_of = |models: Vec<&dyn Model>| -> f64 {
        let dist = NumericalPartitioner::default()
            .partition_traced(total, &models, sink_or_null(&trace))
            .expect("partition failed");
        let times = ground_truth_times(&platform, &profile, &dist.sizes());
        ground_truth_imbalance(&times)
    };
    let pwl_imb = imbalance_of(pwls.iter().map(|m| m as &dyn Model).collect());
    let akima_imb = imbalance_of(akimas.iter().map(|m| m as &dyn Model).collect());
    let cubic_imb = imbalance_of(cubics.iter().map(|m| m as &dyn Model).collect());
    let linear_imb = imbalance_of(linears.iter().map(|m| m as &dyn Model).collect());

    for rank in 0..platform.size() {
        let rows: Vec<(&str, &dyn Model, f64)> = vec![
            ("piecewise", &pwls[rank], pwl_imb),
            ("akima", &akimas[rank], akima_imb),
            ("cubic", &cubics[rank], cubic_imb),
            ("linear", &linears[rank], linear_imb),
        ];
        for (name, model, imb) in rows {
            let (max_rel, mean_rel) =
                prediction_errors(&platform, rank, &profile, model, lo, hi);
            print_csv_row(&[
                platform.device(rank).name().to_owned(),
                name.to_owned(),
                format!("{max_rel:.4}"),
                format!("{mean_rel:.4}"),
                format!("{imb:.4}"),
            ]);
        }
    }
    cli::finish_trace(trace.as_ref());
}
