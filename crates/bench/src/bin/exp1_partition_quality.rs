//! EXP1 — Partition quality of CPM vs piecewise-FPM vs Akima-FPM
//! (paper §4.3: "the fastest but least accurate" CPM against the two
//! FPM algorithms).
//!
//! For each testbed and problem size, full models of every device are
//! built from the same benchmark data; each partitioner then splits the
//! workload, and the resulting distribution is scored against the
//! devices' *ground-truth* time functions (which the framework never
//! sees). The interesting region is where per-device shares cross
//! memory cliffs: constant models keep extrapolating the small-size
//! speed and overload devices, while the functional models keep the
//! load balanced.
//!
//! Output: CSV `platform,total,partitioner,imbalance,makespan,speedup_vs_even`.
//! With `--trace-dir DIR` (or `FUPERMOD_TRACE_DIR`), also writes
//! `DIR/exp1_partition_quality.trace.jsonl` (see docs/OBSERVABILITY.md).

use fupermod_bench::cli::{self, Args};
use fupermod_bench::{evaluate_partitioner, print_csv_row, sink_or_null, size_grid};
use fupermod_core::trace::null_sink;
use fupermod_core::model::{AkimaModel, ConstantModel, Model, PiecewiseModel};
use fupermod_core::partition::{
    ConstantPartitioner, EvenPartitioner, GeometricPartitioner, NumericalPartitioner,
    Partitioner,
};
use fupermod_core::Precision;
use fupermod_platform::{Platform, WorkloadProfile};

/// One partitioning configuration: label, algorithm, and the models it runs on.
type Run<'a> = (&'a str, Box<dyn Partitioner>, Vec<&'a dyn Model>);

fn main() {
    let args = Args::parse();
    let quick = args.has("quick");
    let trace = cli::open_trace_sink(&args, None);
    let profile = WorkloadProfile::matrix_update(16);
    let precision = Precision::default();

    let platforms = vec![
        Platform::two_speed(2, 2, 101),
        Platform::multicore_node(6, 102),
        Platform::hybrid_node(4, 103),
        Platform::grid_site(104),
    ];
    let totals: Vec<u64> = if quick {
        vec![2_000, 50_000]
    } else {
        vec![2_000, 10_000, 50_000, 200_000, 800_000]
    };

    print_csv_row(&[
        "platform".into(),
        "total".into(),
        "partitioner".into(),
        "imbalance".into(),
        "makespan".into(),
        "speedup_vs_even".into(),
    ]);

    for platform in &platforms {
        // One shared benchmark sweep per device feeds all three models.
        let sizes = size_grid(16, *totals.last().unwrap() / 2, if quick { 8 } else { 16 });
        let mut cpms = Vec::new();
        let mut pwls = Vec::new();
        let mut akimas = Vec::new();
        for rank in 0..platform.size() {
            let mut cpm = ConstantModel::new();
            let mut pwl = PiecewiseModel::new();
            let mut akima = AkimaModel::new();
            // The CPM sees only a single mid-range point (the
            // "traditional serial benchmark of some given size").
            fupermod_bench::build_model_for_device(
                platform,
                rank,
                &profile,
                &[sizes[sizes.len() / 2]],
                &precision,
                &mut cpm,
                sink_or_null(&trace),
            )
            .expect("cpm build failed");
            fupermod_bench::build_model_for_device(
                platform,
                rank,
                &profile,
                &sizes,
                &precision,
                &mut pwl,
                null_sink(),
            )
            .expect("pwl build failed");
            fupermod_bench::build_model_for_device(
                platform,
                rank,
                &profile,
                &sizes,
                &precision,
                &mut akima,
                null_sink(),
            )
            .expect("akima build failed");
            cpms.push(cpm);
            pwls.push(pwl);
            akimas.push(akima);
        }

        for &total in &totals {
            let cpm_refs: Vec<&dyn Model> = cpms.iter().map(|m| m as &dyn Model).collect();
            let pwl_refs: Vec<&dyn Model> = pwls.iter().map(|m| m as &dyn Model).collect();
            let akima_refs: Vec<&dyn Model> = akimas.iter().map(|m| m as &dyn Model).collect();

            let even = evaluate_partitioner(
                platform,
                &profile,
                total,
                &EvenPartitioner,
                &cpm_refs,
                null_sink(),
            )
            .expect("even failed");

            let runs: Vec<Run> = vec![
                ("even", Box::new(EvenPartitioner), cpm_refs.clone()),
                ("cpm", Box::new(ConstantPartitioner), cpm_refs),
                (
                    "fpm-geometric",
                    Box::new(GeometricPartitioner::default()),
                    pwl_refs,
                ),
                (
                    "fpm-numerical",
                    Box::new(NumericalPartitioner::default()),
                    akima_refs,
                ),
            ];
            for (name, partitioner, models) in runs {
                let eval = evaluate_partitioner(
                    platform,
                    &profile,
                    total,
                    partitioner.as_ref(),
                    &models,
                    sink_or_null(&trace),
                )
                .expect("evaluation failed");
                print_csv_row(&[
                    platform.name().to_owned(),
                    total.to_string(),
                    name.to_owned(),
                    format!("{:.4}", eval.imbalance),
                    format!("{:.4}", eval.makespan),
                    format!("{:.3}", even.makespan / eval.makespan),
                ]);
            }
        }
    }
    cli::finish_trace(trace.as_ref());
}
