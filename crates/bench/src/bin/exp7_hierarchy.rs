//! EXP7 (extension) — Hierarchical vs flat partitioning.
//!
//! The paper's target is a *hierarchical* heterogeneous system; its
//! models can describe whole nodes as single super-processes ("the
//! total performance of a multi-CPU/GPU node"). This experiment
//! partitions a clustered platform both flat (all devices at once) and
//! hierarchically (across nodes via aggregate models, then within
//! nodes) and compares ground-truth makespans — the two should agree
//! closely, with the hierarchical solve operating on far smaller
//! systems at each level.
//!
//! Output: CSV `total,approach,makespan,imbalance`.
//! With `--trace-dir DIR` (or `FUPERMOD_TRACE_DIR`), also writes
//! `DIR/exp7_hierarchy.trace.jsonl` (see docs/OBSERVABILITY.md).

use fupermod_bench::cli::{self, Args};
use fupermod_bench::{ground_truth_imbalance, print_csv_row, sink_or_null, size_grid};
use fupermod_core::hierarchy::partition_hierarchical;
use fupermod_core::model::{Model, PiecewiseModel};
use fupermod_core::partition::{GeometricPartitioner, Partitioner};
use fupermod_core::Precision;
use fupermod_platform::{cluster, LinkModel, Platform, WorkloadProfile};

fn main() {
    let args = Args::parse();
    let trace = cli::open_trace_sink(&args, None);
    let profile = WorkloadProfile::matrix_update(16);
    // Three two-device "nodes" of very different strengths.
    let devices = vec![
        cluster::fast_cpu("n0c0", 700),
        cluster::fast_cpu("n0c1", 701),
        cluster::slow_cpu("n1c0", 702),
        cluster::slow_cpu("n1c1", 703),
        cluster::fast_cpu("n2c0", 704),
        cluster::slow_cpu("n2c1", 705),
    ];
    let platform = Platform::new("three-nodes", devices, LinkModel::ethernet());

    let sizes = size_grid(16, 200_000, 12);
    let mut models = Vec::new();
    for rank in 0..platform.size() {
        let mut m = PiecewiseModel::new();
        fupermod_bench::build_model_for_device(
            &platform,
            rank,
            &profile,
            &sizes,
            &Precision::default(),
            &mut m,
            sink_or_null(&trace),
        )
        .expect("model build failed");
        models.push(m);
    }
    let refs: Vec<&dyn Model> = models.iter().map(|m| m as &dyn Model).collect();
    let groups: Vec<Vec<&dyn Model>> = vec![
        vec![refs[0], refs[1]],
        vec![refs[2], refs[3]],
        vec![refs[4], refs[5]],
    ];

    print_csv_row(&[
        "total".into(),
        "approach".into(),
        "makespan".into(),
        "imbalance".into(),
    ]);
    for total in [10_000u64, 60_000, 300_000] {
        let flat = GeometricPartitioner::default()
            .partition_traced(total, &refs, sink_or_null(&trace))
            .expect("flat partition failed");
        let flat_times: Vec<f64> = flat
            .sizes()
            .iter()
            .enumerate()
            .map(|(i, &d)| platform.device(i).ideal_time(d, &profile))
            .collect();

        let hier = partition_hierarchical(
            total,
            &groups,
            &GeometricPartitioner::default(),
            &GeometricPartitioner::default(),
        )
        .expect("hierarchical partition failed");
        let hier_times: Vec<f64> = hier
            .flat_sizes()
            .iter()
            .enumerate()
            .map(|(i, &d)| platform.device(i).ideal_time(d, &profile))
            .collect();

        for (name, times) in [("flat", flat_times), ("hierarchical", hier_times)] {
            let makespan = times.iter().fold(0.0_f64, |m, t| m.max(*t));
            print_csv_row(&[
                total.to_string(),
                name.to_owned(),
                format!("{makespan:.4}"),
                format!("{:.4}", ground_truth_imbalance(&times)),
            ]);
        }
    }
    cli::finish_trace(trace.as_ref());
}
