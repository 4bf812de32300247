//! `fupermod_partitioner` — load saved performance models and compute
//! an optimal static distribution, mirroring the original FuPerMod's
//! partitioning utility.
//!
//! ```text
//! Usage: fupermod_partitioner --models DIR --total D
//!                             [--algorithm even|constant|geometric|numerical]
//!                             [--model cpm|linear|piecewise|akima]
//!                             [--trace PATH | --trace-dir DIR]
//!   --models        directory of *.points files (rank order = sorted name)
//!   --total         workload in computation units
//!   --algorithm     partitioning algorithm (default: geometric)
//!   --model         model type built from the points (default: piecewise)
//!   --trace         write the partition step as a structured trace
//!                   (see docs/OBSERVABILITY.md)
//!   --trace-dir     like --trace, but write DIR/fupermod_partitioner.trace.jsonl,
//!                   creating DIR if needed (FUPERMOD_TRACE_DIR in the
//!                   environment acts the same)
//! ```

use fupermod::cli;
use fupermod::core::model::{
    io, AkimaModel, ConstantModel, LinearModel, Model, PiecewiseModel,
};
use fupermod::core::trace::null_sink;

fn new_model(kind: &str) -> Box<dyn Model> {
    match kind {
        "cpm" => Box::new(ConstantModel::new()),
        "linear" => Box::new(LinearModel::new()),
        "piecewise" => Box::new(PiecewiseModel::new()),
        "akima" => Box::new(AkimaModel::new()),
        other => cli::exit_usage(format_args!("unknown model type '{other}'")),
    }
}

fn main() {
    let args = cli::Args::parse();
    let dir: std::path::PathBuf = args.required("models");
    let total: u64 = args.required("total");
    let model_kind = args.get_or("model", "piecewise");
    let algo_kind = args.get_or("algorithm", "geometric");
    let sink = cli::open_trace_sink(&args, None);

    let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| {
        cli::exit_usage(format_args!(
            "cannot read models directory {}: {e}",
            dir.display()
        ))
    });
    let mut files: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "points"))
        .collect();
    files.sort();
    if files.is_empty() {
        cli::exit_usage(format_args!("no *.points files in {}", dir.display()));
    }

    let mut models: Vec<Box<dyn Model>> = Vec::with_capacity(files.len());
    for path in &files {
        let mut model = new_model(model_kind);
        io::load_into_model(path, model.as_mut()).unwrap_or_else(|e| {
            cli::exit_usage(format_args!("cannot load {}: {e}", path.display()))
        });
        models.push(model);
    }
    let refs: Vec<&dyn Model> = models.iter().map(|m| m.as_ref()).collect();

    let partitioner = cli::pick_partitioner(algo_kind);
    let dist = partitioner
        .partition_traced(total, &refs, sink.as_deref().unwrap_or(null_sink()))
        .unwrap_or_else(|e| {
            cli::exit_usage(format_args!(
                "cannot partition the models in {}: {e}",
                dir.display()
            ))
        });

    println!("# rank  file  d  predicted_t");
    for (rank, (part, path)) in dist.parts().iter().zip(&files).enumerate() {
        println!(
            "{rank} {} {} {:.6}",
            path.file_name().expect("file name").to_string_lossy(),
            part.d,
            part.t
        );
    }
    println!(
        "# total {} / predicted makespan {:.6} s / predicted imbalance {:.4}",
        dist.total_assigned(),
        dist.predicted_makespan(),
        dist.predicted_imbalance()
    );
    cli::finish_trace(sink.as_ref());
}
