//! `fupermod_builder` — build full performance models offline and save
//! them as point files, mirroring the original FuPerMod's model-builder
//! utility. The saved files feed `fupermod_partitioner` for static
//! data partitioning (the paper's "build the full models once, use them
//! multiple times" workflow).
//!
//! ```text
//! Usage: fupermod_builder [--platform NAME] [--seed S] [--block B]
//!                         [--lo L --hi H --points N] [--out DIR]
//!                         [--parallelism N]
//!                         [--trace PATH | --trace-dir DIR]
//!   --platform      uniform4 | two-speed | multicore | hybrid | grid (default: two-speed)
//!   --seed          platform seed (default: 1)
//!   --block         matmul blocking factor (default: 16)
//!   --lo/--hi       size range in computation units (default: 16..65536)
//!   --points        number of benchmark sizes (default: 14)
//!   --out           output directory (default: ./models)
//!   --parallelism   model-build worker threads (default: 1 = serial,
//!                   0 = one per core; FUPERMOD_PARALLELISM in the
//!                   environment acts the same); output is bit-identical
//!   --trace         write a structured trace of every benchmark
//!                   repetition and model update (see docs/OBSERVABILITY.md)
//!   --trace-dir     like --trace, but write DIR/fupermod_builder.trace.jsonl,
//!                   creating DIR if needed (FUPERMOD_TRACE_DIR in the
//!                   environment acts the same)
//! ```

use fupermod::cli;
use fupermod::core::builder::ModelBuilder;
use fupermod::core::kernel::{DeviceKernel, Kernel};
use fupermod::core::model::{io, Model, PiecewiseModel};
use fupermod::core::trace::null_sink;
use fupermod::core::Precision;
use fupermod::platform::WorkloadProfile;

fn main() {
    let args = cli::Args::parse();
    let platform = cli::scaled_platform(
        args.get_or("platform", "two-speed"),
        None,
        args.value_or("seed", 1),
    );
    let block: usize = args.value_or("block", 16);
    let lo: u64 = args.value_or("lo", 16);
    let hi: u64 = args.value_or("hi", 65536);
    let npoints: usize = args.value_or("points", 14);
    let out = std::path::PathBuf::from(args.get_or("out", "models"));
    let parallelism = cli::parallelism(&args);
    let sink = cli::open_trace_sink(&args, env!("CARGO_BIN_NAME"), None);
    let trace = sink.as_deref().unwrap_or(null_sink());

    std::fs::create_dir_all(&out).expect("cannot create output directory");
    let profile = WorkloadProfile::matrix_update(block);
    let precision = Precision::thorough();

    // Geometric size grid.
    let ratio = (hi as f64 / lo as f64).powf(1.0 / (npoints as f64 - 1.0));
    let sizes: Vec<u64> = (0..npoints)
        .map(|i| (lo as f64 * ratio.powi(i as i32)).round() as u64)
        .collect();

    // One kernel per device; the builder measures them (possibly on
    // worker threads — the saved models and the trace are bit-identical
    // either way) and hands back the models in rank order.
    let kernels: Vec<Box<dyn Kernel + Send>> = platform
        .devices()
        .iter()
        .map(|dev| Box::new(DeviceKernel::new(dev.clone(), profile.clone())) as Box<dyn Kernel + Send>)
        .collect();
    let built = ModelBuilder::new(&precision)
        .with_parallelism(parallelism)
        .with_trace(trace)
        .build::<PiecewiseModel>(kernels, &sizes)
        .expect("model build failed");

    for (rank, (dev, built)) in platform.devices().iter().zip(&built).enumerate() {
        let path = out.join(format!("{rank:02}_{}.points", dev.name()));
        io::save_model(&path, &built.model).expect("save failed");
        println!(
            "rank {rank} ({}): {} points -> {}",
            dev.name(),
            built.model.points().len(),
            path.display()
        );
    }
    println!(
        "built models for platform '{}' ({} devices) into {}",
        platform.name(),
        platform.size(),
        out.display()
    );
    cli::finish_trace(sink.as_ref());
}
