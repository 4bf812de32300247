#![warn(missing_docs)]

//! FuPerMod core: computation performance models and model-based data
//! partitioning for heterogeneous platforms.
//!
//! This crate reproduces the programming interface of the FuPerMod
//! framework (Clarke, Zhong, Rychkov, Lastovetsky — PaCT 2013): given a
//! data-parallel application with a divisible workload measured in
//! *computation units*, it
//!
//! 1. **measures** the performance of each process's computation kernel
//!    with statistically controlled repetitions ([`benchmark`],
//!    mirroring `fupermod_benchmark`),
//! 2. **models** each process's speed as a function of problem size
//!    ([`model`], mirroring `fupermod_model`: constant model,
//!    piecewise-linear FPM with the Lastovetsky–Reddy shape
//!    restrictions, Akima-spline FPM), and
//! 3. **partitions** the total workload so every process finishes at the
//!    same time ([`partition`], mirroring `fupermod_partition`:
//!    proportional, geometrical and numerical algorithms), either
//!    statically from full models or dynamically from partial estimates
//!    refined at run time ([`dynamic`]).
//!
//! The 2D matrix-partitioning algorithm of Beaumont et al., which the
//! paper's matrix-multiplication use case builds on, lives in
//! [`matrix2d`].
//!
//! Every stage can emit structured observability events through the
//! [`trace`] module: benchmark samples and summaries, model updates and
//! dynamic repartitioning steps, recorded as JSONL with a versioned
//! schema (see `docs/OBSERVABILITY.md` in the repository) and read
//! back through the workspace's one JSON parser ([`json`]).
//! The [`telemetry`] module adds the *live* side of the same story: a
//! lock-free registry of labelled counters, gauges and latency
//! histograms, snapshotable at any time and renderable as Prometheus
//! text exposition (the `/metrics` endpoint of `fupermod_served`).
//!
//! # Quick start
//!
//! ```
//! use fupermod_core::benchmark::Benchmark;
//! use fupermod_core::kernel::DeviceKernel;
//! use fupermod_core::model::{AkimaModel, Model};
//! use fupermod_core::partition::{NumericalPartitioner, Partitioner};
//! use fupermod_core::precision::Precision;
//! use fupermod_platform::{cluster, WorkloadProfile};
//!
//! # fn main() -> Result<(), fupermod_core::CoreError> {
//! // Two devices of a simulated heterogeneous platform.
//! let profile = WorkloadProfile::matrix_update(16);
//! let devices = [
//!     cluster::fast_cpu("fast", 1),
//!     cluster::slow_cpu("slow", 2),
//! ];
//!
//! // Benchmark each device's kernel at a few sizes and build models.
//! let precision = Precision::default();
//! let mut models: Vec<AkimaModel> = Vec::new();
//! for dev in &devices {
//!     let mut kernel = DeviceKernel::new(dev.clone(), profile.clone());
//!     let mut model = AkimaModel::new();
//!     for d in [50u64, 200, 800, 2000] {
//!         let point = Benchmark::new(&precision).measure(&mut kernel, d)?;
//!         model.update(point)?;
//!     }
//!     models.push(model);
//! }
//!
//! // Partition 4000 units optimally between the two devices.
//! let refs: Vec<&dyn Model> = models.iter().map(|m| m as &dyn Model).collect();
//! let dist = NumericalPartitioner::default().partition(4000, &refs)?;
//! assert_eq!(dist.total_assigned(), 4000);
//! // The fast device gets the larger share.
//! assert!(dist.parts()[0].d > dist.parts()[1].d);
//! # Ok(())
//! # }
//! ```

pub mod benchmark;
pub mod builder;
pub mod dynamic;
pub mod hierarchy;
pub mod json;
pub mod kernel;
pub mod matrix2d;
pub mod model;
pub mod partition;
pub mod point;
pub mod precision;
pub mod telemetry;
pub mod trace;

mod error;

pub use error::CoreError;
pub use point::Point;
pub use precision::Precision;
