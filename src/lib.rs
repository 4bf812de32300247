#![warn(missing_docs)]

//! # FuPerMod (reproduction)
//!
//! A Rust reproduction of **FuPerMod** — *"A Framework for Optimal Data
//! Partitioning for Parallel Scientific Applications on Dedicated
//! Heterogeneous HPC Platforms"* (Clarke, Zhong, Rychkov, Lastovetsky;
//! PaCT 2013) — together with every substrate it needs: a simulated
//! heterogeneous platform, real computation kernels, a numerical
//! toolbox, and the two use-case applications.
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`num`] | `fupermod-num` | statistics, interpolation, solvers, apportionment |
//! | [`platform`] | `fupermod-platform` | simulated devices, workload profiles, communicators |
//! | [`kernels`] | `fupermod-kernels` | GEMM, Jacobi sweep |
//! | [`core`] | `fupermod-core` | benchmarking, performance models, partitioning |
//! | [`runtime`] | `fupermod-runtime` | rank-based message-passing runtime, fault injection, distributed balancing |
//! | [`store`] | `fupermod-store` | sharded incrementally-maintained model store, plan cache, serving protocol |
//! | [`apps`] | `fupermod-apps` | matrix multiplication and Jacobi use cases |
//! | [`trace`] | `fupermod-trace` | causal trace merge, critical-path reports, Perfetto export |
//!
//! The [`cli`] module (from `fupermod-bench`) is the command line every
//! binary of the workspace shares: one parser and one definition of
//! each common flag, including the `--trace` sink wiring.
//!
//! ## Quick start
//!
//! ```
//! use fupermod::core::benchmark::Benchmark;
//! use fupermod::core::kernel::DeviceKernel;
//! use fupermod::core::model::{Model, PiecewiseModel};
//! use fupermod::core::partition::{GeometricPartitioner, Partitioner};
//! use fupermod::core::Precision;
//! use fupermod::platform::{cluster, WorkloadProfile};
//!
//! # fn main() -> Result<(), fupermod::core::CoreError> {
//! let profile = WorkloadProfile::matrix_update(16);
//! let devices = [cluster::fast_cpu("fast", 1), cluster::slow_cpu("slow", 2)];
//!
//! let mut models = Vec::new();
//! for dev in &devices {
//!     let mut kernel = DeviceKernel::new(dev.clone(), profile.clone());
//!     let mut model = PiecewiseModel::new();
//!     for d in [100u64, 500, 2000] {
//!         model.update(Benchmark::new(&Precision::default()).measure(&mut kernel, d)?)?;
//!     }
//!     models.push(model);
//! }
//! let refs: Vec<&dyn Model> = models.iter().map(|m| m as &dyn Model).collect();
//! let dist = GeometricPartitioner::default().partition(4000, &refs)?;
//! assert_eq!(dist.total_assigned(), 4000);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios and `fupermod_experiment`
//! (the table `fupermod_bench::experiments::ALL`) for what regenerates
//! every figure/experiment of the paper (indexed in `DESIGN.md`,
//! results recorded in `EXPERIMENTS.md`, gated by `tests/figures.rs`).

pub use fupermod_apps as apps;
pub use fupermod_bench::cli;
pub use fupermod_core as core;
pub use fupermod_kernels as kernels;
pub use fupermod_num as num;
pub use fupermod_platform as platform;
pub use fupermod_runtime as runtime;
pub use fupermod_store as store;
pub use fupermod_trace as trace;
