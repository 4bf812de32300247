#![warn(missing_docs)]

//! Simulated dedicated heterogeneous HPC platform.
//!
//! The paper evaluates FuPerMod on Grid'5000 nodes: heterogeneous CPUs,
//! multicore nodes with resource contention, and GPU-accelerated nodes.
//! This crate is the stand-in substrate: it models such platforms with
//! enough fidelity that the framework sees the same *shapes* of
//! behaviour the paper's partitioning algorithms were designed for —
//! speed functions with memory-hierarchy plateaus and cliffs, per-core
//! contention that grows with the active-core count and working set,
//! GPUs whose effective speed folds in PCIe transfers and a host
//! overhead and that fall off a cliff past device memory.
//!
//! Components:
//!
//! * [`profile`] — [`WorkloadProfile`]: how a
//!   problem size in *computation units* translates to flops, resident
//!   bytes, and transferred bytes for a given application kernel.
//! * [`device`] — device models and their ground-truth time functions,
//!   plus a seeded multiplicative noise model so repeated "measurements"
//!   behave like real benchmarks.
//! * [`comm`] — the Hockney (`α + m/β`) link model, the hop types of a
//!   collective schedule, and [`SimComm`], the per-rank virtual clocks
//!   those hops are charged to. Real (wall-clock) communication lives
//!   in `fupermod-runtime`.
//! * [`cluster`] — ready-made testbeds used across the experiments.

pub mod cluster;
pub mod comm;
pub mod device;
pub mod profile;

pub use cluster::Platform;
pub use comm::{LinkModel, PlatformError, SimComm};
pub use device::{Device, DeviceSpec};
pub use profile::WorkloadProfile;
