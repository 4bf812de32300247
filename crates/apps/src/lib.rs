#![warn(missing_docs)]

//! FuPerMod use cases: the two data-parallel applications the paper
//! optimises with model-based data partitioning.
//!
//! * [`matmul`] — heterogeneous parallel matrix multiplication
//!   (paper §4.1): matrices partitioned over a 2D column-based
//!   arrangement with rectangle areas proportional to device speeds.
//!   Provides a *real* multi-threaded execution (numerically verified
//!   against serial GEMM) and a *simulated-time* execution on a
//!   synthetic heterogeneous [`Platform`](fupermod_platform::Platform).
//! * [`jacobi`] — the Jacobi method with dynamic load balancing
//!   (paper §4.4, Fig. 4): rows redistributed between iterations from
//!   partial functional performance models built out of the
//!   application's own iteration times.
//! * [`workload`] — deterministic generators for the linear systems and
//!   matrices the applications run on.

pub mod jacobi;
pub mod matmul;
pub mod workload;
