#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

//! Real computation kernels for the FuPerMod reproduction.
//!
//! These kernels execute genuine floating-point work on the host and
//! implement the framework's [`Kernel`](fupermod_core::kernel::Kernel)
//! interface, so the measurement machinery can be exercised against
//! real hardware (the stand-in for the paper's Netlib BLAS / ATLAS /
//! CUBLAS kernels):
//!
//! * [`gemm`] — dense double-precision matrix multiplication:
//!   [`gemm::gemm_naive`], the Netlib BLAS stand-in whose speed function
//!   FIG2 measures, and [`gemm::gemm_blocked`], the tuned-BLAS stand-in
//!   (a register-tiled kernel, bit-identical to the naive one) that the
//!   applications run; plus [`gemm::MatMulKernel`]: the paper's matmul
//!   computation unit (Fig. 1(b)) — one `b×b`-block panel update with
//!   pivot-buffer copies.
//! * [`jacobi`] — one sweep of the Jacobi iteration over a row block,
//!   the computation unit of the paper's second use case.

pub mod gemm;
pub mod jacobi;
