//! FIG2 — Speed functions of the matrix-multiplication kernel under
//! piecewise-linear and Akima-spline interpolation (paper Fig. 2).
//!
//! The paper benchmarks a Netlib-BLAS GEMM kernel across problem sizes
//! and shows (a) the coarsened piecewise-linear FPM and (b) the Akima
//! FPM against the true speed function. Here the kernel is the real
//! naive-GEMM matmul kernel running on the host CPU, whose speed
//! function exhibits the same memory-hierarchy shape.
//!
//! Output: CSV `d,measured_gflops,piecewise_gflops,akima_gflops`.
//!
//! Pass `--quick` for a smaller sweep.

use fupermod_core::benchmark::Benchmark;
use fupermod_core::kernel::Kernel;
use fupermod_core::model::{AkimaModel, Model, PiecewiseModel};
use fupermod_core::Precision;
use fupermod_kernels::gemm::MatMulKernel;

use super::Trace;
use crate::cli::Args;
use crate::{sink_or_null, size_grid};

pub fn run(args: &Args, trace: &Trace) {
    let quick = args.has("quick");
    let block = 16usize;
    let (hi, npoints, reps) = if quick { (400, 8, 2) } else { (4000, 22, 3) };

    let mut kernel = MatMulKernel::with_naive_gemm(block);
    let precision = Precision {
        reps_min: reps,
        reps_max: reps * 4,
        cl: 0.95,
        rel_err: 0.05,
        max_seconds: 2.0,
    };
    let bench = Benchmark::new(&precision).with_trace(sink_or_null(trace));

    let mut pwl = PiecewiseModel::new();
    let mut akima = AkimaModel::new();
    let mut raw = Vec::new();
    for d in size_grid(1, hi, npoints) {
        let point = bench.measure(&mut kernel, d).expect("benchmark failed");
        raw.push(point);
        pwl.update(point).expect("piecewise update failed");
        akima.update(point).expect("akima update failed");
    }

    // The per-unit complexity converts units/s into flop/s.
    let flops_per_unit = |d: u64| kernel.complexity(d) / d as f64;

    println!("d,measured_gflops,piecewise_gflops,akima_gflops");
    // Dense sweep so the interpolants' shapes are visible between the
    // measured points.
    let (lo_d, hi_d) = (1u64, *size_grid(1, hi, npoints).last().unwrap());
    for d in size_grid(lo_d, hi_d, 80) {
        let x = d as f64;
        let to_gflops = |units_per_sec: f64| units_per_sec * flops_per_unit(d) / 1e9;
        let measured = raw
            .iter()
            .min_by_key(|p| p.d.abs_diff(d))
            .filter(|p| p.d == d)
            .map(|p| to_gflops(p.speed()));
        let pw = pwl.speed(x).map(to_gflops).unwrap_or(f64::NAN);
        let ak = akima.speed(x).map(to_gflops).unwrap_or(f64::NAN);
        let measured = measured.map(|v| format!("{v:.4}")).unwrap_or_default();
        println!("{d},{measured},{pw:.4},{ak:.4}");
    }
}
