//! `app_thread` — the partitioned applications executed for real on
//! the threaded transport: the broadcast-driven matmul (blocking, then
//! overlapped pivots) over the areas an FPM partition assigns to a
//! two-device hybrid node, then the balanced Jacobi solver. `net` is
//! bypassed: this is the no-change control for every TCP optimisation.

use std::hint::black_box;
use std::time::Instant;

use fupermod_apps::jacobi::{self, JacobiConfig};
use fupermod_apps::matmul::{
    build_device_models, matrix_checksum, partition_areas, run_bcast, simulate, MatMulConfig,
};
use fupermod_apps::workload::{dominant_system, random_matrix, DenseMatrix, LinearSystem};
use fupermod_core::model::{AkimaModel, Model};
use fupermod_core::partition::GeometricPartitioner;
use fupermod_core::Precision;
use fupermod_kernels::gemm::gemm_blocked;
use fupermod_kernels::jacobi::jacobi_sweep;
use fupermod_platform::{Platform, WorkloadProfile};
use fupermod_runtime::{Communicator, OverlapMode, RuntimeConfig};

use super::comm_program::threaded_op_us;
use super::{seconds_per_call, Fnv, PassOutput, ProbeCtx, Workload, PROBE_BUDGET};
use crate::tracer::Scope;

const N: usize = 768;
const BLOCK: usize = 16;
const N_BLOCKS: usize = N / BLOCK;
const JACOBI_N: usize = 2000;

pub struct AppThread {
    platform: Platform,
    a: DenseMatrix,
    b: DenseMatrix,
    areas: Vec<u64>,
    /// Checksum of the serial `gemm_blocked` product.
    serial_checksum: u64,
    system: LinearSystem,
    /// Simulated makespan of the matmul over `areas`.
    matmul_virtual_s: f64,
}

impl AppThread {
    pub fn setup(seed: u64) -> Self {
        let platform = Platform::hybrid_node(2, seed);
        let profile = WorkloadProfile::matrix_update(BLOCK);
        let total = (N_BLOCKS * N_BLOCKS) as u64;
        let sizes: Vec<u64> = (1..=8).map(|i| total * i / 8).collect();
        let models: Vec<AkimaModel> =
            build_device_models(&platform, &profile, &sizes, &Precision::quick())
                .expect("device models");
        let refs: Vec<&dyn Model> = models.iter().map(|m| m as &dyn Model).collect();
        let areas = partition_areas(&GeometricPartitioner::default(), N_BLOCKS as u64, &refs)
            .expect("area partition");

        let a = random_matrix(N, N, seed.wrapping_mul(2).wrapping_add(1));
        let b = random_matrix(N, N, seed.wrapping_mul(2).wrapping_add(2));
        let mut c = vec![0.0; N * N];
        gemm_blocked(N, N, N, &a.data, &b.data, &mut c);
        let serial_checksum = matrix_checksum(&DenseMatrix {
            rows: N,
            cols: N,
            data: c,
        });
        let cfg = MatMulConfig {
            n_blocks: N_BLOCKS as u64,
            block: BLOCK,
        };
        let matmul_virtual_s = simulate(&platform, &areas, &cfg)
            .expect("simulated matmul")
            .total_time;
        Self {
            platform,
            a,
            b,
            areas,
            serial_checksum,
            system: dominant_system(JACOBI_N, seed),
            matmul_virtual_s,
        }
    }
}

impl Workload for AppThread {
    fn pass(&mut self, scope: &mut Scope<'_>) -> PassOutput {
        let mut out = PassOutput::default();
        let mut fp = Fnv::default();
        let mut stage_s = [0.0f64; 2];
        for (i, mode) in [OverlapMode::Blocking, OverlapMode::Overlapped]
            .into_iter()
            .enumerate()
        {
            let t0 = Instant::now();
            let run = scope.span("apps.matmul", |_| {
                run_bcast(
                    &self.a,
                    &self.b,
                    BLOCK,
                    &self.areas,
                    RuntimeConfig::thread(),
                    mode,
                )
            });
            stage_s[i] = t0.elapsed().as_secs_f64();
            out.op_us.push(stage_s[i] * 1e6);
            let checksum = scope.span("bench.check", |_| {
                run.as_ref().map(|r| matrix_checksum(&r.product))
            });
            out.checks.op(
                checksum.as_ref().is_ok_and(|&c| c == self.serial_checksum),
                || {
                    format!(
                        "{mode:?} product {checksum:?} differs from serial gemm_blocked {:#x}",
                        self.serial_checksum
                    )
                },
            );
            fp.word(checksum.unwrap_or(0));
        }
        out.layer.push(("apps.matmul.bcast_blocking_s", stage_s[0]));
        out.layer
            .push(("apps.matmul.bcast_overlapped_s", stage_s[1]));
        out.layer
            .push(("apps.matmul.overlap_ratio", stage_s[1] / stage_s[0]));

        let t0 = Instant::now();
        let report = scope.span("apps.jacobi", |_| {
            jacobi::run(
                &self.system,
                &self.platform,
                Box::new(GeometricPartitioner::default()),
                &JacobiConfig::default(),
            )
        });
        out.layer
            .push(("apps.jacobi.run_s", t0.elapsed().as_secs_f64()));
        out.virtual_s = self.matmul_virtual_s;
        match report {
            Ok(report) => {
                out.checks
                    .op(report.converged, || "Jacobi did not converge".to_owned());
                let rows_ok = report
                    .iterations
                    .iter()
                    .all(|it| it.sizes.iter().sum::<u64>() == JACOBI_N as u64);
                out.checks
                    .op(rows_ok, || "a Jacobi iteration lost rows".to_owned());
                report.x.iter().for_each(|&x| fp.f64(x));
                out.virtual_s += report.makespan;
                out.exact
                    .push(("jacobi_iterations", report.iterations.len() as u64));
                out.layer
                    .push(("apps.jacobi.iterations", report.iterations.len() as f64));
            }
            Err(e) => out.checks.op(false, || format!("Jacobi run failed: {e}")),
        }
        out.fingerprint = fp.0;
        out
    }

    fn probes(&mut self, ctx: &mut ProbeCtx) {
        let passes = ctx.passes as f64;
        // One pivot update of the whole C: every rank's rectangle
        // together, so a rank's share is its area fraction.
        let (a, b) = (vec![0.5f64; N * BLOCK], vec![0.25f64; BLOCK * N]);
        let mut c = vec![0.0f64; N * N];
        let update = seconds_per_call(4 * PROBE_BUDGET, || {
            gemm_blocked(N, N, BLOCK, black_box(&a), black_box(&b), &mut c);
        });
        let flops = 2.0 * (N * N * BLOCK) as f64;
        ctx.set("kernels.gemm.gflops", flops / update * 1e-9);

        let pivot = vec![0.5f64; 2 * N * BLOCK]; // 192 KiB
        let bcast = threaded_op_us(|c, i| {
            let root = i % 2;
            c.bcast(root, (c.rank() == root).then_some(&pivot))
                .map(drop)
        });
        ctx.set("runtime.comm.bcast_192k_us", bcast);

        let n = JACOBI_N;
        let x_old = vec![1.0f64; n];
        let mut x_new = vec![0.0f64; n];
        let sweep = seconds_per_call(4 * PROBE_BUDGET, || {
            jacobi_sweep(
                black_box(&self.system.a.data),
                &self.system.b,
                &x_old,
                0,
                &mut x_new,
            );
        });
        ctx.set("kernels.jacobi.sweep_us", sweep * 1e6);

        // Computed: the busiest rank's GEMMs and the pivot broadcasts
        // inside the two `run_bcast` calls; the sweeps inside Jacobi.
        let busiest =
            *self.areas.iter().max().expect("areas") as f64 / self.areas.iter().sum::<u64>() as f64;
        let runs = 2.0 * passes;
        let a = &mut ctx.attribution;
        a.reassign_computed(
            "apps.matmul",
            "kernels.gemm",
            update * N_BLOCKS as f64 * busiest * runs,
        );
        a.reassign_computed(
            "apps.matmul",
            "runtime.comm",
            bcast * 1e-6 * N_BLOCKS as f64 * runs,
        );
        let sweeps = ctx.get("apps.jacobi.iterations") * passes;
        ctx.attribution
            .reassign_computed("apps.jacobi", "kernels.jacobi", sweep * sweeps);
    }
}
