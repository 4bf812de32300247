//! Heterogeneous parallel matrix multiplication (paper §4.1).
//!
//! The application multiplies dense `N × N` matrices partitioned over a
//! 2D column-based arrangement of processes (Beaumont et al. \[2\]), with
//! a blocking factor `b` controlling granularity. At every iteration of
//! the main loop the pivot block-column of `A` and block-row of `B` are
//! broadcast and every process updates its rectangle of `C` with one
//! GEMM call.
//!
//! Two execution paths are provided:
//!
//! * [`run_bcast`] — a *real* run of the pivot loop, one rank per
//!   process of a [`RuntimeConfig`] (worker threads, or the sim
//!   backend's virtual clocks), numerically verified against serial
//!   GEMM; it validates that the 2D partition computes the right
//!   answer.
//! * [`simulate`] — a *simulated-time* run on a synthetic heterogeneous
//!   [`Platform`], used by the experiments to compare partitioning
//!   strategies at scales no laptop could multiply for real.

use fupermod_core::matrix2d::{column_partition, ColumnPartition};
use fupermod_core::model::Model;
use fupermod_core::partition::Partitioner;
use fupermod_core::{CoreError, Point};
use fupermod_kernels::gemm::gemm_blocked;
use fupermod_platform::comm::SimComm;
use fupermod_platform::{Platform, WorkloadProfile};
use fupermod_runtime::{
    run_ranks, Communicator, OverlapMode, Request, RuntimeConfig, RuntimeError,
};

use crate::workload::DenseMatrix;

/// Configuration of the simulated matmul run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatMulConfig {
    /// Matrix dimension in blocks (`N = n_blocks · block` elements).
    pub n_blocks: u64,
    /// Blocking factor `b`.
    pub block: usize,
}

/// Outcome of a simulated matmul run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Simulated wall time of the whole multiplication, in seconds.
    pub total_time: f64,
    /// Per-process compute time of one (representative) iteration.
    pub iter_compute_times: Vec<f64>,
    /// Total simulated seconds spent communicating, summed over ranks.
    pub comm_seconds: f64,
    /// Sum of rectangle half-perimeters of the 2D partition, in blocks.
    pub half_perimeters: u64,
    /// The 2D partition used.
    pub partition: ColumnPartition,
}

/// Benchmarks every device of `platform` at the given sizes and builds
/// one model per device. The generic parameter picks the model type.
///
/// # Errors
///
/// Propagates benchmark and model errors.
pub fn build_device_models<M: Model + Default + Send>(
    platform: &Platform,
    profile: &WorkloadProfile,
    sizes: &[u64],
    precision: &fupermod_core::Precision,
) -> Result<Vec<M>, CoreError> {
    build_device_models_with(
        platform,
        profile,
        sizes,
        precision,
        fupermod_core::trace::null_sink(),
        1,
    )
}

/// The full-control variant of [`build_device_models`]: structured
/// trace events go to `sink` and the per-device builds run on up to
/// `parallelism` scoped worker threads (`1` = serial, `0` = one worker
/// per available core). Devices on a dedicated platform measure
/// independently, so models **and** the trace-event stream are
/// bit-identical to the serial build at every worker count (see
/// [`fupermod_core::builder::ModelBuilder`]).
///
/// # Errors
///
/// Exactly those of [`build_device_models`].
pub fn build_device_models_with<M: Model + Default + Send>(
    platform: &Platform,
    profile: &WorkloadProfile,
    sizes: &[u64],
    precision: &fupermod_core::Precision,
    sink: &dyn fupermod_core::trace::TraceSink,
    parallelism: usize,
) -> Result<Vec<M>, CoreError> {
    use fupermod_core::builder::ModelBuilder;
    use fupermod_core::kernel::{DeviceKernel, Kernel};

    let kernels: Vec<Box<dyn Kernel + Send>> = platform
        .devices()
        .iter()
        .map(|dev| {
            Box::new(DeviceKernel::new(dev.clone(), profile.clone())) as Box<dyn Kernel + Send>
        })
        .collect();
    let built = ModelBuilder::new(precision)
        .with_parallelism(parallelism)
        .with_trace(sink)
        .build::<M>(kernels, sizes)?;
    Ok(built.into_iter().map(|b| b.model).collect())
}

/// Partitions the total block area `n_blocks²` over the devices with
/// the given partitioner and returns per-device areas (in blocks).
///
/// # Errors
///
/// Propagates partitioning errors.
pub fn partition_areas(
    partitioner: &dyn Partitioner,
    n_blocks: u64,
    models: &[&dyn Model],
) -> Result<Vec<u64>, CoreError> {
    let dist = partitioner.partition(n_blocks * n_blocks, models)?;
    Ok(dist.sizes())
}

/// Simulates the full heterogeneous matmul on `platform` with the given
/// per-device block areas.
///
/// The schedule is the paper's: `n_blocks` iterations; in each, the
/// pivot block-column/row is broadcast (each process receives data
/// proportional to its rectangle's half-perimeter) and every process
/// updates its rectangle (its full area, once per iteration) — compute
/// times come from the device ground-truth models with per-iteration
/// noise.
///
/// # Errors
///
/// Returns [`CoreError::Partition`] if the areas cannot tile the grid.
///
/// # Panics
///
/// Panics if `areas.len()` differs from the platform size.
pub fn simulate(
    platform: &Platform,
    areas: &[u64],
    cfg: &MatMulConfig,
) -> Result<SimReport, CoreError> {
    assert_eq!(areas.len(), platform.size(), "one area per device");
    let partition = column_partition(cfg.n_blocks, areas)?;
    let profile = WorkloadProfile::matrix_update(cfg.block);
    let bytes_per_block = (cfg.block * cfg.block * 8) as f64;
    let p = platform.size();
    let mut comm = SimComm::new(p, platform.link());
    let rounds = (usize::BITS - (p.max(2) - 1).leading_zeros()) as f64;

    let mut iter_compute_times = vec![0.0; p];
    let mut comm_secs = 0.0;

    for iter in 0..cfg.n_blocks {
        for (rank, rect) in partition.rects().iter().enumerate() {
            // Receive the pivot parts intersecting this rectangle: a
            // (h×1 + 1×w) block strip per iteration, via a tree bcast.
            let bytes = rect.half_perimeter() as f64 * bytes_per_block;
            if bytes > 0.0 {
                let cost = rounds * platform.link().cost(bytes);
                comm.advance(rank, cost);
                comm_secs += cost;
            }
            // Update the whole rectangle once.
            let units = rect.area();
            if units > 0 {
                let t = platform
                    .device(rank)
                    .measured_time(units, &profile, iter);
                comm.advance(rank, t);
                if iter == 0 {
                    iter_compute_times[rank] = t;
                }
            }
        }
        // The next pivot depends on updated data: synchronise.
        comm.barrier();
    }

    Ok(SimReport {
        total_time: comm.max_time(),
        iter_compute_times,
        comm_seconds: comm_secs,
        half_perimeters: partition.sum_half_perimeters(),
        partition,
    })
}

/// Builds experimental points for one device by "benchmarking" the
/// matmul kernel at the given sizes on the simulated platform —
/// convenience used by the dynamic experiments.
///
/// # Errors
///
/// Propagates benchmark errors.
pub fn measure_device_point(
    platform: &Platform,
    rank: usize,
    profile: &WorkloadProfile,
    d: u64,
    precision: &fupermod_core::Precision,
) -> Result<Point, CoreError> {
    use fupermod_core::benchmark::Benchmark;
    use fupermod_core::kernel::DeviceKernel;
    let mut kernel = DeviceKernel::new(platform.device(rank).clone(), profile.clone());
    Benchmark::new(precision).measure(&mut kernel, d)
}

/// Outcome of a broadcast-driven matmul run ([`run_bcast`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BcastRun {
    /// The assembled product matrix.
    pub product: DenseMatrix,
    /// Virtual makespan of the run on the sim backend; `None` on the
    /// threaded backend.
    pub virtual_time: Option<f64>,
    /// Wall-clock duration of the rank phase, in seconds.
    pub wall_seconds: f64,
}

/// FNV-1a checksum over the raw `f64` bit patterns of a matrix — the
/// stable fingerprint the CLI prints so `scripts/check.sh` can diff a
/// pipelined run against a blocking one bit-for-bit.
#[must_use]
pub fn matrix_checksum(m: &DenseMatrix) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in &m.data {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The paper's pivot loop with *real* broadcasts: at iteration `k` the
/// owner of pivot `k` (rank `k mod p`) broadcasts the pivot
/// block-column of `A` and block-row of `B`, and every rank updates its
/// `C` rectangle with one rank-`block` GEMM.
///
/// `mode` picks the communication structure:
///
/// * [`OverlapMode::Blocking`] — `bcast(k)`, then compute the update;
///   the schedule the serial paper loop implies.
/// * [`OverlapMode::Overlapped`] — `ibcast(k+1)` is posted *before*
///   the update for pivot `k` runs, so the next pivot travels while
///   the current one is being consumed (double buffering).
///
/// Both modes run the identical GEMM sequence per rank, so the
/// assembled product is **bit-identical** between them; only the
/// makespan differs. On the sim backend each update credits its
/// modelled compute time via `advance_compute`, making the virtual
/// makespan comparison deterministic.
///
/// # Errors
///
/// Returns [`CoreError::Partition`] on geometry errors and
/// [`CoreError::Kernel`] on dimension mismatches or communicator
/// failures.
pub fn run_bcast(
    a: &DenseMatrix,
    b: &DenseMatrix,
    block: usize,
    areas: &[u64],
    config: RuntimeConfig,
    mode: OverlapMode,
) -> Result<BcastRun, CoreError> {
    let n = a.rows;
    if a.cols != n || b.rows != n || b.cols != n {
        return Err(CoreError::Kernel("matrices must be square and equal".to_owned()));
    }
    if block == 0 || !n.is_multiple_of(block) {
        return Err(CoreError::Kernel(format!(
            "matrix size {n} not divisible by block {block}"
        )));
    }
    let n_blocks = n / block;
    let partition = column_partition(n_blocks as u64, areas)?;
    let p = areas.len();

    // Pivot k's payload: A's block-column k (n × block, row-major)
    // followed by B's block-row k (block × n, row-major).
    let pack_pivot = |k: usize| -> Vec<f64> {
        let mut pivot = Vec::with_capacity(2 * n * block);
        for r in 0..n {
            pivot.extend_from_slice(&a.data[r * n + k * block..r * n + (k + 1) * block]);
        }
        for i in 0..block {
            pivot.extend_from_slice(&b.data[(k * block + i) * n..(k * block + i + 1) * n]);
        }
        pivot
    };

    let (comms, handle) = config.build_with_handle(p);
    let comm_err = |e: RuntimeError| CoreError::Kernel(format!("communicator: {e}"));
    let started = std::time::Instant::now();
    let results: Vec<Result<(usize, Vec<f64>), CoreError>> =
        run_ranks(comms, |mut comm| -> Result<(usize, Vec<f64>), CoreError> {
            let rank = comm.rank();
            let rect = partition.rects()[rank];
            let row0 = rect.y as usize * block;
            let rows = rect.h as usize * block;
            let col0 = rect.x as usize * block;
            let cols = rect.w as usize * block;
            let mut c = vec![0.0; rows * cols];
            // Sim-backend compute model for one rectangle update:
            // 2·rows·cols·block flops at a nominal 1 Gflop/s.
            let update_seconds = 2.0 * rows as f64 * cols as f64 * block as f64 / 1e9;

            let mut b_piece = vec![0.0; block * cols];
            let mut update = |c: &mut [f64], pivot: &[f64]| {
                if rows == 0 || cols == 0 {
                    return;
                }
                let (a_col, b_row) = pivot.split_at(n * block);
                let a_piece = &a_col[row0 * block..(row0 + rows) * block];
                for i in 0..block {
                    b_piece[i * cols..(i + 1) * cols]
                        .copy_from_slice(&b_row[i * n + col0..i * n + col0 + cols]);
                }
                gemm_blocked(rows, cols, block, a_piece, &b_piece, c);
            };

            match mode {
                OverlapMode::Blocking => {
                    for k in 0..n_blocks {
                        let owner = k % p;
                        let pivot = comm
                            .bcast::<Vec<f64>>(
                                owner,
                                (rank == owner).then(|| pack_pivot(k)).as_ref(),
                            )
                            .map_err(comm_err)?;
                        comm.advance_compute(update_seconds).map_err(comm_err)?;
                        update(&mut c, &pivot);
                    }
                }
                OverlapMode::Overlapped => {
                    // Double buffering: pivot k+1 is in flight while
                    // pivot k is being consumed.
                    let post = |k: usize| {
                        let owner = k % p;
                        comm.ibcast::<Vec<f64>>(
                            owner,
                            (rank == owner).then(|| pack_pivot(k)).as_ref(),
                        )
                        .map_err(comm_err)
                    };
                    let mut inflight = post(0)?;
                    for k in 0..n_blocks {
                        let pivot = inflight.wait().map_err(comm_err)?;
                        if k + 1 < n_blocks {
                            inflight = post(k + 1)?;
                            comm.advance_compute(update_seconds).map_err(comm_err)?;
                            update(&mut c, &pivot);
                        } else {
                            comm.advance_compute(update_seconds).map_err(comm_err)?;
                            update(&mut c, &pivot);
                            break;
                        }
                    }
                }
            }
            Ok((rank, c))
        });
    let wall_seconds = started.elapsed().as_secs_f64();

    let mut c = vec![0.0; n * n];
    for result in results {
        let (rank, data) = result?;
        let rect = partition.rects()[rank];
        let row0 = rect.y as usize * block;
        let rows = rect.h as usize * block;
        let col0 = rect.x as usize * block;
        let cols = rect.w as usize * block;
        for r in 0..rows {
            c[(row0 + r) * n + col0..(row0 + r) * n + col0 + cols]
                .copy_from_slice(&data[r * cols..(r + 1) * cols]);
        }
    }
    Ok(BcastRun {
        product: DenseMatrix {
            rows: n,
            cols: n,
            data: c,
        },
        virtual_time: handle.virtual_time(),
        wall_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::random_matrix;
    use fupermod_core::model::AkimaModel;
    use fupermod_core::partition::{EvenPartitioner, NumericalPartitioner};
    use fupermod_core::Precision;

    /// The product of a blocking run on worker threads.
    fn threaded(
        a: &DenseMatrix,
        b: &DenseMatrix,
        block: usize,
        areas: &[u64],
    ) -> Result<DenseMatrix, CoreError> {
        run_bcast(
            a,
            b,
            block,
            areas,
            RuntimeConfig::thread(),
            OverlapMode::Blocking,
        )
        .map(|run| run.product)
    }

    fn serial_product(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let n = a.rows;
        let mut c = vec![0.0; n * n];
        gemm_blocked(n, n, n, &a.data, &b.data, &mut c);
        DenseMatrix {
            rows: n,
            cols: n,
            data: c,
        }
    }

    #[test]
    fn threaded_matmul_matches_serial() {
        let n = 48;
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, n, 2);
        // 4 processes with skewed areas: 6×6 = 36 blocks total.
        let c = threaded(&a, &b, 8, &[18, 9, 6, 3]).unwrap();
        let reference = serial_product(&a, &b);
        for (x, y) in c.data.iter().zip(&reference.data) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn threaded_matmul_handles_zero_area_process() {
        let n = 32;
        let a = random_matrix(n, n, 3);
        let b = random_matrix(n, n, 4);
        let c = threaded(&a, &b, 8, &[8, 0, 8]).unwrap();
        let reference = serial_product(&a, &b);
        for (x, y) in c.data.iter().zip(&reference.data) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn threaded_matmul_rejects_bad_block() {
        let a = random_matrix(10, 10, 1);
        let b = random_matrix(10, 10, 2);
        assert!(threaded(&a, &b, 3, &[4]).is_err());
    }

    #[test]
    fn simulate_produces_positive_times() {
        let platform = Platform::two_speed(2, 2, 9);
        let cfg = MatMulConfig {
            n_blocks: 24,
            block: 16,
        };
        let areas = vec![144; 4]; // even split of 576 blocks
        let report = simulate(&platform, &areas, &cfg).unwrap();
        assert!(report.total_time > 0.0);
        assert!(report.comm_seconds > 0.0);
        assert_eq!(report.partition.rects().len(), 4);
    }

    #[test]
    fn model_based_partition_beats_even_on_heterogeneous_platform() {
        let platform = Platform::two_speed(2, 2, 17);
        let profile = WorkloadProfile::matrix_update(16);
        let cfg = MatMulConfig {
            n_blocks: 48,
            block: 16,
        };
        let total = cfg.n_blocks * cfg.n_blocks;

        let models: Vec<AkimaModel> = build_device_models(
            &platform,
            &profile,
            &[64, 256, 1024, 2304],
            &Precision::default(),
        )
        .unwrap();
        let refs: Vec<&dyn Model> = models.iter().map(|m| m as &dyn Model).collect();

        let fpm_areas = partition_areas(&NumericalPartitioner::default(), cfg.n_blocks, &refs)
            .unwrap();
        let even_areas = EvenPartitioner
            .partition(total, &refs)
            .unwrap()
            .sizes();

        let fpm = simulate(&platform, &fpm_areas, &cfg).unwrap();
        let even = simulate(&platform, &even_areas, &cfg).unwrap();
        assert!(
            fpm.total_time < even.total_time,
            "FPM {} should beat even {}",
            fpm.total_time,
            even.total_time
        );
    }

    #[test]
    fn bcast_matmul_matches_serial_in_both_modes() {
        let n = 48;
        let a = random_matrix(n, n, 7);
        let b = random_matrix(n, n, 8);
        let reference = serial_product(&a, &b);
        for mode in [OverlapMode::Blocking, OverlapMode::Overlapped] {
            let run = run_bcast(&a, &b, 8, &[18, 9, 6, 3], RuntimeConfig::thread(), mode)
                .unwrap();
            for (x, y) in run.product.data.iter().zip(&reference.data) {
                assert!((x - y).abs() < 1e-9, "mode {mode:?}");
            }
        }
    }

    #[test]
    fn pipelined_bcast_matmul_is_bit_identical_to_blocking() {
        use fupermod_platform::comm::LinkModel;
        let n = 48;
        let a = random_matrix(n, n, 9);
        let b = random_matrix(n, n, 10);
        let configs: [fn() -> RuntimeConfig; 2] = [
            RuntimeConfig::thread,
            || RuntimeConfig::sim(4, LinkModel::ethernet()),
        ];
        for config in configs {
            let blocking =
                run_bcast(&a, &b, 8, &[18, 9, 6, 3], config(), OverlapMode::Blocking).unwrap();
            let pipelined =
                run_bcast(&a, &b, 8, &[18, 9, 6, 3], config(), OverlapMode::Overlapped).unwrap();
            assert_eq!(
                matrix_checksum(&blocking.product),
                matrix_checksum(&pipelined.product)
            );
            assert_eq!(blocking.product.data, pipelined.product.data);
        }
    }

    #[test]
    fn pipelined_bcast_matmul_wins_virtual_time_on_sim() {
        use fupermod_platform::comm::LinkModel;
        let n = 64;
        let a = random_matrix(n, n, 11);
        let b = random_matrix(n, n, 12);
        let run = |mode| {
            run_bcast(
                &a,
                &b,
                8,
                &[32, 16, 8, 8],
                RuntimeConfig::sim(4, LinkModel::ethernet()),
                mode,
            )
            .unwrap()
            .virtual_time
            .unwrap()
        };
        let blocking = run(OverlapMode::Blocking);
        let pipelined = run(OverlapMode::Overlapped);
        assert!(
            pipelined < blocking,
            "pipelined {pipelined} !< blocking {blocking}"
        );
    }

    #[test]
    fn parallel_device_model_build_matches_serial() {
        use fupermod_core::trace::MemorySink;
        let platform = Platform::two_speed(2, 2, 21);
        let profile = WorkloadProfile::matrix_update(16);
        let sizes = [16u64, 64, 256, 1024];
        let precision = Precision::quick();

        let serial_sink = MemorySink::new();
        let serial: Vec<AkimaModel> = build_device_models_with(
            &platform, &profile, &sizes, &precision, &serial_sink, 1,
        )
        .unwrap();
        for parallelism in [2, 4, 0] {
            let par_sink = MemorySink::new();
            let parallel: Vec<AkimaModel> = build_device_models_with(
                &platform, &profile, &sizes, &precision, &par_sink, parallelism,
            )
            .unwrap();
            assert_eq!(serial, parallel, "parallelism={parallelism}");
            assert_eq!(serial_sink.events(), par_sink.events());
        }
        // The untraced, serial wrapper agrees too.
        let wrapped: Vec<AkimaModel> =
            build_device_models(&platform, &profile, &sizes, &precision).unwrap();
        assert_eq!(serial, wrapped);
    }

    #[test]
    fn build_device_models_collects_all_sizes() {
        let platform = Platform::uniform(2, 5);
        let profile = WorkloadProfile::matrix_update(16);
        let models: Vec<AkimaModel> =
            build_device_models(&platform, &profile, &[10, 100, 500], &Precision::quick())
                .unwrap();
        assert_eq!(models.len(), 2);
        for m in &models {
            assert_eq!(m.points().len(), 3);
        }
    }
}
