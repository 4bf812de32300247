//! The benchmark's vocabulary: every workload and metric by name,
//! unit and one-line reason. `list` prints these tables, the result
//! lines are built from them, and a unit test holds `BENCHMARK.json`
//! to them.

/// A workload: a name and why it was chosen.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 8] = [
    WorkloadSpec {
        name: "offline_fpm",
        why: "static pipeline: build 64 Akima FPMs, persist, 96 partition queries; core and num do the work, runtime/store/kernels none",
    },
    WorkloadSpec {
        name: "app_thread",
        why: "partitioned matmul (blocking, overlapped) and Jacobi on 2 threaded ranks; gemm and in-process comm dominate, net is bypassed",
    },
    WorkloadSpec {
        name: "tcp_bulk",
        why: "2 TCP ranks, 48 alternating-root 2 MiB bcasts + allreduce; bandwidth-bound: net framing, CRC and socket copies dominate",
    },
    WorkloadSpec {
        name: "tcp_rounds",
        why: "same 2 TCP ranks, 3000 small balancing rounds; latency-bound use of the same net layer, guards bulk gains bought with batching",
    },
    WorkloadSpec {
        name: "sim_balance",
        why: "dynamic partitioning at p=2000 on the event engine; thousands of tiny models, so core.partition and core.benchmark own the time",
    },
    WorkloadSpec {
        name: "sim_collectives",
        why: "EventSim at p=100000, 8 ring + 2 tree collective rounds; the engine does all the work, core is bypassed; the memory workload",
    },
    WorkloadSpec {
        name: "serve_read",
        why: "daemon read path, closed loop, 2 clients, 95% cached partition + 5% lookup; protocol parse and socket round trip dominate",
    },
    WorkloadSpec {
        name: "serve_ingest",
        why: "daemon write path, closed loop, 2 clients alternating ingest and partition; every plan is invalidated, re-solved and evicted",
    },
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric the driver gates: reported on every workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    pub why: &'static str,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        why: "input generation + daemon boot / TCP rendezvous / store preload + the warm-up pass (median of the run's set-ups)",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        why: "host wall time of one timed pass, the best of the run: time to solution at the stated size",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        why: "process CPU time of one timed pass, the best of the run: separates did-less-work from waited-less",
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        why: "median latency of the workload's unit operation within a pass, the best pass of the run",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        why: "VmHWM of the workload's process at exit",
    },
];

/// A per-layer metric of the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// How it is measured; `computed` marks values derived from a
    /// probe rate and an op count instead of timed directly.
    pub how: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: Better, how: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        how,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 75] = [
    pl("num.interp.akima_eval_ns", "ns", Lower, "probe: AkimaSpline eval on a workload model's spline"),
    pl("num.interp.akima_build_us", "us", Lower, "probe: AkimaSpline construction from a workload model's points"),
    pl("num.interp.akima_set_y_ns", "ns", Lower, "probe: AkimaSpline::set_y window patch"),
    pl("num.stats.incremental_push_ns", "ns", Lower, "probe: IncrementalStats push"),
    pl("num.apportion.round_us", "us", Lower, "probe: largest_remainder of 200000 units over 2000 shares"),
    pl("platform.device.measured_time_ns", "ns", Lower, "probe: Device::measured_time"),
    pl("core.benchmark.measure_us", "us", Lower, "probe: Benchmark::measure per point, default precision"),
    pl("core.benchmark.measure_quick_us", "us", Lower, "probe: measure_device_point per point, quick precision"),
    pl("core.benchmark.reps_per_point", "count", Lower, "exact: mean Point.reps of the built models"),
    pl("core.builder.build_s", "s", Lower, "stage span: ModelBuilder::build of the 64 models"),
    pl("core.model.akima_update_us", "us", Lower, "probe: AkimaModel::update"),
    pl("core.model.piecewise_update_ns", "ns", Lower, "probe: PiecewiseModel::update"),
    pl("core.model.io_roundtrip_ms", "ms", Lower, "stage span: save + reload of the 64 models"),
    pl("core.partition.geometric_us", "us", Lower, "probe: GeometricPartitioner over 64 Akima models"),
    pl("core.partition.numerical_us", "us", Lower, "probe: NumericalPartitioner over the workload's Akima models"),
    pl("core.partition.geometric_p2000_ms", "ms", Lower, "probe: GeometricPartitioner over 2000 piecewise models"),
    pl("core.partition.model_evals_per_call", "count", Lower, "exact: counting Model wrapper, geometric p=64"),
    pl("core.partition.imbalance_gt", "ratio", Lower, "exact: median ground-truth imbalance over the queries"),
    pl("core.dynamic.step_ms", "ms", Lower, "probe: serial DynamicContext::partition_iterate, p=2000"),
    pl("core.dynamic.steps_to_converge", "count", Lower, "exact: BalanceOutcome.steps.len()"),
    pl("kernels.gemm.gflops", "Gflop/s", Higher, "probe: gemm_blocked at the pivot-update shape"),
    pl("kernels.jacobi.sweep_us", "us", Lower, "probe: one jacobi_sweep over n=2000"),
    pl("apps.matmul.bcast_blocking_s", "s", Lower, "stage span: run_bcast, OverlapMode::Blocking"),
    pl("apps.matmul.bcast_overlapped_s", "s", Lower, "stage span: run_bcast, OverlapMode::Overlapped"),
    pl("apps.matmul.overlap_ratio", "ratio", Lower, "computed: overlapped / blocking"),
    pl("apps.jacobi.run_s", "s", Lower, "stage span: apps::jacobi::run"),
    pl("apps.jacobi.iterations", "count", Lower, "exact: JacobiReport.iterations.len()"),
    pl("runtime.wire.encode_mib_s", "MiB/s", Higher, "probe: Wire::to_bytes of a 2 MiB Vec<f64>"),
    pl("runtime.wire.decode_mib_s", "MiB/s", Higher, "probe: Wire::decode of a 2 MiB Vec<f64>"),
    pl("runtime.comm.bcast_192k_us", "us", Lower, "probe: threaded 2-rank bcast of a 192 KiB pivot"),
    pl("runtime.comm.bcast_2mib_ms", "ms", Lower, "probe: threaded 2-rank bcast of a 2 MiB panel"),
    pl("runtime.comm.round_us", "us", Lower, "probe: threaded 2-rank small balancing round"),
    pl("runtime.comm.rtt_us", "us", Lower, "probe: threaded 2-rank 8-byte ping-pong"),
    pl("runtime.net.frame.crc32_mib_s", "MiB/s", Higher, "probe: frame::crc32 on 2 MiB"),
    pl("runtime.net.frame.encode_mib_s", "MiB/s", Higher, "probe: encode_frame of a 2 MiB payload"),
    pl("runtime.net.frame.read_mib_s", "MiB/s", Higher, "probe: read_frame of a 2 MiB frame from memory"),
    pl("runtime.net.frame.small_roundtrip_ns", "ns", Lower, "probe: encode + read of a 64-byte payload"),
    pl("runtime.net.bulk_mib_s", "MiB/s", Higher, "achieved: broadcast payload bytes / pass wall in tcp_bulk"),
    pl("runtime.net.bcast_2mib_ms", "ms", Lower, "achieved: median TCP bcast of a 2 MiB panel"),
    pl("runtime.net.round_us", "us", Lower, "achieved: median TCP balancing round"),
    pl("runtime.net.round_p99_us", "us", Lower, "achieved: p99 TCP balancing round (diagnostic, not gated)"),
    pl("runtime.net.rtt_us", "us", Lower, "probe: TCP 2-rank 8-byte ping-pong"),
    pl("runtime.net.self_round_us", "us", Lower, "computed: runtime.net.round_us - runtime.comm.round_us"),
    pl("runtime.net.crc_share", "ratio", Lower, "computed: 2 x bytes / crc rate / pass wall"),
    pl("runtime.net.frames_per_pass", "count", Lower, "exact, computed from the schedule: data frames rank 0 sends + receives"),
    pl("runtime.net.bytes_per_pass", "count", Lower, "exact, computed from the schedule: payload bytes in those frames"),
    pl("runtime.net.boot_ms", "ms", Lower, "set-up span: connect rendezvous + mesh"),
    pl("runtime.sim.events", "count", Lower, "exact: EventSim::events over the pass"),
    pl("runtime.sim.events_per_s", "1/s", Higher, "achieved: events / host wall of the rounds"),
    pl("runtime.sim.ns_per_event", "ns", Lower, "achieved: host wall of the rounds / events"),
    pl("runtime.sim.ring_round_ms", "ms", Lower, "achieved: median ring round, p=100000"),
    pl("runtime.sim.tree_round_ms", "ms", Lower, "achieved: median tree round, p=100000"),
    pl("runtime.sim.scale_exponent", "log10", Lower, "computed: log10(ring round wall at p=100000 / at p=10000)"),
    pl("runtime.sim.engine_build_ms", "ms", Lower, "stage span: EventSim::from_config, p=100000"),
    pl("runtime.sim.balance_self_s", "s", Lower, "computed: run wall - measure closure time - partitioner wrapper time"),
    pl("store.protocol.parse_partition_ns", "ns", Lower, "probe: parse_request on the workload's partition line"),
    pl("store.protocol.parse_ingest_ns", "ns", Lower, "probe: parse_request on the workload's ingest line"),
    pl("store.protocol.handle_hit_us", "us", Lower, "probe: protocol::handle of a cached partition on a warm store"),
    pl("store.protocol.response_bytes", "bytes", Lower, "exact: length of that response line"),
    pl("store.store.partition_hit_ns", "ns", Lower, "probe: ModelStore::partition, plan-cache hit"),
    pl("store.store.partition_miss_us", "us", Lower, "probe: ModelStore::partition after an epoch bump"),
    pl("store.store.ingest_sample_ns", "ns", Lower, "probe: ModelStore::ingest_sample into a known size"),
    pl("store.store.ingest_point_ns", "ns", Lower, "probe: ModelStore::ingest_point into a known size"),
    pl("store.plan.hit_ratio", "ratio", Higher, "StoreMetricsSnapshot delta over the pass: hits / (hits + misses)"),
    pl("store.plan.evictions", "count", Lower, "StoreMetricsSnapshot delta over the pass"),
    pl("store.entry.patched", "count", Higher, "exact: snapshot delta over the pass"),
    pl("store.entry.rebuilt", "count", Lower, "exact: snapshot delta over the pass"),
    pl("store.entry.fallbacks", "count", Lower, "exact: snapshot delta over the pass"),
    pl("store.server.req_per_s", "1/s", Higher, "achieved: requests of both clients / pass wall"),
    pl("store.server.req_p99_us", "us", Lower, "achieved: p99 request latency (diagnostic, not gated)"),
    pl("store.server.wire_overhead_us", "us", Lower, "computed: request p50 - in-process handle time"),
    pl("bench.unattributed_share", "ratio", Lower, "1 - sum of layer self time / pass wall; the traced run fails above 0.05"),
    pl("bench.trace_overhead_share", "ratio", Lower, "traced pass wall / untraced pass wall - 1"),
    pl("bench.set_spread", "ratio", Lower, "relative gap between the wall time of the traced run's two untraced passes"),
    pl("virtual_s", "sim_s", Lower, "simulated seconds of what the workload produced; a pure function of seed and code, compared bit-exactly"),
];

/// Per-layer metrics that must repeat bit-exactly between two runs of
/// one build at one seed (`selfcheck` and `compare` hold them to it).
pub const EXACT_PER_LAYER: [&str; 13] = [
    "core.benchmark.reps_per_point",
    "core.partition.model_evals_per_call",
    "core.partition.imbalance_gt",
    "core.dynamic.steps_to_converge",
    "apps.jacobi.iterations",
    "runtime.net.frames_per_pass",
    "runtime.net.bytes_per_pass",
    "runtime.sim.events",
    "store.protocol.response_bytes",
    "store.entry.patched",
    "store.entry.rebuilt",
    "store.entry.fallbacks",
    "virtual_s",
];
