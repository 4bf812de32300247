//! Acceptance: the report's collective critical path reproduces the
//! schedule ranking measured in `results/bench_history/BENCH_PR4.json`.
//!
//! That benchmark's `vtime_collectives` series (deterministic Hockney
//! virtual time, p = 16) ranks the rootless-collective schedules
//! `tree < ring < hub`. Tracing the same kind of workload on the sim
//! backend and summing the per-collective critical path out of the
//! *trace* must reproduce the ordering — the report is an offline
//! re-derivation of what the benchmark measured online.

use std::sync::Arc;

use fupermod_core::trace::MemorySink;
use fupermod_platform::comm::LinkModel;
use fupermod_runtime::{
    run_ranks, Algorithm, AlgorithmPolicy, Communicator, ReduceOp, RuntimeConfig,
    RuntimeError,
};
use fupermod_trace::{merge_events, Report};

const SIZE: usize = 16;
const ROUNDS: usize = 4;

/// Rootless-collective workload: the ops where hub/ring/tree schedules
/// genuinely differ (rooted ops resolve ring back to tree).
fn workload(mut c: impl Communicator) -> Result<(), RuntimeError> {
    let rank = c.rank();
    let payload = vec![rank as f64; 256];
    for _ in 0..ROUNDS {
        let _ = c.allgatherv(&payload)?;
        let _ = c.allreduce(rank as f64, ReduceOp::Sum)?;
    }
    c.barrier()?;
    Ok(())
}

/// Critical path of the workload traced under one uniform policy.
fn critical_path(algorithm: Algorithm) -> f64 {
    let sink = Arc::new(MemorySink::new());
    let comms = RuntimeConfig::sim(SIZE, LinkModel::ethernet())
        .with_algorithms(AlgorithmPolicy::uniform(algorithm))
        .with_trace(sink.clone())
        .build(SIZE);
    for (rank, r) in run_ranks(comms, workload).into_iter().enumerate() {
        r.unwrap_or_else(|e| panic!("rank {rank} failed: {e}"));
    }
    let report = Report::build(3, merge_events(vec![sink.events()]));
    assert!(
        report.collectives.iter().all(|c| {
            c.op == "barrier" || c.algorithm == format!("{algorithm:?}").to_lowercase()
        }),
        "trace must record the resolved schedule: {:?}",
        report.collectives
    );
    report.critical_path_s
}

#[test]
fn critical_path_ranks_tree_ring_hub_like_bench_pr4() {
    let hub = critical_path(Algorithm::Hub);
    let ring = critical_path(Algorithm::Ring);
    let tree = critical_path(Algorithm::Tree);
    assert!(
        tree < ring && ring < hub,
        "expected tree < ring < hub at p={SIZE} (BENCH_PR4 vtime_collectives), \
         got tree={tree} ring={ring} hub={hub}"
    );
}
