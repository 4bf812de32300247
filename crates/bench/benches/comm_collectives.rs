//! Criterion bench: collective algorithms on the message-passing
//! runtime — hub vs ring vs tree schedules.
//!
//! Two things are measured here:
//!
//! * **wall-clock** of the threaded backend executing each schedule
//!   (scheduling + copying overhead of the runtime itself), and
//! * **virtual seconds** of the simulated backend, reported via
//!   `vtime_*` bench names whose "time" is the Hockney virtual clock
//!   charged by each schedule (1 iter = 1 virtual run). These are the
//!   numbers PR 4 recorded in
//!   `results/bench_history/BENCH_PR4.json`: the serialized hub grows
//!   O(p) per collective while tree grows O(log p) and ring
//!   pipelines, so at p = 64 the hub loses by well over the 4x the
//!   acceptance bar asks for.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fupermod_platform::comm::LinkModel;
use fupermod_runtime::{run_ranks, AlgorithmPolicy, Communicator, ReduceOp, RuntimeConfig};

/// One collective round: a ~1 KiB `allgatherv` and an `allreduce`.
fn sweep(config: RuntimeConfig, size: usize) -> f64 {
    let comms = config.build(size);
    let out = run_ranks(comms, |mut c| {
        let own: Vec<f64> = (0..128).map(|i| (i + c.rank()) as f64).collect();
        let gathered = c.allgatherv(&own).expect("allgatherv");
        let reduced = c.allreduce(own[0], ReduceOp::Sum).expect("allreduce");
        gathered.len() as f64 + reduced
    });
    out.into_iter().sum()
}

fn policies() -> [(&'static str, AlgorithmPolicy); 3] {
    [
        ("hub", AlgorithmPolicy::hub()),
        ("ring", AlgorithmPolicy::ring()),
        ("tree", AlgorithmPolicy::tree()),
    ]
}

/// Wall-clock of the threaded backend (runtime overhead per schedule).
fn bench_thread_wall_clock(c: &mut Criterion) {
    let mut group = c.benchmark_group("collectives_thread");
    for (name, policy) in policies() {
        group.bench_function(&format!("p8_{name}"), |b| {
            b.iter(|| sweep(RuntimeConfig::thread().with_algorithms(policy), black_box(8)))
        });
    }
    group.finish();
}

/// Virtual time of the simulated backend: the bench "measures" a
/// custom duration equal to the Hockney virtual seconds one collective
/// round costs under each schedule at p in {4, 16, 64}. This is the
/// paper-relevant metric — schedule quality, not host speed.
fn bench_sim_virtual_time(c: &mut Criterion) {
    for p in [4usize, 16, 64] {
        for (name, policy) in policies() {
            c.bench_function(&format!("vtime_collectives/p{p}_{name}"), |b| {
                b.iter_custom(|iters| {
                    let mut total = Duration::ZERO;
                    for _ in 0..iters {
                        let (comms, handle) = RuntimeConfig::sim(p, LinkModel::ethernet())
                            .with_algorithms(policy)
                            .build_with_handle(p);
                        black_box(run_ranks(comms, |mut cm| {
                            let own: Vec<f64> =
                                (0..128).map(|i| (i + cm.rank()) as f64).collect();
                            cm.allgatherv(&own).expect("allgatherv");
                            cm.allreduce(own[0], ReduceOp::Sum).expect("allreduce")
                        }));
                        let vt = handle.virtual_time().expect("sim virtual clock");
                        total += Duration::from_secs_f64(vt);
                    }
                    total
                })
            });
        }
    }
}

criterion_group!(benches, bench_thread_wall_clock, bench_sim_virtual_time);
criterion_main!(benches);
