//! A failed rank releases its peers on the threaded plane
//! (`docs/RUNTIME.md` §3): it leaves the plane as a TCP peer whose
//! process exits does, so every peer waiting on it gets
//! [`RuntimeError::RankDead`] naming it before the plan's deadline,
//! not [`RuntimeError::Timeout`] once it has passed. Each case runs on
//! the thread backend and on the thread-backed sim.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fupermod_core::trace::{MemorySink, TraceEvent};
use fupermod_platform::comm::LinkModel;
use fupermod_runtime::{
    run_ranks, AlgorithmPolicy, Communicator, FaultPlan, RuntimeConfig, RuntimeError,
    ThreadedComm,
};

const RANKS: usize = 4;
const FAILING: usize = 2;

/// Every plan's deadline, seconds: a peer that waited it out would
/// time out, so a release must come sooner.
const DEADLINE: f64 = 5.0;

fn backends() -> Vec<(&'static str, RuntimeConfig)> {
    vec![
        ("thread", RuntimeConfig::thread()),
        ("sim", RuntimeConfig::sim(RANKS, LinkModel::ethernet())),
    ]
}

/// The plan that only sets the deadline.
fn deadline_only() -> FaultPlan {
    FaultPlan::from_json(&format!(r#"{{"deadline": {DEADLINE}}}"#)).unwrap()
}

/// The plan that loses every message `FAILING` sends, with no retry.
fn lose_failing_sends() -> FaultPlan {
    FaultPlan::from_json(&format!(
        r#"{{"deadline": {DEADLINE}, "drops": [{{"src": {FAILING}, "max_retries": 0}}]}}"#
    ))
    .unwrap()
}

/// Asserts that every rank but `FAILING` got `RankDead` naming it, and
/// that `FAILING` left with one `disconnect`.
fn assert_released(
    label: &str,
    out: &[Result<(), RuntimeError>],
    elapsed: Duration,
    sink: &MemorySink,
) {
    assert!(
        elapsed < Duration::from_secs_f64(DEADLINE),
        "{label}: took {elapsed:?}"
    );
    for (rank, result) in out.iter().enumerate() {
        if rank == FAILING {
            assert!(result.is_err(), "{label}: rank {rank} did not fail");
            continue;
        }
        match result {
            Err(RuntimeError::RankDead { rank: dead, .. }) => {
                assert_eq!(*dead, FAILING, "{label}: rank {rank}")
            }
            other => panic!("{label}: rank {rank} got {other:?}"),
        }
    }
    let disconnects: Vec<usize> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Fault { rank, kind, .. } if kind == "disconnect" => Some(*rank),
            _ => None,
        })
        .collect();
    assert_eq!(disconnects, vec![FAILING], "{label}");
}

/// A rank whose part of a hub `allgatherv` is lost leaves at once:
/// the hub records a hole and every rank's strict `allgatherv` names
/// the failed rank.
#[test]
fn a_rank_that_loses_its_part_of_a_collective_releases_its_peers() {
    for (label, config) in backends() {
        let sink = Arc::new(MemorySink::new());
        let comms = config
            .with_plan(lose_failing_sends())
            .with_algorithms(AlgorithmPolicy::hub())
            .with_trace(sink.clone())
            .build(RANKS);
        let started = Instant::now();
        let out = run_ranks(comms, |mut c| c.allgatherv(&(c.rank() as u64)).map(drop));
        let elapsed = started.elapsed();
        match &out[FAILING] {
            Err(RuntimeError::RetriesExhausted { src, .. }) => assert_eq!(*src, FAILING),
            other => panic!("{label}: rank {FAILING} got {other:?}"),
        }
        assert_released(label, &out, elapsed, &sink);
    }
}

/// A rank whose point-to-point send is lost returns its error, and
/// leaves when its handle drops: the ranks still waiting on it are
/// released.
#[test]
fn a_rank_whose_send_failed_leaves_when_its_handle_drops() {
    for (label, config) in backends() {
        let sink = Arc::new(MemorySink::new());
        let comms = config
            .with_plan(lose_failing_sends())
            .with_trace(sink.clone())
            .build(RANKS);
        let started = Instant::now();
        let out = run_ranks(comms, |mut c| -> Result<(), RuntimeError> {
            if c.rank() == FAILING {
                c.send(0, &1u64)
            } else {
                c.recv::<u64>(FAILING).map(drop)
            }
        });
        assert_released(label, &out, started.elapsed(), &sink);
    }
}

/// A rank that panics mid-run leaves as its thread unwinds.
#[test]
fn a_panicking_rank_releases_its_peers() {
    for (label, config) in backends() {
        let sink = Arc::new(MemorySink::new());
        let comms = config
            .with_plan(deadline_only())
            .with_trace(sink.clone())
            .build(RANKS);
        let started = Instant::now();
        let out: Vec<Result<(), RuntimeError>> = std::thread::scope(|scope| {
            let ranks: Vec<_> = comms
                .into_iter()
                .map(|mut c: ThreadedComm| {
                    scope.spawn(move || {
                        c.barrier()?;
                        assert_ne!(c.rank(), FAILING, "rank {FAILING} fails here");
                        c.allgatherv(&(c.rank() as u64)).map(drop)
                    })
                })
                .collect();
            ranks
                .into_iter()
                .map(|rank| {
                    rank.join()
                        .unwrap_or_else(|_| Err(RuntimeError::App("panicked".to_owned())))
                })
                .collect()
        });
        assert_released(label, &out, started.elapsed(), &sink);
    }
}

/// A rank that learnt of a peer's death and carried on has not failed:
/// it stays alive, and no `disconnect` is traced for it.
#[test]
fn a_peer_death_seen_and_survived_is_not_a_failure() {
    let plan = FaultPlan::from_json(r#"{"deaths": [{"rank": 3, "after_ops": 1}]}"#).unwrap();
    let sink = Arc::new(MemorySink::new());
    let (comms, handle) = RuntimeConfig::thread()
        .with_plan(plan)
        .with_trace(sink.clone())
        .build_with_handle(RANKS);
    let out = run_ranks(comms, |mut c| -> Result<(), RuntimeError> {
        c.barrier()?;
        if c.rank() == 0 {
            assert!(matches!(
                c.recv::<u64>(3),
                Err(RuntimeError::RankDead { rank: 3, .. })
            ));
        }
        c.barrier()
    });
    assert!(out[3].is_err());
    for result in &out[..3] {
        result.as_ref().unwrap();
    }
    assert_eq!(handle.dead_ranks(), vec![3]);
    assert!(!sink
        .events()
        .iter()
        .any(|e| matches!(e, TraceEvent::Fault { kind, .. } if kind == "disconnect")));
}
