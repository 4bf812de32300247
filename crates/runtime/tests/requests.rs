//! Integration tests for the nonblocking request API: edge cases
//! (drop without `wait`, completion-order independence, zero-byte
//! payloads, non-zero roots, fault-plan deaths observed at `wait`)
//! and the virtual-time overlap contract (fault-free request runs are
//! bit-identical to the blocking path; compute between post and
//! `wait` hides communication).

use std::collections::BTreeMap;
use std::sync::Arc;

use fupermod_core::trace::{MemorySink, TraceEvent};
use fupermod_platform::comm::LinkModel;
use fupermod_runtime::{
    run_ranks, wait_all, AlgorithmPolicy, Communicator, DeathRule, FaultPlan, Progress, Request,
    RuntimeConfig, RuntimeError,
};

fn both_backends(size: usize) -> Vec<RuntimeConfig> {
    vec![
        RuntimeConfig::thread(),
        RuntimeConfig::sim(size, LinkModel::ethernet()),
    ]
}

fn all_policies() -> Vec<AlgorithmPolicy> {
    vec![
        AlgorithmPolicy::hub(),
        AlgorithmPolicy::ring(),
        AlgorithmPolicy::tree(),
    ]
}

/// `isend`/`irecv` round-trip typed payloads on both backends.
#[test]
fn isend_irecv_round_trip() {
    for config in both_backends(2) {
        let comms = config.build(2);
        let out = run_ranks(comms, |c| -> Result<(), RuntimeError> {
            if c.rank() == 0 {
                let req = c.isend(1, &vec![1.5f64, -2.5])?;
                req.wait()?;
            } else {
                let req = c.irecv::<Vec<f64>>(0)?;
                assert_eq!(req.wait()?, vec![1.5, -2.5]);
            }
            Ok(())
        });
        out.into_iter().for_each(|r| r.unwrap());
    }
}

/// Dropping a `RecvRequest` without `wait` cancels it without losing
/// the message: a later blocking `recv` still delivers it. Dropping a
/// `SendRequest` without `wait` never loses the message either.
#[test]
fn dropped_requests_neither_deadlock_nor_lose_messages() {
    for config in both_backends(2) {
        let comms = config.build(2);
        let out = run_ranks(comms, |mut c| -> Result<(), RuntimeError> {
            if c.rank() == 0 {
                // Send dropped without wait: message must still arrive.
                drop(c.isend(1, &41u64)?);
                c.send(1, &42u64)?;
            } else {
                // Receive posted then cancelled: the mailbox keeps
                // both messages, FIFO order intact.
                drop(c.irecv::<u64>(0)?);
                assert_eq!(c.recv::<u64>(0)?, 41);
                assert_eq!(c.recv::<u64>(0)?, 42);
            }
            Ok(())
        });
        out.into_iter().for_each(|r| r.unwrap());
    }
}

/// Dropping a collective request without `wait` completes the
/// collective silently, so peers that called the blocking `wait` do
/// not deadlock at the closing barrier.
#[test]
fn dropped_collective_request_completes_for_peers() {
    for config in both_backends(3) {
        let comms = config.build(3);
        let out = run_ranks(comms, |c| -> Result<(), RuntimeError> {
            let req = c.ibcast::<u64>(0, (c.rank() == 0).then_some(&9))?;
            if c.rank() == 2 {
                drop(req); // completes on drop
            } else {
                assert_eq!(req.wait()?, 9);
            }
            Ok(())
        });
        out.into_iter().for_each(|r| r.unwrap());
    }
}

/// `wait_all` completes every request regardless of the order their
/// messages arrive: rank 0 posts receives from every peer in rank
/// order, while peers send in reverse arrival order.
#[test]
fn wait_all_is_completion_order_independent() {
    for config in both_backends(4) {
        let comms = config.build(4);
        let out = run_ranks(comms, |c| -> Result<(), RuntimeError> {
            if c.rank() == 0 {
                let reqs = (1..4)
                    .map(|src| c.irecv::<u64>(src))
                    .collect::<Result<Vec<_>, _>>()?;
                let got = wait_all(reqs)?;
                assert_eq!(got, vec![10, 20, 30]);
            } else {
                // Stagger so higher ranks usually land first; the
                // result must not depend on it.
                std::thread::sleep(std::time::Duration::from_millis(
                    (4 - c.rank()) as u64 * 10,
                ));
                c.isend(0, &(c.rank() as u64 * 10))?.wait()?;
            }
            Ok(())
        });
        out.into_iter().for_each(|r| r.unwrap());
    }
}

/// A zero-byte `irecv` (unit payload) completes like any other.
#[test]
fn zero_byte_irecv_completes() {
    for config in both_backends(2) {
        let comms = config.build(2);
        let out = run_ranks(comms, |c| -> Result<(), RuntimeError> {
            if c.rank() == 0 {
                c.isend(1, &())?.wait()?;
            } else {
                c.irecv::<()>(0)?.wait()?;
            }
            Ok(())
        });
        out.into_iter().for_each(|r| r.unwrap());
    }
}

/// `ibcast` accepts any root and yields the same value on every rank,
/// under every schedule the policy can resolve.
#[test]
fn ibcast_accepts_non_zero_roots_under_every_policy() {
    for policy in all_policies() {
        for config in both_backends(4) {
            let comms = config.with_algorithms(policy).build(4);
            let out = run_ranks(comms, |c| -> Result<(), RuntimeError> {
                let root = 2;
                let req = c.ibcast::<Vec<u64>>(
                    root,
                    (c.rank() == root).then(|| vec![5, 6, 7]).as_ref(),
                )?;
                assert_eq!(req.wait()?, vec![5, 6, 7]);
                Ok(())
            });
            out.into_iter().for_each(|r| r.unwrap());
        }
    }
}

/// `test` eventually completes an `ibcast` without `wait`, under every
/// schedule.
#[test]
fn ibcast_test_completes_without_wait_under_every_policy() {
    for policy in all_policies() {
        for config in both_backends(4) {
            let comms = config.with_algorithms(policy).build(4);
            let out = run_ranks(comms, |c| -> Result<(), RuntimeError> {
                let mut req = c.ibcast(1, (c.rank() == 1).then_some(&vec![100u64, 101]))?;
                let values = loop {
                    match req.test()? {
                        Progress::Ready(v) => break v,
                        Progress::Pending(r) => {
                            req = r;
                            std::thread::yield_now();
                        }
                    }
                };
                assert_eq!(values, vec![100, 101]);
                Ok(())
            });
            out.into_iter().for_each(|r| r.unwrap());
        }
    }
}

/// Posting a second collective request before completing the first is
/// a typed `RequestBusy` error, not a corrupted rendezvous.
#[test]
fn second_outstanding_collective_request_is_rejected() {
    let comms = RuntimeConfig::thread().build(2);
    let out = run_ranks(comms, |c| -> Result<(), RuntimeError> {
        let first = c.ibcast(0, (c.rank() == 0).then_some(&1u64))?;
        match c.ibcast(0, (c.rank() == 0).then_some(&2u64)) {
            Err(RuntimeError::RequestBusy { rank, .. }) => assert_eq!(rank, c.rank()),
            Err(other) => panic!("expected RequestBusy, got {other:?}"),
            Ok(_) => panic!("expected RequestBusy, got a posted request"),
        }
        first.wait()?;
        Ok(())
    });
    out.into_iter().for_each(|r| r.unwrap());
}

/// A fault-plan fail-stop death is observed at `wait` as the same
/// typed error the blocking path reports. The plan keeps the default
/// deadline: rank 0 must learn of the death however late the host
/// runs rank 1, and a wait that ran the deadline out is a `Timeout`.
#[test]
fn fault_plan_death_surfaces_at_wait() {
    for config in both_backends(2) {
        let plan = FaultPlan {
            deaths: vec![DeathRule {
                rank: 1,
                after_ops: 0,
            }],
            ..FaultPlan::default()
        };
        let comms = config.with_plan(plan).build(2);
        let out = run_ranks(comms, |c| -> Result<(), RuntimeError> {
            if c.rank() == 0 {
                let req = c.irecv::<u64>(1)?;
                match req.wait() {
                    Err(RuntimeError::RankDead { rank: 1, .. }) => Ok(()),
                    other => panic!("expected RankDead{{1}}, got {other:?}"),
                }
            } else {
                // First op trips the scheduled death.
                match c.isend(0, &1u64) {
                    Err(RuntimeError::RankDead { rank: 1, .. }) => Ok(()),
                    Err(other) => panic!("expected own death, got {other:?}"),
                    Ok(_) => panic!("expected own death, got a posted send"),
                }
            }
        });
        out.into_iter().for_each(|r| r.unwrap());
    }
}

/// One run of the two-round collective program, in its blocking or its
/// request form, on the thread-backed sim.
struct FormRun {
    /// Per rank, per operation: the value bits or the error text.
    results: Vec<Vec<Result<Vec<u64>, String>>>,
    /// Per-rank virtual clocks.
    clocks: Vec<f64>,
    /// Per-rank `comm`/`fault` trace events.
    streams: BTreeMap<usize, Vec<TraceEvent>>,
}

impl FormRun {
    /// The per-rank trace lines, op tags normalised; `durations: false`
    /// blanks the `seconds` of `comm` events.
    fn lines(&self, durations: bool) -> BTreeMap<usize, Vec<String>> {
        let line = |event: &TraceEvent| {
            let mut event = event.clone();
            if let (TraceEvent::Comm { seconds, .. }, false) = (&mut event, durations) {
                *seconds = 0.0;
            }
            untag(&event.to_jsonl())
        };
        self.streams
            .iter()
            .map(|(&rank, events)| (rank, events.iter().map(line).collect()))
            .collect()
    }
}

/// The request form names itself in op tags (`ibcast`); everything
/// else about it is the blocking op's.
fn untag(text: &str) -> String {
    text.replace("ibcast", "bcast")
}

/// barrier, then twice: broadcast from `root`, strict all-gather. A
/// rank keeps going after an error, as its peers still need it at the
/// closing barriers; one that died just collects its own `RankDead`s.
fn run_form(
    requests: bool,
    size: usize,
    root: usize,
    policy: AlgorithmPolicy,
    plan: &FaultPlan,
) -> FormRun {
    let sink = Arc::new(MemorySink::new());
    let (comms, handle) = RuntimeConfig::sim(size, LinkModel::ethernet())
        .with_algorithms(policy)
        .with_plan(plan.clone())
        .with_trace(sink.clone())
        .build_with_handle(size);
    let results = run_ranks(comms, |mut c| {
        let rank = c.rank();
        let text = |e: RuntimeError| untag(&e.to_string());
        let mut seen = vec![c.barrier().map(|()| Vec::new()).map_err(text)];
        for round in 0..2u64 {
            let payload = (rank == root).then(|| vec![round * 10 + 7; 24 + rank]);
            let own = vec![rank as u64 * 3 + round; 1 + rank % 3];
            let value = if requests {
                c.ibcast(root, payload.as_ref()).and_then(Request::wait)
            } else {
                c.bcast(root, payload.as_ref())
            };
            let all = c.allgatherv(&own);
            seen.push(value.map_err(text));
            seen.push(all.map(|v| v.concat()).map_err(text));
        }
        seen
    });
    let mut streams: BTreeMap<usize, Vec<TraceEvent>> = BTreeMap::new();
    for event in sink.take() {
        if let TraceEvent::Comm { rank, .. } | TraceEvent::Fault { rank, .. } = &event {
            streams.entry(*rank).or_default().push(event);
        }
    }
    FormRun {
        results,
        clocks: handle.virtual_times().expect("sim backend keeps clocks"),
        streams,
    }
}

/// How much of a run the thread-backed sim pins under a plan.
#[derive(Clone, Copy)]
enum Pinned {
    /// Results, per-rank clocks to the bit, per-rank trace streams.
    Everything,
    /// Injected latency lands after a request's post-time clock
    /// snapshot, so the request form hides it like compute (`max`)
    /// where the blocking form adds it — the one designed difference.
    /// Streams agree up to `comm` durations; request clocks may only
    /// be earlier.
    ButDurations,
    /// Wildcard rules tick one counter from every rank's sends, in
    /// thread-schedule order: only the results are deterministic.
    ResultsOnly,
}

/// A blocking collective *is* its request, posted and completed in one
/// call: at `p ∈ {1, 2, 3, 5, 8}`, non-zero roots and all four
/// policies, `ibcast(..).wait()` gives every rank the results (or
/// typed errors) of `bcast`, with a strict `allgatherv` after it, on
/// every plan — and, wherever the thread-backed sim is deterministic,
/// the same per-rank virtual clocks to the bit and the same per-rank
/// trace streams up to the op tag.
#[test]
fn fault_free_requests_are_bit_identical_to_blocking() {
    let parse = |json: String| FaultPlan::from_json(&json).expect("valid plan");
    for size in [1usize, 2, 3, 5, 8] {
        let root = size / 2;
        let (src, dst) = (root, (root + 1) % size);
        let mut plans = vec![
            (
                "fault-free".to_owned(),
                FaultPlan::none(),
                Pinned::Everything,
            ),
            (
                "drop, one pair".to_owned(),
                parse(format!(
                    r#"{{"drops": [{{"src": {src}, "dst": {dst}, "every": 2,
                        "max_retries": 3, "backoff_seconds": 0.001}}]}}"#
                )),
                Pinned::ButDurations,
            ),
            (
                "delay, one pair".to_owned(),
                parse(format!(
                    r#"{{"delays": [{{"src": {src}, "dst": {dst}, "every": 2,
                        "seconds": 0.002}}]}}"#
                )),
                Pinned::ButDurations,
            ),
            (
                "drop, any pair".to_owned(),
                parse(r#"{"drops": [{"every": 3, "max_retries": 4}]}"#.to_owned()),
                Pinned::ResultsOnly,
            ),
            (
                "delay, any pair".to_owned(),
                parse(r#"{"delays": [{"every": 3, "seconds": 0.0005}]}"#.to_owned()),
                Pinned::ResultsOnly,
            ),
        ];
        // The victim fail-stops entering its 1st op (the barrier: the
        // death is settled before any collective), its 2nd (inside the
        // first broadcast) or its 3rd (inside the first all-gather).
        for (what, after_ops) in [("settled", 0u64), ("mid-bcast", 1), ("mid-allgatherv", 2)] {
            for victim in [size - 1, root] {
                let deaths = vec![DeathRule {
                    rank: victim,
                    after_ops,
                }];
                plans.push((
                    format!("{what} death of rank {victim}"),
                    FaultPlan {
                        deaths,
                        ..FaultPlan::default()
                    },
                    Pinned::Everything,
                ));
            }
        }
        for (name, policy) in [
            ("hub", AlgorithmPolicy::hub()),
            ("ring", AlgorithmPolicy::ring()),
            ("tree", AlgorithmPolicy::tree()),
            ("auto", AlgorithmPolicy::auto()),
        ] {
            for (label, plan, pinned) in &plans {
                let at = format!("p={size} root={root} {name}, {label}");
                let blocking = run_form(false, size, root, policy, plan);
                let requests = run_form(true, size, root, policy, plan);
                assert_eq!(blocking.results, requests.results, "{at}: results");
                let durations = match pinned {
                    Pinned::Everything => true,
                    Pinned::ButDurations => false,
                    Pinned::ResultsOnly => continue,
                };
                assert_eq!(
                    blocking.lines(durations),
                    requests.lines(durations),
                    "{at}: streams"
                );
                for (rank, (b, r)) in blocking.clocks.iter().zip(&requests.clocks).enumerate() {
                    let agree = if durations {
                        r.to_bits() == b.to_bits()
                    } else {
                        r <= b
                    };
                    assert!(agree, "{at}: rank {rank} clock: requests {r}, blocking {b}");
                }
            }
        }
    }
}

/// Compute credited between post and `wait` hides communication: the
/// pipelined virtual makespan is strictly smaller than post-compute
/// (blocking order) and never smaller than the compute alone.
#[test]
fn advance_compute_overlaps_collective_cost() {
    for policy in all_policies() {
        let vtime_of = |overlap: bool| {
            let (comms, handle) = RuntimeConfig::sim(4, LinkModel::ethernet())
                .with_algorithms(policy)
                .build_with_handle(4);
            let out = run_ranks(comms, move |mut c| -> Result<(), RuntimeError> {
                let payload = vec![3u64; 4096];
                let compute = 0.5;
                for _ in 0..4 {
                    if overlap {
                        let req =
                            c.ibcast::<Vec<u64>>(0, (c.rank() == 0).then_some(&payload))?;
                        c.advance_compute(compute)?;
                        req.wait()?;
                    } else {
                        c.bcast::<Vec<u64>>(0, (c.rank() == 0).then_some(&payload))?;
                        c.advance_compute(compute)?;
                    }
                }
                Ok(())
            });
            out.into_iter().for_each(|r| r.unwrap());
            handle.virtual_time().unwrap()
        };
        let blocking = vtime_of(false);
        let pipelined = vtime_of(true);
        assert!(
            pipelined < blocking,
            "policy {policy:?}: pipelined {pipelined} !< blocking {blocking}"
        );
        assert!(
            pipelined >= 4.0 * 0.5,
            "policy {policy:?}: pipelined {pipelined} below pure compute"
        );
    }
}

/// Soak for `park`'s poll→sleep hand-off (`docs/PERFORMANCE.md`): a
/// wake-up landing between a failed poll and the sleep used to cost
/// the waiter a full 50 ms tick. Two threaded ranks run 50 000
/// broadcasts, as requests and as blocking calls, and 50 000 blocking
/// all-gathers per schedule, counting operations that took a tick or
/// longer.
/// What is left is the host descheduling a thread, which comes in
/// bursts, where a lost wake-up strikes at any time (before the fix
/// the request forms slept in 8 to 10 of the ten 5 000-round
/// stretches, 26 to 168 times in all) — so the bound is on stretches
/// hit, not on the count. Run
/// with `cargo test --release -p fupermod-runtime --test requests --
/// --ignored --nocapture`.
#[test]
#[ignore = "soak: 600 000 collectives on two threads, about half a minute in release"]
fn waits_do_not_stall_on_the_poll_tick() {
    const OPS: u64 = 50_000;
    const STRETCH: u64 = OPS / 10;
    let tick = std::time::Duration::from_millis(45);
    for (name, policy) in [
        ("hub", AlgorithmPolicy::hub()),
        ("ring", AlgorithmPolicy::ring()),
        ("tree", AlgorithmPolicy::tree()),
    ] {
        for requests in [true, false] {
            let comms = RuntimeConfig::thread().with_algorithms(policy).build(2);
            // Per rank: slow broadcasts, slow all-gathers, stretches hit.
            let stalls = run_ranks(comms, |mut c| -> Result<(u32, u32, u16), RuntimeError> {
                let (mut bcasts, mut allgathers, mut stretches) = (0, 0, 0u16);
                for i in 0..OPS {
                    let root = (i % 2) as usize;
                    let value = (c.rank() == root).then_some(&i);
                    let began = std::time::Instant::now();
                    let got = if requests {
                        c.ibcast(root, value)?.wait()?
                    } else {
                        c.bcast(root, value)?
                    };
                    let bcast_slow = began.elapsed() >= tick;
                    assert_eq!(got, i);
                    let began = std::time::Instant::now();
                    let all = c.allgatherv(&i)?;
                    let allgather_slow = began.elapsed() >= tick;
                    assert_eq!(all, [i, i]);
                    bcasts += u32::from(bcast_slow);
                    allgathers += u32::from(allgather_slow);
                    stretches |= u16::from(bcast_slow || allgather_slow) << (i / STRETCH);
                }
                Ok((bcasts, allgathers, stretches))
            });
            let (bcasts, allgathers, stretches) = stalls
                .into_iter()
                .map(|r| r.expect("fault-free soak"))
                .fold((0, 0, 0), |sum, s| (sum.0 + s.0, sum.1 + s.1, sum.2 | s.2));
            let form = if requests { "requests" } else { "blocking" };
            println!(
                "{name:>4} {form}: {bcasts} bcast + {allgathers} allgatherv of 2 x {OPS} took \
                 >= 45 ms, in {} of 10 stretches",
                stretches.count_ones()
            );
            assert!(
                stretches.count_ones() <= 3,
                "{name} {form}: operations slept a tick in {} of 10 stretches",
                stretches.count_ones()
            );
        }
    }
}
