//! The TCP transport against the in-process backends, over real
//! loopback sockets.
//!
//! Each "process" of the job is a thread of this test binary holding
//! its own full data plane — nothing is shared but the sockets, so
//! the coverage is the real multi-process wire path (rendezvous,
//! frames, reader threads, hub barrier) without the flakiness of
//! spawning executables. The contract under test:
//!
//! * every collective, under every [`AlgorithmPolicy`], produces
//!   **bitwise** the transcript of the threaded backend;
//! * recoverable sender-side fault injection (delays, stragglers,
//!   drops absorbed by retry) changes no answer;
//! * a peer's graceful exit maps onto the agreed-membership death
//!   path: survivors agree, the dead slot is `None`;
//! * the per-operation deadline is anchored at **operation entry** on
//!   both backends — a multi-receive collective gets one deadline,
//!   not one per internal receive (regression test for the op-entry
//!   anchoring fix).

use std::net::TcpListener;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use fupermod_runtime::net::{connect, connect_with_listener, TcpComm, TcpConfig};
use fupermod_runtime::{
    run_ranks, AlgorithmPolicy, Communicator, FaultPlan, Progress, ReduceOp, Request,
    RuntimeConfig, RuntimeError, ThreadedComm,
};

/// Runs `world` TCP ranks as threads of this process, each with its
/// own data plane, joined over loopback. `f` runs per rank; returning
/// early (Ok or Err) tears that rank down gracefully (BYE to peers).
fn run_tcp<T, F>(
    world: usize,
    policy: AlgorithmPolicy,
    plan: &FaultPlan,
    f: F,
) -> Vec<Result<T, RuntimeError>>
where
    T: Send,
    F: Fn(&mut TcpComm) -> Result<T, RuntimeError> + Sync,
{
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener addr").to_string();
    let mut listener = Some(listener);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..world)
            .map(|rank| {
                let cfg = TcpConfig::new(rank, world, addr.clone())
                    .with_algorithms(policy)
                    .with_plan(plan.clone())
                    .with_boot_timeout(Duration::from_secs(20));
                let listener = (rank == 0).then(|| listener.take().expect("rank 0 listener"));
                let f = &f;
                s.spawn(move || {
                    let mut comm = match listener {
                        Some(l) => connect_with_listener(cfg, l)?,
                        None => connect(cfg)?,
                    };
                    let result = f(&mut comm);
                    comm.shutdown();
                    result
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

/// Deterministic pseudo-random payload for `(seed, rank)` (the parity
/// suite's generator: full-mantissa noise, so float-identity bugs
/// cannot hide behind round numbers).
fn payload(seed: u64, rank: usize, len: usize) -> Vec<f64> {
    let mut state = seed ^ (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 1e3 - 500.0
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// What one rank observed from a full sweep of the collective API,
/// floats as bits so equality is bitwise.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Transcript {
    bcast: Vec<u64>,
    scatter: Vec<u64>,
    gather_root: Option<Vec<Vec<u64>>>,
    allgather: Vec<Vec<u64>>,
    allgather_avail: Vec<Option<Vec<u64>>>,
    sum: u64,
    max: u64,
}

/// Runs every collective once on `c` (any backend) and records the
/// results.
fn sweep<C: Communicator>(
    c: &mut C,
    seed: u64,
    root: usize,
    len: usize,
) -> Result<Transcript, RuntimeError> {
    let rank = c.rank();
    let size = c.size();
    c.barrier()?;

    let own = payload(seed, rank, len);
    let bcast = c.bcast(root, (rank == root).then_some(&own))?;

    let parts: Option<Vec<Vec<f64>>> = (rank == root)
        .then(|| (0..size).map(|r| payload(seed ^ 0xABCD, r, (r + len) % 5)).collect());
    let scatter = c.scatterv(root, parts.as_deref())?;

    let gather_root = c.gatherv(root, &own)?;
    let allgather = c.allgatherv(&own)?;
    let allgather_avail = c.allgatherv_available(&own)?;

    let contribution = own.first().copied().unwrap_or(0.125 * (rank as f64 + 1.0));
    let sum = c.allreduce(contribution, ReduceOp::Sum)?;
    let max = c.allreduce(contribution, ReduceOp::Max)?;
    c.barrier()?;

    Ok(Transcript {
        bcast: bits(&bcast),
        scatter: bits(&scatter),
        gather_root: gather_root.map(|g| g.iter().map(|v| bits(v)).collect()),
        allgather: allgather.iter().map(|v| bits(v)).collect(),
        allgather_avail: allgather_avail
            .into_iter()
            .map(|s| s.map(|v| bits(&v)))
            .collect(),
        sum: sum.to_bits(),
        max: max.to_bits(),
    })
}

/// The threaded-backend reference transcript.
fn threaded_baseline(
    policy: AlgorithmPolicy,
    size: usize,
    seed: u64,
    root: usize,
    len: usize,
) -> Vec<Transcript> {
    let comms = RuntimeConfig::thread().with_algorithms(policy).build(size);
    run_ranks(comms, |mut c| sweep(&mut c, seed, root, len))
        .into_iter()
        .map(|r| r.expect("fault-free threaded sweep failed"))
        .collect()
}

#[test]
fn tcp_send_recv_round_trip() {
    let out = run_tcp(
        2,
        AlgorithmPolicy::default(),
        &FaultPlan::none(),
        |c| -> Result<Vec<u64>, RuntimeError> {
            if c.rank() == 0 {
                c.send(1, &vec![1.5f64, -2.25, 3.125])?;
                let echoed: Vec<f64> = c.recv(1)?;
                let empty: Vec<f64> = c.recv(1)?; // zero-byte payload
                assert!(empty.is_empty());
                Ok(bits(&echoed))
            } else {
                let got: Vec<f64> = c.recv(0)?;
                c.send(0, &got)?;
                c.send(0, &Vec::<f64>::new())?;
                Ok(bits(&got))
            }
        },
    );
    let a = out[0].as_ref().expect("rank 0 failed");
    let b = out[1].as_ref().expect("rank 1 failed");
    assert_eq!(a, b);
    assert_eq!(a, &bits(&[1.5, -2.25, 3.125]));
}

#[test]
fn tcp_collectives_bitwise_match_threaded_under_every_policy() {
    let (world, seed, root, len) = (4usize, 515253u64, 1usize, 5usize);
    for (name, policy) in [
        ("hub", AlgorithmPolicy::hub()),
        ("ring", AlgorithmPolicy::ring()),
        ("tree", AlgorithmPolicy::tree()),
        ("auto", AlgorithmPolicy::auto()),
    ] {
        let baseline = threaded_baseline(policy, world, seed, root, len);
        let got: Vec<Transcript> = run_tcp(world, policy, &FaultPlan::none(), |c| {
            sweep(c, seed, root, len)
        })
        .into_iter()
        .map(|r| r.expect("fault-free tcp sweep failed"))
        .collect();
        assert_eq!(got, baseline, "tcp policy {name} diverges from threaded");
    }
}

/// The request API over sockets. Every TCP `bcast` is its request
/// completed in place; here the requests are driven the way only a
/// caller can: `wait` after the post, and `test` polled to completion.
#[test]
fn tcp_requests_bitwise_match_threaded_under_every_policy() {
    fn program(c: &ThreadedComm) -> Result<(Vec<u64>, Vec<Vec<u64>>), RuntimeError> {
        let (rank, root) = (c.rank(), 1);
        let own = payload(99, rank, 6);
        let value = c.ibcast(root, (rank == root).then_some(&own))?.wait()?;
        let mut pending = c.ibcast(0, (rank == 0).then_some(&own))?;
        let polled = loop {
            match pending.test()? {
                Progress::Ready(polled) => break polled,
                Progress::Pending(again) => {
                    pending = again;
                    std::thread::yield_now();
                }
            }
        };
        Ok((bits(&value), vec![bits(&polled)]))
    }
    for (name, policy) in [
        ("hub", AlgorithmPolicy::hub()),
        ("ring", AlgorithmPolicy::ring()),
        ("tree", AlgorithmPolicy::tree()),
    ] {
        let comms = RuntimeConfig::thread().with_algorithms(policy).build(2);
        let threaded: Vec<_> = run_ranks(comms, |c| program(&c))
            .into_iter()
            .map(|r| r.expect("threaded requests failed"))
            .collect();
        let tcp: Vec<_> = run_tcp(2, policy, &FaultPlan::none(), |c| program(c))
            .into_iter()
            .map(|r| r.expect("tcp requests failed"))
            .collect();
        assert_eq!(
            tcp, threaded,
            "tcp requests under {name} diverge from threaded"
        );
        assert_eq!(
            tcp[0].0,
            bits(&payload(99, 1, 6)),
            "{name}: root's value lost"
        );
    }
}

#[test]
fn tcp_recoverable_faults_do_not_change_any_result() {
    let (world, seed, root, len) = (3usize, 808u64, 2usize, 6usize);
    let plan = FaultPlan::from_json(
        r#"{"deadline": 20.0,
            "delays": [{"every": 3, "seconds": 0.0002}],
            "drops": [{"every": 7, "max_retries": 6, "backoff_seconds": 0.0001}],
            "stragglers": [{"rank": 1, "comm_seconds": 0.0001, "compute_factor": 1.0}]}"#,
    )
    .expect("valid plan");
    let baseline = threaded_baseline(AlgorithmPolicy::hub(), world, seed, root, len);
    let got: Vec<Transcript> = run_tcp(world, AlgorithmPolicy::hub(), &plan, |c| {
        sweep(c, seed, root, len)
    })
    .into_iter()
    .map(|r| r.expect("recoverable faults must not surface as errors"))
    .collect();
    assert_eq!(got, baseline, "tcp transcript diverges under recoverable faults");
}

/// What each survivor observed after the victim's exit:
/// `allgatherv_available` slots (bits) and the fold result (bits).
type SurvivorView = (Vec<Option<Vec<u64>>>, u64);

#[test]
fn tcp_graceful_exit_maps_onto_agreed_death() {
    let world = 3usize;
    let victim = 2usize;
    let out = run_tcp(
        world,
        AlgorithmPolicy::hub(),
        &FaultPlan::none(),
        |c| -> Result<Option<SurvivorView>, RuntimeError> {
            let rank = c.rank();
            c.barrier()?;
            if rank == victim {
                // Early return: the helper tears this rank down (BYE)
                // while its peers keep working.
                return Ok(None);
            }
            c.barrier()?; // completes once the victim's goodbye lands
            let own = vec![rank as f64 + 0.5; 2];
            let slots = c.allgatherv_available(&own)?;
            let sum = c.allreduce(own[0], ReduceOp::Sum)?;
            Ok(Some((
                slots.into_iter().map(|s| s.map(|v| bits(&v))).collect(),
                sum.to_bits(),
            )))
        },
    );
    let mut survivors = Vec::new();
    for (rank, r) in out.into_iter().enumerate() {
        match r.unwrap_or_else(|e| panic!("rank {rank} failed: {e}")) {
            Some(t) => survivors.push(t),
            None => assert_eq!(rank, victim),
        }
    }
    assert_eq!(survivors.len(), world - 1);
    let (slots, sum) = &survivors[0];
    for t in &survivors {
        assert_eq!(t, &survivors[0], "survivors disagree after graceful exit");
    }
    assert!(slots[victim].is_none(), "departed rank's slot must be None");
    assert!(slots[0].is_some() && slots[1].is_some(), "live slots lost");
    assert_eq!(*sum, (0.5f64 + 1.5).to_bits(), "fold covered wrong members");
}

/// The plan's deadline in [`deadline_is_anchored_at_op_entry_on_both_backends`].
const DEADLINE: Duration = Duration::from_millis(400);

/// The op-entry deadline regression: root's `gatherv` performs its
/// internal receives sequentially, so with receives arriving 5/8 and
/// 11/8 of the deadline after root enters it, a deadline anchored at
/// *operation entry* must fire — while a (buggy) per-receive anchor
/// would grant the second receive a fresh deadline from 5/8 and let
/// the whole collective take 11/8. Both backends must agree.
///
/// The senders time their sends from root's entry, which root records
/// in `entered` just before the call, so a host that schedules a rank
/// late can only make a send later: the deadline still fires.
fn deadline_workload(
    c: &mut impl Communicator,
    root: usize,
    entered: &OnceLock<Instant>,
) -> Result<(), RuntimeError> {
    let rank = c.rank();
    c.barrier()?;
    if rank == root {
        entered.set(Instant::now()).expect("one root");
    } else {
        let eighths = if rank == 0 { 5 } else { 11 };
        let send_at = loop {
            match entered.get() {
                Some(at) => break *at + DEADLINE * eighths / 8,
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        std::thread::sleep(send_at.saturating_duration_since(Instant::now()));
    }
    let _ = c.gatherv(root, &vec![rank as f64; 2])?;
    Ok(())
}

#[test]
fn deadline_is_anchored_at_op_entry_on_both_backends() {
    let world = 3usize;
    let root = 1usize; // not the barrier hub, so survivors settle cleanly
    let plan = FaultPlan::from_json(&format!(r#"{{"deadline": {}}}"#, DEADLINE.as_secs_f64()))
        .expect("valid plan");

    let threaded = {
        let comms = RuntimeConfig::thread()
            .with_plan(plan.clone())
            .with_algorithms(AlgorithmPolicy::hub())
            .build(world);
        let entered = OnceLock::new();
        run_ranks(comms, |mut c| deadline_workload(&mut c, root, &entered))
    };
    let entered = OnceLock::new();
    let tcp = run_tcp(world, AlgorithmPolicy::hub(), &plan, |c| {
        deadline_workload(c, root, &entered)
    });

    for (backend, out) in [("threaded", threaded), ("tcp", tcp)] {
        match &out[root] {
            Err(RuntimeError::Timeout { op, rank, .. }) => {
                assert_eq!(*rank, root, "{backend}: wrong timed-out rank");
                assert_eq!(*op, "gatherv", "{backend}: wrong timed-out op");
            }
            other => panic!(
                "{backend}: root must time out under op-entry anchoring, got {other:?}"
            ),
        }
    }
}

/// The transport's telemetry against the schedule: on two ranks under
/// the hub schedules every barrier (a collective's closing one
/// included) is ARRIVE + RELEASE, `send` is one DATA frame, a
/// broadcast is one DATA frame down, and `allgatherv` is the leaf's
/// slot up plus the slot vector down. Teardown adds one BYE each way.
///
/// The registry is process-global and the tests of this binary run
/// concurrently, so the counting happens in a child process that runs
/// [`net_counters_child`] alone.
#[test]
fn net_counters_match_the_schedule_frame_count() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args([
            "--exact",
            "net_counters_child",
            "--ignored",
            "--test-threads",
            "1",
        ])
        .output()
        .expect("spawn child test process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "child failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
#[ignore = "run by net_counters_match_the_schedule_frame_count in a process of its own"]
fn net_counters_child() {
    use fupermod_core::telemetry;
    use fupermod_runtime::collective::encoded_slots_len;
    use fupermod_runtime::Wire;

    const PANEL: usize = 1000;
    let counter = |name: &str, dir: &str| {
        let snap = telemetry::global().snapshot();
        let labels: &[(&str, &str)] = if dir.is_empty() { &[] } else { &[("dir", dir)] };
        match snap.find(name, labels) {
            Some(telemetry::SampleValue::Counter(n)) => *n,
            other => panic!("{name}{{dir={dir:?}}}: {other:?}"),
        }
    };

    // Disabled (the default): a whole job leaves the counters at zero.
    let run = || {
        run_tcp(2, AlgorithmPolicy::hub(), &FaultPlan::none(), |c| {
            let rank = c.rank();
            c.barrier()?;
            if rank == 0 {
                c.send(1, &7u64)?;
            } else {
                let _: u64 = c.recv(0)?;
            }
            let panel = payload(1, 0, PANEL);
            c.bcast(0, (rank == 0).then_some(&panel))?;
            c.allgatherv(&vec![rank as f64; 3])?;
            Ok(())
        })
        .into_iter()
        .for_each(|r| r.expect("fault-free job failed"));
    };
    run();
    assert_eq!(counter("net_frames_total", "tx"), 0);
    assert_eq!(counter("net_payload_bytes_total", "rx"), 0);

    telemetry::global().set_enabled(true);
    run();
    let barriers = 1 + 2; // the explicit one + bcast's and allgatherv's closing ones
    let data_frames = 1 + 1 + 2;
    let byes = 2;
    let frames = 2 * barriers + data_frames + byes;
    let membership = vec![true, true].to_bytes().len() as u64;
    let slot = vec![0.0f64; 3].to_bytes().len() as u64;
    let bytes = barriers * membership
        + 7u64.to_bytes().len() as u64
        + payload(1, 0, PANEL).to_bytes().len() as u64
        + slot
        + encoded_slots_len(2, &[slot; 2]);
    for dir in ["tx", "rx"] {
        assert_eq!(counter("net_frames_total", dir), frames, "frames {dir}");
        assert_eq!(
            counter("net_payload_bytes_total", dir),
            bytes,
            "bytes {dir}"
        );
    }
    assert_eq!(counter("net_crc_rejects_total", ""), 0);

    // A payload damaged on the wire: the reader counts the reject and
    // drops the link, which the application sees as the peer's death.
    use fupermod_runtime::net::frame::{encode_frame, read_frame, write_frame, FrameKind};
    use std::io::Write;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener addr");
    let peer = std::thread::spawn(move || {
        let mut s = std::net::TcpStream::connect(addr).expect("dial rank 0");
        write_frame(&mut s, FrameKind::Hello, 1, 0, 0, 0.0, b"2 127.0.0.1:1").expect("HELLO");
        read_frame(&mut s).expect("read PEERS").expect("PEERS");
        let mut damaged = encode_frame(FrameKind::Data, 1, 0, 0, 0.0, &7u64.to_bytes());
        *damaged.last_mut().expect("payload") ^= 1;
        s.write_all(&damaged).expect("send damaged frame");
        s // stays open until the assertions are done
    });
    let mut c = connect_with_listener(TcpConfig::new(0, 2, addr.to_string()), listener)
        .expect("rank 0 boots");
    match c.recv::<u64>(1) {
        Err(RuntimeError::RankDead { rank: 1, .. }) => {}
        other => panic!("a damaged frame must surface as the peer's death, got {other:?}"),
    }
    assert_eq!(counter("net_crc_rejects_total", ""), 1);
    drop(peer.join().expect("peer thread"));
    c.shutdown();
}
