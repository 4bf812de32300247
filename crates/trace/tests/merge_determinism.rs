//! End-to-end determinism of the causal merge, against the real
//! runtime.
//!
//! The Lamport stamps the runtime records are a function of the
//! program's communication *structure*, not of its schedule — so:
//!
//! * the same workload traced twice on the **sim** backend merges to
//!   the *identical* timeline up to per-op virtual `seconds` (the
//!   virtual clocks settle contention in real arrival order, so the
//!   per-op split of a collective's cost can jitter between runs —
//!   but the stamps, payload sizes, schedules and round counts are
//!   exact);
//! * the same workload traced twice on the **thread** backend merges
//!   to the identical *causal structure* (wall-clock seconds differ,
//!   but every `(event, rank, op, lamport, gen)` key matches);
//! * physically re-interleaving one trace into per-rank files, or
//!   reading it back through JSONL files on disk, does not change the
//!   merged order;
//! * survivor traces from a run where a rank **dies** under a
//!   `FaultPlan` still merge into a gap-free, causally consistent
//!   timeline: all participants of every surviving collective carry
//!   the same stamp, and no event of a live rank is lost;
//! * per-process trace files from a **TCP** run — each rank a
//!   separate data plane joined only by sockets, each with its own
//!   private sink, the real multi-process layout — stitch into one
//!   gap-free causally ordered timeline whose structure matches the
//!   threaded backend's.

use std::sync::Arc;

use fupermod_core::trace::{MemorySink, TraceEvent};
use fupermod_platform::comm::LinkModel;
use fupermod_runtime::{
    run_ranks, AlgorithmPolicy, Communicator, FaultPlan, ReduceOp, RuntimeConfig, RuntimeError,
};
use fupermod_trace::merge::{merge_events, Merge, StampedEvent};

/// A smorgasbord workload: collectives interleaved with point-to-point
/// traffic, so the trace exercises every stamp rule (tick, piggyback
/// merge, barrier join).
fn workload(mut c: impl Communicator) -> Result<(), RuntimeError> {
    let rank = c.rank();
    let size = c.size();
    c.barrier()?;
    let root_val = (rank == 0).then(|| vec![1.0f64, 2.0, 3.0]);
    let _ = c.bcast(0, root_val.as_ref())?;
    // A p2p ring: rank r sends to (r+1) % size, receives from its
    // predecessor. Even ranks send first to avoid deadlock.
    let next = (rank + 1) % size;
    let prev = (rank + size - 1) % size;
    let token = vec![rank as f64; 4];
    if rank.is_multiple_of(2) {
        c.send(next, &token)?;
        let _: Vec<f64> = c.recv(prev)?;
    } else {
        let _: Vec<f64> = c.recv(prev)?;
        c.send(next, &token)?;
    }
    let _ = c.allreduce(rank as f64, ReduceOp::Sum)?;
    let _ = c.allgatherv(&token)?;
    c.barrier()?;
    Ok(())
}

/// Runs the workload on `config` with a shared in-memory sink and
/// returns the recorded events in file order.
fn traced_run(config: RuntimeConfig, size: usize) -> Vec<TraceEvent> {
    let sink = Arc::new(MemorySink::new());
    let comms = config.with_trace(sink.clone()).build(size);
    let results = run_ranks(comms, workload);
    for (rank, r) in results.into_iter().enumerate() {
        r.unwrap_or_else(|e| panic!("rank {rank} failed: {e}"));
    }
    sink.events()
}

/// The causal structure of a merged timeline: everything except
/// wall-clock-dependent payloads.
fn structure(merged: &[StampedEvent]) -> Vec<(String, usize, String, u64, u64)> {
    merged
        .iter()
        .map(|s| {
            let op = match &s.event {
                TraceEvent::Comm { op, .. } => op.clone(),
                TraceEvent::Fault { kind, .. } => kind.clone(),
                _ => String::new(),
            };
            (s.event.name().to_owned(), s.rank, op, s.lamport, s.gen)
        })
        .collect()
}

/// Splits one mixed-rank event list into per-rank lists (preserving
/// each rank's file order) — the "one trace file per rank" layout.
fn split_by_rank(events: &[TraceEvent]) -> Vec<Vec<TraceEvent>> {
    let mut by_rank: Vec<Vec<TraceEvent>> = Vec::new();
    for e in events {
        let r = fupermod_trace::event_rank(e);
        if r >= by_rank.len() {
            by_rank.resize_with(r + 1, Vec::new);
        }
        by_rank[r].push(e.clone());
    }
    by_rank
}

/// An event with its wall/virtual `seconds` zeroed: everything the
/// causal merge is *supposed* to pin down exactly.
fn shape(e: &TraceEvent) -> TraceEvent {
    let mut e = e.clone();
    if let TraceEvent::Comm { seconds, .. } = &mut e {
        *seconds = 0.0;
    }
    e
}

#[test]
fn sim_runs_merge_identically_up_to_clock_jitter() {
    let size = 5;
    let config = || {
        RuntimeConfig::sim(size, LinkModel::ethernet()).with_algorithms(AlgorithmPolicy::ring())
    };
    let a = merge_events(vec![traced_run(config(), size)]);
    let b = merge_events(vec![traced_run(config(), size)]);
    assert_eq!(a.len(), b.len());
    // The merged timelines agree event-for-event: same order, same
    // stamps, same ops/peers/bytes/schedules/rounds. (Per-op virtual
    // `seconds` may jitter: the sim settles link contention in real
    // arrival order.)
    let ea: Vec<TraceEvent> = a.iter().map(|s| shape(&s.event)).collect();
    let eb: Vec<TraceEvent> = b.iter().map(|s| shape(&s.event)).collect();
    assert_eq!(ea, eb);
}

#[test]
fn thread_runs_merge_to_identical_causal_structure() {
    let size = 4;
    // Tree schedules + threads: maximal real nondeterminism in the
    // physical event interleaving.
    let config = || RuntimeConfig::thread().with_algorithms(AlgorithmPolicy::tree());
    let a = merge_events(vec![traced_run(config(), size)]);
    let b = merge_events(vec![traced_run(config(), size)]);
    assert_eq!(structure(&a), structure(&b));
}

#[test]
fn per_rank_file_layout_does_not_change_the_merge() {
    let size = 4;
    let events = traced_run(
        RuntimeConfig::sim(size, LinkModel::ethernet()),
        size,
    );
    let single = merge_events(vec![events.clone()]);
    let split = merge_events(split_by_rank(&events));
    let se: Vec<&TraceEvent> = single.iter().map(|s| &s.event).collect();
    let pe: Vec<&TraceEvent> = split.iter().map(|s| &s.event).collect();
    assert_eq!(se, pe);
}

#[test]
fn streaming_file_merge_matches_in_memory_merge() {
    let size = 3;
    let events = traced_run(
        RuntimeConfig::sim(size, LinkModel::ethernet()),
        size,
    );
    // Write per-rank JSONL files to a scratch directory.
    let dir = std::env::temp_dir().join(format!(
        "fupermod-merge-test-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let mut paths = Vec::new();
    for (r, rank_events) in split_by_rank(&events).into_iter().enumerate() {
        let path = dir.join(format!("rank{r}.trace.jsonl"));
        let mut text = String::from("{\"trace\":\"fupermod\",\"schema\":3}\n");
        for e in &rank_events {
            text.push_str(&e.to_jsonl());
            text.push('\n');
        }
        std::fs::write(&path, text).unwrap();
        paths.push(path);
    }

    let streamed: Vec<StampedEvent> = Merge::open(&paths)
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    let in_memory = merge_events(vec![events]);
    let se: Vec<&TraceEvent> = streamed.iter().map(|s| &s.event).collect();
    let me: Vec<&TraceEvent> = in_memory.iter().map(|s| &s.event).collect();
    assert_eq!(se, me);

    std::fs::remove_dir_all(&dir).ok();
}

/// Runs [`workload`] on `world` TCP ranks — one thread per rank, but
/// each holding its own *full data plane* joined only over loopback
/// sockets, each writing to its own private sink. This is the
/// multi-process trace layout: no rank ever sees another's events.
fn tcp_traced_run(world: usize) -> Vec<Vec<TraceEvent>> {
    use fupermod_runtime::net::{connect, connect_with_listener, TcpConfig};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener addr").to_string();
    let sinks: Vec<Arc<MemorySink>> = (0..world).map(|_| Arc::new(MemorySink::new())).collect();
    let mut listener = Some(listener);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..world)
            .map(|rank| {
                let cfg = TcpConfig::new(rank, world, addr.clone())
                    .with_trace(sinks[rank].clone())
                    .with_boot_timeout(std::time::Duration::from_secs(20));
                let listener = (rank == 0).then(|| listener.take().expect("rank 0 listener"));
                s.spawn(move || {
                    let comm = match listener {
                        Some(l) => connect_with_listener(cfg, l),
                        None => connect(cfg),
                    }
                    .unwrap_or_else(|e| panic!("rank {rank} failed to connect: {e}"));
                    // `workload` consumes the handle; drop tears the
                    // rank down gracefully (BYE to peers).
                    workload(comm)
                })
            })
            .collect();
        for (rank, h) in handles.into_iter().enumerate() {
            h.join()
                .expect("rank thread panicked")
                .unwrap_or_else(|e| panic!("tcp rank {rank} failed: {e}"));
        }
    });
    sinks.iter().map(|s| s.events()).collect()
}

#[test]
fn tcp_per_process_traces_stitch_into_one_causal_timeline() {
    let world = 4;
    let per_rank = tcp_traced_run(world);
    for (r, events) in per_rank.iter().enumerate() {
        assert!(!events.is_empty(), "rank {r} produced no events");
        assert!(
            events.iter().all(|e| fupermod_trace::event_rank(e) == r),
            "rank {r}'s private sink holds another rank's events"
        );
    }

    // Round-trip through per-rank JSONL files and the streaming merge
    // — exactly the `fupermod_tracetool merge` path over the files a
    // real multi-process run leaves behind.
    let dir = std::env::temp_dir().join(format!("fupermod-tcp-stitch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut paths = Vec::new();
    for (r, rank_events) in per_rank.iter().enumerate() {
        let path = dir.join(format!("rank{r}.trace.jsonl"));
        let mut text = String::from("{\"trace\":\"fupermod\",\"schema\":3}\n");
        for e in rank_events {
            text.push_str(&e.to_jsonl());
            text.push('\n');
        }
        std::fs::write(&path, text).unwrap();
        paths.push(path);
    }
    let merged: Vec<StampedEvent> = Merge::open(&paths)
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        merged.len(),
        per_rank.iter().map(Vec::len).sum::<usize>(),
        "merge lost or duplicated events"
    );

    // Causal order: keys never go backwards.
    let keys: Vec<(u64, u64, usize)> = merged
        .iter()
        .map(|s| (s.lamport, s.gen, s.rank))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "stitched timeline is out of causal order");

    // Gap-free: fault-free run, so every collective generation must
    // carry *all* ranks, all with the same Lamport stamp.
    use std::collections::BTreeMap;
    let mut by_gen: BTreeMap<(u64, String), Vec<(usize, u64)>> = BTreeMap::new();
    for s in &merged {
        if let TraceEvent::Comm { op, .. } = &s.event {
            if !matches!(op.as_str(), "send" | "recv") {
                by_gen
                    .entry((s.gen, op.clone()))
                    .or_default()
                    .push((s.rank, s.lamport));
            }
        }
    }
    assert!(!by_gen.is_empty(), "no collectives traced");
    for ((gen, op), members) in &by_gen {
        let lamports: Vec<u64> = members.iter().map(|&(_, l)| l).collect();
        assert!(
            lamports.windows(2).all(|w| w[0] == w[1]),
            "collective gen {gen} ({op}) has inconsistent stamps: {members:?}"
        );
        let mut ranks: Vec<usize> = members.iter().map(|&(r, _)| r).collect();
        ranks.sort_unstable();
        assert_eq!(
            ranks,
            (0..world).collect::<Vec<_>>(),
            "collective gen {gen} ({op}) is missing a rank"
        );
    }

    // Same workload on the threaded backend: identical causal
    // structure, socket hops and all.
    let threaded = merge_events(split_by_rank(&traced_run(RuntimeConfig::thread(), world)));
    assert_eq!(
        structure(&merged),
        structure(&threaded),
        "tcp stitch diverges from the threaded backend's causal structure"
    );
}

#[test]
fn survivor_traces_merge_gap_free_after_rank_death() {
    let size = 5;
    let victim = 4usize;
    let plan = FaultPlan::from_json(&format!(
        r#"{{"deadline": 20.0, "deaths": [{{"rank": {victim}, "after_ops": 1}}]}}"#
    ))
    .unwrap();

    let sink = Arc::new(MemorySink::new());
    let comms = RuntimeConfig::thread()
        .with_plan(plan)
        .with_trace(sink.clone())
        .build(size);
    let results = run_ranks(comms, |mut c| -> Result<(), RuntimeError> {
        let rank = c.rank();
        c.barrier()?; // victim completes this, then dies
        c.barrier()?; // survivors observe the death
        let _ = c.allreduce(rank as f64, ReduceOp::Sum)?;
        // `_available`: the strict variant refuses dead peers.
        let _ = c.allgatherv_available(&vec![rank as f64; 3])?;
        c.barrier()?;
        Ok(())
    });
    for (rank, r) in results.into_iter().enumerate() {
        match r {
            Ok(()) => assert_ne!(rank, victim, "victim unexpectedly survived"),
            Err(_) => assert_eq!(rank, victim, "unexpected survivor failure"),
        }
    }

    let merged = merge_events(split_by_rank(&sink.events()));

    // Causal order: keys never go backwards.
    let keys: Vec<(u64, u64, usize)> = merged
        .iter()
        .map(|s| (s.lamport, s.gen, s.rank))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "merged timeline is out of causal order");

    // Gap-free: every collective generation recorded by one survivor
    // was recorded by all ranks live at that point, with the same
    // Lamport stamp.
    use std::collections::BTreeMap;
    let mut by_gen: BTreeMap<(u64, String), Vec<(usize, u64)>> = BTreeMap::new();
    for s in &merged {
        if let TraceEvent::Comm { op, .. } = &s.event {
            if !matches!(op.as_str(), "send" | "recv") {
                by_gen
                    .entry((s.gen, op.clone()))
                    .or_default()
                    .push((s.rank, s.lamport));
            }
        }
    }
    assert!(!by_gen.is_empty(), "no collectives traced");
    let mut saw_post_death_group = false;
    for ((gen, op), members) in &by_gen {
        let lamports: Vec<u64> = members.iter().map(|&(_, l)| l).collect();
        assert!(
            lamports.windows(2).all(|w| w[0] == w[1]),
            "collective gen {gen} ({op}) has inconsistent stamps: {members:?}"
        );
        let ranks: Vec<usize> = members.iter().map(|&(r, _)| r).collect();
        if !ranks.contains(&victim) {
            saw_post_death_group = true;
            // Survivors only — and *all* of them.
            assert_eq!(
                ranks.len(),
                size - 1,
                "post-death collective gen {gen} ({op}) lost a survivor: {ranks:?}"
            );
        }
    }
    assert!(
        saw_post_death_group,
        "expected at least one post-death collective"
    );
}

/// A file holding several runs restarts its ranks' Lamport clocks at
/// each run, so stamps are not monotone within a rank. The in-memory
/// merge must still emit what the file merge emits — each rank's runs
/// in file order — rather than hoisting a later run's low stamps above
/// an earlier run's high ones, as a global sort by key does.
#[test]
fn multi_run_file_merges_like_the_file_merge() {
    let mut events = Vec::new();
    for run in 0..3 {
        for lamport in [2, 5, 9] {
            for rank in [1, 0] {
                events.push(TraceEvent::Comm {
                    rank,
                    op: "barrier".to_owned(),
                    peer: -1,
                    bytes: 8,
                    seconds: 1e-6,
                    algorithm: "hub".to_owned(),
                    rounds: 2,
                    lamport,
                    gen: run,
                });
            }
        }
    }
    let dir = std::env::temp_dir().join(format!("fupermod-multirun-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("runs.trace.jsonl");
    let mut text = String::from("{\"trace\":\"fupermod\",\"schema\":3}\n");
    for e in &events {
        text.push_str(&e.to_jsonl());
        text.push('\n');
    }
    std::fs::write(&path, text).unwrap();
    let streamed: Vec<StampedEvent> = Merge::open(std::slice::from_ref(&path))
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let in_memory = merge_events(vec![events]);
    assert_eq!(in_memory, streamed);
    for rank in [0, 1] {
        let gens: Vec<u64> = in_memory
            .iter()
            .filter(|s| s.rank == rank)
            .map(|s| s.gen)
            .collect();
        assert_eq!(
            gens,
            [0, 0, 0, 1, 1, 1, 2, 2, 2],
            "rank {rank}'s runs out of file order"
        );
    }
}
