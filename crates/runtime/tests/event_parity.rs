//! Event-engine parity suite: the discrete-event simulator core must
//! be **bit-identical** to the thread-backed sim wherever the thread
//! backend is deterministic — per-rank virtual clocks, every
//! collective result, per-rank `comm`/`fault` trace streams, and the
//! balancing executor's steps — across `hub`/`ring`/`tree`/`auto`,
//! fault-free, under fail-stop rank death and when a rank fails its
//! part of a collective and leaves, at `p ∈ {1, 3, 4, 6, 16, 64}`
//! (non-powers-of-two included so the binomial/butterfly edge cases
//! are on the hook).
//!
//! This is the contract that makes `--sim-engine` a pure scale knob:
//! switching engines never changes an answer or a virtual timestamp,
//! only how many ranks fit in one host (see `docs/RUNTIME.md` §9).

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

use fupermod_core::dynamic::DynamicContext;
use fupermod_core::model::{Model, PiecewiseModel};
use fupermod_core::partition::GeometricPartitioner;
use fupermod_core::trace::{MemorySink, TraceEvent};
use fupermod_core::{CoreError, Point};
use fupermod_platform::comm::LinkModel;
use fupermod_runtime::sim::RankResults;
use fupermod_runtime::{
    run_ranks, run_to_balance_distributed_with, AlgorithmPolicy, Communicator, EventSim, FaultPlan,
    OverlapMode, ReduceOp, Request, RuntimeConfig, RuntimeError, SimEngine, ThreadedComm,
};
use proptest::prelude::*;

fn policies() -> Vec<(&'static str, AlgorithmPolicy)> {
    vec![
        ("hub", AlgorithmPolicy::hub()),
        ("ring", AlgorithmPolicy::ring()),
        ("tree", AlgorithmPolicy::tree()),
        ("auto", AlgorithmPolicy::auto()),
    ]
}

/// Deterministic pseudo-random payload for `(seed, rank)` — finite
/// doubles with full-mantissa noise so float-identity bugs cannot
/// hide behind round numbers.
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

fn contribution(own: &[f64], rank: usize) -> f64 {
    own.first().copied().unwrap_or(0.125 * (rank as f64 + 1.0))
}

/// Per-rank trace streams: events are compared rank by rank because
/// the thread backend's *global* interleaving is racy while each
/// rank's own sequence is deterministic. Events without a rank field
/// (partition steps, convergence) all come from the root's program
/// and form their own bucket.
fn streams(events: Vec<TraceEvent>) -> BTreeMap<Option<usize>, Vec<String>> {
    let mut out: BTreeMap<Option<usize>, Vec<String>> = BTreeMap::new();
    for e in events {
        let rank = match &e {
            TraceEvent::BenchmarkSample { rank, .. }
            | TraceEvent::BenchmarkDone { rank, .. }
            | TraceEvent::Comm { rank, .. }
            | TraceEvent::Fault { rank, .. }
            | TraceEvent::Metrics { rank, .. } => Some(*rank),
            // ModelUpdate carries the measured rank but is emitted by
            // the root while absorbing, so on the thread backend it
            // races against that rank's own comm events. Bucket it
            // with the other root-emitted events, where ordering is
            // sequential.
            TraceEvent::ModelUpdate { .. }
            | TraceEvent::PartitionStep { .. }
            | TraceEvent::DynamicConverged { .. } => None,
        };
        out.entry(rank).or_default().push(e.to_jsonl());
    }
    out
}

/// The kinds of `fault` event in `events`.
fn fault_kinds(events: &[TraceEvent]) -> BTreeSet<String> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Fault { kind, .. } => Some(kind.clone()),
            _ => None,
        })
        .collect()
}

/// What one rank observed from a full sweep of the collective API,
/// floats stored as bits so equality is bitwise. Errors are compared
/// by display string.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Sweep {
    bcast: Vec<u64>,
    scatter: Vec<u64>,
    gather_root: Option<Vec<Vec<u64>>>,
    gather_avail: Option<Vec<Option<Vec<u64>>>>,
    allgather: Vec<Vec<u64>>,
    allgather_avail: Vec<Option<Vec<u64>>>,
    sum: u64,
    min: u64,
    max: u64,
}

fn scatter_parts(seed: u64, size: usize, len: usize) -> Vec<Vec<f64>> {
    (0..size)
        .map(|r| payload(seed ^ 0xABCD, r, (r + len) % 5))
        .collect()
}

/// The fault-free program, thread side.
fn thread_sweep(
    c: &mut ThreadedComm,
    seed: u64,
    root: usize,
    len: usize,
) -> Result<Sweep, RuntimeError> {
    let rank = c.rank();
    let size = c.size();
    c.barrier()?;
    let own = payload(seed, rank, len);
    let bcast = c.bcast(root, (rank == root).then(|| payload(seed, root, len)).as_ref())?;
    let parts = (rank == root).then(|| scatter_parts(seed, size, len));
    let scatter = c.scatterv(root, parts.as_deref())?;
    let gather_root = c.gatherv(root, &own)?;
    let gather_avail = c.gather_available(root, &own)?;
    let allgather = c.allgatherv(&own)?;
    let allgather_avail = c.allgatherv_available(&own)?;
    let x = contribution(&own, rank);
    let sum = c.allreduce(x, ReduceOp::Sum)?;
    let min = c.allreduce(x, ReduceOp::Min)?;
    let max = c.allreduce(x, ReduceOp::Max)?;
    c.barrier()?;
    Ok(Sweep {
        bcast: bits(&bcast),
        scatter: bits(&scatter),
        gather_root: gather_root.map(|g| g.iter().map(|v| bits(v)).collect()),
        gather_avail: gather_avail.map(|g| g.into_iter().map(|s| s.map(|v| bits(&v))).collect()),
        allgather: allgather.iter().map(|v| bits(v)).collect(),
        allgather_avail: allgather_avail
            .into_iter()
            .map(|s| s.map(|v| bits(&v)))
            .collect(),
        sum: sum.to_bits(),
        min: min.to_bits(),
        max: max.to_bits(),
    })
}

/// Sticky per-rank accumulator over the engine's cohort results: a
/// rank keeps the first error it hits (the engine has already halted
/// it, so later collectives skip it — the `?`-propagation mirror).
struct Acc {
    err: Vec<Option<RuntimeError>>,
}

impl Acc {
    fn new(size: usize) -> Self {
        Acc {
            err: (0..size).map(|_| None).collect(),
        }
    }
    fn put<T>(&mut self, res: RankResults<T>, mut store: impl FnMut(usize, T)) {
        for (rank, slot) in res.into_iter().enumerate() {
            match slot {
                Some(Ok(v)) => store(rank, v),
                Some(Err(e)) if self.err[rank].is_none() => self.err[rank] = Some(e),
                _ => {}
            }
        }
    }
}

/// The fault-free program, event side: same ops, same payloads, all
/// ranks driven through one [`EventSim`].
fn event_sweep(
    sim: &mut EventSim,
    seed: u64,
    root: usize,
    len: usize,
) -> Vec<Result<Sweep, RuntimeError>> {
    let size = sim.size();
    let own: Vec<Vec<f64>> = (0..size).map(|r| payload(seed, r, len)).collect();
    let mut acc = Acc::new(size);
    acc.put(sim.barrier(), |_, ()| {});
    let mut bcast = vec![Vec::new(); size];
    acc.put(sim.bcast(root, &payload(seed, root, len)), |r, v: Vec<f64>| {
        bcast[r] = v;
    });
    let mut scatter = vec![Vec::new(); size];
    acc.put(
        sim.scatterv(root, &scatter_parts(seed, size, len)),
        |r, v: Vec<f64>| scatter[r] = v,
    );
    let mut gather_root = vec![None; size];
    acc.put(sim.gatherv(root, &own), |r, v| gather_root[r] = v);
    let mut gather_avail = vec![None; size];
    acc.put(sim.gather_available(root, &own), |r, v| gather_avail[r] = v);
    let mut allgather: Vec<_> = (0..size).map(|_| Arc::new(Vec::new())).collect();
    acc.put(sim.allgatherv(&own), |r, v| allgather[r] = v);
    let mut allgather_avail: Vec<_> = (0..size).map(|_| Arc::new(Vec::new())).collect();
    acc.put(sim.allgatherv_available(&own), |r, v| allgather_avail[r] = v);
    let xs: Vec<f64> = (0..size).map(|r| contribution(&own[r], r)).collect();
    let (mut sum, mut min, mut max) = (vec![0u64; size], vec![0u64; size], vec![0u64; size]);
    acc.put(sim.allreduce(&xs, ReduceOp::Sum), |r, v| sum[r] = v.to_bits());
    acc.put(sim.allreduce(&xs, ReduceOp::Min), |r, v| min[r] = v.to_bits());
    acc.put(sim.allreduce(&xs, ReduceOp::Max), |r, v| max[r] = v.to_bits());
    acc.put(sim.barrier(), |_, ()| {});
    (0..size)
        .map(|r| match acc.err[r].take() {
            Some(e) => Err(e),
            None => Ok(Sweep {
                bcast: bits(&bcast[r]),
                scatter: bits(&scatter[r]),
                gather_root: gather_root[r]
                    .take()
                    .map(|g: Arc<Vec<Vec<f64>>>| g.iter().map(|v| bits(v)).collect()),
                gather_avail: gather_avail[r].take().map(|g: Arc<Vec<Option<Vec<f64>>>>| {
                    g.iter().map(|s| s.as_ref().map(|v| bits(v))).collect()
                }),
                allgather: allgather[r].iter().map(|v| bits(v)).collect(),
                allgather_avail: allgather_avail[r]
                    .iter()
                    .map(|s| s.as_ref().map(|v| bits(v)))
                    .collect(),
                sum: sum[r],
                min: min[r],
                max: max[r],
            }),
        })
        .collect()
}

/// Runs one scenario on both engines and asserts full parity: results
/// (or errors, by display string) per rank, virtual clocks bitwise,
/// and per-rank trace streams verbatim (each op's `comm` seconds
/// among them). Returns the kinds of `fault` event the thread run
/// traced.
fn assert_parity<T, FT, FE>(
    label: &str,
    policy: AlgorithmPolicy,
    plan: FaultPlan,
    size: usize,
    thread_prog: FT,
    event_prog: FE,
) -> BTreeSet<String>
where
    T: std::fmt::Debug + PartialEq + Send,
    FT: Fn(ThreadedComm) -> Result<T, RuntimeError> + Sync,
    FE: FnOnce(&mut EventSim) -> Vec<Result<T, RuntimeError>>,
{
    let t_sink = Arc::new(MemorySink::new());
    let (comms, handle) = RuntimeConfig::sim(size, LinkModel::ethernet())
        .with_algorithms(policy)
        .with_plan(plan.clone())
        .with_trace(t_sink.clone())
        .build_with_handle(size);
    let thread_out = run_ranks(comms, &thread_prog);
    let thread_times = handle.virtual_times().expect("sim backend has clocks");

    let e_sink = Arc::new(MemorySink::new());
    let config = RuntimeConfig::sim(size, LinkModel::ethernet())
        .with_algorithms(policy)
        .with_plan(plan)
        .with_trace(e_sink.clone())
        .with_engine(SimEngine::Event);
    let mut sim = EventSim::from_config(&config, size).expect("event engine builds");
    let event_out = event_prog(&mut sim);
    let event_times = sim.virtual_times();

    assert_eq!(thread_out.len(), event_out.len(), "{label}: rank count");
    for (rank, (t, e)) in thread_out.iter().zip(event_out.iter()).enumerate() {
        match (t, e) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{label}: rank {rank} results differ"),
            (Err(a), Err(b)) => assert_eq!(
                a.to_string(),
                b.to_string(),
                "{label}: rank {rank} errors differ"
            ),
            _ => panic!("{label}: rank {rank} outcome kind differs: thread={t:?} event={e:?}"),
        }
    }
    for (rank, (a, b)) in thread_times.iter().zip(event_times.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: rank {rank} virtual clock differs: thread={a:.9e} event={b:.9e}"
        );
    }
    let t_events = t_sink.take();
    let faults = fault_kinds(&t_events);
    assert_eq!(
        streams(t_events),
        streams(e_sink.take()),
        "{label}: per-rank trace streams differ"
    );
    faults
}

/// The tentpole pin: full collective sweeps at `p ∈ {1, 3, 4, 6, 16,
/// 64}` (non-powers-of-two included), every policy, fault-free, with
/// a non-zero root.
#[test]
fn fault_free_sweeps_are_bit_identical() {
    for &size in &[1usize, 3, 4, 6, 16, 64] {
        for (name, policy) in policies() {
            let seed = 0x5EED ^ (size as u64) << 8;
            let root = (size - 1).min(2);
            let len = 7;
            assert_parity(
                &format!("fault-free p={size} {name}"),
                policy,
                FaultPlan::default(),
                size,
                move |mut c| thread_sweep(&mut c, seed, root, len),
                move |sim| event_sweep(sim, seed, root, len),
            );
        }
    }
}

/// The death program: the victim (last rank) fail-stops at its second
/// operation, so the membership settles at the second barrier and
/// every later collective degrades around the hole identically on
/// both engines.
/// Per-rank outcome of the death program: bcast and scatter payload
/// bits, the root's available-gather view, the available all-gather
/// slots and the folded sum.
type DeathSweep = (
    Vec<u64>,
    Vec<u64>,
    Option<Vec<Option<Vec<u64>>>>,
    Vec<Option<Vec<u64>>>,
    u64,
);

fn thread_death_prog(
    mut c: ThreadedComm,
    seed: u64,
    len: usize,
) -> Result<DeathSweep, RuntimeError> {
    let rank = c.rank();
    let size = c.size();
    c.barrier()?;
    c.barrier()?;
    let own = payload(seed, rank, len);
    let bcast = c.bcast(0, (rank == 0).then(|| payload(seed, 0, len)).as_ref())?;
    let parts = (rank == 0).then(|| scatter_parts(seed, size, len));
    let scatter = c.scatterv(0, parts.as_deref())?;
    let gather_avail = c.gather_available(0, &own)?;
    let allgather_avail = c.allgatherv_available(&own)?;
    let sum = c.allreduce(contribution(&own, rank), ReduceOp::Sum)?;
    c.barrier()?;
    Ok((
        bits(&bcast),
        bits(&scatter),
        gather_avail.map(|g| g.into_iter().map(|s| s.map(|v| bits(&v))).collect()),
        allgather_avail
            .into_iter()
            .map(|s| s.map(|v| bits(&v)))
            .collect(),
        sum.to_bits(),
    ))
}

fn event_death_prog(
    sim: &mut EventSim,
    seed: u64,
    len: usize,
) -> Vec<Result<DeathSweep, RuntimeError>> {
    let size = sim.size();
    let own: Vec<Vec<f64>> = (0..size).map(|r| payload(seed, r, len)).collect();
    let mut acc = Acc::new(size);
    acc.put(sim.barrier(), |_, ()| {});
    acc.put(sim.barrier(), |_, ()| {});
    let mut bcast = vec![Vec::new(); size];
    acc.put(sim.bcast(0, &payload(seed, 0, len)), |r, v: Vec<f64>| {
        bcast[r] = v;
    });
    let mut scatter = vec![Vec::new(); size];
    acc.put(
        sim.scatterv(0, &scatter_parts(seed, size, len)),
        |r, v: Vec<f64>| scatter[r] = v,
    );
    let mut gather_avail = vec![None; size];
    acc.put(sim.gather_available(0, &own), |r, v| gather_avail[r] = v);
    let mut allgather_avail: Vec<_> = (0..size).map(|_| Arc::new(Vec::new())).collect();
    acc.put(sim.allgatherv_available(&own), |r, v| allgather_avail[r] = v);
    let xs: Vec<f64> = (0..size).map(|r| contribution(&own[r], r)).collect();
    let mut sum = vec![0u64; size];
    acc.put(sim.allreduce(&xs, ReduceOp::Sum), |r, v| sum[r] = v.to_bits());
    acc.put(sim.barrier(), |_, ()| {});
    (0..size)
        .map(|r| match acc.err[r].take() {
            Some(e) => Err(e),
            None => Ok((
                bits(&bcast[r]),
                bits(&scatter[r]),
                gather_avail[r].take().map(|g: Arc<Vec<Option<Vec<f64>>>>| {
                    g.iter().map(|s| s.as_ref().map(|v| bits(v))).collect()
                }),
                allgather_avail[r]
                    .iter()
                    .map(|s| s.as_ref().map(|v| bits(v)))
                    .collect(),
                sum[r],
            )),
        })
        .collect()
}

/// Settled death: the victim completes the first barrier and dies at
/// the second, so every collective after it runs with an agreed,
/// stable hole.
#[test]
fn settled_death_is_bit_identical() {
    for &size in &[3usize, 4, 6, 16, 64] {
        let victim = size - 1;
        let plan = FaultPlan::from_json(&format!(
            r#"{{"deadline": 20.0, "deaths": [{{"rank": {victim}, "after_ops": 1}}]}}"#
        ))
        .expect("valid plan");
        for (name, policy) in policies() {
            let seed = 0xDEAD ^ (size as u64) << 8;
            assert_parity(
                &format!("settled-death p={size} {name}"),
                policy,
                plan.clone(),
                size,
                move |c| thread_death_prog(c, seed, 5),
                move |sim| event_death_prog(sim, seed, 5),
            );
        }
    }
}

/// Mid-phase death: the victim dies at the `op_begin` of a rootless
/// collective, *before* any barrier has settled the membership — the
/// survivors must degrade edge-wise through the unsettled hole
/// identically on both engines.
#[test]
fn mid_phase_death_is_bit_identical() {
    for &size in &[3usize, 4, 6, 16, 64] {
        let victim = size - 1;
        let plan = FaultPlan::from_json(&format!(
            r#"{{"deadline": 20.0, "deaths": [{{"rank": {victim}, "after_ops": 1}}]}}"#
        ))
        .expect("valid plan");
        for (name, policy) in policies() {
            let seed = 0x31D ^ (size as u64);
            assert_parity(
                &format!("mid-phase-death p={size} {name}"),
                policy,
                plan.clone(),
                size,
                move |mut c: ThreadedComm| {
                    let rank = c.rank();
                    c.barrier()?;
                    let own = payload(seed, rank, 4);
                    let slots = c.allgatherv_available(&own)?;
                    let sum = c.allreduce(contribution(&own, rank), ReduceOp::Sum)?;
                    Ok((
                        slots
                            .into_iter()
                            .map(|s| s.map(|v| bits(&v)))
                            .collect::<Vec<_>>(),
                        sum.to_bits(),
                    ))
                },
                move |sim| {
                    let size = sim.size();
                    let own: Vec<Vec<f64>> = (0..size).map(|r| payload(seed, r, 4)).collect();
                    let mut acc = Acc::new(size);
                    acc.put(sim.barrier(), |_, ()| {});
                    let mut slots: Vec<_> = (0..size).map(|_| Arc::new(Vec::new())).collect();
                    acc.put(sim.allgatherv_available(&own), |r, v| slots[r] = v);
                    let xs: Vec<f64> =
                        (0..size).map(|r| contribution(&own[r], r)).collect();
                    let mut sum = vec![0u64; size];
                    acc.put(sim.allreduce(&xs, ReduceOp::Sum), |r, v| {
                        sum[r] = v.to_bits();
                    });
                    (0..size)
                        .map(|r| match acc.err[r].take() {
                            Some(e) => Err(e),
                            None => Ok((
                                slots[r]
                                    .iter()
                                    .map(|s| s.as_ref().map(|v| bits(v)))
                                    .collect::<Vec<_>>(),
                                sum[r],
                            )),
                        })
                        .collect()
                },
            );
        }
    }
}

// ----- a failed part: one lost edge per run ----------------------------

/// The collectives the failed-part sweep runs, one per program.
#[derive(Debug, Clone, Copy)]
enum Coll {
    Barrier,
    Bcast,
    Scatterv,
    Gatherv,
    GatherAvailable,
    Allgatherv,
    AllgathervAvailable,
    Allreduce,
}

const COLLS: [Coll; 8] = [
    Coll::Barrier,
    Coll::Bcast,
    Coll::Scatterv,
    Coll::Gatherv,
    Coll::GatherAvailable,
    Coll::Allgatherv,
    Coll::AllgathervAvailable,
    Coll::Allreduce,
];

fn slots_bits<V: AsRef<[f64]>>(slots: &[Option<V>]) -> Vec<Option<Vec<u64>>> {
    slots
        .iter()
        .map(|s| s.as_ref().map(|v| bits(v.as_ref())))
        .collect()
}

/// One collective, thread side, its result written as a string so
/// every collective compares through one type. The root's scatter
/// parts are cut to `arity` entries.
fn thread_one(
    mut c: ThreadedComm,
    coll: Coll,
    root: usize,
    arity: usize,
) -> Result<String, RuntimeError> {
    let rank = c.rank();
    let seed = 0xFA11 ^ c.size() as u64;
    let own = payload(seed, rank, 3);
    Ok(match coll {
        Coll::Barrier => c.barrier().map(|()| "()".to_owned())?,
        Coll::Bcast => {
            let value = (rank == root).then(|| payload(seed, root, 3));
            format!("{:?}", bits(&c.bcast(root, value.as_ref())?))
        }
        Coll::Scatterv => {
            let parts = (rank == root).then(|| scatter_parts(seed, c.size(), 3));
            let parts = parts.as_deref().map(|p| &p[..arity]);
            format!("{:?}", bits(&c.scatterv(root, parts)?))
        }
        Coll::Gatherv => {
            let g = c.gatherv(root, &own)?;
            format!(
                "{:?}",
                g.map(|g| g.iter().map(|v| bits(v)).collect::<Vec<_>>())
            )
        }
        Coll::GatherAvailable => {
            format!(
                "{:?}",
                c.gather_available(root, &own)?.map(|g| slots_bits(&g))
            )
        }
        Coll::Allgatherv => {
            let g = c.allgatherv(&own)?;
            format!("{:?}", g.iter().map(|v| bits(v)).collect::<Vec<_>>())
        }
        Coll::AllgathervAvailable => format!("{:?}", slots_bits(&c.allgatherv_available(&own)?)),
        Coll::Allreduce => format!(
            "{}",
            c.allreduce(contribution(&own, rank), ReduceOp::Sum)?
                .to_bits()
        ),
    })
}

/// The same collective, event side.
fn event_one(
    sim: &mut EventSim,
    coll: Coll,
    root: usize,
    arity: usize,
) -> Vec<Result<String, RuntimeError>> {
    let size = sim.size();
    let seed = 0xFA11 ^ size as u64;
    let own: Vec<Vec<f64>> = (0..size).map(|r| payload(seed, r, 3)).collect();
    fn strings<T>(
        res: RankResults<T>,
        show: impl Fn(T) -> String,
    ) -> Vec<Result<String, RuntimeError>> {
        res.into_iter()
            .map(|slot| slot.expect("every rank runs the one collective").map(&show))
            .collect()
    }
    match coll {
        Coll::Barrier => strings(sim.barrier(), |()| "()".to_owned()),
        Coll::Bcast => strings(sim.bcast(root, &payload(seed, root, 3)), |v: Vec<f64>| {
            format!("{:?}", bits(&v))
        }),
        Coll::Scatterv => {
            let parts = scatter_parts(seed, size, 3);
            strings(sim.scatterv(root, &parts[..arity]), |v: Vec<f64>| {
                format!("{:?}", bits(&v))
            })
        }
        Coll::Gatherv => strings(sim.gatherv(root, &own), |g| {
            format!(
                "{:?}",
                g.map(|g| g.iter().map(|v| bits(v)).collect::<Vec<_>>())
            )
        }),
        Coll::GatherAvailable => strings(sim.gather_available(root, &own), |g| {
            format!("{:?}", g.map(|g| slots_bits(&g)))
        }),
        Coll::Allgatherv => strings(sim.allgatherv(&own), |g| {
            format!("{:?}", g.iter().map(|v| bits(v)).collect::<Vec<_>>())
        }),
        Coll::AllgathervAvailable => strings(sim.allgatherv_available(&own), |g| {
            format!("{:?}", slots_bits(&g))
        }),
        Coll::Allreduce => {
            let xs: Vec<f64> = (0..size).map(|r| contribution(&own[r], r)).collect();
            strings(sim.allreduce(&xs, ReduceOp::Sum), |v| {
                format!("{}", v.to_bits())
            })
        }
    }
}

/// The edges a sweep at `size` loses, root 0: root → leaf, leaf →
/// root, an inner hop of the binomial tree (1 → 3), a ring neighbour
/// (1 → 2) and a butterfly partner that is also a ring neighbour
/// (2 → 3).
fn lost_edges(size: usize) -> Vec<(&'static str, usize, usize)> {
    let mut edges = vec![
        ("root->leaf", 0, 2),
        ("leaf->root", size - 1, 0),
        ("ring neighbour", 1, 2),
    ];
    if size >= 4 {
        edges.push(("inner tree hop", 1, 3));
        edges.push(("butterfly partner", 2, 3));
    }
    edges
}

/// A failed part: each run loses every message of one edge with no
/// retry, so the edge's sender fails inside the collective and leaves,
/// and every peer waiting on it takes the dead-sender path — on both
/// engines, to the same result, error, clock bit and trace event. A
/// root that supplies the wrong number of scatter parts fails the
/// same way before sending anything.
#[test]
fn a_failed_part_is_bit_identical() {
    for &size in &[3usize, 4, 6, 16] {
        for (name, policy) in policies() {
            for (edge, src, dst) in lost_edges(size) {
                let plan = FaultPlan::from_json(&format!(
                    r#"{{"deadline": 0.5, "drops": [{{"src": {src}, "dst": {dst}, "max_retries": 0}}]}}"#
                ))
                .expect("valid plan");
                for coll in COLLS {
                    assert_parity(
                        &format!("failed part p={size} {name} {coll:?} lost {edge} {src}->{dst}"),
                        policy,
                        plan.clone(),
                        size,
                        move |c| thread_one(c, coll, 0, size),
                        move |sim| event_one(sim, coll, 0, size),
                    );
                }
            }
            let plan = FaultPlan::from_json(r#"{"deadline": 0.5}"#).expect("valid plan");
            assert_parity(
                &format!("failed part p={size} {name} scatterv root short of parts"),
                policy,
                plan,
                size,
                move |c| thread_one(c, Coll::Scatterv, 0, size - 1),
                move |sim| event_one(sim, Coll::Scatterv, 0, size - 1),
            );
        }
    }
}

// ----- balancing executor parity -------------------------------------

const SPEEDS: [f64; 4] = [120.0, 40.0, 80.0, 20.0];

fn measure(rank: usize, d: u64) -> Result<Point, CoreError> {
    Ok(Point::single(d, d as f64 / SPEEDS[rank]))
}

fn make_ctx(total: u64, eps: f64, size: usize) -> DynamicContext {
    let models: Vec<Box<dyn Model>> = (0..size)
        .map(|_| Box::new(PiecewiseModel::new()) as Box<dyn Model>)
        .collect();
    DynamicContext::new(Box::new(GeometricPartitioner::default()), models, total, eps)
}

/// Runs the balancing loop on both engines under `plan` and asserts
/// the outcomes line up: same steps (bitwise observations), same
/// final sizes, same dead ranks, same per-rank error strings, same
/// virtual makespan bits, same per-rank trace streams. Returns the
/// kinds of `fault` event the thread run traced.
fn assert_balance_parity(label: &str, plan: FaultPlan, mode: OverlapMode) -> BTreeSet<String> {
    let size = 4;
    let run = |engine: SimEngine| {
        let sink = Arc::new(MemorySink::new());
        let config = RuntimeConfig::sim(size, LinkModel::ethernet())
            .with_plan(plan.clone())
            .with_trace(sink.clone())
            .with_engine(engine);
        let outcome = run_to_balance_distributed_with(
            config,
            size,
            || make_ctx(9_000, 0.04, size),
            measure,
            25,
            mode,
        )
        .expect("balancing run returns rank 0's success");
        (outcome, sink.take())
    };
    let (t, t_events) = run(SimEngine::Thread);
    let (e, e_events) = run(SimEngine::Event);
    assert_eq!(t.steps, e.steps, "{label}: steps differ");
    assert_eq!(t.final_sizes, e.final_sizes, "{label}: final sizes differ");
    assert_eq!(t.dead_ranks, e.dead_ranks, "{label}: dead ranks differ");
    let errs = |o: &fupermod_runtime::BalanceOutcome| -> Vec<Option<String>> {
        o.rank_errors
            .iter()
            .map(|e| e.as_ref().map(ToString::to_string))
            .collect()
    };
    assert_eq!(errs(&t), errs(&e), "{label}: rank errors differ");
    let (tv, ev) = (
        t.virtual_time.expect("sim backend"),
        e.virtual_time.expect("event engine"),
    );
    assert_eq!(
        tv.to_bits(),
        ev.to_bits(),
        "{label}: virtual makespan differs: thread={tv:.9e} event={ev:.9e}"
    );
    let faults = fault_kinds(&t_events);
    assert_eq!(
        streams(t_events),
        streams(e_events),
        "{label}: per-rank trace streams differ"
    );
    faults
}

#[test]
fn balance_fault_free_blocking_matches() {
    assert_balance_parity("balance blocking", FaultPlan::default(), OverlapMode::Blocking);
}

#[test]
fn balance_fault_free_overlapped_matches() {
    assert_balance_parity(
        "balance overlapped",
        FaultPlan::default(),
        OverlapMode::Overlapped,
    );
}

#[test]
fn balance_under_straggler_and_death_matches() {
    // Rank 1 computes 3x slow (straggler), rank 3 fail-stops after 9
    // operations — mid-loop, so the root must degrade around it.
    let plan = FaultPlan::from_json(
        r#"{"deadline": 20.0,
            "deaths": [{"rank": 3, "after_ops": 9}],
            "stragglers": [{"rank": 1, "comm_seconds": 0.0, "compute_factor": 3.0}]}"#,
    )
    .expect("valid plan");
    assert_balance_parity("balance faulted blocking", plan.clone(), OverlapMode::Blocking);
    assert_balance_parity("balance faulted overlapped", plan, OverlapMode::Overlapped);
}

/// The executor's documented three-rank fixture must land on the same
/// converged distribution on the event engine.
#[test]
fn balance_three_rank_fixture_converges_on_event_engine() {
    let config = RuntimeConfig::sim(3, LinkModel::ethernet()).with_engine(SimEngine::Event);
    let outcome = run_to_balance_distributed_with(
        config,
        3,
        || {
            let models: Vec<Box<dyn Model>> = (0..3)
                .map(|_| Box::new(PiecewiseModel::new()) as Box<dyn Model>)
                .collect();
            DynamicContext::new(Box::new(GeometricPartitioner::default()), models, 700, 0.05)
        },
        |rank, d| Ok(Point::single(d, d as f64 / [100.0, 25.0, 50.0][rank])),
        20,
        OverlapMode::Blocking,
    )
    .unwrap();
    assert!(outcome.converged());
    assert_eq!(outcome.final_sizes, vec![400, 100, 200]);
    assert!(outcome.rank_errors.iter().all(Option::is_none));
}

// ----- injected latency: a straggler, a retried drop, a delay ---------

/// A plan that injects time on each path that charges it: rank
/// `size - 1` straggles every operation, every second attempt on the
/// `0 → 1` edge is dropped and retried after a backoff, and every
/// message on the `1 → 0` edge is delayed. Each rule names one rank or
/// one pair, so the thread backend ticks it deterministically
/// (`docs/RUNTIME.md` §9).
fn charged_plan(size: usize) -> FaultPlan {
    FaultPlan::from_json(&format!(
        r#"{{"deadline": 20.0,
            "stragglers": [{{"rank": {}, "comm_seconds": 0.003, "compute_factor": 1.5}}],
            "drops": [{{"src": 0, "dst": 1, "every": 2, "max_retries": 2, "backoff_seconds": 0.001}}],
            "delays": [{{"src": 1, "dst": 0, "seconds": 0.002}}]}}"#,
        size - 1
    ))
    .expect("valid plan")
}

/// The fault kinds a run under [`charged_plan`] must trace: a row
/// whose rules never fire pins nothing.
const CHARGED: [&str; 4] = ["straggler", "drop", "retry", "delay"];

fn fired(label: &str, faults: &BTreeSet<String>) {
    for kind in CHARGED {
        assert!(faults.contains(kind), "{label}: no `{kind}` fault fired");
    }
}

/// Payload of the point-to-point exchange that follows the sweep.
fn p2p_payload(seed: u64, rank: usize, len: usize) -> Vec<f64> {
    payload(seed ^ 0x9292, rank, len)
}

/// The charged program, thread side: the sweep, then a nonblocking
/// exchange over both faulted edges in causal order — rank 0 posts to
/// rank 1, which answers once it holds the message, so no two
/// deliveries race — then a barrier. Each rank returns its sweep and
/// the bits the exchange delivered to it.
fn thread_charged(
    mut c: ThreadedComm,
    seed: u64,
    root: usize,
    len: usize,
) -> Result<(Sweep, Vec<u64>), RuntimeError> {
    let sweep = thread_sweep(&mut c, seed, root, len)?;
    let own = p2p_payload(seed, c.rank(), len);
    let got = match c.rank() {
        0 => {
            let sent = c.isend(1, &own)?;
            let got: Vec<f64> = c.irecv(1)?.wait()?;
            sent.wait()?;
            bits(&got)
        }
        1 => {
            let got: Vec<f64> = c.irecv(0)?.wait()?;
            c.isend(0, &own)?.wait()?;
            bits(&got)
        }
        _ => Vec::new(),
    };
    c.barrier()?;
    Ok((sweep, got))
}

/// The charged program, event side: each rank's operations in the
/// thread side's order.
fn event_charged(
    sim: &mut EventSim,
    seed: u64,
    root: usize,
    len: usize,
) -> Vec<Result<(Sweep, Vec<u64>), RuntimeError>> {
    let size = sim.size();
    let sweeps = event_sweep(sim, seed, root, len);
    let mut got = vec![Vec::new(); size];
    let mut exchange = || -> Result<(), RuntimeError> {
        let sent0 = sim.isend(0, 1, &p2p_payload(seed, 0, len))?;
        let recv0 = sim.irecv_post(0, 1)?;
        let recv1 = sim.irecv_post(1, 0)?;
        got[1] = bits(&sim.irecv_wait::<Vec<f64>>(recv1)?);
        let sent1 = sim.isend(1, 0, &p2p_payload(seed, 1, len))?;
        sim.isend_wait(sent1);
        got[0] = bits(&sim.irecv_wait::<Vec<f64>>(recv0)?);
        sim.isend_wait(sent0);
        Ok(())
    };
    exchange().expect("the plan's retries and delays never fail a send");
    let mut acc = Acc::new(size);
    acc.put(sim.barrier(), |_, ()| {});
    sweeps
        .into_iter()
        .zip(got)
        .enumerate()
        .map(|(r, (sweep, got))| match acc.err[r].take() {
            Some(e) => Err(e),
            None => Ok((sweep?, got)),
        })
        .collect()
}

/// Injected latency lands on the same clocks: under [`charged_plan`]
/// the straggler's seconds, each retry's backoff and each delivery
/// delay are charged alike on both engines — results, clocks and
/// per-rank trace streams bit for bit.
#[test]
fn injected_latency_is_bit_identical() {
    for &size in &[3usize, 4, 16] {
        for (name, policy) in policies() {
            let label = format!("charged p={size} {name}");
            let seed = 0xC4A2 ^ (size as u64) << 8;
            let root = (size - 1).min(2);
            let faults = assert_parity(
                &label,
                policy,
                charged_plan(size),
                size,
                move |c| thread_charged(c, seed, root, 7),
                move |sim| event_charged(sim, seed, root, 7),
            );
            fired(&label, &faults);
        }
    }
}

/// The balancing loop under [`charged_plan`], blocking and overlapped.
#[test]
fn balance_under_injected_latency_matches() {
    for (label, mode) in [
        ("balance charged blocking", OverlapMode::Blocking),
        ("balance charged overlapped", OverlapMode::Overlapped),
    ] {
        let faults = assert_balance_parity(label, charged_plan(4), mode);
        fired(label, &faults);
    }
}

// ----- blocking point-to-point: one charge rule ----------------------

/// The blocking point-to-point program, thread side: a ring — each
/// rank sends to its successor, then receives from its predecessor —
/// then a ping-pong on the `0 → 1` and `1 → 0` edges in causal order,
/// then a barrier. Each rank returns the bits it received.
fn thread_blocking(mut c: ThreadedComm, seed: u64, len: usize) -> Result<Vec<u64>, RuntimeError> {
    let (rank, size) = (c.rank(), c.size());
    let own = p2p_payload(seed, rank, len);
    c.send((rank + 1) % size, &own)?;
    let mut got: Vec<f64> = c.recv((rank + size - 1) % size)?;
    match rank {
        0 => {
            c.send(1, &own)?;
            got.extend(c.recv::<Vec<f64>>(1)?);
        }
        1 => {
            let back: Vec<f64> = c.recv(0)?;
            c.send(0, &back)?;
            got.extend(back);
        }
        _ => {}
    }
    c.barrier()?;
    Ok(bits(&got))
}

/// The blocking point-to-point program, event side: each rank's
/// operations in the thread side's order, every receive after its send.
fn event_blocking(
    sim: &mut EventSim,
    seed: u64,
    len: usize,
) -> Vec<Result<Vec<u64>, RuntimeError>> {
    let size = sim.size();
    let mut got = vec![Vec::new(); size];
    let mut exchange = || -> Result<(), RuntimeError> {
        for r in 0..size {
            sim.send(r, (r + 1) % size, &p2p_payload(seed, r, len))?;
        }
        for (r, got) in got.iter_mut().enumerate() {
            *got = sim.recv::<Vec<f64>>(r, (r + size - 1) % size)?;
        }
        sim.send(0, 1, &p2p_payload(seed, 0, len))?;
        let back: Vec<f64> = sim.recv(1, 0)?;
        sim.send(1, 0, &back)?;
        got[1].extend_from_slice(&back);
        got[0].extend(sim.recv::<Vec<f64>>(0, 1)?);
        Ok(())
    };
    exchange().expect("the plan's retries and delays never fail a send");
    let mut acc = Acc::new(size);
    acc.put(sim.barrier(), |_, ()| {});
    got.iter()
        .enumerate()
        .map(|(r, got)| match acc.err[r].take() {
            Some(e) => Err(e),
            None => Ok(bits(got)),
        })
        .collect()
}

/// Blocking `send`/`recv` is bit-identical on both engines, fault-free
/// and under [`charged_plan`]: a blocking send charges its sender at
/// its own send, as `isend` does, so its `comm` event no longer
/// depends on when the receiver takes the message.
#[test]
fn blocking_point_to_point_is_bit_identical() {
    for &size in &[2usize, 3, 4, 16] {
        let seed = 0xB10C ^ (size as u64) << 8;
        for (kind, plan) in [
            ("fault-free", FaultPlan::none()),
            ("charged", charged_plan(size)),
        ] {
            let label = format!("blocking p2p {kind} p={size}");
            let faults = assert_parity(
                &label,
                AlgorithmPolicy::auto(),
                plan,
                size,
                move |c| thread_blocking(c, seed, 9),
                move |sim| event_blocking(sim, seed, 9),
            );
            if kind == "charged" {
                fired(&label, &faults);
            }
        }
    }
}

/// One digest per trace stream of [`streams`].
fn stream_digests(events: Vec<TraceEvent>) -> BTreeMap<Option<usize>, u64> {
    streams(events)
        .into_iter()
        .map(|(rank, lines)| {
            let mut h = DefaultHasher::new();
            lines.hash(&mut h);
            (rank, h.finish())
        })
        .collect()
}

/// Runs `prog` once on the thread-backed sim at `size` ranks: the
/// final clocks as bits and the digest of each rank's trace stream.
fn thread_digests<F>(size: usize, prog: F) -> (Vec<u64>, BTreeMap<Option<usize>, u64>)
where
    F: Fn(ThreadedComm) -> Result<(), RuntimeError> + Sync,
{
    let sink = Arc::new(MemorySink::new());
    let (comms, handle) = RuntimeConfig::sim(size, LinkModel::ethernet())
        .with_trace(sink.clone())
        .build_with_handle(size);
    for (rank, out) in run_ranks(comms, prog).into_iter().enumerate() {
        out.unwrap_or_else(|e| panic!("rank {rank} failed: {e}"));
    }
    let clocks = handle.virtual_times().expect("sim backend has clocks");
    (bits(&clocks), stream_digests(sink.take()))
}

/// The charge order of a blocking send does not depend on which
/// receiver takes its message first: rank 0 sends 100 doubles to rank
/// 1, then to rank 2, and one of the two receivers is late by a wall
/// sleep. Both orders end with one clock vector and one stream per rank.
#[test]
fn blocking_send_charges_are_independent_of_receive_order() {
    let run = |late: usize| {
        thread_digests(3, move |mut c| {
            let rank = c.rank();
            if rank == 0 {
                let msg = vec![0.25f64; 100];
                c.send(1, &msg)?;
                return c.send(2, &msg);
            }
            if rank == late {
                std::thread::sleep(Duration::from_millis(20));
            }
            c.recv::<Vec<f64>>(0).map(drop)
        })
    };
    let (clocks1, streams1) = run(1);
    let (clocks2, streams2) = run(2);
    assert_eq!(clocks1, clocks2, "final clocks depend on the receive order");
    assert_eq!(
        streams1, streams2,
        "trace streams depend on the receive order"
    );
}

/// A 2-rank blocking exchange, run 200 times on the thread-backed
/// sim, gives one set of stream digests.
#[test]
fn blocking_exchange_streams_are_reproducible() {
    let mut seen = BTreeSet::new();
    for _ in 0..200 {
        seen.insert(thread_digests(2, |mut c| {
            if c.rank() == 0 {
                c.send(1, &[1.5f64; 8].to_vec())?;
                c.recv::<Vec<f64>>(1).map(drop)
            } else {
                let got: Vec<f64> = c.recv(0)?;
                c.send(0, &got)
            }
        }));
    }
    assert_eq!(seen.len(), 1, "{} distinct runs of one program", seen.len());
}

// ----- satellite: Hockney closed form + survivor agreement at p=1024 --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For a random point-to-point hop plan, the event engine's
    /// virtual clocks equal the closed-form Hockney recurrence
    /// evaluated with the exact same float operations: per hop
    /// `(src, dst, n)`, `ready = clock[src] + α + m/β` with
    /// `m = 8 + n` (the wire length prefix), the sender pays `α`,
    /// and the receiver advances to `max(clock[dst], ready)`.
    #[test]
    fn hockney_hop_chain_matches_closed_form(
        hops in collection::vec((0usize..8, 0usize..8, 0usize..2048), 1..24),
    ) {
        let size = 8;
        let link = LinkModel::ethernet();
        let config = RuntimeConfig::sim(size, link)
            .with_engine(SimEngine::Event);
        let mut sim = EventSim::from_config(&config, size).expect("event engine builds");
        let mut clock = vec![0.0f64; size];
        for &(src, dst, n) in &hops {
            prop_assume!(src != dst);
            let msg = vec![0u8; n];
            sim.send(src, dst, &msg).expect("send on live ranks");
            let got: Vec<u8> = sim.recv(dst, src).expect("recv on live ranks");
            prop_assert_eq!(got.len(), n);
            // Closed form, in the engine's own charge order: the
            // sender half runs at its send, the receiver half when it
            // takes the message.
            let m = (8 + n) as f64;
            let ready = clock[src] + link.cost(m);
            clock[src] += link.latency_sec;
            clock[dst] = clock[dst].max(ready);
        }
        let got = sim.virtual_times();
        for (rank, (a, b)) in clock.iter().zip(got.iter()).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "rank {} clock: closed-form {:.9e} vs engine {:.9e}", rank, a, b
            );
        }
    }
}

/// Survivor agreement at scale: under fail-stop death of one rank in
/// a 1024-rank event run, every survivor sees the same availability
/// vector (victim `None`, all live slots present) and the same
/// bitwise reduction over the surviving contributions, in rank order.
#[test]
fn survivors_agree_under_death_at_p1024() {
    let size = 1024usize;
    let victim = 777usize;
    let plan = FaultPlan::from_json(&format!(
        r#"{{"deadline": 20.0, "deaths": [{{"rank": {victim}, "after_ops": 1}}]}}"#
    ))
    .expect("valid plan");
    let config = RuntimeConfig::sim(size, LinkModel::ethernet())
        .with_plan(plan)
        .with_engine(SimEngine::Event);
    let mut sim = EventSim::from_config(&config, size).expect("event engine builds");

    let own: Vec<Vec<f64>> = (0..size).map(|r| payload(424_242, r, 2)).collect();
    let mut acc = Acc::new(size);
    acc.put(sim.barrier(), |_, ()| {});
    acc.put(sim.barrier(), |_, ()| {});
    let mut slots: Vec<_> = (0..size).map(|_| Arc::new(Vec::new())).collect();
    acc.put(sim.allgatherv_available(&own), |r, v| slots[r] = v);
    let xs: Vec<f64> = (0..size).map(|r| contribution(&own[r], r)).collect();
    let mut sums = vec![None; size];
    acc.put(sim.allreduce(&xs, ReduceOp::Sum), |r, v| {
        sums[r] = Some(v.to_bits());
    });

    let expected: f64 = (0..size)
        .filter(|&r| r != victim)
        .map(|r| xs[r])
        .fold(0.0, |acc, x| acc + x);
    let reference: Vec<Option<Vec<u64>>> = (0..size)
        .map(|r| (r != victim).then(|| bits(&own[r])))
        .collect();
    for rank in 0..size {
        if rank == victim {
            assert!(acc.err[rank].is_some(), "victim must report its death");
            continue;
        }
        assert!(
            acc.err[rank].is_none(),
            "survivor {rank} failed: {:?}",
            acc.err[rank]
        );
        let view: Vec<Option<Vec<u64>>> = slots[rank]
            .iter()
            .map(|s| s.as_ref().map(|v| bits(v)))
            .collect();
        assert_eq!(view, reference, "survivor {rank} availability disagrees");
        assert_eq!(
            sums[rank],
            Some(expected.to_bits()),
            "survivor {rank} reduction disagrees"
        );
    }
    assert_eq!(sim.dead_ranks(), vec![victim]);
}
