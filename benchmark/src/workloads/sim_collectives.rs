//! `sim_collectives` — the discrete-event engine on its own: 8 ring
//! and 2 tree collective rounds (`allgatherv` of a `u64` + `allreduce`)
//! at p = 100 000, the collective skeleton of a balancing run at
//! cluster scale. `core` is bypassed; this is also the memory workload.

use std::time::Instant;

use fupermod_platform::comm::LinkModel;
use fupermod_runtime::{AlgorithmPolicy, EventSim, ReduceOp, RuntimeConfig, SimEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{Checks, Fnv, PassOutput, ProbeCtx, Workload};
use crate::stats::median;
use crate::tracer::{Scope, Tracer};

const P: usize = 100_000;
const P_SMALL: usize = 10_000;
const RING_ROUNDS: usize = 8;
const TREE_ROUNDS: usize = 2;

pub struct SimCollectives {
    contribs: Vec<u64>,
    times: Vec<f64>,
    /// Median ring round at p = 10 000, from set-up (scale base).
    small_ring_round_s: f64,
}

/// Host seconds of each phase of one engine's run.
struct EngineRun {
    build_s: f64,
    round_s: Vec<f64>,
    events: u64,
    max_time: f64,
}

/// Builds one engine over `p` ranks and runs `rounds` collective
/// rounds on it, checking every rank's results.
fn run_engine(
    p: usize,
    policy: AlgorithmPolicy,
    rounds: usize,
    contribs: &[u64],
    times: &[f64],
    scope: &mut Scope<'_>,
    checks: &mut Checks,
) -> EngineRun {
    let config = RuntimeConfig::sim(p, LinkModel::ethernet())
        .with_engine(SimEngine::Event)
        .with_algorithms(policy);
    let t0 = Instant::now();
    let mut sim = scope
        .span("runtime.sim", |_| EventSim::from_config(&config, p))
        .expect("event engine over a sim topology");
    let build_s = t0.elapsed().as_secs_f64();
    // Every schedule folds in rank-ascending order, so this is the
    // sum each rank must report, to the bit.
    let want_sum = times.iter().fold(0.0f64, |a, &t| a + t);
    let mut round_s = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        let (gathered, reduced) = scope.span("runtime.sim", |_| {
            (
                sim.allgatherv(contribs),
                sim.allreduce(times, ReduceOp::Sum),
            )
        });
        round_s.push(t0.elapsed().as_secs_f64());
        scope.span("bench.check", |_| {
            // Full comparison on the first and last rank, length on the
            // rest: p full comparisons would be p^2 work.
            let full = |r: &Option<Result<std::sync::Arc<Vec<u64>>, _>>| {
                matches!(r, Some(Ok(v)) if v.as_slice() == contribs)
            };
            let gathered_ok = gathered.len() == p
                && gathered.first().is_some_and(full)
                && gathered.last().is_some_and(full)
                && gathered.iter().all(|r| matches!(r, Some(Ok(v)) if v.len() == p));
            checks.op(gathered_ok, || format!("allgatherv at p={p} lost a contribution"));
            let reduced_ok = reduced.len() == p
                && reduced
                    .iter()
                    .all(|r| matches!(r, Some(Ok(s)) if s.to_bits() == want_sum.to_bits()));
            checks.op(reduced_ok, || format!("allreduce at p={p} disagrees with the serial sum"));
        });
    }
    EngineRun {
        build_s,
        round_s,
        events: sim.events(),
        max_time: sim.max_time(),
    }
}

impl SimCollectives {
    pub fn setup(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51_c011);
        let contribs: Vec<u64> = (0..P).map(|_| rng.gen_range(1u64..1_000_000)).collect();
        let times: Vec<f64> = (0..P).map(|_| rng.gen_range(1.0..2.0)).collect();
        // The same program a decade smaller: warms the allocator and
        // gives the scaling base.
        let off = Tracer::new(false);
        let mut checks = Checks::default();
        let small = run_engine(
            P_SMALL,
            AlgorithmPolicy::ring(),
            RING_ROUNDS,
            &contribs[..P_SMALL],
            &times[..P_SMALL],
            &mut off.scope(0, 0, None),
            &mut checks,
        );
        run_engine(
            P_SMALL,
            AlgorithmPolicy::tree(),
            TREE_ROUNDS,
            &contribs[..P_SMALL],
            &times[..P_SMALL],
            &mut off.scope(0, 0, None),
            &mut checks,
        );
        assert_eq!(
            checks.failed, 0,
            "p=10000 set-up run failed: {:?}",
            checks.notes
        );
        Self {
            contribs,
            times,
            small_ring_round_s: median(&small.round_s),
        }
    }
}

impl Workload for SimCollectives {
    fn pass(&mut self, scope: &mut Scope<'_>) -> PassOutput {
        let mut out = PassOutput::default();
        let ring = run_engine(
            P,
            AlgorithmPolicy::ring(),
            RING_ROUNDS,
            &self.contribs,
            &self.times,
            scope,
            &mut out.checks,
        );
        let tree = run_engine(
            P,
            AlgorithmPolicy::tree(),
            TREE_ROUNDS,
            &self.contribs,
            &self.times,
            scope,
            &mut out.checks,
        );
        out.op_us = ring
            .round_s
            .iter()
            .chain(&tree.round_s)
            .map(|s| s * 1e6)
            .collect();
        let events = ring.events + tree.events;
        let rounds_s: f64 = ring.round_s.iter().chain(&tree.round_s).sum();
        out.virtual_s = ring.max_time + tree.max_time;
        let mut fp = Fnv::default();
        fp.word(ring.events);
        fp.word(tree.events);
        fp.f64(ring.max_time);
        fp.f64(tree.max_time);
        out.fingerprint = fp.0;
        out.exact.push(("ring_events", ring.events));
        out.exact.push(("tree_events", tree.events));

        let ring_round = median(&ring.round_s);
        out.layer.push(("runtime.sim.events", events as f64));
        out.layer
            .push(("runtime.sim.events_per_s", events as f64 / rounds_s));
        out.layer
            .push(("runtime.sim.ns_per_event", rounds_s * 1e9 / events as f64));
        out.layer
            .push(("runtime.sim.ring_round_ms", ring_round * 1e3));
        out.layer
            .push(("runtime.sim.tree_round_ms", median(&tree.round_s) * 1e3));
        out.layer
            .push(("runtime.sim.engine_build_ms", ring.build_s * 1e3));
        out.layer.push((
            "runtime.sim.scale_exponent",
            (ring_round / self.small_ring_round_s).log10(),
        ));
        out
    }

    /// Everything this workload reports is achieved in the pass; the
    /// engine is the only layer and needs no nested pricing.
    fn probes(&mut self, _: &mut ProbeCtx) {}
}
