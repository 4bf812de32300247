//! `sim_balance` — the paper's dynamic partitioning at scale: the
//! distributed balancing loop on the discrete-event engine, 2000
//! two-speed devices, partial piecewise models refined step by step.
//! One pass is one whole run to balance.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fupermod_apps::matmul::measure_device_point;
use fupermod_core::dynamic::DynamicContext;
use fupermod_core::model::{Model, PiecewiseModel};
use fupermod_core::partition::{Distribution, GeometricPartitioner, Partitioner};
use fupermod_core::{CoreError, Precision};
use fupermod_num::apportion::largest_remainder;
use fupermod_platform::comm::LinkModel;
use fupermod_platform::{Platform, WorkloadProfile};
use fupermod_runtime::{
    run_to_balance_distributed_with, AlgorithmPolicy, OverlapMode, RuntimeConfig, SimEngine,
};

use super::{seconds_per_call, Fnv, PassOutput, ProbeCtx, Workload, PROBE_BUDGET};
use crate::probes;
use crate::tracer::Scope;

const P: usize = 2000;
const TOTAL: u64 = 100 * P as u64;
/// The loop runs a fixed number of steps — the 8 that seed 1 needs to
/// balance within 0.05 — so every seed does the same amount of work
/// (to convergence, seeds differ by 8–11 steps). The tolerance that
/// would stop it earlier is therefore set out of reach, and the pass
/// checks the balance it reached against `BALANCED`.
const STEPS: usize = 8;
const EPS: f64 = 1e-12;
const BALANCED: f64 = 0.1;

/// Host nanoseconds spent inside the wrapped calls of one run.
#[derive(Debug, Default)]
struct Timers {
    measure_ns: AtomicU64,
    partition_ns: AtomicU64,
}

/// Delegates to the geometric partitioner, timing every call: the
/// partitioner lives inside the `DynamicContext`, out of reach of a
/// span.
struct TimedPartitioner {
    inner: GeometricPartitioner,
    timers: Arc<Timers>,
}

impl Partitioner for TimedPartitioner {
    fn partition(&self, total: u64, models: &[&dyn Model]) -> Result<Distribution, CoreError> {
        let t0 = Instant::now();
        let out = self.inner.partition(total, models);
        self.timers
            .partition_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

pub struct SimBalance {
    platform: Platform,
    profile: WorkloadProfile,
    precision: Precision,
}

fn fresh_context(partitioner: Box<dyn Partitioner>) -> DynamicContext {
    let models: Vec<Box<dyn Model>> = (0..P)
        .map(|_| Box::new(PiecewiseModel::new()) as Box<dyn Model>)
        .collect();
    DynamicContext::new(partitioner, models, TOTAL, EPS)
}

impl SimBalance {
    pub fn setup(seed: u64) -> Self {
        Self {
            platform: Platform::two_speed(P / 2, P / 2, seed),
            profile: WorkloadProfile::matrix_update(16),
            precision: Precision::quick(),
        }
    }
}

impl Workload for SimBalance {
    fn pass(&mut self, scope: &mut Scope<'_>) -> PassOutput {
        let mut out = PassOutput::default();
        let timers = Arc::new(Timers::default());
        let config = RuntimeConfig::sim(P, LinkModel::ethernet())
            .with_engine(SimEngine::Event)
            .with_algorithms(AlgorithmPolicy::ring());
        let measure = |rank: usize, d: u64| {
            let t0 = Instant::now();
            let point =
                measure_device_point(&self.platform, rank, &self.profile, d, &self.precision);
            timers
                .measure_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            point
        };
        let make_ctx = || {
            fresh_context(Box::new(TimedPartitioner {
                inner: GeometricPartitioner::default(),
                timers: Arc::clone(&timers),
            }))
        };
        let t0 = Instant::now();
        let outcome = scope.span("runtime.sim", |_| {
            run_to_balance_distributed_with(
                config,
                P,
                make_ctx,
                measure,
                STEPS,
                OverlapMode::Blocking,
            )
        });
        let wall = t0.elapsed().as_secs_f64();
        out.op_us.push(wall * 1e6);
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                out.checks.op(false, || format!("balance run failed: {e}"));
                return out;
            }
        };
        let assigned: u64 = outcome.final_sizes.iter().sum();
        out.checks
            .op(assigned == TOTAL && outcome.final_sizes.len() == P, || {
                format!("final sizes sum to {assigned}, not {TOTAL}")
            });
        let imbalance = outcome.steps.last().map_or(1.0, |s| s.imbalance);
        out.checks.op(
            imbalance <= BALANCED && outcome.dead_ranks.is_empty(),
            || format!("imbalance {imbalance} after {} steps", outcome.steps.len()),
        );
        let mut fp = Fnv::default();
        outcome.final_sizes.iter().for_each(|&d| fp.word(d));
        out.fingerprint = fp.0;
        out.virtual_s = outcome.virtual_time.unwrap_or(0.0);
        out.exact.push(("steps", outcome.steps.len() as u64));

        let measure_s = timers.measure_ns.load(Ordering::Relaxed) as f64 * 1e-9;
        let partition_s = timers.partition_ns.load(Ordering::Relaxed) as f64 * 1e-9;
        out.layer
            .push(("core.dynamic.steps_to_converge", outcome.steps.len() as f64));
        out.layer
            .push(("runtime.sim.balance_self_s", wall - measure_s - partition_s));
        out.layer.push(("sim_balance.measure_s", measure_s));
        out.layer.push(("sim_balance.partition_s", partition_s));
        out
    }

    fn probes(&mut self, ctx: &mut ProbeCtx) {
        let passes = ctx.passes as f64;
        // Measured by the wrappers, inside the one `runtime.sim` span.
        let (measure_s, partition_s) = (
            ctx.get("sim_balance.measure_s"),
            ctx.get("sim_balance.partition_s"),
        );
        ctx.attribution
            .reassign_computed("runtime.sim", "core.benchmark", measure_s * passes);
        ctx.attribution
            .reassign_computed("runtime.sim", "core.partition", partition_s * passes);

        let device = self.platform.device(0).clone();
        let quick = seconds_per_call(PROBE_BUDGET, || {
            std::hint::black_box(measure_device_point(
                &self.platform,
                0,
                &self.profile,
                100,
                &self.precision,
            ))
            .expect("device measurement");
        });
        ctx.set("core.benchmark.measure_quick_us", quick * 1e6);
        probes::measured_time(ctx, &device, &self.profile, 100);
        probes::incremental_push(ctx);

        // The serial loop over the same platform: its first steps price
        // one dynamic step, and leave 2000 partial models to probe.
        let mut serial = fresh_context(Box::new(GeometricPartitioner::default()));
        let measure = |rank: usize, d: u64| {
            measure_device_point(&self.platform, rank, &self.profile, d, &self.precision)
        };
        let mut step_ms = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            serial
                .partition_iterate(measure)
                .expect("serial dynamic step");
            step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        ctx.set("core.dynamic.step_ms", crate::stats::median(&step_ms));
        let models: Vec<&dyn Model> = serial.models().iter().map(|m| m.as_ref()).collect();
        let geometric = seconds_per_call(4 * PROBE_BUDGET, || {
            std::hint::black_box(GeometricPartitioner::default().partition(TOTAL, &models))
                .expect("geometric partition over partial models");
        });
        ctx.set("core.partition.geometric_p2000_ms", geometric * 1e3);
        probes::piecewise_update(ctx, models[0].points());

        let weights: Vec<f64> = (0..P).map(|i| 1.0 + (i % 7) as f64).collect();
        let apportion = seconds_per_call(PROBE_BUDGET, || {
            std::hint::black_box(largest_remainder(std::hint::black_box(&weights), TOTAL))
                .expect("apportionment");
        });
        ctx.set("num.apportion.round_us", apportion * 1e6);
    }
}
